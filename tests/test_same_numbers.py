"""tools/same_numbers.py, the bitwise gate between two checkouts: a seeded
grid written twice compares equal, one changed entry is reported,
entries that differ only in an error message, only in the reason or
only in the path are counted apart, the largest relative value change
is printed, and changed pool entries are sorted against their pool
ref."""

import ast
import importlib.util
import json
import math
import os
import re
from collections import Counter

import besselquad as bq

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "same_numbers.py")


def _tool():
    spec = importlib.util.spec_from_file_location("same_numbers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path, entries):
    with open(path, "w") as fh:
        json.dump({"entries": entries}, fh)


def test_compare_exit_status(tmp_path, capsys):
    tool = _tool()
    first = dict(tool.grid_entries(bq, 200, 16))
    second = dict(tool.grid_entries(bq, 200, 16))
    assert len(first) == 200
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _write(a, first)
    _write(b, second)
    assert tool.main(["--compare", str(a), str(b)]) == 0
    assert "0 of 200 entries differ" in capsys.readouterr().out

    key = sorted(second)[0]
    second[key] = {"error": "DomainError", "message": "changed"}
    _write(b, second)
    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert key in out
    assert "1 of 200 entries differ" in out


def test_compare_counts_message_only_differences(tmp_path, capsys):
    tool = _tool()
    first = {
        "value": {"value": "0x1.0p+0", "path": "recursion"},
        "error": {"error": "QuadratureRecommendedError", "message": "X_-3/Y_-3 at x=0.05"},
        "table": ["0x1.0p+0", {"error": "DomainError", "message": "n = 4"}],
        "type": {"error": "DomainError", "message": "same"},
    }
    second = {
        "value": {"value": "0x1.8p+0", "path": "recursion"},
        "error": {"error": "QuadratureRecommendedError", "message": "X_-5/Y_-5 at x=0.05"},
        "table": ["0x1.0p+0", {"error": "DomainError", "message": "n = 6"}],
        "type": {"error": "NearDegenerateError", "message": "same"},
    }
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _write(a, first)
    _write(b, second)
    # message-only differences still fail the comparison
    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert ("4 of 4 entries differ: 2 only in an error message, 0 only in the reason, "
            "0 only in the path, 2 otherwise") in out

    _write(b, {**first, "error": second["error"]})
    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert ("1 of 4 entries differ: 1 only in an error message, 0 only in the reason, "
            "0 only in the path, 0 otherwise") in out


def _record(value="0x1.0p+0", reason="interval entirely above the first-zero threshold 10",
            evaluations=0, segments=(("recursion", "0x1.4p+3", "0x1.9p+5"),)):
    """A hand-built result entry as the tool writes one."""
    return {
        "value": value, "error_estimate": "0x0.0p+0", "evaluations": evaluations,
        "converged": True, "reason": reason,
        "segments": [list(s) for s in segments],
    }


def test_compare_counts_reason_only_differences(tmp_path, capsys):
    tool = _tool()
    first = {"same": _record(), "reason": _record(), "value": _record(), "both": _record()}
    second = {
        "same": _record(),
        "reason": _record(reason="recursion strategy requested"),
        "value": _record(value="0x1.0000000000001p+0"),
        "both": _record(value="0x1.8p+0", reason="recursion strategy requested"),
    }
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _write(a, first)
    _write(b, second)
    # a reworded reason still fails the comparison, but is not counted
    # with the entries whose numbers changed
    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert ("3 of 4 entries differ: 0 only in an error message, 1 only in the reason, "
            "0 only in the path, 2 otherwise") in out

    _write(b, {**first, "reason": second["reason"]})
    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert ("1 of 4 entries differ: 0 only in an error message, 1 only in the reason, "
            "0 only in the path, 0 otherwise") in out
    assert "values moved" not in out

    # a segment or an evaluation count that changes is not a rewording
    _write(b, {**first, "reason": _record(reason="other", evaluations=15)})
    assert tool.main(["--compare", str(a), str(b)]) == 1
    assert "0 only in the reason, 0 only in the path, 1 otherwise" in capsys.readouterr().out


def test_compare_counts_path_only_differences(tmp_path, capsys):
    # an antiderivative whose route changed and whose value did not is
    # counted apart; one whose value moved too is not
    tool = _tool()
    first = {
        "path": {"value": (3.0).hex(), "path": "recursion"},
        "value": {"value": (3.0).hex(), "path": "recursion"},
        "same": {"value": (3.0).hex(), "path": "recursion"},
    }
    second = {
        "path": {"value": (3.0).hex(), "path": "recursion+closed"},
        "value": {"value": (3.5).hex(), "path": "recursion+closed"},
        "same": {"value": (3.0).hex(), "path": "recursion"},
    }
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _write(a, first)
    _write(b, second)
    # a path-only difference still fails the comparison
    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert ("2 of 3 entries differ: 0 only in an error message, 0 only in the reason, "
            "1 only in the path, 1 otherwise") in out
    assert "1 values moved, the largest by 0.167 relative to the first: value" in out

    _write(b, {**first, "path": second["path"]})
    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert ("1 of 3 entries differ: 0 only in an error message, 0 only in the reason, "
            "1 only in the path, 0 otherwise") in out
    assert "values moved" not in out


def test_compare_prints_the_largest_value_change(tmp_path, capsys):
    tool = _tool()
    first = {
        "small": _record(value=(1.0).hex()),
        "large": _record(value=(-4.0).hex()),
        "table": [(2.0).hex(), {"error": "DomainError", "message": "n"}, (8.0).hex()],
        "antiderivative": {"value": (3.0).hex(), "path": "recursion"},
        "error": {"error": "DomainError", "message": "x"},
    }
    second = {
        "small": _record(value=(1.0 + 2**-40).hex()),
        "large": _record(value=(-4.5).hex()),
        "table": [(2.0).hex(), (1.0).hex(), (8.5).hex()],
        "antiderivative": {"value": (3.0).hex(), "path": "closed:K2"},
        "error": _record(),
    }
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _write(a, first)
    _write(b, second)
    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    # small, large and the table's last value moved; a path change, an
    # error that became a value and a table error that did are no move
    assert "3 values moved, the largest by 0.125 relative to the first: large" in out

    # a value that leaves 0 moves infinitely far relative to it
    _write(a, {"zero": _record(value=(0.0).hex())})
    _write(b, {"zero": _record(value=(1e-300).hex())})
    assert tool.main(["--compare", str(a), str(b)]) == 1
    assert "1 values moved, the largest by inf relative to the first: zero" in (
        capsys.readouterr().out
    )


def test_compare_sorts_pool_entries_against_their_ref(tmp_path, capsys):
    # changed pool entries are sorted by their distance from the pool's
    # ref, in units of its check bound; the farthest that moved away are
    # listed, and the exit status still counts every difference
    tool = _tool()
    items = list(tool.pool_items())[:6]
    keys = [key for key, _, _ in items]

    def at(i, bounds):
        """A result entry at ``bounds`` check bounds above item i's ref."""
        _, item, pool = items[i]
        tol = pool["check_tol"]
        bound = pool["check_c"] * max(tol, tol * abs(item["ref"]))
        return _record(value=(item["ref"] + bounds * bound).hex())

    first = {
        keys[0]: at(0, 3.0), keys[1]: at(1, 0.5), keys[2]: at(2, 0.2), keys[3]: at(3, 0.5),
        keys[4]: at(4, 0.5), keys[5]: {"error": "DomainError", "message": "x"},
        "grid/0": _record(),
    }
    second = {
        keys[0]: at(0, 0.5),  # closer: into the bound
        keys[1]: at(1, 7.0),  # farther: out of the bound
        keys[2]: at(2, 0.9),  # moved, but within the bound on both sides
        keys[3]: at(3, 2.0),  # farther
        keys[4]: at(4, 0.5),  # unchanged
        keys[5]: at(5, 0.0),  # an error became a value
        "grid/0": _record(value=(2.0).hex()),  # not a pool entry
    }
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _write(a, first)
    _write(b, second)
    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert ("changed pool entries against their ref: 1 closer, 2 farther, 1 within the check "
            "bound on both sides, 1 otherwise") in out
    farther = [line for line in out.splitlines() if line.startswith("  farther: ")]
    assert len(farther) == 2
    assert farther[0].startswith(f"  farther: {keys[1]}: 0.5 -> 7 check bounds")
    assert farther[1].startswith(f"  farther: {keys[3]}: 0.5 -> 2 check bounds")

    sorted_ = tool.against_refs(first, second, [keys[1], keys[4]])
    assert [k for k, _, _ in sorted_["farther"]] == [keys[1]]
    assert [k for k, _, _ in sorted_["within"]] == [keys[4]]

    # a file with no changed pool entry prints no sorting
    _write(b, {**first, "grid/0": second["grid/0"]})
    assert tool.main(["--compare", str(a), str(b)]) == 1
    assert "against their ref" not in capsys.readouterr().out


def test_grid_covers_every_engine():
    # the grid calls each engine, and records the errors they raise
    entries = dict(_tool().grid_entries(bq, 200, 16))
    families = {key.split("/")[2][0] for key in entries}
    assert families == set("HKLTAR")
    assert any("error" in v for v in entries.values() if isinstance(v, dict))


def test_weighted_grid_covers_the_routes():
    # linear and cubic interpolants, j_l and every kind of product, and
    # intervals below, above and across the threshold, where the
    # analytic route refuses too; a second run writes the same entries
    tool = _tool()
    entries = dict(tool.weighted_entries(bq, 60, 16))
    assert entries == dict(tool.weighted_entries(bq, 60, 16))
    assert len(entries) == 60
    keys = " ".join(entries)
    assert all(kind in keys for kind in tool.WEIGHTED_KINDS)
    assert "degree=1" in keys and "degree=3" in keys
    fields = {"value", "error_estimate", "evaluations", "converged", "reason", "segments"}
    assert all(set(v) == fields for v in entries.values())
    routes = {tuple(route for route, _, _ in v["segments"]) for v in entries.values()}
    assert {("quadrature",), ("recursion",), ("quadrature", "recursion")} <= routes
    assert any(v["reason"].startswith("recursion refused") for v in entries.values())


def test_quadrature_grid_reaches_both_walks(monkeypatch):
    # the quadrature grid is deterministic, covers every family and scale
    # relation, and its two-factor nodes reach the upward and the Miller
    # walk of j_many with two orders in one call
    from besselquad import sph_bessel

    tool = _tool()
    points, mixed = Counter(), Counter()
    for name in ("_j_upward", "_j_miller"):
        def counted(l, x, _walk=getattr(sph_bessel, name), _name=name):
            points[_name] += len(x)
            if not isinstance(l, int) and len(set(l.tolist())) > 1:
                mixed[_name] += 1
            return _walk(l, x)

        monkeypatch.setattr(sph_bessel, name, counted)
    entries = dict(tool.quadrature_entries(bq, 48, 16))
    assert set(points) == set(mixed) == {"_j_upward", "_j_miller"}
    monkeypatch.undo()
    assert entries == dict(tool.quadrature_entries(bq, 48, 16))
    assert len(entries) == 48
    keys = " ".join(entries)
    assert all(f"/{family} " in keys for family in "IHKL")
    assert all(relation in keys for relation in tool.QUADRATURE_SCALES)
    assert "[0.0, " in keys
    fields = {"value", "error_estimate", "evaluations", "converged", "reason", "segments"}
    assert all(set(v) == fields for v in entries.values())
    assert {v["reason"] for v in entries.values()} == {"quadrature strategy requested"}
    # one block of four draws in four spans at least 50 half-periods of
    # its fastest factor, and those runs take GK61 panels (61 nodes each)
    long = [(key, v) for i, (key, v) in enumerate(entries.items()) if i // 4 % 4 == 3]
    assert len(long) == 12
    for key, v in long:
        scales = [abs(float(s)) for s in re.findall(r"(?:alpha|beta)=(-?[\d.e+-]+)", key)]
        a, b = (float(x) for x in re.search(r"\[(.*), (.*)\]$", key).groups())
        assert (b - a) * max(scales) / math.pi >= 50 and v["evaluations"] % 61 == 0, key


def test_adjacent_order_keys_name_the_call(monkeypatch):
    # an A or R key prints the eval_L call it records, at orders
    # max(l, 1) - 1 and max(l, 1), so a draw of l = 0 asks for orders 0, 1
    tool = _tool()
    calls = []
    eval_L = bq.eval_L

    def recorded(*args):
        calls.append(args)
        return eval_L(*args)

    monkeypatch.setattr(bq, "eval_L", recorded)
    adjacent = 0
    for key, entry in tool.grid_entries(bq, 400, 16):
        made, calls[:] = list(calls), []
        family, _, rest = key.split("/", 2)[2].partition("(")
        if family not in "AR":
            continue
        adjacent += 1
        args = ast.literal_eval("(" + rest.split(" as ")[0])
        assert made == [args], key
        n, k, l, x, alpha, beta, closed_forms = args
        assert (k, closed_forms) == (l - 1, family == "A") and l >= 1
        assert alpha > 0 and beta > 0
        assert "error" not in entry or "nonnegative" not in entry["message"], (key, entry)
    assert adjacent > 50
    # draws 138 and 398 have l = 0; their keys kept everything but the orders
    entries = dict(tool.grid_entries(bq, 400, 16))
    for key in ("grid/138/R(83, 0, 1, 0.07661432913187334, 0.4375991586555682, "
                "1.9134472890930443, False)",
                "grid/398/A(12, 0, 1, 229.12390206171347, 0.45407113279309697, "
                "0.2572340284349094, True)"):
        assert entries[key]["path"] == "recursion"


def test_not_converged_entry_keeps_its_numbers(tmp_path, capsys):
    # an integral that misses its tolerance raises, and its entry still
    # carries the record's value, error estimate and evaluations
    tool = _tool()
    spec = bq.IntegralSpec("I", 0, 0)
    entry = tool._outcome(lambda: tool._result(bq.definite_integral(
        spec, 0.0, 400.0, tol=1e-12, max_evals=300, strategy="quadrature")))
    assert entry == {
        "error": "NotConvergedError",
        "message": "quadrature error estimate 1.21 above tolerance 1e-12",
        "value": (1.572309425564535).hex(),
        "error_estimate": (1.2145480728716014).hex(),
        "evaluations": 300,
    }
    # an error without a record is written as before
    assert tool._outcome(lambda: bq.j(-1, 1.0)).keys() == {"error", "message"}

    # a carried value that moves is a moved value, not a reworded message
    moved = {**entry, "value": (1.5).hex()}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _write(a, {"e": entry})
    _write(b, {"e": moved})
    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "1 of 1 entries differ: 0 only in an error message" in out
    assert "1 values moved" in out


def test_recursion_grid_reaches_every_table_kind(monkeypatch):
    # the recursion draws are deterministic pairs (one table across both
    # limits) and reach I, H's band and triangle, K, K at equal scale
    # magnitudes, L's closure, ladder and L01 base, and equal-argument L
    from besselquad import mixed_order, quadrature
    from besselquad.squared_bessel import HTable

    tool = _tool()
    tables, reached = [], set()
    point_table = quadrature.point_table

    def made(spec, x, closed_forms=True, lower=None):
        table = point_table(spec, x, closed_forms, lower)
        tables.append((spec, table, lower))
        return table

    monkeypatch.setattr(quadrature, "point_table", made)
    for name in ("_closure", "_adjacent_ladder", "_base_L01"):
        def counted(*args, _fn=getattr(mixed_order, name), _name=name):
            reached.add(_name)
            return _fn(*args)

        monkeypatch.setattr(mixed_order, name, counted)
    entries = dict(tool.recursion_entries(bq, 200, 16))
    monkeypatch.undo()
    assert entries == dict(tool.recursion_entries(bq, 200, 16))
    assert len(entries) == 200
    assert all(lower is not None for _, _, lower in tables)
    for spec, table, _ in tables:
        kind = type(table).__name__
        if isinstance(table, HTable):
            kind += " band" if table.used_band else " triangle"
            if spec.family == "K":
                kind = "K on HTable"
        reached.add(kind)
    assert reached >= {
        "ITable", "HTable band", "HTable triangle", "KTable", "K on HTable", "LTable",
        "LEqualTable", "_closure", "_adjacent_ladder", "_base_L01",
    }
    keys = " ".join(entries)
    assert all(f"/{family} " in keys for family in "IHKL")
    assert all(relation in keys for relation in tool.RECURSION_SCALES)
    assert {v["reason"] for v in entries.values() if "reason" in v} == {
        "recursion strategy requested"
    }
    assert max(int(key.split(" l=")[1].split()[0]) for key in entries) > 50
