"""Write every output of the benchmark pools and of a seeded engine grid
to JSON, or diff two such files: one command for "same numbers".

    python3 tools/same_numbers.py OUT.json [--src DIR] [--grid N] [--weighted N]
                                  [--quadrature N] [--recursion N] [--seed S]
    python3 tools/same_numbers.py --compare A.json B.json

The first form imports besselquad from ``--src`` (default: this
checkout's ``src``), so a second checkout of another commit can be
measured with this one file.  It records

* every input of the four pools in ``perfbench/reference/*.json`` (only
  read), through ``definite_integral`` or ``weighted_integral``: value,
  error estimate, evaluations, convergence, reason and segments;
* ``--grid`` seeded calls, with value and path, of ``eval_H_scaled``,
  ``eval_K`` and ``eval_L`` (equal and near-degenerate scales included)
  in both ``closed_forms`` modes, of ``eval_L`` at
  adjacent orders ``max(l, 1) - 1`` and ``max(l, 1)`` and positive
  scales with ``closed_forms`` True (the closure, key ``A``) and False
  (the ladder, key ``R``), and of per-point tables asked several
  exponents in a random order.  Each key names the arguments of the
  call it records.  About a fifth of the calls draw n relative to the
  order, from -2l-5 to 2l+5, where the closed forms of the deep levels
  sit.  One call in ten passes x and the
  scales as ``numpy.float64``, and another one in ten as ints, rounded to
  integral values first; their keys end in " as float64" and " as int";
* ``--weighted`` seeded ``weighted_integral`` calls, recorded like the
  pool inputs.  Linear and cubic interpolants of a slowly varying
  prefactor, sampled from 0 to about 400, weight j_l or a product whose
  scales are unrelated, equal in magnitude (sign flips included), both
  negative or near-degenerate (the analytic route refuses some of
  these); a third of the intervals straddle the first-zero threshold;
* ``--quadrature`` seeded ``definite_integral(strategy="quadrature")``
  calls of I, H, K and L, recorded like the pool inputs: orders 0 to 60,
  |k - l| <= 3, two-factor scales unrelated, equal or sign-flipped, and
  intervals that start at 0 or straddle each factor's upward margin, so
  the nodes reach both walks of ``j_many``.  One block of four calls
  (one per family) in four is a long oscillatory run past both margins
  instead, 50 to 150 half-periods of the fastest factor, so the wide
  GK61 panels of ``adaptive_quad`` are covered too;
* ``--recursion`` seeded ``definite_integral(strategy="recursion")``
  calls, recorded like the pool inputs, so the one walk of each
  analytic segment across its two limits is compared beyond the pools'
  orders (K and L stop at l = 25 there): I, H, K and L in turn, orders 0
  to 60, n from -4 to 6, two-factor scales unrelated, equal,
  sign-flipped or near-degenerate, and intervals that start at the
  first-zero threshold or up to three times above it.  The draws reach
  every table kind: I, H's band and triangle, K, K at equal scale
  magnitudes, L's closure, ladder and L01 base, and equal-argument L.

Floats are written with ``float.hex``, so equal files mean bitwise equal
numbers; an error is written as its type and message, and a
``NotConvergedError`` also with its record's value, error estimate and
evaluations, so an integral that missed its tolerance still shows its
numbers.  ``--compare`` prints the entries that differ, then how many of
them differ only in an error message (same error types, every value
equal), how many only in the reason and how many otherwise,
then how many values moved and the largest relative change among them.
It then sorts the changed pool entries against their pool ``ref`` into
closer, farther, and within the pool's check bound (``check_c *
max(check_tol, check_tol |ref|)``) on both sides, and lists the
farthest of those that moved away.  It exits 1 when any entry differs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOLS = os.path.join(ROOT, "perfbench", "reference")
WORKLOADS = ("oscillatory_tail", "from_zero", "weighted_tabulated", "guarded_fallback")
MODES = (True, False)

#: grid calls i with i % 10 in CONVERTED pass x and the scales converted
CONVERTED = {3: "float64", 7: "int"}


def _hex(v) -> str:
    return float(v).hex()


def _outcome(fn) -> dict:
    """fn()'s record, or its error's type and message, with the numbers
    of the record a NotConvergedError carries."""
    try:
        return fn()
    except Exception as exc:  # every failure is part of the record
        out = {"error": type(exc).__name__, "message": str(exc)}
        r = getattr(exc, "result", None)
        if r is not None:
            out.update(value=_hex(r.value), error_estimate=_hex(r.error_estimate),
                       evaluations=r.evaluations)
        return out


def _result(r) -> dict:
    return {
        "value": _hex(r.value),
        "error_estimate": _hex(r.error_estimate),
        "evaluations": r.evaluations,
        "converged": r.converged,
        # an older tree keeps the reason in r.strategy, so one tool records both
        "reason": r.reason if hasattr(r, "reason") else r.strategy.reason,
        "segments": [[route, _hex(lo), _hex(hi)] for route, lo, hi in r.segments],
    }


def _antiderivative(v) -> dict:
    return {"value": _hex(v.value), "path": v.path}


def pool_items():
    """(key, item, pool) of every pool input, workload after workload."""
    for workload in WORKLOADS:
        with open(os.path.join(POOLS, f"{workload}.json")) as fh:
            pool = json.load(fh)
        for i, item in enumerate(pool["items"]):
            yield f"{workload}/{i}/{item['cell']}", item, pool


def pool_entries(bq):
    for key, item, _ in pool_items():
        if item["op"] == "definite":
            spec = bq.IntegralSpec(
                item["family"], item["n"], item["l"], item["alpha"], k=item["k"],
                beta=item["beta"],
            )
            a, b = item["a"], item["b"]
            yield key, _outcome(lambda: _result(bq.definite_integral(spec, a, b)))
            continue
        pp = bq.build_interpolant(item["samples"], degree=item["degree"])
        k, beta = (item["k"], item["beta"]) if item["op"] == "product" else (None, None)
        yield key, _outcome(lambda: _result(bq.weighted_integral(
            pp, item["l"], item["alpha"], item["a"], item["b"], k=k, beta=beta,
        )))


def _scales(rng: random.Random) -> tuple:
    alpha = rng.uniform(0.2, 3.0) * rng.choice((1, 1, 1, -1))
    kind = rng.random()
    if kind < 0.15:
        beta = alpha * rng.choice((1, -1))  # equal magnitudes
    elif kind < 0.25:
        beta = alpha * (1 + rng.choice((1e-9, 1e-7, 1e-5, 1e-3)))  # near-degenerate
    else:
        beta = rng.uniform(0.2, 3.0) * rng.choice((1, 1, 1, -1))
    return alpha, beta


def _integral(v: float) -> int:
    """v rounded to a nonzero int of its sign (a scale or point must not be 0)."""
    return int(math.copysign(max(1, round(abs(v))), v))


def grid_entries(bq, calls: int, seed: int):
    from besselquad.quadrature import point_table

    rng = random.Random(seed)
    for i in range(calls):
        closed_forms = MODES[i % len(MODES)]
        family = rng.choice("HKLLTAR")
        l = rng.randint(0, 30) if rng.random() < 0.9 else rng.randint(31, 60)
        spread = rng.random()
        if spread < 0.2:
            n = rng.randint(-2 * l - 5, 2 * l + 5)
        else:
            n = rng.randint(-10, 12) if spread < 0.96 else rng.randint(-160, 160)
        k = rng.randint(0, l + 3)
        x = 10 ** rng.uniform(-2.0, 2.5)
        alpha, beta = _scales(rng)
        converted = CONVERTED.get(i % 10)
        if converted == "int":
            x, alpha, beta = map(_integral, (x, alpha, beta))
        args = (n, k, l, x, alpha, beta, closed_forms)
        if family in "AR":
            # adjacent orders at positive scales: the closure (A) and the
            # ladder (R), from order 0 up
            top = max(l, 1)
            args = (n, top - 1, top, x, abs(alpha), abs(beta), family == "A")
        key = f"grid/{i}/{family}{args!r}"
        if converted:
            key += f" as {converted}"
        if converted == "float64":
            x, alpha, beta = map(np.float64, (x, alpha, beta))
        if family == "H":
            fn = lambda: _antiderivative(  # noqa: E731
                bq.eval_H_scaled(n, l, x, alpha, closed_forms))
        elif family == "K":
            fn = lambda: _antiderivative(  # noqa: E731
                bq.eval_K(n, l, x, alpha, beta, closed_forms))
        elif family == "L":
            fn = lambda: _antiderivative(  # noqa: E731
                bq.eval_L(n, k, l, x, alpha, beta, closed_forms))
        elif family in "AR":
            fn = lambda: _antiderivative(  # noqa: E731
                bq.eval_L(n, top - 1, top, x, abs(alpha), abs(beta), family == "A"))
        else:
            # one table, several exponents in a random order
            exps = rng.sample(range(-6, 10), rng.randint(2, 5))
            key += repr(exps)

            def fn():
                table = point_table(bq.IntegralSpec("L", 0, l, alpha, k=k, beta=beta), x,
                                    closed_forms)
                return [_outcome(lambda: _hex(table.value(m))) for m in exps]

        yield key, _outcome(fn)


#: the Bessel factors of the weighted grid, drawn in turn
WEIGHTED_KINDS = ("single", "general", "equal", "negative", "near-degenerate")


def _weighted_factors(rng: random.Random, kind: str) -> tuple:
    """(l, alpha, k, beta) of one weighted call; k and beta are None for j_l."""
    l = rng.randint(0, 12)
    alpha = rng.uniform(0.2, 3.0) * rng.choice((1, 1, -1))
    if kind == "single":
        return l, alpha, None, None
    k = rng.randint(max(0, l - 3), l + 3)
    if kind == "general":
        beta = rng.uniform(0.2, 3.0) * rng.choice((1, 1, -1))
    elif kind == "equal":
        k = rng.choice((k, l))  # the squared family when k = l and beta = alpha
        beta = alpha * rng.choice((1, -1))
    elif kind == "negative":
        alpha, beta = -abs(alpha), -rng.uniform(0.2, 3.0)
    else:
        beta = alpha * (1 + rng.choice((1e-9, 1e-7, 1e-5, 1e-3)))
    return l, alpha, k, beta


def weighted_entries(bq, calls: int, seed: int):
    rng = random.Random(seed)
    for i in range(calls):
        kind = WEIGHTED_KINDS[i % len(WEIGHTED_KINDS)]
        degree = 3 if i // len(WEIGHTED_KINDS) % 2 else 1
        l, alpha, k, beta = _weighted_factors(rng, kind)
        # the first-zero threshold, up to the pi of order 0
        slow = min(abs(s) for s in (alpha, beta) if s is not None)
        t = (4.75 + 1.05 * max(l, k or 0)) / slow
        if i % 3 == 0:
            a, b = t * rng.uniform(0.2, 0.9), t * rng.uniform(1.2, 4.0)
        else:
            a = 0.0 if i % 7 == 0 else rng.uniform(0.0, 300.0)
            b = a + rng.uniform(5.0, 100.0)
        lo, hi = max(0.0, a - rng.uniform(0.0, 5.0)), b + rng.uniform(0.0, 5.0)
        xs = np.linspace(lo, hi, rng.randint(4, 32))
        c0, amp = rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.5)
        w, slope = rng.uniform(3.0, 30.0), rng.uniform(-1.0, 1.0)
        fs = c0 + amp * np.sin(xs / w) + slope * (xs - lo) / (hi - lo)
        key = (f"weighted/{i}/{kind} degree={degree} l={l} alpha={alpha!r} k={k} beta={beta!r} "
               f"[{a!r}, {b!r}] samples={len(xs)} on [{lo!r}, {hi!r}]")

        def fn():
            pp = bq.build_interpolant(np.column_stack([xs, fs]), degree=degree)
            return _result(bq.weighted_integral(pp, l, alpha, a, b, k=k, beta=beta))

        yield key, _outcome(fn)


#: the scales of the quadrature grid's two factors, drawn in turn
QUADRATURE_SCALES = ("unrelated", "equal", "sign-flipped")


def quadrature_entries(bq, calls: int, seed: int):
    from besselquad.sph_bessel import UPWARD_MARGIN

    rng = random.Random(seed)
    for i in range(calls):
        family = "IHKL"[i % 4]
        relation = QUADRATURE_SCALES[i // 4 % len(QUADRATURE_SCALES)]
        l = rng.randint(0, 60)
        k = rng.randint(max(0, l - 3), l + 3) if family == "L" else None
        alpha = rng.uniform(0.2, 3.0) * rng.choice((1, -1))
        beta = None
        if family in "KL":
            beta = {
                "unrelated": rng.uniform(0.2, 3.0) * rng.choice((1, -1)),
                "equal": alpha,
                "sign-flipped": -alpha,
            }[relation]
        spec = bq.IntegralSpec(family, 0, l, alpha, k=k, beta=beta)
        # where each factor's nodes pass from the Miller to the upward walk
        margins = [(order + UPWARD_MARGIN) / abs(scale) for order, scale in spec.factors]
        if i // 4 % 4 == 3:
            # a long oscillatory run, as on guarded_fallback: 50 to 150
            # half-periods of the fastest factor, past both margins
            n = rng.randint(-2, 2)
            a = max(margins) * rng.uniform(1.0, 1.5)
            b = a + rng.uniform(50.0, 150.0) * math.pi / max(abs(s) for s in spec.scales)
        elif i % 2:
            n = rng.randint(0, 4)
            a, b = 0.0, max(margins) * rng.uniform(0.3, 1.6)
        else:
            n = rng.randint(-2, 4)
            a, b = min(margins) * rng.uniform(0.5, 0.95), max(margins) * rng.uniform(1.05, 1.6)
        key = (f"quadrature/{i}/{family} {relation} n={n} k={k} l={l} alpha={alpha!r} "
               f"beta={beta!r} [{a!r}, {b!r}]")

        def fn():
            spec = bq.IntegralSpec(family, n, l, alpha, k=k, beta=beta)
            return _result(bq.definite_integral(spec, a, b, strategy="quadrature"))

        yield key, _outcome(fn)


#: the scales of the recursion grid's two factors, drawn in turn
RECURSION_SCALES = ("unrelated", "equal", "sign-flipped", "near-degenerate")


def recursion_entries(bq, calls: int, seed: int):
    rng = random.Random(seed)
    for i in range(calls):
        family = "IHKL"[i % 4]
        relation = RECURSION_SCALES[i // 4 % len(RECURSION_SCALES)]
        l = rng.randint(0, 60)
        # adjacent orders (the closure and ladder), k = 0 (the L01 base), or a walk of levels
        k = rng.choice((max(l - 1, 0), 0, rng.randint(0, l))) if family == "L" else None
        n = rng.randint(-4, 6)
        alpha = rng.uniform(0.2, 3.0) * rng.choice((1, -1))
        beta = None
        if family in "KL":
            beta = {
                "unrelated": rng.uniform(0.2, 3.0) * rng.choice((1, -1)),
                "equal": alpha,
                "sign-flipped": -alpha,
                "near-degenerate": alpha * (1 + rng.choice((1e-9, 1e-7, 1e-5))),
            }[relation]
        t = bq.oscillation_threshold(bq.IntegralSpec(family, n, l, alpha, k=k, beta=beta))
        a = t if rng.random() < 0.3 else t * rng.uniform(1.0, 3.0)
        b = a + rng.uniform(1.0, 100.0)
        key = (f"recursion/{i}/{family} {relation} n={n} k={k} l={l} alpha={alpha!r} "
               f"beta={beta!r} [{a!r}, {b!r}]")

        def fn():
            spec = bq.IntegralSpec(family, n, l, alpha, k=k, beta=beta)
            return _result(bq.definite_integral(spec, a, b, strategy="recursion"))

        yield key, _outcome(fn)


def write(
    out: str, src: str, calls: int, weighted: int, quadrature: int, recursion: int, seed: int,
) -> None:
    sys.path.insert(0, os.path.abspath(src))
    bq = importlib.import_module("besselquad")
    entries = dict(pool_entries(bq))
    entries.update(grid_entries(bq, calls, seed))
    entries.update(weighted_entries(bq, weighted, seed))
    entries.update(quadrature_entries(bq, quadrature, seed))
    entries.update(recursion_entries(bq, recursion, seed))
    with open(out, "w") as fh:
        json.dump({"src": os.path.abspath(src), "seed": seed, "entries": entries}, fh)
    errors = sum(1 for v in entries.values() if isinstance(v, dict) and "error" in v)
    print(f"{len(entries)} entries ({errors} errors) from {bq.__file__} -> {out}")


def _without_messages(v):
    """An entry with each error's message dropped, its type and numbers
    kept."""
    if isinstance(v, list):
        return [_without_messages(e) for e in v]
    if isinstance(v, dict) and "error" in v:
        return {key: e for key, e in v.items() if key != "message"}
    return v


def _without_reason(v):
    """A result entry with its reason dropped."""
    if isinstance(v, dict) and "reason" in v:
        return {key: e for key, e in v.items() if key != "reason"}
    return v


def _values(v) -> list:
    """The numbers of an entry: its value (a NotConvergedError's too), or
    a table's values in order (None for an error without one)."""
    if isinstance(v, list):
        return [float.fromhex(e) if isinstance(e, str) else None for e in v]
    if isinstance(v, dict) and "value" in v:
        return [float.fromhex(v["value"])]
    return [None]


def _moves(a, b):
    """|b - a| / |a| for each value that both entries hold and that moved
    (inf where a is 0)."""
    va, vb = _values(a), _values(b)
    if len(va) != len(vb):
        return
    for x, y in zip(va, vb):
        if x is not None and y is not None and x != y:
            yield abs(y - x) / abs(x) if x else math.inf


#: how many of the changed pool entries that moved away from their ref
#: ``--compare`` lists
WORST = 5


def against_refs(a: dict, b: dict, keys) -> dict:
    """The pool entries among ``keys`` sorted against their pool ``ref``:
    "within" when both values lie within the pool's check bound,
    check_c * max(check_tol, check_tol |ref|), else "closer" or "farther"
    by which value lies nearer the ref, or "other" (an error on either
    side, or the same distance).  Each holds (key, |a - ref| / bound,
    |b - ref| / bound) tuples."""
    keys = set(keys)
    out = {"closer": [], "farther": [], "within": [], "other": []}
    for key, item, pool in pool_items():
        if key not in keys:
            continue
        ref, tol = item["ref"], pool["check_tol"]
        bound = pool["check_c"] * max(tol, tol * abs(ref))
        (va,), (vb,) = _values(a[key]), _values(b[key])
        if "error" in a[key] or "error" in b[key]:
            out["other"].append((key, None, None))
            continue
        da, db = abs(va - ref) / bound, abs(vb - ref) / bound
        if da <= 1 and db <= 1:
            kind = "within"
        else:
            kind = "closer" if db < da else "farther" if db > da else "other"
        out[kind].append((key, da, db))
    return out


def compare(first: str, second: str) -> int:
    with open(first) as fh:
        a = json.load(fh)["entries"]
    with open(second) as fh:
        b = json.load(fh)["entries"]
    differ = [key for key in a.keys() | b.keys() if a.get(key) != b.get(key)]
    for key in sorted(differ):
        print(f"{key}\n  {a.get(key)}\n  {b.get(key)}")
    both = [key for key in differ if key in a and key in b]
    messages = sum(1 for key in both if _without_messages(a[key]) == _without_messages(b[key]))
    reasons = sum(1 for key in both if _without_reason(a[key]) == _without_reason(b[key]))
    print(f"{len(differ)} of {len(a.keys() | b.keys())} entries differ: "
          f"{messages} only in an error message, {reasons} only in the reason, "
          f"{len(differ) - messages - reasons} otherwise")
    moved = [(move, key) for key in both for move in _moves(a[key], b[key])]
    if moved:
        move, key = max(moved)
        print(f"{len(moved)} values moved, the largest by {move:.3g} relative to the first: {key}")
    pools = against_refs(a, b, both)
    if any(pools.values()):
        print(f"changed pool entries against their ref: {len(pools['closer'])} closer, "
              f"{len(pools['farther'])} farther, {len(pools['within'])} within the check bound "
              f"on both sides, {len(pools['other'])} otherwise")
        for key, da, db in sorted(pools["farther"], key=lambda e: -e[2])[:WORST]:
            print(f"  farther: {key}: {da:.3g} -> {db:.3g} check bounds from the ref")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="JSON file to write")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the besselquad package to import")
    parser.add_argument("--grid", type=int, default=20_000, help="engine grid calls")
    parser.add_argument("--weighted", type=int, default=3_000, help="weighted grid calls")
    parser.add_argument("--quadrature", type=int, default=2_000,
                        help="quadrature grid calls")
    parser.add_argument("--recursion", type=int, default=2_000,
                        help="recursion grid calls")
    parser.add_argument("--seed", type=int, default=15, help="seed of the engine, weighted, "
                        "quadrature and recursion grids")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="diff two files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("give OUT.json or --compare A B")
    write(args.out, args.src, args.grid, args.weighted, args.quadrature, args.recursion,
          args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
