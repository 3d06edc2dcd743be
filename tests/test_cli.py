import json
import math
import re

import pytest

from besselquad.cli import build_parser, main

SI_PI = 1.8519370519824663


def invoke(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestSingle:
    def test_plain_output(self, capsys):
        code, out = invoke(
            ["single", "--n", "0", "--l", "0", "--alpha", "1",
             "--a", "0", "--b", "3.14159265358979"],
            capsys,
        )
        assert code == 0
        value = float(out.split("value = ")[1].splitlines()[0])
        assert value == pytest.approx(SI_PI, abs=1e-9)
        assert "strategy = " in out and "seconds = " in out

    def test_json_schema(self, capsys):
        code, out = invoke(
            ["single", "--n", "0", "--l", "0", "--a", "1", "--b", "30",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"value", "abs_error_est", "strategy", "nodes", "seconds"}

    def test_plain_floats_parse_cleanly(self, capsys):
        # recursion paths produce numpy scalars internally; the emitted
        # text must still be a plain float repr
        code, out = invoke(
            ["single", "--n", "0", "--l", "2", "--a", "0", "--b", "10000"],
            capsys,
        )
        assert code == 0
        float(out.split("value = ")[1].splitlines()[0])

    def test_json_round_trips_doubles(self, capsys):
        code, out = invoke(
            ["single", "--n", "1", "--l", "2", "--a", "2", "--b", "41.7",
             "--format", "json"],
            capsys,
        )
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload


class TestSquared:
    def test_tail_value(self, capsys):
        code, out = invoke(
            ["squared", "--n", "0", "--l", "1", "--alpha", "1",
             "--a", "0", "--b", "10000", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(math.pi / 6, abs=2e-4)


class TestProducts:
    def test_same_order(self, capsys):
        code, out = invoke(
            ["product-same", "--n", "0", "--l", "1", "--alpha", "1", "--beta", "2",
             "--a", "0", "--b", "10000", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.pi / 24, abs=2e-4)

    def test_different_order_orthogonality(self, capsys):
        code, out = invoke(
            ["product-diff", "--n", "0", "--k", "0", "--l", "2",
             "--alpha", "1", "--beta", "1", "--a", "0", "--b", "1000",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        assert abs(json.loads(out)["value"]) < 5e-3


class TestStrategies:
    @pytest.mark.parametrize(
        "args",
        [
            ["single", "--n", "0", "--l", "2", "--a", "8", "--b", "60"],
            ["squared", "--n", "1", "--l", "1", "--a", "7", "--b", "50"],
            ["product-same", "--n", "0", "--l", "1", "--alpha", "1", "--beta", "2",
             "--a", "7", "--b", "40"],
        ],
    )
    def test_recursion_and_quadrature_agree(self, args, capsys):
        vals = {}
        for strat in ("recursion", "quadrature"):
            code, out = invoke(args + ["--strategy", strat, "--format", "json"], capsys)
            assert code == 0
            vals[strat] = json.loads(out)["value"]
        assert vals["recursion"] == pytest.approx(vals["quadrature"], rel=1e-8, abs=1e-10)


class TestErrors:
    def test_zero_lower_limit_finiteness_exit_2(self, capsys):
        code, out = invoke(
            ["single", "--n", "-2", "--l", "0", "--a", "0", "--b", "10",
             "--format", "json"],
            capsys,
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "domain"
        assert "l + n > -1" in payload["message"]

    def test_near_degenerate_without_fallback_exit_3(self, capsys):
        code, out = invoke(
            ["product-same", "--n", "0", "--l", "1",
             "--alpha", "1.0", "--beta", "1.00000001",
             "--a", "5", "--b", "20", "--strategy", "recursion",
             "--format", "json"],
            capsys,
        )
        assert code == 3
        assert json.loads(out)["error"] == "near-degenerate"

    @pytest.mark.parametrize("interval", [
        # the antiderivative at 0 is not evaluated
        ["--n", "0", "--l", "0", "--a", "0", "--b", "10"],
        # the small-argument rule refuses X_-3/Y_-3 below 0.1
        ["--n", "-3", "--l", "0", "--a", "0.01", "--b", "0.05"],
    ])
    def test_refusal_without_degeneracy_exit_3(self, interval, capsys):
        code, out = invoke(
            ["single", *interval, "--strategy", "recursion", "--format", "json"], capsys
        )
        assert code == 3
        assert json.loads(out)["error"] == "quadrature-recommended"

    def test_not_converged_exit_4(self, capsys):
        code, out = invoke(
            ["single", "--n", "0", "--l", "0", "--a", "0", "--b", "400",
             "--strategy", "quadrature", "--max-evals", "300",
             "--tol", "1e-13", "--format", "json"],
            capsys,
        )
        assert code == 4
        payload = json.loads(out)
        assert payload["error"] == "not-converged"
        assert "value" in payload

    def test_max_evals_below_one_panel_exit_2(self, capsys):
        code, out = invoke(
            ["single", "--n", "0", "--l", "0", "--a", "0", "--b", "1",
             "--max-evals", "10", "--format", "json"],
            capsys,
        )
        assert code == 2
        assert json.loads(out)["error"] == "domain"

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["single", "--n", "0"])
        assert err.value.code == 2

    def test_bad_tolerance_exit_2(self, capsys):
        code, out = invoke(
            ["single", "--n", "0", "--l", "0", "--a", "1", "--b", "2",
             "--tol", "-1", "--format", "json"],
            capsys,
        )
        assert code == 2


class TestEnvironment:
    def test_tol_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("BESSELQUAD_TOL", "1e-6")
        code, out = invoke(
            ["single", "--n", "0", "--l", "0", "--a", "0", "--b", "3",
             "--format", "json"],
            capsys,
        )
        assert code == 0


class TestWeighted:
    def test_csv_single(self, tmp_path, capsys):
        csv = tmp_path / "f.csv"
        csv.write_text("x,f\n0,1\n10000,1\n")
        code, out = invoke(
            ["weighted", "--csv", str(csv), "--degree", "1", "--l", "0",
             "--alpha", "1", "--a", "0", "--b", "10000", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.pi / 2, abs=2e-4)

    def test_csv_product(self, tmp_path, capsys):
        csv = tmp_path / "f.csv"
        csv.write_text("0 1\n10000 1\n")  # header optional, separators flexible
        code, out = invoke(
            ["weighted", "--csv", str(csv), "--l", "1", "--k", "1",
             "--alpha", "1", "--beta", "1", "--a", "0", "--b", "10000",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.pi / 6, abs=2e-4)

    def test_missing_beta_is_usage_error(self, tmp_path, capsys):
        csv = tmp_path / "f.csv"
        csv.write_text("0,1\n10,1\n")
        code, out = invoke(
            ["weighted", "--csv", str(csv), "--l", "1", "--k", "1",
             "--a", "0", "--b", "10", "--format", "json"],
            capsys,
        )
        assert code == 2

    def test_record_reports_the_quadrature_run(self, tmp_path, capsys):
        csv = tmp_path / "f.csv"
        csv.write_text("x,f\n0,1\n2,0.9\n10,0.7\n40,0.3\n")
        code, out = invoke(
            ["weighted", "--csv", str(csv), "--l", "0", "--a", "0", "--b", "40",
             "--tol", "1e-10", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["nodes"] > 0
        assert 0.0 < payload["abs_error_est"] < 1e-10
        assert payload["strategy"] == f"quadrature[0,{math.pi:g}]+recursion[{math.pi:g},40]"

    def test_recursion_only_record_has_no_nodes(self, tmp_path, capsys):
        csv = tmp_path / "f.csv"
        csv.write_text("10,1\n20,2\n30,1.5\n")
        code, out = invoke(
            ["weighted", "--csv", str(csv), "--degree", "1", "--l", "1",
             "--a", "12", "--b", "30", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["nodes"], payload["abs_error_est"]) == (0, 0.0)
        assert payload["strategy"] == "recursion[12,30]"

    @pytest.mark.parametrize("option", [["--strategy", "recursion"], ["--max-evals", "15"]])
    def test_options_it_cannot_honour_are_usage_errors(self, tmp_path, option):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(
                ["weighted", "--csv", "f.csv", "--l", "0", "--a", "0", "--b", "1", *option]
            )
        assert err.value.code == 2

    def test_nonfinite_sample_exit_2(self, tmp_path, capsys):
        csv = tmp_path / "f.csv"
        csv.write_text("0,1\n1,nan\n2,1\n")
        code, out = invoke(
            ["weighted", "--csv", str(csv), "--l", "0", "--a", "0", "--b", "2",
             "--format", "json"],
            capsys,
        )
        assert code == 2
        assert json.loads(out)["error"] == "domain"


class TestTable:
    def test_grid_sweep_csv(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({
            "family": "I", "n": [0, 1], "l": [0, 2], "alpha": [1.0],
            "a": 6.0, "b": 40.0,
        }))
        code, out = invoke(["table", "--config", str(cfg), "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 4  # header + 2x2 grid
        assert lines[0].startswith("family,n,k,l,alpha,beta,value")

    def test_grid_order_is_deterministic(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({
            "family": "K", "n": [0], "l": [1, 3], "alpha": [1.0], "beta": [2.0, 3.0],
            "a": 8.0, "b": 30.0,
        }))
        code, out = invoke(["table", "--config", str(cfg), "--format", "json"], capsys)
        rows = json.loads(out)
        assert [(r["l"], r["beta"]) for r in rows] == [(1, 2.0), (1, 3.0), (3, 2.0), (3, 3.0)]


class TestTableErrors:
    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("not json")
        code, out = invoke(["table", "--config", str(cfg), "--format", "json"], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "config"

    def test_missing_field_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"family": "I", "n": [0], "l": [0]}))  # no a/b
        code, out = invoke(["table", "--config", str(cfg), "--format", "json"], capsys)
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, out = invoke(["table", "--config", "/no/such/file.json"], capsys)
        assert code == 2


class TestVerify:
    def test_appendix_suite_passes(self, capsys):
        code, out = invoke(["verify", "--suite", "appendix", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 63
        assert all(r["pass"] for r in rows)
        assert max(r["residual"] for r in rows) < 1e-8


class TestTableConfigValidation:
    """The table's orders go to IntegralSpec as written, so a non-integer
    or missing order, or a config that is not an object, exits 2."""

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"family": "I", "n": [1.5], "l": [2], "a": 5.0, "b": 20.0}, "n must be an integer"),
            ({"family": "I", "l": [2], "a": 5.0, "b": 20.0}, "n must be an integer"),
            ({"family": "I", "n": [0], "a": 5.0, "b": 20.0}, "l must be an integer"),
            ([{"family": "I", "n": [0], "l": [2], "a": 5.0, "b": 20.0}], "JSON object"),
            ({"family": "I", "n": [True], "l": [2], "a": 5.0, "b": 20.0}, "n must be an integer"),
        ],
        ids=["non-integer-n", "no-n-axis", "no-l-axis", "not-an-object", "boolean-n"],
    )
    def test_exit_2(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(config))
        code, out = invoke(["table", "--config", str(cfg), "--format", "json"], capsys)
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "domain"
        assert message in payload["message"]


def test_every_integral_carries_the_same_record_fields(tmp_path, capsys):
    fields = ["value", "abs_error_est", "strategy", "nodes", "seconds"]
    code, out = invoke(
        ["single", "--n", "0", "--l", "1", "--a", "1", "--b", "30", "--format", "json"], capsys
    )
    assert code == 0 and list(json.loads(out)) == fields
    csv = tmp_path / "f.csv"
    csv.write_text("x,f\n0,1\n10,2\n30,1\n")
    code, out = invoke(
        ["weighted", "--csv", str(csv), "--l", "1", "--a", "1", "--b", "30", "--format", "json"],
        capsys,
    )
    assert code == 0 and list(json.loads(out)) == fields
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"family": "L", "n": [0, 1], "k": [1], "l": [2], "alpha": [1.0],
                               "beta": [1.5], "a": 1.0, "b": 30.0}))
    code, out = invoke(["table", "--config", str(cfg), "--format", "json"], capsys)
    rows = json.loads(out)
    assert code == 0 and len(rows) == 2
    for row in rows:
        assert list(row)[6:] == fields


@pytest.mark.parametrize(
    "extra, name",
    [
        ({"a": None}, "a"),
        ({"b": "far"}, "b"),
        ({"alpha": [[1.0]]}, "alpha"),
        ({"family": "K", "beta": [[2.0]]}, "beta"),
        ({"tol": [1e-9]}, "tol"),
        ({"a": True}, "a"),
        ({"b": "20"}, "b"),
        ({"alpha": "nan"}, "alpha"),
        ({"tol": "1e-9"}, "tol"),
        ({"b": 10 ** 400}, "b"),
    ],
    ids=["null-limit", "string-limit", "nested-scale", "nested-second-scale", "list-tol",
         "bool-limit", "numeric-string-limit", "string-nan-scale", "string-tol",
         "huge-integer-limit"],
)
def test_table_number_that_is_not_a_number_exits_2(tmp_path, capsys, extra, name):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"family": "I", "n": [0], "l": [2], "a": 5.0, "b": 20.0, **extra}))
    code, out = invoke(["table", "--config", str(cfg), "--format", "json"], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "domain"
    assert re.search(rf"\b{name} must be a finite (nonzero )?real number, got ", payload["message"])


def test_table_config_tol_wins_over_an_unparsable_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BESSELQUAD_TOL", "abc")
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"family": "I", "n": [0], "l": [2], "a": 5.0, "b": 20.0,
                               "tol": 1e-9}))
    code, out = invoke(["table", "--config", str(cfg), "--format", "json"], capsys)
    assert code == 0
    assert len(json.loads(out)) == 1
