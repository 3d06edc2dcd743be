"""Each script under demos/, and the package's ``python -m`` entry point,
runs to completion against the sources in src/.  They run in
subprocesses, which pytest's warning filter does not reach, so each runs
with RuntimeWarning as an error."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *argv], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    done = _run(str(demo))
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "a, strategy, loads_numpy",
    [("0", "quadrature[0,7.9]+recursion[7.9,50]", True), ("20", "recursion[20,50]", False)],
)
def test_module_entry_point(a, strategy, loads_numpy):
    # -X importtime lists every module the run imports on stderr: only a
    # quadrature segment imports numpy
    done = _run("-X", "importtime", "-m", "besselquad", "single", "--n", "2", "--l", "3",
                "--a", a, "--b", "50", "--format", "json")
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout)
    assert list(record) == ["value", "abs_error_est", "strategy", "nodes", "seconds"]
    assert record["strategy"] == strategy
    imported = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()}
    assert "besselquad.cli" in imported
    assert ("numpy" in imported) == loads_numpy
