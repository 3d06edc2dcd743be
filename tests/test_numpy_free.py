"""The analytic route runs without numpy: importing the package and the
CLI, definite integrals above the first-zero threshold and every scalar
evaluator leave numpy unimported.  The first quadrature segment imports
it, and the values are bitwise those of a process where numpy was loaded
from the start."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# probe() returns the values as float.hex, and whether numpy was loaded
# after the analytic calls and after the quadrature one
PROBE = r"""
import sys
import besselquad as bq
import besselquad.cli

SPECS = [
    bq.IntegralSpec("I", 2, 3, 1.3),
    bq.IntegralSpec("H", 0, 5, 0.9),
    bq.IntegralSpec("K", 1, 4, 1.3, beta=0.7),
    bq.IntegralSpec("L", 0, 4, 1.3, k=2, beta=0.8),
    bq.IntegralSpec("L", -1, 4, 1.1, k=1, beta=1.1),
]

def analytic():
    out = []
    for spec in SPECS:
        t = bq.oscillation_threshold(spec)
        r = bq.definite_integral(spec, 1.2 * t, 3.0 * t)
        assert r.segments == (("recursion", 1.2 * t, 3.0 * t),) and r.evaluations == 0, r
        out.append(r.value)
    x = 7.5
    out += [
        bq.eval_I(2, 3, x).value, bq.eval_I_scaled(2, 3, x, -1.3).value,
        bq.eval_H(0, 4, x).value, bq.eval_H_scaled(-1, 4, x, 0.9, False).value,
        bq.eval_K(1, 3, x, 1.3, 0.7).value, bq.eval_L(0, 1, 4, x, 1.3, 0.7).value,
        bq.eval_L(0, 1, 4, x, 1.0, 1.0).value,
        bq.eval_L(0, 2, 3, x, 1.3, 0.7).value,
        bq.eval_L(0, 2, 3, x, 1.3, 0.7, closed_forms=False).value,
        bq.closed_I("I1", 3, x).value, bq.closed_H("H3", 2, x).value,
        bq.closed_K2(2, x, 1.3, 0.7).value, bq.closed_L_equal("L4", 1, 3, x).value,
        bq.eval_L(2, 0, 1, x, 1.3, 0.7).value, bq.base_L01_equal(3, x).value,
        bq.eval_pair(3, x).X, bq.eval_pair(-2, x).Y, bq.eval_pair(-3, x).X,
        bq.int_pow_sin(2, 1.0, 0.4), bq.int_pow_cos(2, 1.0, 0.4),
        bq.int_pow_sin(-2, 1.3, x), bq.int_pow_cos(3, -0.7, x), bq.si(x), bq.ci(x),
        bq.j(5, x), bq.j_extended(-1, x),
        bq.small_x_leading(3, 0.1), bq.identity_residual(1, 3, 8.0, 12.0, 1.3, 0.7),
        bq.besselJ(5, 10.0),
    ]
    return out

def probe():
    values = [v.hex() for v in analytic()]
    after_analytic = "numpy" in sys.modules
    spec = SPECS[2]
    below = bq.definite_integral(spec, 0.0, 2.0 * bq.oscillation_threshold(spec))
    assert [route for route, _, _ in below.segments] == ["quadrature", "recursion"]
    return values, after_analytic, below.value.hex(), "numpy" in sys.modules
"""


def test_analytic_route_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = PROBE + "\nimport json\njson.dump(probe(), sys.stdout)\n"
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    analytic, numpy_after_analytic, quadrature, numpy_after_quadrature = json.loads(done.stdout)
    assert not numpy_after_analytic
    assert numpy_after_quadrature
    # the same values in this process, where numpy is loaded already
    import numpy  # noqa: F401

    namespace: dict = {}
    exec(PROBE, namespace)
    here = namespace["probe"]()
    assert (analytic, quadrature) == (here[0], here[2])
