"""tools/kronrod.py, the generator of the Gauss-Kronrod constants in
besselquad.quadrature: it reproduces every printed digit of the GK15 and
GK61 literals, and the rules built from them are exact to their degrees
in floats."""

import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

from besselquad import quadrature

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "kronrod.py")


@pytest.mark.parametrize("args", [["7"], ["30", "--suffix", "61"]], ids=["GK15", "GK61"])
def test_tool_prints_the_committed_literals(args):
    out = subprocess.run(
        [sys.executable, TOOL, *args], capture_output=True, text=True, check=True
    ).stdout
    names = [line.split(" =")[0] for line in out.splitlines() if line.endswith("= (")]
    suffix = args[-1] if len(args) > 1 else ""
    assert names == [f"_XGK{suffix}", f"_WGK{suffix}", f"_WG{suffix}"]
    assert out in inspect.getsource(quadrature)


@pytest.mark.parametrize("size, kronrod, gauss", [(15, 22, 12), (61, 90, 58)])
def test_rules_are_exact_to_their_degree(size, kronrod, gauss):
    # K_{2n+1} is exact to degree 3n + 1 (n even) or 3n + 2 (n odd),
    # G_n to 2n - 1; odd powers vanish by symmetry
    nodes, k_weights, g_weights = quadrature._rule(size)
    assert len(nodes) == size and np.all(np.diff(nodes) > 0)
    assert np.count_nonzero(g_weights) == size // 2
    for weights, top in ((k_weights, kronrod), (g_weights, gauss)):
        for m in range(top + 1):
            exact = 0.0 if m % 2 else 2.0 / (m + 1)
            assert abs(float(np.sum(weights * nodes**m)) - exact) <= 1e-15, (size, m)
