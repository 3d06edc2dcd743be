"""Every input of the benchmark's four pools passes its check.

The 2 492 pinned inputs (definite integrals of all four families above
the threshold, from zero and past the amplification guard, and
piecewise linear and cubic prefactors against all four families, with
references from an independent quadrature) go through the benchmark's
own call and check; the pool files are only read.  Takes a few seconds.
"""

import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
)

import harness  # noqa: E402

#: inputs pinned in each pool
POOL_SIZES = {
    "oscillatory_tail": 920,
    "from_zero": 724,
    "weighted_tabulated": 448,
    "guarded_fallback": 400,
}


@pytest.fixture(scope="module")
def bq():
    return harness.import_library()


@pytest.mark.parametrize("workload", sorted(POOL_SIZES))
def test_every_input_passes(bq, workload):
    pool = harness.load_pool(workload)
    tol, c = pool["check_tol"], pool["check_c"]
    failed = []
    for item in pool["items"]:
        value, converged = harness.make_call(bq, item)()
        if not harness.check(item, value, converged, tol, c):
            failed.append((item["cell"], value, item["ref"]))
    assert len(pool["items"]) == POOL_SIZES[workload]
    assert not failed
