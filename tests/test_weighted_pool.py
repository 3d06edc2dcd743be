"""Every input of the benchmark's weighted_tabulated pool passes its check.

The 448 pinned inputs (piecewise linear and cubic prefactors against
all four families, with references from an independent quadrature) go
through the benchmark's own call and check; the pool file is only read.
Takes a few seconds.
"""

import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
)

import harness  # noqa: E402

POOL = harness.load_pool("weighted_tabulated")


@pytest.fixture(scope="module")
def bq():
    return harness.import_library()


def test_every_input_passes(bq):
    tol, c = POOL["check_tol"], POOL["check_c"]
    failed = []
    for item in POOL["items"]:
        value, converged = harness.make_call(bq, item)()
        if not harness.check(item, value, converged, tol, c):
            failed.append((item["cell"], value, item["ref"]))
    assert len(POOL["items"]) == 448
    assert not failed
