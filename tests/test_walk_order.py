"""Every walk computes the cells where it stops from the lowest exponent
up, so where several of them would raise, the lowest names the error;
and K's degeneracy guard refuses a walk before it computes any cell."""

import pytest

from besselquad.errors import NearDegenerateError, QuadratureRecommendedError
from besselquad.mixed_order import LEqualTable
from besselquad.same_order import KTable
from besselquad.squared_bessel import HTable

#: 2x is under the small-argument hazard, so every base H^m_0 with m < 1
#: (trig index m - 2 < -1) is refused; at SAFE none is
SMALL, SAFE = 0.01, 40.0


def _refusal(table, n):
    with pytest.raises(QuadratureRecommendedError) as info:
        table.value(n)
    return str(info.value)


def _names(base):
    """The start of the refusal of base H^base_0, which reads X/Y at base - 2."""
    return f"X_{base - 2}/Y_{base - 2} at x="


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "plain"])
def test_h_walk_names_its_lowest_refused_base(closed):
    several = 0
    for l in range(1, 9):
        for n in range(-6, 9):
            # the bases a walk reaches do not depend on the point
            safe = HTable(SAFE, l, closed)
            safe.value(n)
            refused = [m for m in safe.rows[0] if m < 1] if safe.rows else []
            if len(refused) < 2:
                continue
            several += 1
            assert _refusal(HTable(SMALL, l, closed), n).startswith(
                _names(min(refused))
            ), (n, l)
    assert several > 40


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "plain"])
def test_equal_argument_walk_names_its_lowest_refused_base(closed):
    several = 0
    for l in range(1, 9):
        for k in range(l):
            for n in range(-6, 9):
                safe = LEqualTable(SAFE, k, l, closed)
                safe.value(n)
                refused = [m for m in safe.ht.rows[0] if m < 1] if safe.ht.rows else []
                if len(refused) < 2:
                    continue
                several += 1
                got = _refusal(LEqualTable(SMALL, k, l, closed), n)
                assert got.startswith(_names(min(refused))), (n, k, l)
                if not closed:
                    # the lowest H cell reaches the lowest base, and the H
                    # table at that cell names it too
                    lowest = min(safe.ht.rows[k])
                    assert got == _refusal(HTable(SMALL, k, closed), lowest), (n, k, l)
    assert several > 100


@pytest.mark.parametrize("top,lo,hi", [(0, -4, 0), (1, 2, 2), (3, 0, 4), (6, -2, 10)])
def test_near_degenerate_k_walk_refused_before_any_cell(top, lo, hi):
    table = KTable(SAFE, 1.0, 1.0 + 1e-9, top)
    with pytest.raises(NearDegenerateError, match=rf"n = {lo}, l = {top} base terms"):
        table.fill(top, lo, hi)
    assert not any(table.rows)
