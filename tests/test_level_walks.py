"""The bottom-up walks store exactly the cells the order-lowering
recursions reach.

Each table fills its levels from the bottom, as ``types.sweep`` plans
them from the family's step rule.  A cell too many could raise where the
recursion returned a value, and a cell too few would leave a KeyError;
both change ``used_closed`` and the reported path.  The reachability
functions below follow the recursion rules cell by cell, as a memoised
recursion would, and the cells each table stores after ``value(n)``
must be that set.
"""

import pytest

from besselquad.mixed_order import LEqualTable, LTable, _equal_closed_kind
from besselquad.same_order import _CLOSED as K_CLOSED
from besselquad.same_order import KTable
from besselquad.squared_bessel import HTable, _closed_kind
from besselquad.types import column_plan, sweep

X = 40.0
EXPONENTS = range(-6, 9)
ORDERS = range(0, 31)
#: sparse orders for exponents from -2l - 7 to 2l + 7
WIDE_ORDERS = (3, 5, 8, 13, 21, 30)


def _reach(start, needs):
    """Every cell reachable from ``start`` through ``needs(m, lam)``."""
    seen, todo = set(), [start]
    while todo:
        cell = todo.pop()
        if cell not in seen:
            seen.add(cell)
            todo.extend(needs(*cell))
    return seen


def h_cells(n, l, closed):
    if closed and l and n <= 0 and n % 2 == 0:
        # the band walk keeps only its cell and the two bases it starts from
        return {(n, l), (n, 0), (n - 2, 0)}

    def needs(m, lam):
        if lam == 0 or closed and _closed_kind(m, lam):
            return ()
        return (m, lam - 1), (m - 2, lam - 1)

    return _reach((n, l), needs)


def k_cells(n, l, closed):
    def needs(m, lam):
        if lam == 0 or closed and m == 2:
            return ()
        return (m, lam - 1), (m - 2, lam - 1)

    return _reach((n, l), needs)


def l_cells(n, k, l, closed):
    """(L cells above order k, K cells) of the general-scale recursion."""
    k_asked = set()

    def needs(m, lam):
        if lam == k:
            k_asked.add((m, k))
        elif lam == k + 1:
            if k and m != 1 and closed:  # the adjacent closure
                k_asked.update({(m + 1, k + 1), (m + 1, k)})
            elif k:  # the ladder
                k_asked.update((m - 1, j) for j in range(1, k + 1))
        else:
            return (m - 1, lam - 1), (m, lam - 2)
        return ()

    cells = _reach((n, l), needs)
    k_reached = set().union(*(k_cells(m, lam, closed) for m, lam in k_asked))
    return {(m, lam) for m, lam in cells if lam > k}, k_reached


def l_equal_cells(n, k, l, closed):
    """(L cells above order k, H cells) of the equal-argument recursion."""
    h_asked = set()

    def needs(m, lam):
        if lam == k:
            h_asked.add((m, k))
        elif closed and _equal_closed_kind(m, k, lam):
            pass
        elif lam == k + 1:
            h_asked.add((m - 1, k))
        else:
            return (m - 1, lam - 1), (m, lam - 2)
        return ()

    cells = _reach((n, l), needs)
    h_reached = set().union(*(h_cells(m, lam, closed) for m, lam in h_asked))
    return {(m, lam) for m, lam in cells if lam > k}, h_reached


def stored(rows, above=-1):
    return {(m, lam) for lam, row in enumerate(rows) if lam > above for m in row}


def _k_used_closed(cells):
    return any(m == 2 and lam >= 1 for m, lam in cells)


def _h_used_closed(cells):
    return any(_closed_kind(m, lam) for m, lam in cells)


def _order_pairs(l):
    return sorted({k for k in (0, 1, l // 2, l - 2, l - 1) if 0 <= k < l})


def check_h(n, l, closed):
    table = HTable(X, l, closed, 1.3)
    table.value(n)
    want = h_cells(n, l, closed)
    assert stored(table.rows) == want, (n, l)
    assert table.used_closed == (closed and _h_used_closed(want)), (n, l)


def check_k(n, l, closed):
    table = KTable(X, 1.3, 0.7, l, closed)
    table.value(n)
    want = k_cells(n, l, closed)
    assert stored(table.rows) == want, (n, l)
    assert table.used_closed == (closed and _k_used_closed(want)), (n, l)


def check_l(n, k, l, closed):
    table = LTable(X, k, l, 1.3, 0.7, closed)
    table.value(n)
    want_l, want_k = l_cells(n, k, l, closed)
    assert stored(table.rows, k) == want_l, (n, k, l)
    assert stored(table.kt.rows) == want_k, (n, k, l)
    assert table.kt.used_closed == (closed and _k_used_closed(want_k)), (n, k, l)


def check_l_equal(n, k, l, closed):
    table = LEqualTable(X, k, l, closed, 1.3)
    table.value(n)
    want_l, want_h = l_equal_cells(n, k, l, closed)
    assert stored(table.rows, k) == want_l, (n, k, l)
    assert stored(table.ht.rows) == want_h, (n, k, l)
    assert table.ht.used_closed == (closed and _h_used_closed(want_h)), (n, k, l)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "plain"])
def test_h_table_stores_the_reached_cells(closed):
    for l in ORDERS:
        for n in EXPONENTS:
            check_h(n, l, closed)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "plain"])
def test_k_table_stores_the_reached_cells(closed):
    for l in ORDERS:
        for n in EXPONENTS:
            check_k(n, l, closed)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "plain"])
def test_l_table_stores_the_reached_cells(closed):
    for l in ORDERS[1:]:
        for k in _order_pairs(l):
            for n in EXPONENTS:
                check_l(n, k, l, closed)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "plain"])
def test_l_equal_table_stores_the_reached_cells(closed):
    for l in ORDERS[1:]:
        for k in _order_pairs(l):
            for n in EXPONENTS:
                check_l_equal(n, k, l, closed)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "plain"])
@pytest.mark.parametrize("check", [check_h, check_k], ids=["H", "K"])
def test_deep_diagonals(check, closed):
    # exponents out to the diagonal closed forms of every level
    for l in WIDE_ORDERS:
        for n in range(-2 * l - 7, 2 * l + 8):
            check(n, l, closed)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "plain"])
@pytest.mark.parametrize("check", [check_l, check_l_equal], ids=["L", "LEqual"])
def test_deep_diagonals_two_orders(check, closed):
    for l in WIDE_ORDERS:
        for n in range(-2 * l - 7, 2 * l + 8):
            check(n, l // 2, l, closed)


def test_exponents_share_one_table():
    # later exponents reuse the cells of earlier ones and add their own;
    # the band walks of 0, -4 and -2 share their bases
    table = HTable(X, 12, True, 1.3)
    want = set()
    for n in (0, 1, 2, 3, -4, -2, 8):
        table.value(n)
        want |= h_cells(n, 12, True)
        assert stored(table.rows) == want, n


def _column_plan_by_cells(top, lo, hi, closed):
    """``types.column_plan`` read off every cell of the sweep: each level
    run exponent by exponent, ``closed`` asked of each cell."""
    runs = sweep(top, lo, hi, closed, ((0, 1), (-2, 1)), 0)
    levels = {}
    for lam in range(1, top + 1):
        a, b = runs.get(lam, (0, -2))
        for m in range(a, b + 1, 2):
            levels.setdefault(m, []).append(lam)
    columns = []
    for m in sorted(levels):
        at = levels[m]
        assert at == list(range(at[0], at[-1] + 1)), (m, at)  # consecutive levels
        closed_at = tuple(lam for lam in at if closed and closed(m, lam))
        columns.append((m, range(at[0], at[-1] + 1), len(closed_at) == len(at), closed_at))
    a, b = runs.get(0, (0, -2))
    return range(a, b + 1, 2), tuple(columns)


@pytest.mark.parametrize(
    "closed", [_closed_kind, K_CLOSED[1], None], ids=["H", "K", "none"]
)
def test_column_plan_matches_the_cells(closed):
    # the spans read off the runs' ends are the spans of the cells
    for top in (*range(0, 13), 25):
        for lo in range(-2 * top - 7, 2 * top + 8):
            for width in (0, 1, 3):
                hi = lo + 2 * width
                want = _column_plan_by_cells(top, lo, hi, closed)
                assert column_plan.__wrapped__(top, lo, hi, closed) == want, (top, lo, hi)
