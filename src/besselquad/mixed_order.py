"""Antiderivatives of x^n j_k(a x) j_l(b x) with different orders.

The L family.  The larger order is lowered with

    L^n_{kl}(x; a, b) = (2l-1)/b * L^{n-1}_{k,l-1}(x; a, b) - L^n_{k,l-2}(x; a, b)

until the orders meet (the K family applies) or become adjacent.  For
adjacent orders and n != 1,

    L^n_{l-1,l} = [x^{n+1} j_{l-1}(ax) j_l(bx) + a K^{n+1}_l - b K^{n+1}_{l-1}] / (n-1)

while n = 1 descends the printed order-lowering ladder to the explicit
trigonometric base

    L^n_{01}(x; a, b) = [int x^{n-3} cos((a-b)x) - int x^{n-3} cos((a+b)x)] / (2ab^2)
                      - [int x^{n-2} sin((a-b)x) + int x^{n-2} sin((a+b)x)] / (2ab)

(with ``closed_forms=False`` every adjacent cell takes the ladder, so
``eval_L(n, l - 1, l, x, a, b, closed_forms=False)`` is the
pure-recursion reference for the closure).  A point or a pair builds
one ``LTable``, which holds one K table for its (x, a, b) (see
same_order.KTable): every K cell, the adjacent closure and the n = 1
ladder read it, and the L01 base reads its two trig chains, so each
point walks each chain once.  Equal
arguments a = b get their own engine, ``LEqualTable``, with five printed
closed forms, the simpler adjacent-order rule through the squared
family, and the equal-argument base; it shares one H table in the same
way.  A table keeps the cells it has filled, one row per order, and
they serve every exponent asked of it, so one table per point covers
every monomial of a weighted integral.  A table across a pair (a, b)
holds L(b) - L(a) from one walk: only the adjacent cells, the closed
forms and the boundary terms read the points, each as its value at b
less its value at a (see ``types.PointTable``).

Canonicalization (``point_table``, the one table dispatch of every
family, which quadrature imports): the parity sign of each negative
scale is folded out front by ``sph_bessel.parity_fold``
(j_m(-u) = (-1)^m j_m(u)), and (k, a) is swapped with (l, b) when
k > l, so symmetry under the joint swap is exact.  The K table orders
its own scales.
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError, NearDegenerateError
from .same_order import DEGENERACY_GUARD, KTable
from .single_bessel import ITable
from .sph_bessel import _j_extended, _j_list, j_extended, parity_fold
from .squared_bessel import HTable
from .trig_primitives import TrigChain, _refuse_small_arg
from .types import (
    AntiderivativeValue, IntegralSpec, PointTable, check_limits, check_point,
    finite_result, sweep,
)

#: the cells L^m_{k,lam} needs: L^{m-1}_{k,lam-1} and L^m_{k,lam-2}, down
#: to the adjacent cells at order k + 1 and the cells of order k
_STEP = ((-1, 1), (0, 2))


# ---------------------------------------------------------------------------
# general scales
# ---------------------------------------------------------------------------

def _base_L01(n: int, x: float, a: float, b: float, near: TrigChain, far: TrigChain) -> float:
    """L^n_{01}(x; a, b) for positive distinct scales, from the chains of
    |a - b| x (near) and (a + b) x (far); int x^m sin(c x) dx is odd in c,
    so the near sine term takes the sign of a - b."""
    if abs(a - b) < DEGENERACY_GUARD * (a + b) and n - 3 < 0:
        raise NearDegenerateError(
            f"scale combination {a - b:.3g} under the degeneracy guard with "
            f"n = {n} < 3; evaluate by quadrature"
        )
    cos_part = (near.int_cos(n - 3) - far.int_cos(n - 3)) / (2.0 * a * b * b)
    sin_near = near.int_sin(n - 2)
    sin_part = ((sin_near if a > b else -sin_near) + far.int_sin(n - 2)) / (2.0 * a * b)
    return cos_part - sin_part


def _adjacent_ladder(m: int, k: int, a: float, b: float, kt: KTable) -> float:
    """L^m_{k,k+1}(x; a, b) by repeated order lowering down to L^m_{01}:

        L^m_{j,j+1}(x; p, q) = (2j+1)/q K^{m-1}_j(x) - L^m_{j-1,j}(x; q, p)

    each step swapping the scale order through L^m_{j,j-1}(x; p, q) =
    L^m_{j-1,j}(x; q, p).  The K cells come from the shared table kt,
    asked from order k down; the steps then run up from the base, at
    kt's point or across its pair.
    """
    cells = [kt.cell(m - 1, j) for j in range(k, 0, -1)]
    p, q = (a, b) if k % 2 == 0 else (b, a)
    v = _base_L01(m, kt.x, p, q, kt.near, kt.far)
    lower = kt.lower
    if lower is not None:
        v -= _base_L01(m, lower.x, p, q, lower.near, lower.far)
    for j in range(1, k + 1):
        p, q = q, p
        v = (2 * j + 1) / q * cells[k - j] - v
    return v


def _closure(m: int, k: int, a: float, b: float, edge: float, kt: KTable) -> float:
    """L^m_{k,k+1}(x; a, b) by the adjacent-order closure, m != 1, from
    edge = x^{m+1} j_k(a x) j_{k+1}(b x) (at the point, or across the
    pair) and the K cells of kt."""
    return (edge + a * kt.cell(m + 1, k + 1) - b * kt.cell(m + 1, k)) / (m - 1)


class LTable(PointTable):
    """The cells L^m_{k,lam}(x; a, b), k < lam <= l, of one evaluation
    point, or their differences from ``lower`` to x (see
    ``types.PointTable``), for positive distinct scales and k < l.

    One K table serves every K cell, adjacent closure and ladder step of
    the walk, and its j tables, chains and lower point are the walk's
    own; its row of order k is this table's row k.  ``value(n)`` is
    L^n_{kl} times ``sign``, the parity sign of the caller's unfolded
    scales.

    A walk is planned from L's recursion (see ``_plan``) and filled from
    the bottom: the K walks the adjacent cells at order k + 1 read, the
    adjacent cells, the K cells of order k, then the levels k + 2..l.
    Only the adjacent cells read the points; the levels above them take
    no term of their own.  The path is "recursion+closed" once the walk
    has read an adjacent closure or a K2 cell.
    """

    __slots__ = (
        "x", "lower", "orders", "k", "a", "b", "sign", "closed_forms", "kt", "jta", "jtb", "rows",
        "used_closed",
    )
    family = "L"

    def __init__(
        self,
        x: float,
        k: int,
        l: int,
        a: float,
        b: float,
        closed_forms: bool = True,
        sign: float = 1.0,
        lower: float | None = None,
    ):
        self.x, self.k, self.a, self.b = x, k, a, b
        self.orders = (k, l)
        self.sign = sign
        self.closed_forms = closed_forms
        self.used_closed = False
        self.kt = kt = KTable(x, a, b, l, closed_forms, 1.0, lower)
        self.jta, self.jtb = (kt.jta, kt.jtb) if a >= b else (kt.jtb, kt.jta)
        self.lower = kt.lower
        self.rows = rows = [None] * (l + 1)
        rows[k] = kt.level(k)
        for lam in range(k + 1, l + 1):
            rows[lam] = {}

    def _adjacent(self, m: int) -> float:
        """The adjacent cell L^m_{k,k+1}, at the point or across the pair:
        the closure, or the ladder, whose k = 0 case is the L01 base."""
        x, k, a, b, kt, lower = self.x, self.k, self.a, self.b, self.kt, self.lower
        if k and m != 1 and self.closed_forms:
            edge = x ** (m + 1) * self.jta[k] * self.jtb[k + 1]
            if lower is not None:
                jta, jtb = (lower.jta, lower.jtb) if a >= b else (lower.jtb, lower.jta)
                edge -= lower.x ** (m + 1) * jta[k] * jtb[k + 1]
            self.used_closed = True
            return _closure(m, k, a, b, edge, kt)
        return _adjacent_ladder(m, k, a, b, kt)

    def fill(self, top: int, lo: int, hi: int) -> None:
        """Store the cells lo..hi (in steps of 2) of level ``top`` > k and
        every cell they need, as ``_plan`` plans them: the K walks of the
        adjacent cells, the adjacent cells, the K cells of order k, then
        the levels k + 2..top upwards, each lowest exponent first.  Where
        the degeneracy guard refuses a walk, it refuses the lowest
        adjacent cell (its K walk, or at k = 0 its L01 base) first, so the
        error names that cell."""
        k, kt, rows = self.k, self.kt, self.rows
        runs, cells, asks = _plan(lo, hi, top, k, self.closed_forms)
        for t, a, b in asks:
            kt.fill(t, a, b)
        adjacent = rows[k + 1]
        for m in cells:
            if m not in adjacent:
                adjacent[m] = self._adjacent(m)
        if k in runs:
            kt.fill(k, *runs[k])
        self.used_closed = self.used_closed or kt.used_closed
        b = self.b
        for lam in range(k + 2, top + 1):
            row, below, below2 = rows[lam], rows[lam - 1], rows[lam - 2]
            c = (2 * lam - 1) / b
            lo, hi = runs[lam]
            for m in range(lo, hi + 1, 2):
                if m not in row:
                    row[m] = c * below[m - 1] - below2[m]


@functools.lru_cache(maxsize=256)
def _plan(lo: int, hi: int, l: int, k: int, closed_forms: bool) -> tuple:
    """(runs, cells, asks): the plan of LTable's fill of the cells lo..hi
    of level l > k.

    ``runs`` is the sweep of L's recursion down to the adjacent level
    k + 1, ``cells`` its adjacent cells, lowest first, and ``asks`` the
    K walks (order, lo, hi) that hold the K cells they read.  An adjacent
    cell reads the closure's K^{m+1}_{k+1}, whose walk holds its
    K^{m+1}_k, or the ladder's K^{m-1}_k, whose walk holds those of lower
    orders; each run of these is one walk.  At k = 0 the adjacent cells
    are L01 bases, which read no K cell.
    """
    runs = sweep(l, lo, hi, None, _STEP, k + 1)
    a, b = runs[k + 1]
    cells = range(a, b + 1, 2)
    asks = []
    for m in cells if k else ():
        top, e = (k + 1, m + 1) if m != 1 and closed_forms else (k, m - 1)
        if asks and asks[-1][0] == top and asks[-1][2] + 2 == e:
            asks[-1] = (top, asks[-1][1], e)
        else:
            asks.append((top, e, e))
    return runs, cells, tuple(asks)


# ---------------------------------------------------------------------------
# equal arguments
# ---------------------------------------------------------------------------

@finite_result
def base_L01_equal(n: int, x: float) -> AntiderivativeValue:
    """Equal-argument base L^n_{01}(x) = int x^n j_0(x) j_1(x) dx,

        (1/2) int x^{n-3} dx - 2^{1-n} Y_{n-3}(2x) - 2^{-n} X_{n-2}(2x)

    with the power-rule integral turning into (ln x)/2 at n = 2.
    """
    IntegralSpec("L", n, 1, k=0, beta=1.0)  # checks n
    x = check_point(x)
    if n == 2:
        poly = 0.5 * math.log(x)
    else:
        poly = 0.5 * x ** (n - 2) / (n - 2)
    chain = TrigChain(1.0, 2.0 * x)
    _refuse_small_arg(n - 3, chain.u)
    v = poly - 2.0 ** (1 - n) * chain.pair(n - 3)[1] - 2.0 ** (-n) * chain.pair(n - 2)[0]
    return AntiderivativeValue(v, "base")


def _closed_L_equal(kind: str, k: int, l: int, x: float, jt) -> float:
    """Printed equal-argument closed forms; cells assume k <= l."""
    jk, jl = jt[k], jt[l]
    jkm = jt[k - 1] if k >= 1 else _j_extended(-1, x)
    jlm = jt[l - 1] if l >= 1 else _j_extended(-1, x)
    jkp, jlp = jt[k + 1], jt[l + 1]
    if kind == "L1":  # n = 0
        if k == l:
            raise DomainError("L1 needs k != l (k = l is the squared family)")
        return (
            x
            / (k * (k + 1) - l * (l + 1))
            * (x * (jkm * jl - jk * jlm) + (l - k) * jk * jl)
        )
    if kind == "L2":  # n = -1
        if k + l == 0 or abs(k - l) == 1:
            raise DomainError("L2 denominators vanish for k + l = 0 or |k - l| = 1")
        return (
            jk * jl / (k + l)
            - x * jkp * jl / ((1 + k - l) * (k + l))
            - x * jk * jlp / ((1 + l - k) * (k + l))
            + 2.0
            * x
            * x
            * (jkp * jlp + jk * jl)
            / ((k + l) * (2 + k + l) * (1 + k - l) * (1 + l - k))
        )
    if kind == "L3":  # n = 1 - k - l
        if k + l == 0:
            raise DomainError("L3 requires k + l >= 1")
        return -x ** (2 - k - l) * (jkm * jlm + jk * jl) / (2.0 * (k + l))
    if kind == "L4":  # n = l - k + 2
        return x ** (l - k + 3) / (2.0 * (k - l - 1)) * (jkm * jlp - jk * jl)
    if kind == "L5":  # n = k + l + 3
        return x ** (k + l + 4) / (2.0 * (k + l + 2)) * (jkp * jlp + jk * jl)
    raise DomainError(f"unknown closed form {kind!r}")


@finite_result
def closed_L_equal(kind: str, k: int, l: int, x: float) -> AntiderivativeValue:
    """Equal-argument closed forms for L^n_{kl}(x) at special exponents:

    L1: n = 0          L2: n = -1         L3: n = 1 - k - l
    L4: n = l - k + 2  L5: n = k + l + 3
    """
    spec = IntegralSpec("L", 0, l, k=k, beta=1.0)
    x = check_point(x)
    k, l = sorted(spec.orders)
    jt = _j_list(l + 1, x)
    return AntiderivativeValue(_closed_L_equal(kind, k, l, x, jt), f"closed:{kind}")


def _closed_kind_equal(m: int, k: int, lam: int) -> str | None:
    if m == 0 and k != lam:
        return "L1"
    if m == -1 and k + lam >= 1 and abs(k - lam) != 1:
        return "L2"
    if m == 1 - k - lam and k + lam >= 1:
        return "L3"
    if m == lam - k + 2:
        return "L4"
    if m == k + lam + 3:
        return "L5"
    return None


@functools.lru_cache(maxsize=256)
def _equal_plan(lo: int, hi: int, l: int, k: int, closed_forms: bool) -> tuple:
    """(run, closed_cells, cells): the plan of LEqualTable's fill of the
    cells lo..hi of level l > k, from the sweep of the equal-argument
    recursion down to order k (an adjacent cell needs H^{m-1}_k).  ``run``
    is the sweep's run of order k, None when it has none; ``closed_cells``
    holds (m, lam, kind) for each cell above order k that one of the five
    printed closed forms gives, and ``cells`` (m, lam) for the rest, which
    the recursion computes; both level by level, lowest exponent first.
    """
    closed = (lambda m, lam: _closed_kind_equal(m, k, lam)) if closed_forms else None
    runs = sweep(l, lo, hi, closed, _STEP, k)
    closed_cells, cells = [], []
    for lam in range(k + 1, l + 1):
        a, b = runs.get(lam, (0, -2))
        for m in range(a, b + 1, 2):
            kind = closed(m, lam) if closed else None
            if kind:
                closed_cells.append((m, lam, kind))
            else:
                cells.append((m, lam))
    return runs.get(k), tuple(closed_cells), tuple(cells)


class LEqualTable(PointTable):
    """The cells L^m_{k,lam}(u), k < lam <= l, of one evaluation point at
    equal unit scales, u = |alpha| x, or their differences from
    ``lower`` to x (see ``types.PointTable``).

    One H table at u serves every H cell the walk reaches, and its j
    table and lower point are the walk's own; its row of order k is this
    table's row k.  ``value(n)`` is |alpha|^(-n-1) L^n_{kl}(u) times
    ``sign``, the parity sign of the caller's unfolded scales.

    The walk is LTable's, planned from the same recursion with the cells
    of the five closed forms closed (``_equal_plan``); H cells stand in
    for the K cells.
    """

    __slots__ = (
        "x", "lower", "orders", "k", "scale", "sign", "closed_forms", "ht", "rows",
    )
    family = "L"
    path = "equal-args"

    def __init__(
        self,
        x: float,
        k: int,
        l: int,
        closed_forms: bool = True,
        alpha: float = 1.0,
        sign: float = 1.0,
        lower: float | None = None,
    ):
        self.x = x
        self.orders = (k, l)
        self.k = k
        self.sign = sign
        self.closed_forms = closed_forms
        self.ht = HTable(x, l, closed_forms, alpha, 1.0, lower)
        self.lower = self.ht.lower
        self.scale = self.ht.scale
        self.rows = rows = [None] * (l + 1)
        rows[k] = self.ht.level(k)
        for lam in range(k + 1, l + 1):
            rows[lam] = {}

    def fill(self, top: int, lo: int, hi: int) -> None:
        """Store the cells lo..hi (in steps of 2) of level ``top`` > k and
        every cell they need, as ``_equal_plan`` plans them: the order-k H
        cells in one H walk, the closed cells by their closed forms, then
        the levels k + 1..top upwards by the recursion."""
        k, ht, rows = self.k, self.ht, self.rows
        u, jt, lower = ht.u, ht.jt, ht.lower
        run, closed_cells, cells = _equal_plan(lo, hi, top, k, self.closed_forms)
        if run is not None:
            ht.fill(k, *run)
        for m, lam, kind in closed_cells:
            row = rows[lam]
            if m not in row:
                v = _closed_L_equal(kind, k, lam, u, jt)
                if lower is not None:
                    v -= _closed_L_equal(kind, k, lam, lower.u, lower.jt)
                row[m] = v
        for m, lam in cells:
            row = rows[lam]
            if m in row:
                continue
            if lam == k + 1:  # adjacent orders through the squared family
                v = (k + 0.5 * m) * rows[k][m - 1] - 0.5 * u**m * jt[k] ** 2
                if lower is not None:
                    v += 0.5 * lower.u**m * lower.jt[k] ** 2
            else:
                v = (2 * lam - 1) * rows[lam - 1][m - 1] - rows[lam - 2][m]
            row[m] = v


# ---------------------------------------------------------------------------
# top-level dispatch
# ---------------------------------------------------------------------------

def point_table(
    spec: IntegralSpec, x: float, closed_forms: bool = True, lower: float | None = None
):
    """The per-point table of spec's Bessel factors at x, or across the
    pair from ``lower`` to x: the one antiderivative dispatch.

    Its ``value(n)`` is the antiderivative of x^n times spec's Bessel
    product at x for any exponent n, or with ``lower`` its integral from
    lower to x, from one walk (see ``types.PointTable``); the exponents
    asked of one table share its j tables, trig chains and recursion
    cells, and each value is bitwise the one a fresh table returns.  One
    factor gets the I table.  Two factors have the parity signs of
    negative scales folded out front, and (k, alpha) swapped with
    (l, beta) when k > l; equal scales then get the equal-argument table
    (the H table when the orders meet too, so K with |alpha| = |beta|
    gets the H table with the parity sign), equal orders the K table,
    and the rest the general order-lowering table.  ``closed_forms``
    reaches the two-factor tables only (I has one route); spec.n is not
    read.
    """
    x = check_point(x)
    if lower is not None:
        lower = check_point(lower)
    (k, alpha), *rest = spec.factors
    if not rest:
        return ITable(k, x, alpha, lower)
    (l, beta), = rest
    sign_a, alpha = parity_fold(k, alpha)
    sign_b, beta = parity_fold(l, beta)
    sign = sign_a * sign_b
    if k > l:
        k, l = l, k
        alpha, beta = beta, alpha
    if alpha == beta and k == l:
        return HTable(x, k, closed_forms, alpha, sign, lower)
    if alpha == beta:
        return LEqualTable(x, k, l, closed_forms, alpha, sign, lower)
    if k == l:
        return KTable(x, alpha, beta, k, closed_forms, sign, lower)
    return LTable(x, k, l, alpha, beta, closed_forms, sign, lower)


def eval_L(
    n: int,
    k: int,
    l: int,
    x: float,
    alpha: float,
    beta: float,
    closed_forms: bool = True,
) -> AntiderivativeValue:
    """L^n_{kl}(x; alpha, beta) = int x^n j_k(alpha x) j_l(beta x) dx.

    Handles every order/scale combination: equal scales route through
    the equal-argument engine (scaled by alpha^{-1-n}), equal orders
    route through K (H when the scales meet too), and the general case
    runs the order-lowering recursion down to K, the adjacent closure,
    or the L01 base.  The path is that table's (``PointTable.path``).

    Raises
    ------
    DomainError
        x outside (0, inf), a zero or non-finite scale, or a negative
        order.
    NearDegenerateError
        |alpha - beta| under the degeneracy guard where the base terms
        admit no series route.
    """
    spec = IntegralSpec("L", n, l, alpha, k=k, beta=beta)
    table = point_table(spec, x, closed_forms)
    return AntiderivativeValue(table.value(spec.n), table.path)


def identity_residual(
    k: int, l: int, a: float, b: float, alpha: float, beta: float
) -> float:
    """Relative residual of the one general-scale closed relation,

        (alpha^2 - beta^2) L^2_{kl} + [l(l+1) - k(k+1)] L^0_{kl}
            = beta x^2 j_k(ax) j_{l-1}(bx) - alpha x^2 j_{k-1}(ax) j_l(bx)
              + (k - l) x j_k(ax) j_l(bx)

    evaluated as a definite integral over [a, b].  Returns
    |LHS - RHS| / max(1, |RHS|); expected below 1e-9 when the library is
    consistent.  Degenerate parameter combinations make both sides
    vanish identically.
    """
    a, b = check_limits(a, b, 0.0, above=True)
    spec = IntegralSpec("L", 0, l, alpha, k=k, beta=beta)  # checks the orders and scales
    (k, alpha), (l, beta) = spec.factors
    c2 = alpha * alpha - beta * beta
    c0 = l * (l + 1) - k * (k + 1)
    lhs = 0.0
    if c2 or c0:
        table = point_table(spec, b, lower=a)  # one walk serves both exponents
        if c2:
            lhs += c2 * table.value(2)
        if c0:
            lhs += c0 * table.value(0)

    def boundary(x: float) -> float:
        jk = _j_list(k, alpha * x)[k]
        jl = _j_list(l, beta * x)[l]
        jlm = j_extended(l - 1, beta * x)
        jkm = j_extended(k - 1, alpha * x)
        return (
            beta * x * x * jk * jlm
            - alpha * x * x * jkm * jl
            + (k - l) * x * jk * jl
        )

    rhs = boundary(b) - boundary(a)
    return abs(lhs - rhs) / max(1.0, abs(rhs))
