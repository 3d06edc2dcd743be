"""Antiderivatives of x^n j_l(a x) j_l(b x) with equal orders, a != b.

The K family.  Writing K^n_l(x; a, b) = int x^n j_l(a x) j_l(b x) dx,
the l = 0 base comes from the product-to-sum identity

    K^n_0 = [ int x^{n-2} cos((a-b)x) dx - int x^{n-2} cos((a+b)x) dx ] / (2ab)

and levels above it satisfy

    K^n_l = [ (a^2+b^2) K^n_{l-1} + (n-2)(n+2l-3) K^{n-2}_{l-1}
              + (2-n) x^{n-1} j_{l-1}(ax) j_{l-1}(bx)
              - x^n (b j_{l-1}(ax) j_l(bx) + a j_l(ax) j_{l-1}(bx)) ] / (2ab)

The only printed closed form is n = 2.

A point or a pair shares one ``KTable``: the j tables at a x and b x,
one trig chain each for (a - b) x and (a + b) x, and one row of cells
per level.  A walk fills the levels bottom-up, so its depth is bounded
only by the order; each point walks each chain once, and the L family
reuses the same table for every K cell its own recursion reaches.  The
recursion is linear with coefficients free of x, so a pair (a, b), as
definite_integral asks for, walks once with cells K(b) - K(a): the base
cells, the closed form and the boundary terms enter as their values at
b less their values at a (see ``types.PointTable``).

When |a - b| shrinks, the base terms divide a nearly flat cosine
primitive by a high power of (a - b); with n >= 2 the series route in
trig_primitives absorbs that, otherwise the evaluation refuses with
NearDegenerateError so callers can fall back to quadrature.
"""

from __future__ import annotations

from .errors import DomainError, NearDegenerateError
from .sph_bessel import _j_extended, _j_list
from .trig_primitives import TrigChain
from .types import AntiderivativeValue, IntegralSpec, PointTable, column_plan, finite_result

#: relative |alpha - beta| guard below which the base case is hazardous
DEGENERACY_GUARD = 1e-6

#: the closed form giving a cell of K's walks, K^2_lam, without and with closed forms
_CLOSED = (None, lambda m, lam: "K2" if m == 2 else None)


def _closed_K2(lam: int, x: float, a: float, b: float, jta, jtb) -> float:
    ja = jta[lam]
    jb = jtb[lam]
    jam = jta[lam - 1] if lam >= 1 else _j_extended(-1, a * x)
    jbm = jtb[lam - 1] if lam >= 1 else _j_extended(-1, b * x)
    return x * x / (a * a - b * b) * (b * ja * jbm - a * jam * jb)


class KTable(PointTable):
    """The cells K^m_lam(x; a, b), lam <= lmax, of one evaluation point,
    or their differences from ``lower`` to x (see ``types.PointTable``).

    The scales are positive and distinct; the table orders them, a > b,
    since K is symmetric in its scales.  The table holds the j_0..j_lmax
    tables at a x and b x, one TrigChain for (a - b) x and one for
    (a + b) x that every l = 0 base cell reads, and one row per level of
    the cells computed so far, keyed by exponent.  A caller that needs K
    cells of several orders or exponents at one point (the L recursion,
    its adjacent closure and its n = 1 ladder) shares one table, so no
    cell, j table or trig chain is computed twice.  ``value(n)`` is the
    order-lmax antiderivative times ``sign``, the parity sign of the
    caller's unfolded scales.  The table lives only as long as the
    evaluation that built it.
    """

    __slots__ = (
        "x", "lower", "orders", "a", "b", "sign", "jta", "jtb", "near", "far",
        "closed_forms", "used_closed", "rows", "_tight", "_s", "_d", "_t",
    )
    family = "K"

    def __init__(
        self,
        x: float,
        a: float,
        b: float,
        lmax: int,
        closed_forms: bool = True,
        sign: float = 1.0,
        lower: float | None = None,
    ):
        if a < b:
            a, b = b, a
        self.x = x
        self.orders = (lmax,)
        self.a = a
        self.b = b
        self.sign = sign
        self.jta = _j_list(lmax, a * x)
        self.jtb = _j_list(lmax, b * x)
        # scales under the degeneracy guard: base terms with a negative
        # trig index admit no series
        self._tight = abs(a - b) < DEGENERACY_GUARD * (abs(a) + abs(b))
        self.near = TrigChain(a - b, x)
        self.far = TrigChain(a + b, x)
        self.closed_forms = closed_forms
        self.used_closed = False
        self.rows = []  # the stored cells of each level, keyed by exponent; see level
        self._s = a * a + b * b
        self._d = 2.0 * a * b
        # b j_{lam-1}(ax) j_lam(bx) + a j_lam(ax) j_{lam-1}(bx) for the levels lam >= 1 walked
        self._t = [0.0]
        self.lower = None if lower is None else KTable(lower, a, b, lmax, closed_forms)

    def fill(self, top: int, lo: int, hi: int) -> None:
        """Store the cells lo..hi (in steps of 2) of level ``top`` and every
        cell they need, from the bottom, as ``types.column_plan`` plans it
        for K's recursion.  Near-degenerate scales are refused first, when
        the walk reaches a base term with a negative trig index, which
        admits no series.  Stored cells at the ends of lo..hi are dropped,
        and stored cells are skipped throughout: their needs are stored
        too: level 0, lowest exponent first; the closed cells, by K2; the
        recursion column by column, each upwards, taking the powers of x
        once per column."""
        # base cells reach exponent lo - 2 top, trig index lo - 2 top - 2
        if self._tight and lo - 2 * top - 2 < 0:
            raise NearDegenerateError(
                f"|alpha - beta| = {abs(self.a - self.b):.3g} is below the degeneracy "
                f"guard and the n = {lo}, l = {top} base terms admit no series; "
                "evaluate this integral by quadrature"
            )
        lo, hi = self._unfilled(top, lo, hi)
        if lo > hi:
            return
        rows = self.rows
        bases, closed_cells, columns = column_plan(top, lo, hi, _CLOSED[self.closed_forms])
        d, lower = self._d, self.lower
        pair = lower is not None
        row, near, far = rows[0], self.near, self.far
        for m in bases:
            if m not in row:
                v = (near.int_cos(m - 2) - far.int_cos(m - 2)) / d
                if pair:
                    v -= (lower.near.int_cos(m - 2) - lower.far.int_cos(m - 2)) / d
                row[m] = v
        x, a, b, jta, jtb = self.x, self.a, self.b, self.jta, self.jtb
        if pair:
            xl, jtal, jtbl = lower.x, lower.jta, lower.jtb
        for m, lam, _ in closed_cells:
            row = rows[lam]
            if m not in row:
                v = _closed_K2(lam, x, a, b, jta, jtb)
                if pair:
                    v -= _closed_K2(lam, xl, a, b, jtal, jtbl)
                row[m] = v
                self.used_closed = True
        s, ts = self._s, self._t
        for lam in range(len(ts), top + 1):
            ts.append(b * jta[lam - 1] * jtb[lam] + a * jta[lam] * jtb[lam - 1])
        if pair:
            tsl = lower._t
            for lam in range(len(tsl), top + 1):
                tsl.append(b * jtal[lam - 1] * jtbl[lam] + a * jtal[lam] * jtbl[lam - 1])
        for m, levels in columns:
            power = None
            for lam in levels:
                row = rows[lam]
                if m in row:
                    continue
                if power is None:
                    power = (2 - m) * x ** (m - 1)
                    xm = x**m
                    if pair:
                        powerl = (2 - m) * xl ** (m - 1)
                        xml = xl**m
                below = rows[lam - 1]
                v = (
                    s * below[m]
                    + (m - 2) * (m + 2 * lam - 3) * below[m - 2]
                    + power * jta[lam - 1] * jtb[lam - 1]
                    - xm * ts[lam]
                )
                if pair:
                    v -= powerl * jtal[lam - 1] * jtbl[lam - 1] - xml * tsl[lam]
                row[m] = v / d


def eval_K(
    n: int,
    l: int,
    x: float,
    alpha: float,
    beta: float,
    closed_forms: bool = True,
) -> AntiderivativeValue:
    """K^n_l(x; alpha, beta) = int x^n j_l(alpha x) j_l(beta x) dx.

    Symmetric in (alpha, beta); the table orders the scales, so swapped
    calls return bit-identical values.  Equal scale magnitudes take the
    squared family's table (``mixed_order.point_table``): the value is
    eval_H's times the parity sign (-1)^l of alpha = -beta.

    Raises
    ------
    DomainError
        x outside (0, inf), or a zero or non-finite scale.
    NearDegenerateError
        Scales under the degeneracy guard with no series route.
    """
    from .mixed_order import point_table  # mixed_order imports this module

    spec = IntegralSpec("K", n, l, alpha, beta=beta)
    table = point_table(spec, x, closed_forms)
    return AntiderivativeValue(table.value(spec.n), table.path)


@finite_result
def closed_K2(l: int, x: float, alpha: float, beta: float) -> AntiderivativeValue:
    """The one printed closed form,

        K^2_l = x^2 / (a^2 - b^2) [b j_l(ax) j_{l-1}(bx) - a j_{l-1}(ax) j_l(bx)]

    valid for l >= 1 directly and for l = 0 with j_{-1}(x) = cos(x)/x.
    Its denominator vanishes at equal scale magnitudes, which it refuses.
    """
    from .mixed_order import point_table  # mixed_order imports this module

    spec = IntegralSpec("K", 2, l, alpha, beta=beta)
    if abs(spec.alpha) == abs(spec.beta):
        raise DomainError("K2 divides by alpha^2 - beta^2, which vanishes at equal "
                          "scale magnitudes; use eval_H")
    t = point_table(spec, x)
    return AntiderivativeValue(
        t.sign * _closed_K2(spec.l, t.x, t.a, t.b, t.jta, t.jtb), "closed:K2"
    )
