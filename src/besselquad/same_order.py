"""Antiderivatives of x^n j_l(a x) j_l(b x) with equal orders, a != b.

The K family.  Writing K^n_l(x; a, b) = int x^n j_l(a x) j_l(b x) dx,
the l = 0 base comes from the product-to-sum identity

    K^n_0 = [ int x^{n-2} cos((a-b)x) dx - int x^{n-2} cos((a+b)x) dx ] / (2ab)

and levels above it satisfy

    K^n_l = [ (a^2+b^2) K^n_{l-1} + (n-2)(n+2l-3) K^{n-2}_{l-1}
              + (2-n) x^{n-1} j_{l-1}(ax) j_{l-1}(bx)
              - x^n (b j_{l-1}(ax) j_l(bx) + a j_l(ax) j_{l-1}(bx)) ] / (2ab)

The only printed closed form is n = 2.

One evaluation point shares one ``KTable``: the j tables at a x and b x,
one trig chain each for (a - b) x and (a + b) x, and the memo of cells.
So the point walks each chain once, and the L family reuses the same
table for every K cell its own recursion reaches.

When |a - b| shrinks, the base terms divide a nearly flat cosine
primitive by a high power of (a - b); with n >= 2 the series route in
trig_primitives absorbs that, otherwise the evaluation refuses with
NearDegenerateError so callers can fall back to quadrature.
"""

from __future__ import annotations

from .errors import DomainError, NearDegenerateError
from .sph_bessel import _j_list, j_extended, parity_fold
from .squared_bessel import _path
from .trig_primitives import TrigChain
from .types import AntiderivativeValue, IntegralSpec, PointTable, check_point

#: relative |alpha - beta| guard below which the base case is hazardous
DEGENERACY_GUARD = 1e-6


def _check_degeneracy(n: int, l: int, a: float, b: float) -> None:
    if abs(a - b) < DEGENERACY_GUARD * (abs(a) + abs(b)):
        # base cells reach exponent n - 2l, trig index n - 2l - 2
        if n - 2 * l - 2 < 0:
            raise NearDegenerateError(
                f"|alpha - beta| = {abs(a - b):.3g} is below the degeneracy "
                f"guard and the n = {n}, l = {l} base terms admit no series; "
                "evaluate this integral by quadrature"
            )


def _closed_K2(lam: int, x: float, a: float, b: float, jta, jtb) -> float:
    ja = jta[lam]
    jb = jtb[lam]
    jam = jta[lam - 1] if lam >= 1 else j_extended(-1, a * x)
    jbm = jtb[lam - 1] if lam >= 1 else j_extended(-1, b * x)
    return x * x / (a * a - b * b) * (b * ja * jbm - a * jam * jb)


class KTable(PointTable):
    """The cells K^m_lam(x; a, b), lam <= lmax, of one evaluation point.

    The scales are positive and distinct; the table orders them, a > b,
    since K is symmetric in its scales.  The table holds the j_0..j_lmax
    tables at a x and b x, one TrigChain for (a - b) x and one for
    (a + b) x that every l = 0 base cell reads, and the memo of the cells
    computed so far.  A caller that needs K cells of several orders or
    exponents at one point (the L recursion, its adjacent closure and its
    n = 1 ladder) shares one table, so no cell, j table or trig chain is
    computed twice.  ``value(n)`` is the order-lmax antiderivative times
    ``sign``, the parity sign of the caller's unfolded scales.  The table
    lives only as long as the evaluation that built it.
    """

    __slots__ = (
        "x", "orders", "a", "b", "lmax", "sign", "jta", "jtb", "near", "far", "closed_forms",
        "used_closed", "_memo",
    )
    family = "K"

    def __init__(
        self,
        x: float,
        a: float,
        b: float,
        lmax: int,
        closed_forms: bool = True,
        constants: bool = True,
        sign: float = 1.0,
    ):
        if a < b:
            a, b = b, a
        self.x = x
        self.orders = (lmax,)
        self.a = a
        self.b = b
        self.lmax = lmax
        self.sign = sign
        self.jta = _j_list(lmax, a * x)
        self.jtb = _j_list(lmax, b * x)
        self.near = TrigChain(a - b, x, constants)
        self.far = TrigChain(a + b, x, constants)
        self.closed_forms = closed_forms
        self.used_closed = False
        self._memo: dict = {}

    def _value(self, n: int) -> float:
        return self.sign * self.guarded(n, self.lmax)

    def guarded(self, m: int, lam: int) -> float:
        """K^m_lam, refusing near-degenerate scales."""
        _check_degeneracy(m, lam, self.a, self.b)
        return self.cell(m, lam)

    def cell(self, m: int, lam: int) -> float:
        key = (m, lam)
        v = self._memo.get(key)
        if v is not None:
            return v
        x, a, b = self.x, self.a, self.b
        if lam == 0:
            v = (self.near.int_cos(m - 2) - self.far.int_cos(m - 2)) / (2.0 * a * b)
        elif self.closed_forms and m == 2:
            v = _closed_K2(lam, x, a, b, self.jta, self.jtb)
            self.used_closed = True
        else:
            jam, jal = self.jta[lam - 1], self.jta[lam]
            jbm, jbl = self.jtb[lam - 1], self.jtb[lam]
            v = (
                (a * a + b * b) * self.cell(m, lam - 1)
                + (m - 2) * (m + 2 * lam - 3) * self.cell(m - 2, lam - 1)
                + (2 - m) * x ** (m - 1) * jam * jbm
                - x**m * (b * jam * jbl + a * jal * jbm)
            ) / (2.0 * a * b)
        self._memo[key] = v
        return v


def _table(
    l: int, x: float, alpha: float, beta: float, closed_forms: bool = True, constants: bool = True
) -> KTable:
    """The K table of eval_K and closed_K2, after their checks: equal
    scale magnitudes belong to the squared family."""
    x = check_point(x)
    (sa, a), (sb, b) = parity_fold(l, alpha), parity_fold(l, beta)
    if a == b:
        raise DomainError(
            "equal scale magnitudes reduce to the squared family; use eval_H_scaled"
        )
    return KTable(x, a, b, l, closed_forms, constants, sa * sb)


def eval_K(
    n: int,
    l: int,
    x: float,
    alpha: float,
    beta: float,
    closed_forms: bool = True,
    constants: bool = True,
) -> AntiderivativeValue:
    """K^n_l(x; alpha, beta) = int x^n j_l(alpha x) j_l(beta x) dx.

    Symmetric in (alpha, beta); the table orders the scales, so swapped
    calls return bit-identical values.  Equal scales (after parity
    folding) belong to the squared family and are rejected.

    Raises
    ------
    DomainError
        x outside (0, inf), a zero or non-finite scale, or |alpha| = |beta|.
    NearDegenerateError
        Scales under the degeneracy guard with no series route.
    """
    spec = IntegralSpec("K", n, l, alpha, beta=beta)
    table = _table(spec.l, x, alpha, beta, closed_forms, constants)
    return AntiderivativeValue(table.value(spec.n), _path(table, spec.l))


def closed_K2(l: int, x: float, alpha: float, beta: float) -> AntiderivativeValue:
    """The one printed closed form,

        K^2_l = x^2 / (a^2 - b^2) [b j_l(ax) j_{l-1}(bx) - a j_{l-1}(ax) j_l(bx)]

    valid for l >= 1 directly and for l = 0 with j_{-1}(x) = cos(x)/x.
    """
    spec = IntegralSpec("K", 2, l, alpha, beta=beta)
    t = _table(spec.l, x, alpha, beta)
    return AntiderivativeValue(
        t.sign * _closed_K2(spec.l, t.x, t.a, t.b, t.jta, t.jtb), "closed:K2"
    )
