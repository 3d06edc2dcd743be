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

(the same ladder also serves as the pure-recursion reference path for
the closure).  One evaluation point builds one ``LTable``, which holds
one K table for its (x, a, b) (see same_order.KTable): every K cell, the
adjacent closure and the n = 1 ladder read it, and the L01 base reads
its two trig chains, so the point walks each chain once.  Equal
arguments a = b get their own engine, ``LEqualTable``, with five printed
closed forms, the simpler adjacent-order rule through the squared
family, and the equal-argument base; it shares one H table in the same
way.  A table's memo serves every exponent asked of it, so one table
per point covers every monomial of a weighted integral.

Canonicalization (``point_table``, the one table dispatch of every
family, which quadrature imports): the parity sign of each negative
scale is folded out front by ``sph_bessel.parity_fold``
(j_m(-u) = (-1)^m j_m(u)), and (k, a) is swapped with (l, b) when
k > l, so symmetry under the joint swap is exact.  The K table orders
its own scales.
"""

from __future__ import annotations

import math

from .errors import DomainError, NearDegenerateError
from .same_order import DEGENERACY_GUARD, KTable
from .single_bessel import ITable
from .sph_bessel import _j_extended, _j_list, j_extended, parity_fold
from .squared_bessel import HTable
from .trig_primitives import TrigChain, _refuse_small_arg
from .types import AntiderivativeValue, IntegralSpec, PointTable, check_point, finite_result

_EQUAL_CLOSED_KINDS = ("L1", "L2", "L3", "L4", "L5")


# ---------------------------------------------------------------------------
# general scales
# ---------------------------------------------------------------------------

def _base_L01(n: int, x: float, a: float, b: float, near: TrigChain, far: TrigChain) -> float:
    """L^n_{01}(x; a, b) from the chains of |a - b| x (near) and |a + b| x
    (far); int x^m sin(c x) dx is odd in c, so the sine terms take the
    signs of a - b and a + b."""
    for c in (a - b, a + b):
        if c == 0:
            raise DomainError("base_L01 requires |alpha| != |beta|; use the equal-argument path")
        if abs(c) < DEGENERACY_GUARD * (abs(a) + abs(b)) and n - 3 < 0:
            raise NearDegenerateError(
                f"scale combination {c:.3g} under the degeneracy guard with "
                f"n = {n} < 3; evaluate by quadrature"
            )
    cos_part = (near.int_cos(n - 3) - far.int_cos(n - 3)) / (2.0 * a * b * b)
    sin_near = near.int_sin(n - 2)
    sin_far = far.int_sin(n - 2)
    sin_part = (
        (sin_near if a > b else -sin_near) + (sin_far if a + b > 0 else -sin_far)
    ) / (2.0 * a * b)
    return cos_part - sin_part


@finite_result
def base_L01(n: int, x: float, alpha: float, beta: float) -> AntiderivativeValue:
    """The terminal case L^n_{01}(x; alpha, beta) = int x^n j_0(ax) j_1(bx) dx.

    Derived purely from product-to-sum trig identities, so any nonzero
    scales with |alpha| != |beta| are accepted.
    """
    IntegralSpec("L", n, 1, alpha, k=0, beta=beta)  # checks n and the scales
    x = check_point(x)
    near = TrigChain(abs(alpha - beta), x)
    far = TrigChain(abs(alpha + beta), x)
    return AntiderivativeValue(_base_L01(n, x, alpha, beta, near, far), "base")


def _check_adjacent(n: int, l: int, x: float, alpha: float, beta: float) -> None:
    """The checks of the adjacent-order evaluators, which take l >= 1 and
    positive scales (eval_L folds parity before landing there)."""
    IntegralSpec("L", n, l, alpha, k=l - 1, beta=beta)  # checks n, the orders and scales
    check_point(x)
    if alpha < 0 or beta < 0:
        raise DomainError("the adjacent-order evaluators expect positive scales")


def adjacent_closure(n: int, l: int, x: float, alpha: float, beta: float) -> AntiderivativeValue:
    """Closure for adjacent orders, L^n_{l-1,l}(x; alpha, beta), n != 1.

    Requires positive scales (eval_L folds parity before landing here)
    and l >= 1.  The value is the general table's adjacent cell, so at
    l = 1 it is the L01 base.
    """
    if n == 1:
        raise DomainError("adjacent closure divides by n - 1; use the n = 1 ladder")
    _check_adjacent(n, l, x, alpha, beta)
    return AntiderivativeValue(LTable(x, l - 1, l, alpha, beta).value(n), "closure")


def _adjacent_ladder(m: int, k: int, x: float, a: float, b: float, kt: KTable) -> float:
    """L^m_{k,k+1}(x; a, b) by repeated order lowering down to L^m_{01}.

    Each step swaps the scale order through L^m_{k,k-1}(x;a,b) =
    L^m_{k-1,k}(x;b,a); the K cells come from the shared table kt.
    """
    if k == 0:
        return _base_L01(m, x, a, b, kt.near, kt.far)
    return (2 * k + 1) / b * kt.guarded(m - 1, k) - _adjacent_ladder(m, k - 1, x, b, a, kt)


def adjacent_by_recursion(
    n: int, l: int, x: float, alpha: float, beta: float
) -> AntiderivativeValue:
    """Pure-recursion reference for the adjacent-order case (no closure,
    no closed forms inside K); used to validate adjacent_closure."""
    _check_adjacent(n, l, x, alpha, beta)
    return AntiderivativeValue(LTable(x, l - 1, l, alpha, beta, False).value(n), "ladder")


def _closure(
    m: int, k: int, x: float, a: float, b: float, jk: float, jl: float, kt: KTable
) -> float:
    """L^m_{k,k+1}(x; a, b) by the adjacent-order closure, m != 1, from
    jk = j_k(a x), jl = j_{k+1}(b x) and the K cells of kt."""
    return (x ** (m + 1) * jk * jl + a * kt.guarded(m + 1, k + 1) - b * kt.guarded(m + 1, k)) / (m - 1)


class LTable(PointTable):
    """The cells L^m_{k,lam}(x; a, b), k < lam <= l, of one evaluation
    point, for positive distinct scales and k < l.

    One K table serves every K cell, adjacent closure and ladder step of
    the walk, and its j tables are the walk's own.  ``value(n)`` is
    L^n_{kl} times ``sign``, the parity sign of the caller's unfolded
    scales.
    """

    __slots__ = (
        "x", "orders", "k", "l", "a", "b", "sign", "closed_forms", "kt", "jta", "jtb", "_memo",
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
        constants: bool = True,
        sign: float = 1.0,
    ):
        self.x, self.k, self.l, self.a, self.b = x, k, l, a, b
        self.orders = (k, l)
        self.sign = sign
        self.closed_forms = closed_forms
        self.kt = kt = KTable(x, a, b, l, closed_forms, constants)
        self.jta, self.jtb = (kt.jta, kt.jtb) if a >= b else (kt.jtb, kt.jta)
        self._memo: dict = {}

    def _value(self, n: int) -> float:
        return self.sign * self.cell(n, self.l)

    def cell(self, m: int, lam: int) -> float:
        key = (m, lam)
        v = self._memo.get(key)
        if v is not None:
            return v
        x, k, a, b, kt = self.x, self.k, self.a, self.b, self.kt
        if lam == k:
            v = kt.guarded(m, k)
        elif lam == k + 1:
            if k == 0:
                v = _base_L01(m, x, a, b, kt.near, kt.far)
            elif m != 1 and self.closed_forms:
                v = _closure(m, k, x, a, b, self.jta[k], self.jtb[lam], kt)
            else:
                v = _adjacent_ladder(m, k, x, a, b, kt)
        else:
            v = (2 * lam - 1) / b * self.cell(m - 1, lam - 1) - self.cell(m, lam - 2)
        self._memo[key] = v
        return v


# ---------------------------------------------------------------------------
# equal arguments
# ---------------------------------------------------------------------------

@finite_result
def base_L01_equal(n: int, x: float, constants: bool = True) -> AntiderivativeValue:
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
    chain = TrigChain(1.0, 2.0 * x, constants)
    _refuse_small_arg(n - 3, chain.u)
    v = poly - 2.0 ** (1 - n) * chain.pair(n - 3)[1] - 2.0 ** (-n) * chain.pair(n - 2)[0]
    return AntiderivativeValue(v, "base")


def _closed_L_equal(kind: str, k: int, l: int, x: float, jt, constants: bool = True) -> float:
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
        const = 0.0
        if constants:
            const = math.pi / (
                2.0 ** (k + l + 1) * (k + l) * math.gamma(k + 0.5) * math.gamma(l + 0.5)
            )
        return const - x ** (2 - k - l) * (jkm * jlm + jk * jl) / (2.0 * (k + l))
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
    if kind not in _EQUAL_CLOSED_KINDS:
        raise DomainError(f"unknown closed form {kind!r}")
    spec = IntegralSpec("L", 0, l, k=k, beta=1.0)
    x = check_point(x)
    k, l = sorted(spec.orders)
    jt = _j_list(l + 1, x)
    return AntiderivativeValue(_closed_L_equal(kind, k, l, x, jt), f"closed:{kind}")


def _equal_closed_kind(m: int, k: int, lam: int) -> str | None:
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


class LEqualTable(PointTable):
    """The cells L^m_{k,lam}(u), k < lam <= l, of one evaluation point at
    equal unit scales, u = |alpha| x.

    One H table at u serves every H cell the walk reaches, and its j
    table is the walk's own.  ``value(n)`` is |alpha|^(-n-1) L^n_{kl}(u)
    times ``sign``, the parity sign of the caller's unfolded scales.
    """

    __slots__ = ("x", "orders", "k", "l", "sign", "closed_forms", "constants", "ht", "_memo")
    family = "L"

    def __init__(
        self,
        x: float,
        k: int,
        l: int,
        closed_forms: bool = True,
        constants: bool = True,
        alpha: float = 1.0,
        sign: float = 1.0,
    ):
        self.x = x
        self.orders = (k, l)
        self.k, self.l = k, l
        self.sign = sign
        self.closed_forms = closed_forms
        self.constants = constants
        self.ht = HTable(x, l, closed_forms, constants, alpha)
        self._memo: dict = {}

    def _value(self, n: int) -> float:
        return self.sign * self.ht.a ** (-n - 1) * self.cell(n, self.l)

    def cell(self, m: int, lam: int) -> float:
        key = (m, lam)
        v = self._memo.get(key)
        if v is not None:
            return v
        k, ht = self.k, self.ht
        u, jt = ht.u, ht.jt
        if lam == k:
            v = ht.cell(m, k)
        else:
            kind = _equal_closed_kind(m, k, lam) if self.closed_forms else None
            if kind is not None:
                v = _closed_L_equal(kind, k, lam, u, jt, self.constants)
            elif lam == k + 1:
                # adjacent orders through the squared family
                v = (k + 0.5 * m) * ht.cell(m - 1, k) - 0.5 * u**m * jt[k] ** 2
            else:
                v = (2 * lam - 1) * self.cell(m - 1, lam - 1) - self.cell(m, lam - 2)
        self._memo[key] = v
        return v


def eval_L_equal_args(
    n: int, k: int, l: int, x: float, closed_forms: bool = True, constants: bool = True
) -> AntiderivativeValue:
    """L^n_{kl}(x) = int x^n j_k(x) j_l(x) dx (equal unit arguments).

    Dispatch priority: printed closed form where the exponent pattern
    matches, the adjacent-order rule through H when l = k + 1, plain
    order lowering otherwise.  Symmetric under k <-> l.
    """
    return eval_L(n, k, l, x, 1.0, 1.0, closed_forms, constants)


# ---------------------------------------------------------------------------
# top-level dispatch
# ---------------------------------------------------------------------------

def point_table(spec: IntegralSpec, x: float, closed_forms: bool = True, constants: bool = True):
    """The per-point table of spec's Bessel factors at x: the one
    antiderivative dispatch.

    Its ``value(n)`` is the antiderivative of x^n times spec's Bessel
    product at x for any exponent n; the exponents asked of one table
    share its j tables, trig chains and recursion cells, and each value
    is bitwise the one a fresh table returns.  One factor gets the I
    table.  Two factors have the parity signs of negative scales folded
    out front, and (k, alpha) swapped with (l, beta) when k > l; equal
    scales then get the equal-argument table (the H table when the
    orders meet too, so K with |alpha| = |beta| gets the H table with the
    parity sign), equal orders the K table, and the rest the general
    order-lowering table.  spec.n is not read.
    """
    x = check_point(x)
    (k, alpha), *rest = spec.factors
    if not rest:
        return ITable(k, x, alpha, closed_forms, constants)
    (l, beta), = rest
    sign_a, alpha = parity_fold(k, alpha)
    sign_b, beta = parity_fold(l, beta)
    sign = sign_a * sign_b
    if k > l:
        k, l = l, k
        alpha, beta = beta, alpha
    if alpha == beta and k == l:
        return HTable(x, k, closed_forms, constants, alpha, sign)
    if alpha == beta:
        return LEqualTable(x, k, l, closed_forms, constants, alpha, sign)
    if k == l:
        return KTable(x, alpha, beta, k, closed_forms, constants, sign)
    return LTable(x, k, l, alpha, beta, closed_forms, constants, sign)


#: eval_L's path for each kind of table point_table returns
_L_PATHS = {
    HTable: "equal-args",
    LEqualTable: "equal-args",
    KTable: "same-order",
    LTable: "recursion",
}


def eval_L(
    n: int,
    k: int,
    l: int,
    x: float,
    alpha: float,
    beta: float,
    closed_forms: bool = True,
    constants: bool = True,
) -> AntiderivativeValue:
    """L^n_{kl}(x; alpha, beta) = int x^n j_k(alpha x) j_l(beta x) dx.

    Handles every order/scale combination: equal scales route through
    the equal-argument engine (scaled by alpha^{-1-n}), equal orders
    route through K, and the general case runs the order-lowering
    recursion down to K, the adjacent closure, or the L01 base.

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
    table = point_table(spec, x, closed_forms, constants)
    return AntiderivativeValue(table.value(spec.n), _L_PATHS[type(table)])


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
    if not 0 < a < b:
        raise DomainError("need 0 < a < b")
    c2 = alpha * alpha - beta * beta
    c0 = l * (l + 1) - k * (k + 1)
    lhs = 0.0
    if c2 != 0.0:
        lhs += c2 * (
            eval_L(2, k, l, b, alpha, beta).value - eval_L(2, k, l, a, alpha, beta).value
        )
    if c0 != 0:
        lhs += c0 * (
            eval_L(0, k, l, b, alpha, beta).value - eval_L(0, k, l, a, alpha, beta).value
        )

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
