"""Antiderivatives of x^n j_l(x)^2, the squared spherical Bessel family.

With H^n_l(x) = int x^n j_l(x)^2 dx, the order-lowering recursion is

    H^n_l = H^n_{l-1} + (n-2)(2l+n-3)/2 * H^{n-2}_{l-1}
            + (1 - n/2) x^{n-1} j_{l-1}^2 - x^n j_{l-1} j_l

so each level l needs the exponents n, n-2, ..., n-2(l - level) one
level down.  The l = 0 bases follow from j_0 = sin(x)/x:

    H^n_0 = x^{n-1} / (2(n-1)) - 2^{-n} Y_{n-2}(2x)       (n != 1)
    H^1_0 = (ln x - Ci(2x)) / 2

Five printed closed forms short-circuit the recursion when an exponent
pattern matches mid-walk.  Their constants of integration differ from
the recursion convention in general; every route is deterministic in
(n, l), so differences of values taken along one route are unaffected.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .sph_bessel import _j_list, j_extended
from .trig_primitives import TrigChain, _refuse_small_arg
from .types import AntiderivativeValue, IntegralSpec, PointTable, check_point

_CLOSED_KINDS = ("H1", "H2", "H3", "H4", "H5")


def _H_base(m: int, x: float, chain: TrigChain) -> float:
    """H^m_0(x); ``chain`` is the TrigChain of 2x that every base cell of
    one evaluation point shares."""
    if m == 1:
        return 0.5 * (math.log(x) - chain.pair(-1)[1])
    _refuse_small_arg(m - 2, chain.u)
    return x ** (m - 1) / (2.0 * (m - 1)) - 2.0 ** (-m) * chain.pair(m - 2)[1]


def _closed_kind(m: int, lam: int) -> str | None:
    """Closed form matching cell (exponent m, order lam), if any."""
    if lam < 1:
        return None
    if m == -1:
        return "H1"
    if m == 1 - 2 * lam:
        return "H2"
    if m == 2:
        return "H3"
    if m == 4:
        return "H4"
    if m == 2 * lam + 3:
        return "H5"
    return None


def _closed_H(kind: str, l: int, x: float, jt=None, constants: bool = True) -> float:
    """Float core of the printed closed forms; j_{-1} = cos(x)/x at l = 0."""
    if jt is None:
        jt = _j_list(l + 1, x)
    jl = jt[l]
    jm = jt[l - 1] if l >= 1 else j_extended(-1, x)
    jp = jt[l + 1]
    if kind == "H1":
        if l < 1:
            raise DomainError("H1 requires l >= 1")
        return (x * x * jm * jm - 2 * l * x * jm * jl + (x * x - l) * jl * jl) / (
            2.0 * l * (l + 1)
        )
    if kind == "H2":
        if l < 1:
            raise DomainError("H2 requires l >= 1")
        const = 0.0
        if constants:
            const = math.pi / (4.0 ** (l + 1) * l * math.gamma(l + 0.5) ** 2)
        return const - x ** (2 * (1 - l)) * (jm * jm + jl * jl) / (4.0 * l)
    if kind == "H3":
        return 0.5 * x**3 * (jl * jl - jm * jp)
    if kind == "H4":
        return (
            x
            * x
            / 12.0
            * (
                -(2 * l + 3) * (4 * l * l + 2 * x * x - 1) * jl * jm
                + x * (4 * l * (l + 1) + 2 * x * x - 3) * jm * jm
                + x * (4 * l * (l + 2) + 2 * x * x + 3) * jl * jl
            )
        )
    if kind == "H5":
        return x ** (2 * (l + 2)) / (4.0 * (l + 1)) * (jl * jl + jp * jp)
    raise DomainError(f"unknown closed form {kind!r}")


def closed_H(kind: str, l: int, x: float) -> AntiderivativeValue:
    """Printed closed forms:

    H1:  n = -1        H2:  n = 1 - 2l     H3:  n = 2
    H4:  n = 4         H5:  n = 2l + 3

    H1 and H2 need l >= 1 (their denominators carry a factor l); H3 and
    H4 at l = 0 use the continuation j_{-1}(x) = cos(x)/x.
    """
    if kind not in _CLOSED_KINDS:
        raise DomainError(f"unknown closed form {kind!r}")
    l = IntegralSpec("H", 0, l).l
    return AntiderivativeValue(_closed_H(kind, l, check_point(x)), f"closed:{kind}")


class HTable(PointTable):
    """The cells H^m_lam(u), lam <= lmax, of one evaluation point.

    The cells are taken at u = |alpha| x.  The table holds j_0..j_{lmax+1}
    at u, the TrigChain of 2u that every l = 0 base cell reads, and the
    memo of the cells computed so far.  ``value(n)`` is the antiderivative
    int x^n j_lmax(alpha x)^2 dx = |alpha|^(-n-1) H^n_lmax(u) (times
    ``sign``, the parity sign of a K or L product whose factors meet), so
    every exponent asked of one table shares its cells.  The
    equal-argument L engine shares one table across every H cell it
    reaches.  The table lives only as long as the evaluation that built
    it.
    """

    __slots__ = (
        "x", "orders", "u", "lmax", "a", "sign", "jt", "chain", "closed_forms", "constants",
        "used_closed", "_memo",
    )
    family = "H"

    def __init__(
        self,
        x: float,
        lmax: int,
        closed_forms: bool = True,
        constants: bool = True,
        alpha: float = 1.0,
        sign: float = 1.0,
    ):
        self.x = x
        self.orders = (lmax,)
        self.a = abs(alpha)
        self.u = u = self.a * x
        self.lmax = lmax
        self.sign = sign
        self.jt = _j_list(lmax + 1, u)
        self.chain = TrigChain(1.0, 2.0 * u, constants)
        self.closed_forms = closed_forms
        self.constants = constants
        self.used_closed = False
        self._memo: dict = {}

    def _value(self, n: int) -> float:
        return self.sign * self.a ** (-n - 1) * self.cell(n, self.lmax)

    def cell(self, m: int, lam: int) -> float:
        key = (m, lam)
        v = self._memo.get(key)
        if v is not None:
            return v
        u = self.u
        if lam == 0:
            v = _H_base(m, u, self.chain)
        else:
            kind = _closed_kind(m, lam) if self.closed_forms else None
            if kind is not None:
                v = _closed_H(kind, lam, u, self.jt, self.constants)
                self.used_closed = True
            else:
                jm, jl = self.jt[lam - 1], self.jt[lam]
                v = (
                    self.cell(m, lam - 1)
                    + 0.5 * (m - 2) * (2 * lam + m - 3) * self.cell(m - 2, lam - 1)
                    + (1.0 - 0.5 * m) * u ** (m - 1) * jm * jm
                    - u**m * jm * jl
                )
        self._memo[key] = v
        return v


def _path(table, l: int) -> str:
    """The route an engine's table took to its order-l value."""
    if l == 0:
        return "base"
    return "recursion+closed" if table.used_closed else "recursion"


def eval_H(
    n: int, l: int, x: float, closed_forms: bool = True, constants: bool = True
) -> AntiderivativeValue:
    """H^n_l(x) = int x^n j_l(x)^2 dx under the frozen convention.

    closed_forms=False forces the pure recursion-to-base route, which is
    what the closed forms are validated against (on differences).
    constants=False drops x-independent constants of integration.
    """
    return eval_H_scaled(n, l, x, 1.0, closed_forms, constants)


def eval_H_scaled(
    n: int, l: int, x: float, alpha: float, closed_forms: bool = True, constants: bool = True
) -> AntiderivativeValue:
    """int x^n j_l(alpha x)^2 dx = alpha^(-n-1) H^n_l(alpha x).

    The integrand is even in alpha, so only |alpha| matters.
    """
    spec = IntegralSpec("H", n, l, alpha)
    table = HTable(check_point(x), spec.l, closed_forms, constants, alpha)
    return AntiderivativeValue(table.value(spec.n), _path(table, spec.l))
