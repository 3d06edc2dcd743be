"""Antiderivatives of x^n j_l(x)^2, the squared spherical Bessel family.

With H^n_l(x) = int x^n j_l(x)^2 dx, the order-lowering recursion is

    H^n_l = H^n_{l-1} + (n-2)(2l+n-3)/2 * H^{n-2}_{l-1}
            + (1 - n/2) x^{n-1} j_{l-1}^2 - x^n j_{l-1} j_l

so each level l needs the exponents n, n-2, ..., n-2(l - level) one
level down.  The l = 0 bases follow from j_0 = sin(x)/x:

    H^n_0 = x^{n-1} / (2(n-1)) - 2^{-n} Y_{n-2}(2x)       (n != 1)
    H^1_0 = (ln x - Ci(2x)) / 2

Integrating by parts with the Bessel equation relates the exponents of
one order: with j = j_l(x) and j' = (l/x) j - j_{l+1},

    m (m^2 - (2l+1)^2) H^m_l + 4 (m+1) H^{m+2}_l
        = 2 x^{m+3} j'^2 - 2 (m-1) x^{m+2} j j'
          + (2x^2 + m(m-1) - 2l(l+1)) x^{m+1} j^2

It holds on the cells of the recursion to the base for m <= -2; at
m >= -1 the constants of the routes enter.  With closed forms on, an
even n <= 0 takes it as a band walk: only H^n and H^{n-2} go up the
levels, and the H^{n-4} the recursion needs one level down comes from
H^{n-2} by the relation.  So the walk costs O(l) steps where the
triangle of the recursion costs O(l^2), and its bases read the trig
chain down to Y_{n-4}(2x) only, where the triangle's read it down to
Y_{n-2l-2}(2x), a walk that loses digits while its index stays below
2x in size.  closed_forms=False keeps the triangle, the reference the
band is tested against.

A point or a pair shares one ``HTable``: the j table, the trig chain of
2x and the cells of every level walked.  Both relations are linear with
coefficients free of x, so a pair (a, b), as definite_integral asks
for, walks the triangle or the band once with cells H(b) - H(a), each
base cell, closed form and boundary term entering as its value at b
less its value at a (see ``types.PointTable``).

Five printed closed forms short-circuit the recursion when an exponent
pattern matches mid-walk.  They carry no constant of their own, so a
closed cell's constant of integration can differ from the one the walk
to the base gives: H1 at n = -1 sits 1 / (2l (l + 1)) above it.  Every
route is deterministic in (n, l) and closed_forms, so differences of
values taken along one route are unaffected.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .sph_bessel import _j_extended, _j_list
from .trig_primitives import TrigChain, _refuse_small_arg
from .types import (
    AntiderivativeValue, IntegralSpec, PointTable, check_point, column_plan, finite_result,
)


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


def _closed_H(kind: str, l: int, x: float, jt=None) -> float:
    """Float core of the printed closed forms; j_{-1} = cos(x)/x at l = 0."""
    if jt is None:
        jt = _j_list(l + 1, x)
    jl = jt[l]
    jm = jt[l - 1] if l >= 1 else _j_extended(-1, x)
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
        return -x ** (2 * (1 - l)) * (jm * jm + jl * jl) / (4.0 * l)
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


@finite_result
def closed_H(kind: str, l: int, x: float) -> AntiderivativeValue:
    """Printed closed forms:

    H1:  n = -1        H2:  n = 1 - 2l     H3:  n = 2
    H4:  n = 4         H5:  n = 2l + 3

    H1 and H2 need l >= 1 (their denominators carry a factor l); H3 and
    H4 at l = 0 use the continuation j_{-1}(x) = cos(x)/x.
    """
    l = IntegralSpec("H", 0, l).l
    return AntiderivativeValue(_closed_H(kind, l, check_point(x)), f"closed:{kind}")


class HTable(PointTable):
    """The cells H^m_lam(u), lam <= lmax, of one evaluation point, or
    their differences from ``lower`` to x (see ``types.PointTable``).

    The cells are taken at u = |alpha| x.  The table holds j_0..j_{lmax+1}
    at u, the TrigChain of 2u that every l = 0 base cell reads, and one
    row per level of the cells computed so far, keyed by exponent.
    ``value(n)`` is the antiderivative int x^n j_lmax(alpha x)^2 dx =
    |alpha|^(-n-1) H^n_lmax(u) (times ``sign``, the parity sign of a K or
    L product whose factors meet), so every exponent asked of one table
    shares its cells (of a band walk, only its own cell and its bases).
    The equal-argument L engine shares one table across every H cell it
    reaches.  The table lives only as long as the evaluation that built
    it.
    """

    __slots__ = (
        "x", "lower", "orders", "u", "scale", "sign", "jt", "chain", "closed_forms",
        "used_closed", "used_band", "rows",
    )
    family = "H"

    def __init__(
        self,
        x: float,
        lmax: int,
        closed_forms: bool = True,
        alpha: float = 1.0,
        sign: float = 1.0,
        lower: float | None = None,
    ):
        self.x = x
        self.orders = (lmax,)
        self.scale = abs(alpha)
        self.u = u = self.scale * x
        self.sign = sign
        self.jt = _j_list(lmax + 1, u)
        self.chain = TrigChain(1.0, 2.0 * u)
        self.closed_forms = closed_forms
        self.used_closed = False
        self.used_band = False
        self.rows = []  # the stored cells of each level, keyed by exponent; see level
        self.lower = None if lower is None else HTable(lower, lmax, closed_forms, alpha)

    def fill(self, top: int, lo: int, hi: int) -> None:
        """Store the cells lo..hi (in steps of 2) of level ``top`` and every
        cell they need, from the bottom.  Stored cells at the ends of lo..hi
        are dropped first, and stored cells are skipped throughout: their
        needs are stored too.  With closed forms on and top >= 1, each even
        cell <= 0 takes its own band walk (``_band``), lowest first.  The
        rest go as ``types.column_plan`` plans them for H's recursion, which
        then needs no even cell <= 0 above level 0 (H3 and H4 close the
        columns 2 and 4): level 0, lowest exponent first, so where the
        small-argument guard refuses bases it names the lowest; the closed
        cells; the recursion column by column, each upwards, taking the
        powers of u once per column."""
        lo, hi = self._unfilled(top, lo, hi)
        rows = self.rows
        if self.closed_forms and top and lo % 2 == 0:
            row = rows[top]
            for n in range(lo, min(hi, 0) + 1, 2):
                if n not in row:
                    self._band(top, n)
            lo = max(lo, 2)
        if lo > hi:
            return
        closed = _closed_kind if self.closed_forms else None
        bases, closed_cells, columns = column_plan(top, lo, hi, closed)
        u, jt, lower = self.u, self.jt, self.lower
        pair = lower is not None
        if pair:
            ul, jtl = lower.u, lower.jt
        row, chain = rows[0], self.chain
        for m in bases:
            if m not in row:
                row[m] = _H_base(m, u, chain)
                if pair:
                    row[m] -= _H_base(m, ul, lower.chain)
        for m, lam, kind in closed_cells:
            row = rows[lam]
            if m not in row:
                v = _closed_H(kind, lam, u, jt)
                if pair:
                    v -= _closed_H(kind, lam, ul, jtl)
                row[m] = v
                self.used_closed = True
        for m, levels in columns:
            half = 0.5 * (m - 2)
            power = None
            for lam in levels:
                row = rows[lam]
                if m in row:
                    continue
                if power is None:
                    power = (1.0 - 0.5 * m) * u ** (m - 1)
                    um = u**m
                    if pair:
                        powerl = (1.0 - 0.5 * m) * ul ** (m - 1)
                        uml = ul**m
                below = rows[lam - 1]
                jm, jl = jt[lam - 1], jt[lam]
                row[m] = (
                    below[m]
                    + half * (2 * lam + m - 3) * below[m - 2]
                    + power * jm * jm
                    - um * jm * jl
                )
                if pair:
                    jm, jl = jtl[lam - 1], jtl[lam]
                    row[m] -= powerl * jm * jm - uml * jm * jl

    def _band(self, top: int, n: int) -> None:
        """Store H^n_top, n even and <= 0, by the band walk: only the cells
        (n, lam) and (n - 2, lam) go up the levels, and the cell
        (n - 4, lam) that the order recursion needs for the second comes
        from (n - 2, lam) by the exponent relation (see the module
        docstring) at order lam, whose coefficient is nonzero for every
        even n - 4 <= -4.  The bases H^{n-2}_0 and H^n_0, lowest first, go
        to the level-0 row, which every walk shares bitwise; the cells
        between stay in the walk, so each stored value is the one a fresh
        walk gives."""
        rows, u, jt, lower = self.rows, self.u, self.jt, self.lower
        pair = lower is not None
        row = rows[0]
        for m in (n - 2, n):
            if m not in row:
                v = _H_base(m, u, self.chain)
                if pair:
                    v -= _H_base(m, lower.u, lower.chain)
                row[m] = v
        cell, cell2 = row[n], row[n - 2]
        m = n - 4
        # the powers of u, and the coefficients of j_{lam-1}^2 in the steps
        # of n and n - 2, at the point and at the lower point of a pair
        u3, u2, u0 = u ** (n - 3), u ** (n - 2), u**n
        c1, c3 = (1 - 0.5 * n) * u ** (n - 1), (2 - 0.5 * n) * u3
        uu = u * u
        if pair:
            ul, jtl = lower.u, lower.jt
            u3l, u2l, u0l = ul ** (n - 3), ul ** (n - 2), ul**n
            c1l, c3l = (1 - 0.5 * n) * ul ** (n - 1), (2 - 0.5 * n) * u3l
            uul = ul * ul
        for lam in range(1, top + 1):
            order = lam - 1
            j, jn = jt[order], jt[lam]
            p = order * j - u * jn  # u j'_order
            edge = u3 * (2 * p * p - 2 * (m - 1) * j * p
                          + (2 * uu + m * (m - 1) - 2 * order * lam) * j * j)
            if pair:
                jl, jnl = jtl[order], jtl[lam]
                p = order * jl - ul * jnl
                edge -= u3l * (2 * p * p - 2 * (m - 1) * jl * p
                               + (2 * uul + m * (m - 1) - 2 * order * lam) * jl * jl)
            cell4 = (edge - 4 * (m + 1) * cell2) / (m * (m * m - (2 * order + 1) ** 2))
            jj, jjn = j * j, j * jn
            cell, cell2 = (
                cell + 0.5 * (n - 2) * (2 * lam + n - 3) * cell2 + c1 * jj - u0 * jjn,
                cell2 + 0.5 * m * (2 * lam + n - 5) * cell4 + c3 * jj - u2 * jjn,
            )
            if pair:
                jj, jjn = jl * jl, jl * jnl
                cell -= c1l * jj - u0l * jjn
                cell2 -= c3l * jj - u2l * jjn
        rows[top][n] = cell
        self.used_band = True


def eval_H(
    n: int, l: int, x: float, alpha: float = 1.0, closed_forms: bool = True
) -> AntiderivativeValue:
    """int x^n j_l(alpha x)^2 dx = |alpha|^(-n-1) H^n_l(|alpha| x) (see
    AntiderivativeValue for the constant of integration).

    The integrand is even in alpha, so only |alpha| matters.
    closed_forms=False forces the pure recursion-to-base route, which is
    what the closed forms and the band walk are validated against (on
    differences).
    """
    spec = IntegralSpec("H", n, l, alpha)
    table = HTable(check_point(x), spec.l, closed_forms, spec.alpha)
    return AntiderivativeValue(table.value(spec.n), table.path)


#: the former name of the scaled evaluator: perfbench/spans.py traces it,
#: until ROADMAP item 5a retires it with those spans
eval_H_scaled = eval_H
