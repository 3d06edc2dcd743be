"""Antiderivatives of x^n j_l(x), the single spherical Bessel family.

Writing I^n_l(x) = int x^n j_l(x) dx, the derivative recursion for j_l
gives

    I^n_l = (l + n - 1) I^{n-1}_{l-1} - x^n j_{l-1}(x)

which walks (l - i, n - i) down to the l = 0 base I^m_0 = X_{m-1}.  The
walk truncates early when a coefficient (l + n - 1 - 2i) vanishes, which
needs l + n odd and 1 - l <= n <= l - 1.  Scaled arguments reduce via
int x^n j_l(a x) dx = a^(-n-1) I^n_l(a x), with parity folding the sign
of a negative scale out front.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .sph_bessel import _j_list, j, parity_fold
from .trig_primitives import TrigChain, _refuse_small_arg
from .types import AntiderivativeValue, IntegralSpec, PointTable, check_point, finite_result


class ITable(PointTable):
    """int x^n j_l(alpha x) dx at one evaluation point x, for any n, or
    from ``lower`` to x.

    The table holds the j_0..j_{l-1} table at u = |alpha| x and the
    TrigChain of u that the l = 0 base reads, so exponents asked of one
    table share both.  ``value(n)`` is alpha^(-n-1) I^n_l(alpha x), with
    the parity sign of a negative alpha.  ``closed_forms`` is as in eval_I.
    I takes no walk, so its pair is two sums: I^n_l at x less I^n_l at
    the lower point, from the lower point's own table.
    """

    __slots__ = (
        "x", "lower", "orders", "l", "a", "sign", "u", "jt", "chain", "closed_forms",
    )
    family = "I"

    def __init__(
        self, l: int, x: float, alpha: float = 1.0, closed_forms: bool = True,
        lower: float | None = None,
    ):
        self.x = x
        self.orders = (l,)
        self.l = l
        self.sign, self.a = parity_fold(l, alpha)
        self.u = u = self.a * x
        self.jt = _j_list(l - 1, u) if l else None
        self.chain = TrigChain(1.0, u)
        self.closed_forms = closed_forms
        self.lower = None if lower is None else ITable(l, lower, alpha, closed_forms)

    def _X(self, m: int) -> float:
        _refuse_small_arg(m, self.u)
        return self.chain.pair(m)[0]

    def _value(self, n: int) -> float:
        v = self._I(n)
        if self.lower is not None:
            v -= self.lower._I(n)
        return self.sign * self.a ** (-n - 1) * v

    def _I(self, n: int) -> float:
        """I^n_l(u)."""
        l, u, jt = self.l, self.u, self.jt
        if l == 0:
            return self._X(n - 1)
        total = 0.0
        coef = 1  # exact integer product of recursion coefficients
        for i in range(l):
            total -= coef * u ** (n - i) * jt[l - 1 - i]
            coef *= l + n - 1 - 2 * i
            if self.closed_forms and coef == 0:
                return total
        return total + coef * self._X(n - l - 1)


def eval_I(n: int, l: int, x: float, closed_forms: bool = True) -> AntiderivativeValue:
    """I^n_l(x) = int x^n j_l(x) dx (see AntiderivativeValue for the
    constant of integration).

    Parameters
    ----------
    n : int
        Monomial exponent.
    l : int
        Bessel order, l >= 0.
    x : float
        Evaluation point, 0 < x < inf.
    closed_forms : bool
        Stop the recursion once a vanishing coefficient kills every
        deeper term (the default): I's closed form, as a stop at the
        first step is I3.  With closed_forms=False the walk always
        reaches the trigonometric base; the two paths agree because the
        skipped terms carry an exact zero factor.
    """
    spec = IntegralSpec("I", n, l)
    table = ITable(spec.l, check_point(x), 1.0, closed_forms)
    return AntiderivativeValue(table.value(spec.n), "recursion" if spec.l else "base")


def eval_I_scaled(n: int, l: int, x: float, alpha: float) -> AntiderivativeValue:
    """int x^n j_l(alpha x) dx = alpha^(-n-1) I^n_l(alpha x).

    Negative alpha folds through parity, j_l(-u) = (-1)^l j_l(u).
    """
    spec = IntegralSpec("I", n, l, alpha)
    table = ITable(spec.l, check_point(x), spec.alpha)
    return AntiderivativeValue(table.value(spec.n), "recursion" if spec.l else "base")


@finite_result
def closed_I(kind: str, l: int, x: float) -> AntiderivativeValue:
    """Printed closed forms for special exponents.

    I1:  int x^(2+l) j_l dx = x^(2+l) j_{l+1}(x)
    I2:  int x^(4+l) j_l dx = x^(3+l) [(2l+3) j_{l+2}(x) - x j_{l+3}(x)]
    I3:  int x^(1-l) j_l dx = sqrt(pi) 2^(-l) / Gamma(l + 1/2)
                              - x^(1-l) j_{l-1}(x),   l >= 1

    I3 at l = 0 reduces to I^1_0, which the recursion base already
    covers, so it is rejected here.
    """
    l = IntegralSpec("I", 0, l).l
    x = check_point(x)
    if kind == "I1":
        v = x ** (2 + l) * j(l + 1, x)
    elif kind == "I2":
        jt = _j_list(l + 3, x)
        v = x ** (3 + l) * ((2 * l + 3) * jt[l + 2] - x * jt[l + 3])
    elif kind == "I3":
        if l < 1:
            raise DomainError("I3 requires l >= 1; use the recursion for l = 0")
        v = math.sqrt(math.pi) * 2.0 ** (-l) / math.gamma(l + 0.5) - x ** (1 - l) * j(l - 1, x)
    else:
        raise DomainError(f"unknown closed form {kind!r}")
    return AntiderivativeValue(v, f"closed:{kind}")
