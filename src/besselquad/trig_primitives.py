"""Antiderivatives of x^n sin(x) and x^n cos(x) for integer n.

The pair

    X_n(x) = int x^n sin(x) dx        Y_n(x) = int x^n cos(x) dx

satisfies, by integration by parts,

    X_n = n Y_{n-1} - x^n cos(x)      Y_n = x^n sin(x) - n X_{n-1}

stepping up from the anchors X_0 = 1 - cos(x), Y_0 = sin(x).  For n < 0
the inverted relations

    X_n = (x^{n+1} sin(x) - Y_{n+1}) / (n+1)
    Y_n = (x^{n+1} cos(x) + X_{n+1}) / (n+1)

step down from the anchors X_{-1} = Si(x) - pi/2, Y_{-1} = Ci(x).  These
four anchors fix every constant of integration, and no constant is
carried that the x dependence would have to be read against: for
n >= 0, X_n(0) = Y_n(0) = 0, so X_n(x) = int_0^x t^n sin(t) dt; for
n < 0, X_n and Y_n vanish as x -> inf, so X_n(x) = -int_x^inf t^n sin(t) dt.

That is the value the walks aim at, not always the one they reach.  The
upward walk multiplies its rounding by k at step k, so X_n and Y_n carry
an error of about eps n!, while at 0 < x < n they are of order
x^(n+1) / (n+1).  Below about x = n / 2 the walk loses digits, and well
below it returns its rounding as the value: eval_pair(20, 0.7).X reads
53.3 where X_20(0.7) = 1.65e-5, X_40(10) keeps 3 digits and X_80(40)
keeps 9 (against mpmath).  The scaled series below covers only
|a x| <= SERIES_ARG_MAX.

The engines need these pairs at many exponents but at few arguments: one
evaluation point of H reads the argument 2x, one of K or L the arguments
|a - b| x and (a + b) x.  ``TrigChain`` keeps the walked values of one
argument, so an evaluation point walks each chain once and computes its
Si/Ci anchor once, instead of restarting from the anchors per exponent.

Si and Ci are implemented locally: a convergent power series below
``SI_CI_SWITCH`` and rational approximations of the auxiliary functions
f, g above it, with Si = pi/2 - f cos - g sin and Ci = f sin - g cos.

For scaled arguments, int x^n sin(a x) dx = X_n(a x)/a^{n+1} admits a
power series for n >= 0 that ``int_pow_sin`` and ``int_pow_cos`` take
at |a x| <= ``SERIES_ARG_MAX``, where the recursion would form a value
of order (a x)^(n+1) from terms of order (a x)^n.  No comparable
expansion exists for n < -1, so arguments below ``SMALL_ARG_HAZARD``
with n < -1 raise QuadratureRecommendedError rather than return a value
of unknown quality.
"""

from __future__ import annotations

import math

from .errors import DomainError, QuadratureRecommendedError
from .types import TrigPrimitive, check_integer, check_real, finite_result, finite_value

EULER_GAMMA = 0.5772156649015328606065120900824024

#: switch between the power series and the asymptotic auxiliary functions
SI_CI_SWITCH = 6.0

#: scaled series is used for |alpha x| at or below this
SERIES_ARG_MAX = 0.5

#: below this argument, primitives with n < -1 refuse to evaluate
SMALL_ARG_HAZARD = 0.1

# Rational (Pade) approximations for the auxiliary functions
#   f(x) ~ int_0^inf sin(t)/(t + x) dt,  g(x) ~ int_0^inf cos(t)/(t + x) dt
# in powers of y = 1/x^2, accurate to ~1e-16 for x >= 4.  These are the
# classic double precision fits used throughout open source Si/Ci code.
_F_NUM = (
    1.0,
    7.44437068161936700618e2,
    1.96396372895146869801e5,
    2.37750310125431834034e7,
    1.43073403821274636888e9,
    4.33736238870432522765e10,
    6.40533830574022022911e11,
    4.20968180571076940208e12,
    1.00795182980368574617e13,
    4.94816688199951963482e12,
    -4.94701168645415959931e11,
)
_F_DEN = (
    1.0,
    7.46437068161927678031e2,
    1.97865247031583951450e5,
    2.41535670165126845144e7,
    1.47478952192985464958e9,
    4.58595115847765779830e10,
    7.08501308149515401563e11,
    5.06084464593475076774e12,
    1.43468549171581016479e13,
    1.11535493509914254097e13,
)
_G_NUM = (
    1.0,
    8.1359520115168615e2,
    2.35239181626478200e5,
    3.12557570795778731e7,
    2.06297595146763354e9,
    6.83052205423625007e10,
    1.09049528450362786e12,
    7.57664583257834349e12,
    1.81004487464664575e13,
    6.43291613143049485e12,
    -1.36517137670871689e12,
)
_G_DEN = (
    1.0,
    8.19595201151451564e2,
    2.40036752835578777e5,
    3.26026661647090822e7,
    2.23355543278099360e9,
    7.87465017341829930e10,
    1.39866710696414565e12,
    1.17164723371736605e13,
    4.01839087307656620e13,
    3.99653257887490811e13,
)


def _poly(coeffs, y):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def _aux_fg(x: float) -> tuple:
    y = 1.0 / (x * x)
    f = _poly(_F_NUM, y) / (x * _poly(_F_DEN, y))
    g = y * _poly(_G_NUM, y) / _poly(_G_DEN, y)
    return f, g


def _si_series(x: float) -> float:
    # sum (-1)^k x^(2k+1) / ((2k+1) (2k+1)!)
    acc = 0.0
    f = x
    k = 0
    while True:
        term = f / (2 * k + 1)
        acc += term
        k += 1
        f *= -(x * x) / ((2 * k) * (2 * k + 1))
        if abs(f) < 1e-18 * (abs(acc) + 1e-300):
            return acc


def _ci_series(x: float) -> float:
    # gamma + ln x + sum (-1)^k x^(2k) / ((2k) (2k)!)
    acc = EULER_GAMMA + math.log(x)
    g = 1.0
    k = 0
    while True:
        k += 1
        g *= -(x * x) / ((2 * k - 1) * (2 * k))
        term = g / (2 * k)
        acc += term
        if abs(g) < 1e-18 * (abs(acc) + 1e-300):
            return acc


def _si_ci(u: float) -> tuple:
    """(Si(u) - pi/2, Ci(u)) for 0 < u < inf: the two power series up to
    SI_CI_SWITCH, the auxiliary functions f, g above it, where
    Si(u) - pi/2 is formed without the near-pi/2 value Si(u)."""
    if u <= SI_CI_SWITCH:
        return _si_series(u) - 0.5 * math.pi, _ci_series(u)
    c, s = math.cos(u), math.sin(u)
    f, g = _aux_fg(u)
    return -f * c - g * s, f * s - g * c


@finite_result
def si(x: float) -> float:
    """Sine integral Si(x) = int_0^x sin(t)/t dt for finite x >= 0: the
    series up to SI_CI_SWITCH, pi/2 plus _si_ci's Si - pi/2 above it."""
    x = check_real("x", x, 0.0)
    return _si_series(x) if x <= SI_CI_SWITCH else 0.5 * math.pi + _si_ci(x)[0]


@finite_result
def ci(x: float) -> float:
    """Cosine integral Ci(x) = -int_x^inf cos(t)/t dt for finite x > 0."""
    return _si_ci(check_real("x", x, 0.0, above=True))[1]


def _refuse_small_arg(n: int, u: float) -> None:
    """Raise QuadratureRecommendedError for X_n(u)/Y_n(u) with n < -1 at
    0 < u < SMALL_ARG_HAZARD, where no small-argument expansion exists."""
    if n < -1 and u < SMALL_ARG_HAZARD:
        raise QuadratureRecommendedError(
            f"X_{n}/Y_{n} at x={u:g}: no small-argument expansion below "
            f"{SMALL_ARG_HAZARD}; integrate this region by quadrature"
        )


class TrigChain:
    """Every X_k(u), Y_k(u) at one argument u = |c| x, each computed once.

    One evaluation point of the H, K and L engines needs the trig
    primitives at many exponents but at only one or two arguments.  A
    chain keeps the values already walked for its argument and extends
    the recursions on demand: upward from X_0, Y_0 for k >= 0, and
    downward for k < 0 from the Si/Ci anchors, which come from one
    evaluation of the auxiliary functions f, g (or of the two series
    below ``SI_CI_SWITCH``).  So an evaluation point walks each chain
    once, and each value is bitwise the one a fresh walk to k returns.
    The chain lives only as long as the evaluation that built it.

    ``int_sin``/``int_cos`` return int x^m sin(c x) dx and
    int x^m cos(c x) dx at x; ``pair`` returns the unscaled
    (X_k(u), Y_k(u)).
    """

    __slots__ = ("c", "x", "u", "_cos", "_sin", "_up", "_uk", "_down")

    def __init__(self, c: float, x: float):
        self.c = c
        self.x = x
        self.u = abs(c) * x
        if not self.u < math.inf:
            raise DomainError(f"trig primitives require a finite argument, got |c| x = {self.u}")
        self._cos = math.cos(self.u)
        self._sin = math.sin(self.u)
        self._up = None  # [(X_0, Y_0), (X_1, Y_1), ...]
        self._uk = 1.0  # u^k for the last k in _up
        self._down = None  # [(X_-1, Y_-1), (X_-2, Y_-2), ...]

    def _anchor(self) -> tuple:
        """(X_-1, Y_-1) = (Si - pi/2, Ci)."""
        if self.u == 0:
            raise DomainError("Y_n(0) diverges for n < 0 (and X_n(0) for n < -1)")
        return _si_ci(self.u)

    def pair(self, n: int) -> tuple:
        """(X_n(u), Y_n(u)) under the module's convention."""
        u, c, s = self.u, self._cos, self._sin
        if n >= 0:
            up = self._up
            if up is None:
                # 1 - cos(u), without cancellation at small u
                up = self._up = [(2.0 * math.sin(0.5 * u) ** 2, s)]
            if n >= len(up):
                X, Y = up[-1]
                uk = self._uk
                for k in range(len(up), n + 1):
                    uk *= u
                    X, Y = k * Y - uk * c, uk * s - k * X
                    up.append((X, Y))
                self._uk = uk
            return up[n]
        down = self._down
        if down is None:
            down = self._down = [self._anchor()]
        if -n > len(down):
            X, Y = down[-1]
            for k in range(-1 - len(down), n - 1, -1):
                p = u ** (k + 1)
                X, Y = (p * s - Y) / (k + 1), (p * c + X) / (k + 1)
                down.append((X, Y))
        return down[-1 - n]

    def int_sin(self, m: int) -> float:
        """int x^m sin(c x) dx; equals sign(c) |c|^(-m-1) X_m(|c| x),
        routed through the power series when m >= 0 and |c x| <=
        SERIES_ARG_MAX."""
        if m >= 0 and self.u <= SERIES_ARG_MAX:
            return _scaled_series(1, m, self.c, self.x)
        xv = -0.5 * math.pi if m == -1 and self.u == 0.0 else self.pair(m)[0]
        v = abs(self.c) ** (-m - 1) * xv
        return v if self.c > 0 else -v

    def int_cos(self, m: int) -> float:
        """int x^m cos(c x) dx; equals |c|^(-m-1) Y_m(|c| x)."""
        if m >= 0 and self.u <= SERIES_ARG_MAX:
            return _scaled_series(0, m, self.c, self.x)
        return abs(self.c) ** (-m - 1) * self.pair(m)[1]


def eval_pair(n: int, x: float) -> TrigPrimitive:
    """Evaluate (X_n(x), Y_n(x)) jointly.

    The two sequences are coupled by the recursions, so computing them
    together costs the same as computing either one.  This walks a fresh
    ``TrigChain``; callers that need several exponents at one argument
    keep the chain instead.  The values follow the module's convention:
    int_0^x for n >= 0, -int_x^inf for n < 0.

    Parameters
    ----------
    n : int
        Monomial exponent.
    x : float
        Argument; x > 0, or x = 0 when n >= 0.

    Raises
    ------
    DomainError
        For x < 0, x = 0 with n < 0, a non-finite x, or an X_n or Y_n
        that overflows a float.  eval_pair(400, 0.0) returns (0.0, 0.0),
        but below about x = n / 2 the upward walk loses digits: its
        rounding grows like n!, so eval_pair(20, 0.7).X reads 53.3 where
        X_20(0.7) is 1.6e-5, and eval_pair(400, 0.7) raises, though
        X_400(0.7) is about 1e-65.
    QuadratureRecommendedError
        For n < -1 with 0 < x < SMALL_ARG_HAZARD, where the value is one
        a caller should not difference (int_pow_sin and int_pow_cos
        take no such rule).
    """
    n, x = check_integer("n", n), check_real("x", x, 0.0)
    X, Y = finite_value(lambda *args: f"eval_pair{args}", _pair, n, x)
    return TrigPrimitive(n=n, x=x, X=X, Y=Y)


def _pair(n: int, x: float) -> tuple:
    """eval_pair's (X_n(x), Y_n(x)) at checked n, x, before the finiteness check."""
    if x == 0 and n < 0:
        raise DomainError("Y_n(0) diverges for n < 0 (and X_n(0) for n < -1)")
    _refuse_small_arg(n, x)
    return TrigChain(1.0, x).pair(n)


def _scaled_series(odd: int, n: int, alpha: float, x: float) -> float:
    """The series of X_n (odd = 1, sin) or Y_n (odd = 0, cos) at alpha x
    over alpha^(n+1),

        alpha^odd x^(n+1+odd) sum_m (-(alpha x)^2)^m / ((2m+odd)! (n+2m+1+odd))

    for n >= 0, alpha != 0 and |alpha x| <= SERIES_ARG_MAX, the one range
    where TrigChain takes it (past |alpha x| ~ 10 the alternating sum
    cancels catastrophically)."""
    u2 = (alpha * x) ** 2
    acc = 0.0
    f = 1.0
    m = 0
    while True:
        acc += f / (n + 2 * m + 1 + odd)
        m += 1
        f *= -u2 / ((2 * m - 1 + odd) * (2 * m + odd))
        if abs(f) < 1e-18 * (abs(acc) + 1e-300) or m > 60:
            break
    lead = alpha * x ** (n + 2) if odd else x ** (n + 1)
    return lead * acc


@finite_result
def int_pow_sin(m: int, c: float, x: float) -> float:
    """int x^m sin(c x) dx for c != 0 under the module's convention.

    Equals sign(c) |c|^(-m-1) X_m(|c| x); routed through the power series
    when m >= 0 and |c x| <= SERIES_ARG_MAX.  Past that, for m >= 0 and
    |c x| below about m / 2, the upward walk loses digits, as in
    eval_pair: int_pow_sin(20, 1.0, 0.7) reads 53.3 where the integral
    int_0^0.7 t^20 sin t dt is 1.65e-5 (see the module docstring).
    Unlike eval_pair it takes
    m < -1 below SMALL_ARG_HAZARD: int_pow_sin(-3, 1.0, 0.01) differenced
    to x = 1 matches mpmath to 15 digits, while eval_pair(-3, 0.01) refuses.
    """
    return _chain(c, x).int_sin(check_integer("m", m))


@finite_result
def int_pow_cos(m: int, c: float, x: float) -> float:
    """int x^m cos(c x) dx for c != 0; equals |c|^(-m-1) Y_m(|c| x).
    Like int_pow_sin, it takes m < -1 below SMALL_ARG_HAZARD, and for
    m >= 0 it loses digits at SERIES_ARG_MAX < |c x| < m / 2 or so."""
    return _chain(c, x).int_cos(check_integer("m", m))


def _chain(c, x) -> TrigChain:
    """The chain of int_pow_sin and int_pow_cos, at checked c != 0, x >= 0."""
    return TrigChain(check_real("c", c, nonzero=True), check_real("x", x, 0.0))
