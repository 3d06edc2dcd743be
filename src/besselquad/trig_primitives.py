"""Antiderivatives of x^n sin(x) and x^n cos(x) for integer n.

The pair

    X_n(x) = int x^n sin(x) dx        Y_n(x) = int x^n cos(x) dx

satisfies, by integration by parts,

    X_n = n Y_{n-1} - x^n cos(x)      Y_n = x^n sin(x) - n X_{n-1}

stepping down to the anchors X_0 = -cos(x), Y_0 = sin(x).  For n < 0 the
inverted relations

    X_n = (x^{n+1} sin(x) - Y_{n+1}) / (n+1)
    Y_n = (x^{n+1} cos(x) + X_{n+1}) / (n+1)

step away from the anchors X_{-1} = Si(x), Y_{-1} = Ci(x).  Fixing these
four anchors fixes every constant of integration, so the values returned
here are reproducible, not merely correct up to a constant.

The engines need these pairs at many exponents but at few arguments: one
evaluation point of H reads the argument 2x, one of K or L the arguments
|a - b| x and (a + b) x.  ``TrigChain`` keeps the walked values of one
argument, so an evaluation point walks each chain once and computes its
Si/Ci anchor once, instead of restarting from the anchors per exponent.

Si and Ci are implemented locally: a convergent power series below
``SI_CI_SWITCH`` and rational approximations of the auxiliary functions
f, g above it, with Si = pi/2 - f cos - g sin and Ci = f sin - g cos.

For scaled arguments, X_n(a x)/a^{n+1} = int x^n sin(a x) dx admits a
power series for n >= 0 that is preferred at small |a x|, where the
plain recursion would bury the x dependence under the integration
constant.  No comparable expansion exists for n < -1, so arguments below
``SMALL_ARG_HAZARD`` with n < -1 raise QuadratureRecommendedError rather
than return a value of unknown quality.
"""

from __future__ import annotations

import math

from .errors import DomainError, QuadratureRecommendedError
from .types import TrigPrimitive, check_integer, finite_result, finite_value

EULER_GAMMA = 0.5772156649015328606065120900824024

#: switch between the power series and the asymptotic auxiliary functions
SI_CI_SWITCH = 6.0

#: scaled series is used for |alpha x| at or below this
SERIES_ARG_MAX = 0.5

#: the scaled series refuses |alpha x| above this (the engines stay at or
#: below SERIES_ARG_MAX): past |alpha x| ~ 10 the alternating sum cancels
#: catastrophically
SERIES_ARG_LIMIT = 2 * SERIES_ARG_MAX

#: below this argument, primitives with n < -1 refuse to evaluate
SMALL_ARG_HAZARD = 0.1

# cos(n pi / 2) and sin(n pi / 2) for n mod 4 = 0, 1, 2, 3
_COS_HALF = (1, 0, -1, 0)
_SIN_HALF = (0, 1, 0, -1)

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


def _si_ci(u: float, constants: bool = True) -> tuple:
    """(Si(u), Ci(u)) for 0 < u < inf, or (Si(u) - pi/2, Ci(u)) with
    constants=False: the two power series up to SI_CI_SWITCH, the
    auxiliary functions f, g above it."""
    if u <= SI_CI_SWITCH:
        X = _si_series(u)
        return (X if constants else X - 0.5 * math.pi), _ci_series(u)
    c, s = math.cos(u), math.sin(u)
    f, g = _aux_fg(u)
    # constants=False: Si(u) - pi/2 without forming the near-pi/2 value first
    X = 0.5 * math.pi - f * c - g * s if constants else -f * c - g * s
    return X, f * s - g * c


@finite_result
def si(x: float) -> float:
    """Sine integral Si(x) = int_0^x sin(t)/t dt for finite x >= 0."""
    if not 0 <= x < math.inf:
        raise DomainError(f"si requires 0 <= x < inf, got {x}")
    return _si_ci(x)[0] if x else 0.0


@finite_result
def ci(x: float) -> float:
    """Cosine integral Ci(x) = -int_x^inf cos(t)/t dt for finite x > 0."""
    if x <= 0:
        raise DomainError("ci requires x > 0 (logarithmic divergence at 0)")
    if not x < math.inf:
        raise DomainError(f"ci requires a finite x, got {x}")
    return _si_ci(x)[1]


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
    (X_k(u), Y_k(u)).  ``constants`` is as in ``eval_pair``.
    """

    __slots__ = ("c", "x", "u", "constants", "_cos", "_sin", "_up", "_uk", "_down")

    def __init__(self, c: float, x: float, constants: bool = True):
        self.c = c
        self.x = x
        self.u = abs(c) * x
        if not self.u < math.inf:
            raise DomainError(f"trig primitives require a finite argument, got |c| x = {self.u}")
        self.constants = constants
        self._cos = math.cos(self.u)
        self._sin = math.sin(self.u)
        self._up = None  # [(X_0, Y_0), (X_1, Y_1), ...]
        self._uk = 1.0  # u^k for the last k in _up
        self._down = None  # [(X_-1, Y_-1), (X_-2, Y_-2), ...]

    def _anchor(self) -> tuple:
        """(X_-1, Y_-1) = (Si, Ci), or (Si - pi/2, Ci) with constants=False."""
        if self.u == 0:
            raise DomainError("Y_n(0) diverges for n < 0 (and X_n(0) for n < -1)")
        return _si_ci(self.u, self.constants)

    def pair(self, n: int) -> tuple:
        """(X_n(u), Y_n(u)) under the frozen convention (see eval_pair)."""
        u, c, s = self.u, self._cos, self._sin
        if u < 0:
            raise DomainError("trig primitives require x >= 0")
        if n >= 0:
            up = self._up
            if up is None:
                X0 = -c if self.constants else 2.0 * math.sin(0.5 * u) ** 2
                up = self._up = [(X0, s)]
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
            return _scaled_series(1, m, self.c, self.x, self.constants)
        if m == -1 and self.u == 0.0:
            xv = 0.0 if self.constants else -0.5 * math.pi
        else:
            xv = self.pair(m)[0]
        v = abs(self.c) ** (-m - 1) * xv
        return v if self.c > 0 else -v

    def int_cos(self, m: int) -> float:
        """int x^m cos(c x) dx; equals |c|^(-m-1) Y_m(|c| x)."""
        if m >= 0 and self.u <= SERIES_ARG_MAX:
            return _scaled_series(0, m, self.c, self.x, self.constants)
        return abs(self.c) ** (-m - 1) * self.pair(m)[1]


def eval_pair(n: int, x: float, constants: bool = True) -> TrigPrimitive:
    """Evaluate (X_n(x), Y_n(x)) jointly.

    The two sequences are coupled by the recursions, so computing them
    together costs the same as computing either one.  This walks a fresh
    ``TrigChain``; callers that need several exponents at one argument
    keep the chain instead.

    Parameters
    ----------
    n : int
        Monomial exponent.
    x : float
        Argument; x > 0, or x = 0 when n >= 0.
    constants : bool
        With constants=False the x-independent parts of the frozen
        convention are dropped: the downward chain is anchored at
        X_0 + 1 = 1 - cos(x) (removing the Gamma(n+1) terms) and the
        upward chain at Si(x) - pi/2.  Differences of such values equal
        differences of the full values exactly, but without the large
        constants swamping the x dependence, which is what the definite
        integral evaluators need.

    Raises
    ------
    DomainError
        For x < 0, x = 0 with n < 0, a non-finite x, or an X_n or Y_n
        that overflows a float.
    QuadratureRecommendedError
        For n < -1 with 0 < x < SMALL_ARG_HAZARD, where the value is one
        a caller should not difference.
    """
    X, Y = finite_value(lambda *args: f"eval_pair{args}", _pair, n, x, constants)
    return TrigPrimitive(n=n, x=x, X=X, Y=Y)


def _pair(n: int, x: float, constants: bool = True) -> tuple:
    """eval_pair's (X_n(x), Y_n(x)), before the check that both are finite."""
    n = check_integer("n", n)
    if x < 0:
        raise DomainError("trig primitives require x >= 0")
    if x == 0 and n < 0:
        raise DomainError("Y_n(0) diverges for n < 0 (and X_n(0) for n < -1)")
    _refuse_small_arg(n, x)
    return TrigChain(1.0, x, constants).pair(n)


@finite_result
def eval_X(n: int, x: float) -> float:
    """X_n(x) = int x^n sin(x) dx under the frozen constant convention."""
    n = check_integer("n", n)
    if x == 0 and n == -1:
        return 0.0  # Si(0)
    if x == 0 and n < -1:
        raise DomainError(f"X_{n}(0) is divergent")
    return _pair(n, x)[0]


@finite_result
def eval_Y(n: int, x: float) -> float:
    """Y_n(x) = int x^n cos(x) dx under the frozen constant convention."""
    return _pair(n, x)[1]


def _scaled_series(odd: int, n: int, alpha: float, x: float, constants: bool) -> float:
    """The series of X_n (odd = 1, sin) or Y_n (odd = 0, cos) at alpha x
    over alpha^(n+1): the constant, then

        alpha^odd x^(n+1+odd) sum_m (-(alpha x)^2)^m / ((2m+odd)! (n+2m+1+odd))
    """
    if n < 0:
        raise DomainError("scaled series requires n >= 0")
    if alpha == 0:
        raise DomainError("alpha must be nonzero")
    if not abs(alpha * x) <= SERIES_ARG_LIMIT:
        raise DomainError(
            f"scaled series at |alpha x| = {abs(alpha * x):g}: "
            f"it is accurate only up to SERIES_ARG_LIMIT = {SERIES_ARG_LIMIT:g}"
        )
    u2 = (alpha * x) ** 2
    half = -_COS_HALF[n % 4] if odd else _SIN_HALF[n % 4]
    const = 0.0
    if half and constants:
        const = float(math.factorial(n)) * half / alpha ** (n + 1)
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
    return const + lead * acc


@finite_result
def eval_scaled_X_series(n: int, alpha: float, x: float, constants: bool = True) -> float:
    """Series evaluation of X_n(alpha x) / alpha^(n+1) for n >= 0.

    Returns the same antiderivative of x^n sin(alpha x) as the recursion
    route, constant of integration included:

        -Gamma(n+1) cos(n pi/2) / alpha^(n+1)
        + alpha x^(n+2) sum_m (-(alpha x)^2)^m / ((2m+1)! (n+2m+2))

    Intended for |alpha x| <= SERIES_ARG_MAX, where the engines use it;
    the sum is taken to convergence at machine precision, so it stays
    accurate slightly beyond that.  |alpha x| above SERIES_ARG_LIMIT
    (= 2 SERIES_ARG_MAX), where the alternating sum starts to cancel, is
    a DomainError, and so is a value that overflows a float.
    constants=False drops the Gamma term (see eval_pair).
    """
    return _scaled_series(1, check_integer("n", n), alpha, x, constants)


@finite_result
def eval_scaled_Y_series(n: int, alpha: float, x: float, constants: bool = True) -> float:
    """Series evaluation of Y_n(alpha x) / alpha^(n+1) for n >= 0.

    Constant term +Gamma(n+1) sin(n pi/2) / alpha^(n+1); the domain is
    eval_scaled_X_series's.
    """
    return _scaled_series(0, check_integer("n", n), alpha, x, constants)


@finite_result
def int_pow_sin(m: int, c: float, x: float, constants: bool = True) -> float:
    """int x^m sin(c x) dx for c != 0 under the frozen convention.

    Equals sign(c) |c|^(-m-1) X_m(|c| x); routed through the power series
    when m >= 0 and |c x| <= SERIES_ARG_MAX.
    """
    if c == 0:
        raise DomainError("c must be nonzero")
    return TrigChain(c, x, constants).int_sin(check_integer("m", m))


@finite_result
def int_pow_cos(m: int, c: float, x: float, constants: bool = True) -> float:
    """int x^m cos(c x) dx for c != 0; equals |c|^(-m-1) Y_m(|c| x)."""
    if c == 0:
        raise DomainError("c must be nonzero")
    return TrigChain(c, x, constants).int_cos(check_integer("m", m))
