"""Shared value types: integral specifications, evaluation results, strategies."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

#: Integral families handled by the engine.
#:   I  ->  x^n j_l(alpha x)
#:   H  ->  x^n j_l(alpha x)^2
#:   K  ->  x^n j_l(alpha x) j_l(beta x)
#:   L  ->  x^n j_k(alpha x) j_l(beta x)
FAMILIES = ("I", "H", "K", "L")


@dataclass(frozen=True)
class TrigPrimitive:
    """The pair of antiderivatives X_n(x) = int x^n sin(x) dx and
    Y_n(x) = int x^n cos(x) dx under the frozen constant convention
    (X_0 = -cos, Y_0 = sin, X_{-1} = Si, Y_{-1} = Ci)."""

    n: int
    x: float
    X: float
    Y: float


@dataclass(frozen=True)
class AntiderivativeValue:
    """A real antiderivative value under the frozen constant convention,
    together with the evaluation path that produced it.

    Definite integrals are differences of these values.  The ``path``
    string records which route was taken ("recursion", "closed:H3",
    "base", ...); values produced through different routes may differ by
    a constant of integration, which always cancels in differences taken
    along the same route.
    """

    value: float
    path: str = "recursion"

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class Strategy:
    """How a definite integral was evaluated.

    kind is "Recursion" when an antiderivative difference covered a
    segment, "Quadrature" when quadrature covered them all; reason says
    why.  threshold_x is the argument below which the integrand has not
    yet started oscillating (first-zero heuristic divided by the slowest
    scale); split_at is threshold_x when the evaluation split there.
    """

    kind: str
    reason: str = ""
    threshold_x: float = 0.0
    split_at: float | None = None


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive quadrature run."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "error_estimate", float(self.error_estimate))

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class DefiniteResult:
    """Outcome of a strategy-dispatched definite integral."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool
    strategy: Strategy
    segments: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "error_estimate", float(self.error_estimate))

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class IntegralSpec:
    """Identifies one integral of the family ``x^n * (product of j's)``.

    For families I and H only ``l`` and ``alpha`` are used.  K uses equal
    orders ``l`` with two scales.  L uses orders ``k`` and ``l`` with
    scales ``alpha`` and ``beta`` attached respectively.

    The canonical form is ``factors``, one (order, scale) pair per Bessel
    factor: I has one, H two equal ones, K and L two.  Orders, scales,
    the oscillation threshold, the finiteness at 0, the quadrature
    integrand and the antiderivative table all derive from it; only the
    finiteness condition's wording is named per family.
    """

    family: str
    n: int
    l: int
    alpha: float = 1.0
    k: int | None = None
    beta: float | None = None
    factors: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown integral family {self.family!r}")
        for name in ("n", "l", "k"):
            v = getattr(self, name)
            if v is None and name == "k":
                continue
            object.__setattr__(self, name, check_integer(name, v))
        first = (self.l, self.alpha)
        if self.family == "I":
            factors = (first,)
        elif self.family == "H":
            factors = (first, first)
        else:
            k = self.l if self.k is None or self.family == "K" else self.k
            factors = ((k, self.alpha), (self.l, self.beta))
        object.__setattr__(self, "factors", factors)
        for order, _ in factors:
            if order < 0:
                raise DomainError("Bessel orders must be nonnegative")
        for _, scale in factors:
            if scale is None or scale == 0:
                raise DomainError("scale factors must be nonzero")
            try:
                finite = math.isfinite(scale)
            except TypeError:
                finite = False
            if not finite:
                raise DomainError(f"scale factors must be finite real numbers, got {self.scales}")

    # cached: the quadrature layer reads these on every call with a spec
    @cached_property
    def orders(self) -> tuple:
        return tuple(order for order, _ in self.factors)

    @cached_property
    def scales(self) -> tuple:
        return tuple(scale for _, scale in self.factors)

    @cached_property
    def max_order(self) -> int:
        return max(self.orders)

    @cached_property
    def min_scale(self) -> float:
        return min(abs(s) for s in self.scales)

    @property
    def finite_at_zero(self) -> bool:
        """Whether the antiderivative stays finite as x -> 0: the
        integrand starts as x^(n + sum of orders)."""
        return self.n + sum(self.orders) > -1

    @property
    def finiteness_condition(self) -> str:
        """Human-readable finiteness condition at x = 0 for this family."""
        return {
            "I": "l + n > -1",
            "H": "2l + n > -1",
            "K": "2l + n > -1",
            "L": "k + l + n > -1",
        }[self.family]


def check_integer(name: str, v, least: int | None = None) -> int:
    """v as an int, when it is an integer (``operator.index``; a bool is
    refused, though ``operator.index(True)`` is 1) and, if ``least`` is
    given, at least ``least``.  Anything else is a DomainError naming the
    argument: the one integer check of IntegralSpec and of the public
    scalar evaluators' orders and exponents."""
    try:
        if isinstance(v, bool):
            raise TypeError
        i = operator.index(v)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {v!r}") from None
    if least is not None and i < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {v!r}")
    return i


def check_point(x: float) -> float:
    """x, when it is a point an antiderivative can be evaluated at:
    0 < x < inf.  Anything else, NaN included, is a DomainError."""
    if not 0 < x < math.inf:
        raise DomainError(f"antiderivative evaluation requires 0 < x < inf, got {x}")
    return x


def finite_value(describe, compute, /, *args, **kwargs):
    """``compute(*args, **kwargs)`` when it is finite: a float, a value
    with ``__float__``, or a tuple of floats.

    The one place where a computation whose terms overflow a float
    (raising OverflowError, or ending in inf or nan), or which runs
    deeper than the interpreter's recursion limit, becomes a DomainError.
    ``describe(*args, **kwargs)`` names the computation in the message;
    it runs only on failure.  The per-point tables and the public scalar
    evaluators (see ``finite_result``) pass their values through here.
    """
    reason = "its terms overflow a float"
    try:
        v = compute(*args, **kwargs)
    except OverflowError:
        pass
    except RecursionError:
        reason = "the recursion runs deeper than the interpreter's recursion limit"
    else:
        if all(map(math.isfinite, v)) if isinstance(v, tuple) else math.isfinite(v):
            return v
    raise DomainError(f"{describe(*args, **kwargs)}: {reason}")


def _call_text(name: str, *args, **kwargs) -> str:
    params = [repr(a) for a in args] + [f"{k}={v!r}" for k, v in kwargs.items()]
    return f"{name}({', '.join(params)})"


def finite_result(fn):
    """Decorate a public scalar evaluator: it returns a finite value or
    raises the DomainError of ``finite_value``, which names the function
    and its arguments.  The engines call the undecorated cores."""
    describe = functools.partial(_call_text, fn.__name__)

    @functools.wraps(fn)
    def evaluator(*args, **kwargs):
        return finite_value(describe, fn, *args, **kwargs)

    return evaluator


class PointTable:
    """Base of the per-point antiderivative tables of the engines.

    A table holds the shared work of one evaluation point x (j tables,
    trig chains, memoised recursion cells) and serves every exponent:
    ``value(n)`` is the antiderivative of x^n times the table's Bessel
    product at x.  Subclasses set ``family``, ``orders`` and ``x`` and
    define ``_value(n)``.  Every table value passes through ``value``,
    so a recursion whose terms overflow a float, or which runs deeper
    than the interpreter's recursion limit, surfaces here as the
    DomainError of ``finite_value``, naming the family, n, orders and x.
    """

    __slots__ = ()
    family = ""

    def value(self, n: int) -> float:
        """int x^n (the table's Bessel product) dx at the table's point."""
        return finite_value(self._describe, self._value, n)

    def _describe(self, n: int) -> str:
        return f"{self.family} antiderivative with n = {n}, orders {self.orders} at x = {self.x:g}"


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Piecewise polynomial in local monomial bases.

    breakpoints are strictly increasing; interval i carries coefficients
    coefficients[i][d] of (x - breakpoints[i])**d for d = 0..degree.
    """

    breakpoints: tuple
    coefficients: tuple
    degree: int = field(default=1)

    @property
    def span(self) -> tuple:
        return (self.breakpoints[0], self.breakpoints[-1])

    @cached_property
    def piece_arrays(self) -> tuple:
        """(lefts, coeffs): the left breakpoints, and coeffs[d, i] the
        coefficient of (x - lefts[i])**d, zero-padded; cached, as
        ``values`` reads them on every call."""
        import numpy as np

        width = max(len(c) for c in self.coefficients)
        coeffs = np.array([tuple(c) + (0.0,) * (width - len(c)) for c in self.coefficients])
        return np.array(self.breakpoints[:-1]), coeffs.T

    def values(self, xs: np.ndarray) -> np.ndarray:
        """The interpolant at an array of points, each on the piece it
        falls in (clamped to the end pieces, without a span check): one
        vectorised Horner step per degree in the piece's local basis."""
        import numpy as np

        lefts, coeffs = self.piece_arrays
        p = np.clip(np.searchsorted(lefts, xs, side="right") - 1, 0, len(lefts) - 1)
        t = xs - lefts[p]
        env = np.zeros_like(xs)
        for c in coeffs[::-1]:
            env = env * t + c[p]
        return env

    def __call__(self, x):
        import numpy as np

        xs = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.span
        outside = (xs < lo) | (xs > hi)
        if outside.any():
            raise DomainError(f"x={float(xs[outside][0])} outside interpolant span [{lo}, {hi}]")
        out = self.values(xs)
        return float(out[0]) if np.ndim(x) == 0 else out
