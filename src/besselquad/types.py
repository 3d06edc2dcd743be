"""Shared value types: integral specifications, evaluation results, strategies."""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

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
    """Evaluation strategy chosen for a definite integral.

    kind is one of "ClosedForm", "Recursion", "Quadrature", "Series".
    threshold_x is the argument below which the integrand has not yet
    started oscillating (first-zero heuristic divided by the slowest
    scale).  When the requested interval straddles threshold_x the
    evaluation splits there; split_at records the split point.
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
    """

    family: str
    n: int
    l: int
    alpha: float = 1.0
    k: int | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown integral family {self.family!r}")
        for name in ("n", "l", "k"):
            v = getattr(self, name)
            if v is None and name == "k":
                continue
            try:
                object.__setattr__(self, name, operator.index(v))
            except TypeError:
                raise DomainError(f"{name} must be an integer, got {v!r}") from None
        if self.l < 0 or (self.k is not None and self.k < 0):
            raise DomainError("Bessel orders must be nonnegative")
        if self.alpha == 0 or (self.family in ("K", "L") and not self.beta):
            raise DomainError("scale factors must be nonzero")
        try:
            finite = all(math.isfinite(s) for s in self.scales)
        except TypeError:
            finite = False
        if not finite:
            raise DomainError(f"scale factors must be finite real numbers, got {self.scales}")

    @property
    def orders(self) -> tuple:
        if self.family == "L":
            return (self.k if self.k is not None else self.l, self.l)
        return (self.l,)

    @property
    def scales(self) -> tuple:
        if self.family in ("K", "L"):
            return (self.alpha, self.beta)
        return (self.alpha,)

    @property
    def max_order(self) -> int:
        return max(self.orders)

    @property
    def min_scale(self) -> float:
        return min(abs(s) for s in self.scales)

    @property
    def finite_at_zero(self) -> bool:
        """Whether the antiderivative stays finite as x -> 0."""
        if self.family == "I":
            return self.l + self.n > -1
        if self.family == "H":
            return 2 * self.l + self.n > -1
        if self.family == "K":
            return 2 * self.l + self.n > -1
        k = self.k if self.k is not None else self.l
        return k + self.l + self.n > -1

    @property
    def finiteness_condition(self) -> str:
        """Human-readable finiteness condition at x = 0 for this family."""
        return {
            "I": "l + n > -1",
            "H": "2l + n > -1",
            "K": "2l + n > -1",
            "L": "k + l + n > -1",
        }[self.family]


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

    def interval_index(self, x: float) -> int:
        lo, hi = self.span
        if x < lo or x > hi:
            raise DomainError(f"x={x} outside interpolant span [{lo}, {hi}]")
        # rightmost interval whose left edge is <= x
        i = bisect.bisect_right(self.breakpoints, x) - 1
        return min(max(i, 0), len(self.coefficients) - 1)

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        out = np.empty_like(xs)
        for j, xv in enumerate(xs):
            i = self.interval_index(float(xv))
            t = float(xv) - self.breakpoints[i]
            acc = 0.0
            for c in reversed(self.coefficients[i]):
                acc = acc * t + c
            out[j] = acc
        return float(out[0]) if scalar else out
