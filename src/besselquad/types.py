"""Shared value types: integral specifications, evaluation results and the
record of the routes a definite integral ran."""

from __future__ import annotations

import functools
import math
import numbers
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
    Y_n(x) = int x^n cos(x) dx from the anchors X_0 = 1 - cos,
    Y_0 = sin, X_{-1} = Si - pi/2, Y_{-1} = Ci: int_0^x for n >= 0,
    -int_x^inf for n < 0."""

    n: int
    x: float
    X: float
    Y: float


@dataclass(frozen=True)
class AntiderivativeValue:
    """A real antiderivative value, together with the evaluation path
    that produced it.

    The ``path`` string records which route was taken ("recursion",
    "closed:H3", "base", ...).  Each route fixes its constant of
    integration, the same at every x, and the route depends only on the
    spec and ``closed_forms``: so definite integrals are differences of
    two values taken with the same arguments.  The constants come from
    the trig anchors (``trig_primitives``: X_m(0) = Y_m(0) = 0 for
    m >= 0, X_m, Y_m -> 0 at infinity for m < 0) carried through the
    recursions, and from the printed closed forms, which carry none of
    their own.  They are not one rule for every spec: I^n_l is
    int_0^x minus DLMF 10.22.43's int_0^inf in most cells, but int_0^x
    where n > l and n - l is odd; H^0_l is int_0^x - pi / (2 (2l + 1));
    and routes of one spec can differ by a constant, as the closed form
    H1 sits 1 / (2l (l + 1)) above the recursion's -int_x^inf.  The
    constant cancels from a table across a pair of points (a, b), whose
    value is F(b) - F(a) from one walk (``PointTable``); the
    public evaluators that return this record take one point.
    """

    value: float
    path: str = "recursion"

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))

    def __float__(self) -> float:
        return self.value


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
class DefiniteResult(QuadratureResult):
    """Outcome of a strategy-dispatched definite integral: the quadrature
    run's fields, plus ``segments``, one (route, lo, hi) per route that
    ran, "quadrature" or "recursion", in order along [a, b], and
    ``reason``, why those routes ran."""

    segments: tuple
    reason: str


@dataclass(frozen=True)
class IntegralSpec:
    """Identifies one integral of the family ``x^n * (product of j's)``.

    For families I and H only ``l`` and ``alpha`` are used: I ignores
    ``k`` and ``beta``, and H refuses a ``k`` other than ``l`` and a
    ``beta`` other than ``alpha``.  K uses equal orders ``l`` with two
    scales, and refuses a ``k`` other than ``l``.  L uses orders ``k``
    and ``l`` with scales ``alpha`` and ``beta`` attached respectively.

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
        for name in ("n", "l") if self.k is None else ("n", "l", "k"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
        for name in ("alpha", "beta") if self.family in "KL" else ("alpha",):
            object.__setattr__(self, name, check_real(name, getattr(self, name), nonzero=True))
        # K and H have one order, H one scale: a second one that differs would be dropped
        if self.family in "KH" and self.k not in (None, self.l):
            raise DomainError(
                f"k must be None or l in family {self.family}, got {self.k!r}: L takes two orders")
        if self.family == "H" and self.beta is not None and check_real("beta", self.beta) != self.alpha:
            raise DomainError(
                f"beta must be None or alpha in family H, got {self.beta!r}: K takes two scales")
        first = (self.l, self.alpha)
        if self.family == "I":
            factors = (first,)
        elif self.family == "H":
            factors = (first, first)
        else:
            k = self.l if self.k is None else self.k
            factors = ((k, self.alpha), (self.l, self.beta))
        object.__setattr__(self, "factors", factors)
        if min(order for order, _ in factors) < 0:
            raise DomainError("Bessel orders must be nonnegative")

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
    """v as an int, when it is an integer (``operator.index``: numpy
    integers count, a bool does not) and, if ``least`` is given, at least
    ``least``.  Anything else is a DomainError naming the argument: the
    one check of orders, exponents and counts, as ``check_real`` is of
    real numbers."""
    try:
        if isinstance(v, bool):
            raise TypeError
        i = operator.index(v)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {v!r}") from None
    if least is not None and i < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {v!r}")
    return i


def check_real(
    name: str, v, lo: float = -math.inf, hi: float = math.inf, *, above: bool = False,
    nonzero: bool = False,
) -> float:
    """v as a float, when it is a finite real number (``numbers.Real``:
    ints and numpy scalars, not bools) with lo <= v <= hi (lo < v with
    ``above``, v != 0 with ``nonzero``); anything else is a DomainError
    naming the argument.  The one check of every public real argument,
    limit and tolerance.  A numpy scalar becomes a float, so the walks
    behind the check run in float arithmetic: the same values, faster."""
    try:
        real = type(v) is float or isinstance(v, numbers.Real) and not isinstance(v, bool)
        f = float(v) if real else math.nan  # nan: refused below
    except OverflowError:  # an int beyond the float range
        f = math.nan
    if (lo < f if above else lo <= f) and f <= hi and math.isfinite(f) and (f or not nonzero):
        return f
    rule = f"a finite {'nonzero ' if nonzero else ''}real number"
    if lo > -math.inf or hi < math.inf:
        ops = ("<" if above else "<=", "<=" if hi < math.inf else "<")
        rule = f"a real number with {lo:g} {ops[0]} {name} {ops[1]} {hi:g}"
    raise DomainError(f"{name} must be {rule}, got {v!r}")


def check_limits(a, b, lo: float = -math.inf, *, above: bool = False) -> tuple:
    """(a, b) as floats, when ``check_real`` passes a at least ``lo``
    (above it with ``above``) and b above a."""
    a = check_real("a", a, lo, above=above)
    return a, check_real("b", b, a, above=True)


def check_point(x) -> float:
    """``check_real`` of a point an antiderivative is evaluated at, 0 < x <
    inf, with a fast path for a float: every point of the engines."""
    if type(x) is float and 0 < x < math.inf:
        return x
    return check_real("x", x, 0.0, above=True)


def check_real_array(name: str, v) -> np.ndarray:
    """v as a float array, when it holds ints and floats; anything else is
    a DomainError naming the argument.  Callers check the elements' range."""
    import numpy as np

    try:
        arr = np.asarray(v)
    except ValueError:  # a ragged sequence
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be an array of real numbers, got {arr.dtype} values")
    return arr if arr.dtype.char == "d" else arr.astype(float)  # a float64 array as it is


def finite_value(describe, compute, /, *args, **kwargs):
    """``compute(*args, **kwargs)`` when it is finite: a float, a value
    with ``__float__``, or a tuple of floats.

    The one place where a computation whose terms overflow a float
    (raising OverflowError, or ending in inf or nan) becomes a
    DomainError.  ``describe(*args, **kwargs)`` names the computation in
    the message; it runs only on failure.  The per-point tables and the
    public scalar evaluators (see ``finite_result``) pass their values
    through here.
    """
    try:
        v = compute(*args, **kwargs)
    except OverflowError:
        pass
    else:
        if all(map(math.isfinite, v)) if isinstance(v, tuple) else math.isfinite(v):
            return v
    raise DomainError(f"{describe(*args, **kwargs)}: its terms overflow a float")


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
    trig chains, the recursion cells filled so far) and serves every
    exponent: ``value(n)`` is the antiderivative of x^n times the
    table's Bessel product at x.  Every table value passes through
    ``value``, so a recursion whose terms overflow a float surfaces here
    as the DomainError of ``finite_value``, naming the family, n, orders
    and x.

    A table takes a point or a pair.  With ``lower``, a second point,
    its cells are F(x) - F(lower), and ``value(n)`` is the integral from
    lower to x.  The recursions are linear, and their coefficients hold
    no x, so the differences satisfy them as the values do: the walk
    runs once, and each term that reads a point (a base cell, a closed
    form, a boundary term) enters as its value at x less its value at
    lower.  ``lower`` then holds the one-point table at the lower point,
    whose j tables and trig chains those terms read (its own cells stay
    empty); for one point it is None, and each term is its value at x.
    The upper point's terms are computed first, so where both points
    would raise, x names the error, as F(x) - F(lower) does.

    The two-factor tables (H, K, L and equal-argument L) share one
    protocol.  They keep their cells in ``rows``, one dict per level
    keyed by exponent, and define only ``fill(top, lo, hi)``, which
    stores the cells lo..hi (in steps of 2) of level ``top`` and every
    cell they need.  ``cell`` and ``_value`` are defined here, once:
    the value is ``sign * scale ** (-n - 1)`` times the cell (n, top),
    top the higher order.  Subclasses set ``family``, ``orders``, ``x``,
    ``lower``, ``sign`` and, where the cells are taken at |alpha| x,
    ``scale``.  The I table defines its own ``_value``.
    """

    __slots__ = ()
    family = ""
    scale = 1.0

    def value(self, n: int) -> float:
        """int x^n (the table's Bessel product) dx at the table's point,
        or from its lower point to x."""
        return finite_value(self._describe, self._value, n)

    def _value(self, n: int) -> float:
        return self.sign * self.scale ** (-n - 1) * self.cell(n, self.orders[-1])

    def _describe(self, n: int) -> str:
        at = f"x = {self.x:g}"
        if self.lower is not None:
            at += f" less its value at x = {self.lower.x:g}"
        return f"{self.family} antiderivative with n = {n}, orders {self.orders} at {at}"

    def cell(self, m: int, lam: int) -> float:
        """The cell (m, lam), filled with the cells it needs on first
        request."""
        rows = self.rows
        row = rows[lam] if lam < len(rows) else self.level(lam)
        v = row.get(m)
        if v is None:
            self.fill(lam, m, m)
            v = row[m]
        return v

    def _unfilled(self, top: int, lo: int, hi: int) -> tuple:
        """lo..hi with the stored cells at its ends dropped: the part of a
        run of level ``top`` that a fill has left to do."""
        rows = self.rows
        row = rows[top] if top < len(rows) else self.level(top)
        while lo <= hi and lo in row:
            lo += 2
        while lo <= hi and hi in row:
            hi -= 2
        return lo, hi

    def level(self, lam: int) -> dict:
        """The stored cells of level lam.  The rows up to lam are made on
        first use, so a table whose value needs only a shallow walk holds
        no empty rows above it."""
        rows = self.rows
        while len(rows) <= lam:
            rows.append({})
        return rows[lam]


@functools.lru_cache(maxsize=512)
def sweep(top: int, lo: int, hi: int, closed, step: tuple, floor: int) -> dict:
    """{level: (lo, hi)}: the cells, one run of exponents in steps of 2 per
    level, that the cells lo..hi of level ``top`` reach through a
    family's recursion; cells at or below ``floor`` need none.

    A cell (m, lam) needs (m + dm, lam - dlam) for each (dm, dlam) in
    ``step``, unless ``closed(m, lam)`` is true: a printed closed form
    gives that cell (None: closed forms off).  The one planner of every
    table's walk.  Going down from ``top``, each level's run has its
    closed cells trimmed off its ends, and the rest, shifted by each
    step, widens the run of the level that step reaches.  Closed cells
    inside a run stay: for the recursions of the H, K and L tables the
    runs are exact all the same (tests/test_level_walks.py checks them
    cell by cell).  Levels no cell reaches are absent.  A walk computes
    the cells of each run from the lowest exponent up, so where several
    cells would raise, the lowest names the error.  Plans are cached by
    the identity of ``closed`` and shared, so the dict must not be
    changed.
    """
    runs = {top: (lo, hi)}
    for lam in range(top, floor, -1):
        lo, hi = runs.get(lam, (0, -2))
        if closed is not None:
            while lo <= hi and closed(lo, lam):
                lo += 2
            while lo <= hi and closed(hi, lam):
                hi -= 2
        if lo > hi:
            continue
        for dm, dlam in step:
            a, b = runs.get(lam - dlam, (lo + dm, hi + dm))
            runs[lam - dlam] = (min(a, lo + dm), max(b, hi + dm))
    return runs


@functools.lru_cache(maxsize=256)
def column_plan(top: int, lo: int, hi: int, closed) -> tuple:
    """(bases, columns): the sweep of the cells lo..hi of level ``top``
    down to level 0 under the step of H and K (the cell (m, lam) needs
    (m, lam - 1) and (m - 2, lam - 1)), in the form their tables fill it.

    ``bases`` runs over the exponents of level 0, lowest first.  Each
    column is (m, levels, shut, closed_at), m ascending: ``levels`` the
    range of levels above 0 whose runs hold m, ``closed_at`` those of
    them where m is closed, and ``shut`` whether that is all of them.
    Under the steps (0, 1) and (-2, 1) the levels holding m are
    consecutive, and a cell needs cells of the level below in its own
    column and the one before, so a fill takes level 0 first and then
    each column upwards.  A shallow walk costs about as much to plan as
    to fill, so plans are kept.

    The columns' level spans are read off the runs' ends, where a column
    enters or leaves the runs from one level to the next, so a plan costs
    O(levels + columns) steps besides the ``closed`` calls of closed_at.
    """
    runs = sweep.__wrapped__(top, lo, hi, closed, ((0, 1), (-2, 1)), 0)  # the plan is kept
    first, last = {}, {}  # column -> its lowest and highest level above 0
    below = (0, -2)
    for lam in range(1, top + 2):
        run = runs.get(lam, (0, -2))
        for m in _beyond(run, below):
            first.setdefault(m, lam)
        for m in _beyond(below, run):
            last[m] = lam - 1
        below = run
    columns = []
    for m in sorted(first):
        levels = range(first[m], last[m] + 1)
        closed_at = tuple(filter(functools.partial(closed, m), levels)) if closed else ()
        columns.append((m, levels, len(closed_at) == len(levels), closed_at))
    a, b = runs.get(0, (0, -2))
    return range(a, b + 1, 2), tuple(columns)


def _beyond(run: tuple, other: tuple) -> list:
    """The exponents of ``run`` (lo, hi), in steps of 2, outside the span
    of ``other`` (empty when its lo > hi): at most two stretches."""
    lo, hi = run
    olo, ohi = other
    if olo > ohi:
        return range(lo, hi + 1, 2)
    return [*range(lo, min(hi, olo - 2) + 1, 2), *range(max(lo, ohi + 2), hi + 1, 2)]


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Piecewise polynomial in local monomial bases.

    breakpoints (two or more) are finite and strictly increasing; interval
    i carries a non-empty tuple of finite coefficients, coefficients[i][d]
    of (x - breakpoints[i])**d: checked on construction.  The degree is
    that of the longest tuple.
    """

    breakpoints: tuple
    coefficients: tuple

    def __post_init__(self):
        try:
            bps = tuple(check_real("breakpoints", v) for v in self.breakpoints)
            coeffs = tuple(tuple(check_real("coefficients", c) for c in cs) for cs in self.coefficients)
        except TypeError:  # not sequences
            raise DomainError("breakpoints and coefficients must be sequences of numbers") from None
        if len(bps) < 2 or any(lo >= hi for lo, hi in zip(bps, bps[1:])):
            raise DomainError(f"breakpoints must be at least two, strictly increasing, got {bps}")
        if len(coeffs) != len(bps) - 1 or not all(coeffs):
            lengths = [len(c) for c in coeffs]
            raise DomainError(f"{len(bps) - 1} intervals need a coefficient tuple each, got {lengths}")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        """The length of the longest coefficient tuple, less one."""
        return max(len(c) for c in self.coefficients) - 1

    @property
    def span(self) -> tuple:
        return (self.breakpoints[0], self.breakpoints[-1])

    @cached_property
    def piece_arrays(self) -> tuple:
        """(lefts, coeffs): the left breakpoints, and coeffs[d, i] the
        coefficient of (x - lefts[i])**d, zero-padded; cached, as
        ``values`` reads them on every call."""
        import numpy as np

        width = self.degree + 1
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

        xs = np.atleast_1d(check_real_array("x", x))
        lo, hi = self.span
        outside = ~((xs >= lo) & (xs <= hi))  # NaN included
        if outside.any():
            raise DomainError(f"x={float(xs[outside][0])} outside interpolant span [{lo}, {hi}]")
        out = self.values(xs)
        return float(out[0]) if np.ndim(x) == 0 else out
