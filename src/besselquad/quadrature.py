"""Adaptive quadrature and strategy selection for definite integrals.

The quadrature is a nested Gauss-Kronrod 7/15 rule with bisection of the
interval carrying the largest error estimate.  It serves two roles: the
honest fallback where the recursion engine loses precision (few or no
oscillations, small arguments), and the independent brute-force oracle
the analytic paths are tested against.

Strategy selection follows the first-zero heuristic: below roughly
4.75 + 1.05 l (pi exactly for l = 0) the integrand of order l has not
started oscillating, quadrature is cheap and the recursion values
suffer cancellation; above it the recursion differences are exact and
fast while quadrature cost grows with the number of oscillations.
Intervals straddling the threshold are split there.  ``_run_routes``,
shared by definite_integral and the weighted integrator, owns the policy.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import DomainError, NearDegenerateError, NotConvergedError, QuadratureRecommendedError
from .mixed_order import l_table
from .single_bessel import ITable
from .sph_bessel import first_zero_estimate, j_many, parity_fold, small_x_leading
from .types import DefiniteResult, IntegralSpec, QuadratureResult, Strategy, check_point

#: default mixed absolute/relative tolerance
DEFAULT_TOL = 1e-10

#: hard cap on integrand evaluations per adaptive run
MAX_EVALS = 10**6

# 15-point Kronrod nodes (positive half) and weights, with the embedded
# 7-point Gauss weights on the odd-indexed nodes.  QUADPACK dqk15 values.
_XGK = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

# full 15-node arrays on [-1, 1]
_NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])  # ascending
_K_WEIGHTS = np.concatenate([_WGK[:7], _WGK[::-1]])
_G_FULL = np.zeros(15)
_G_FULL[1:14:2] = np.concatenate([_WG[:3], _WG[::-1]])


#: integrand evaluations of one GK15 panel
_PANEL_NODES = 15

#: panels per integrand call in the initial partition; caps the node
#: array at PANEL_CHUNK * 15 points whatever the length of the interval
PANEL_CHUNK = 256


def _gk15_panels(f, edges: np.ndarray, vectorized: bool):
    """GK15 values and error estimates of the panels between consecutive
    ``edges``, from one integrand call on all their nodes (a flat array,
    panel after panel).  A scalar integrand is mapped over the same nodes.
    Returns (values, errors, nodes evaluated) with Python-float lists."""
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    center = 0.5 * (lo + hi)
    xs = (center[:, None] + half[:, None] * _NODES).ravel()
    if vectorized:
        fs = np.asarray(f(xs), dtype=float)
    else:
        fs = np.array([f(x) for x in xs.tolist()], dtype=float)
    fs = fs.reshape(len(half), _PANEL_NODES)
    # elementwise products and row sums, not a BLAS matrix product: the
    # first 2-D matmul of a process allocates a multi-megabyte buffer
    vk = half * (fs * _K_WEIGHTS).sum(axis=1)
    vg = half * (fs * _G_FULL).sum(axis=1)
    # QUADPACK-style error model: scale |K - G| by the smoothness measure
    mean = vk / (hi - lo)
    resasc = half * (np.abs(fs - mean[:, None]) * _K_WEIGHTS).sum(axis=1)
    err = np.abs(vk - vg)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return vk.tolist(), err.tolist(), xs.size


def _initial_edges(knots: list, width: float | None, cap: int) -> np.ndarray:
    """Panel edges of the initial partition: each interval between
    consecutive knots split into at most ``cap`` equal panels no wider
    than ``width`` where the cap allows (one panel when width is None)."""
    parts = []
    for lo, hi in zip(knots[:-1], knots[1:]):
        n = 1
        if width is not None and width > 0:
            # capped before ceil: a width far below the interval gives inf
            n = math.ceil(min((hi - lo) / width, cap))
        parts.append(np.linspace(lo, hi, n + 1))
    if len(parts) == 1:
        return parts[0]
    return np.concatenate([p[:-1] for p in parts[:-1]] + parts[-1:])


def adaptive_quad(
    integrand,
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    rtol: float | None = None,
    max_evals: int = MAX_EVALS,
    vectorized: bool = False,
    initial_max_width: float | None = None,
    breakpoints=None,
) -> QuadratureResult:
    """Adaptively integrate ``integrand`` over [a, b].

    Parameters
    ----------
    integrand : callable
        Real function of one real variable; must be finite on [a, b].
        With vectorized=True it is called with a 1-D numpy array of nodes
        instead and must return the corresponding array.
    a, b : float
        Interval, a < b.
    tol : float
        Absolute tolerance target.
    rtol : float, optional
        Relative tolerance; defaults to ``tol`` (mixed criterion
        err <= max(tol, rtol |value|)).
    max_evals : int
        Cap on integrand evaluations, at least 15 (one panel); on hitting
        it the best estimate is returned with converged=False (no
        exception).
    initial_max_width : float, optional
        Pre-split [a, b] into pieces no wider than this before adapting.
        For oscillatory integrands a width of pi over the fastest scale
        keeps each half-oscillation resolved by the base rule.
    breakpoints : sequence of float, optional
        Interior points a < p_1 < ... < p_k < b where the integrand may
        change form (a kink, or a switch between pieces).  No panel
        straddles one: each sub-interval between consecutive points gets
        its own equal panels no wider than initial_max_width, so its
        edges are those of a separate call on it.  One adaptive run then
        bisects whichever panel carries the largest error, and the
        tolerance applies to the sum over [a, b], not to each
        sub-interval.  The cap on the initial panels, max_evals // 30, is
        shared evenly between the sub-intervals, and max_evals must allow
        at least one panel (15 evaluations) for each.

    Notes
    -----
    The panels are evaluated in batches: the initial partition with one
    integrand call per PANEL_CHUNK panels, each bisection with one call
    on the 30 nodes of both halves.  So the node arrays, and the memory
    they take, stay below PANEL_CHUNK * 15 points however long [a, b]
    is.  A scalar integrand goes through the same rule, node by node, and
    gives the same result as its vectorized form.

    Pure function; when the caller runs it from several threads the
    integrand must itself be safe to call concurrently.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"adaptive_quad requires finite limits, got [{a}, {b}]")
    if not a < b:
        raise DomainError("adaptive_quad requires a < b")
    inner = [] if breakpoints is None else [float(p) for p in breakpoints]
    knots = [a, *inner, b]
    if inner and not all(lo < hi for lo, hi in zip(knots[:-1], knots[1:])):
        raise DomainError(
            f"breakpoints must be finite and strictly increasing inside ({a}, {b}), got {inner}"
        )
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    nsub = len(knots) - 1
    if max_evals < _PANEL_NODES * nsub:
        raise DomainError(
            f"max_evals must be at least {_PANEL_NODES} per sub-interval, one panel "
            f"each ({_PANEL_NODES * nsub} for {nsub}; got {max_evals})"
        )
    if rtol is None:
        rtol = tol
    edges = _initial_edges(knots, initial_max_width, max(1, max_evals // (30 * nsub)))
    npieces = len(edges) - 1
    heap = []
    total = 0.0
    total_err = 0.0
    evals = 0
    for first in range(0, npieces, PANEL_CHUNK):
        chunk = edges[first : first + PANEL_CHUNK + 1]
        vs, es, n = _gk15_panels(integrand, chunk, vectorized)
        evals += n
        for lo, hi, v, e in zip(chunk[:-1].tolist(), chunk[1:].tolist(), vs, es):
            total += v
            total_err += e
            heap.append((-e, lo, hi, v, e))
    heapq.heapify(heap)
    min_width = 1e-14 * max(1.0, abs(a), abs(b))
    while total_err > max(tol, rtol * abs(total)) and evals + 30 <= max_evals:
        neg_e, lo, hi, v, e = heapq.heappop(heap)
        if hi - lo < min_width:
            # cannot refine further; put it back and stop
            heapq.heappush(heap, (neg_e, lo, hi, v, e))
            break
        mid = 0.5 * (lo + hi)
        (v1, v2), (e1, e2), n = _gk15_panels(integrand, np.array([lo, mid, hi]), vectorized)
        evals += n
        total += (v1 + v2) - v
        total_err += (e1 + e2) - e
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
    converged = total_err <= max(tol, rtol * abs(total))
    return QuadratureResult(total, total_err, evals, converged)


def oscillation_threshold(spec: IntegralSpec) -> float:
    """Argument below which the slowest factor of the integrand has not
    yet crossed its first zero: first_zero(max order) / min |scale|,
    with pi replacing the linear estimate at order 0."""
    lmax = spec.max_order
    fz = math.pi if lmax == 0 else first_zero_estimate(lmax)
    return fz / spec.min_scale


#: recursion amplification beyond which auto evaluation prefers quadrature
AMPLIFICATION_GUARD = 1e6


def recursion_amplification(spec: IntegralSpec) -> float:
    """Rough growth factor of the two-scale recursions.

    Each order-lowering step of the K and L recursions multiplies by
    roughly (alpha^2 + beta^2) / (2 alpha beta), so widely separated
    scales lose about max_order * log10(r) digits between the
    trigonometric bases and the result.  Single-scale families have no
    such channel.
    """
    a, b = abs(spec.scales[0]), abs(spec.scales[-1])
    if a == b:  # one scale, or two equal magnitudes
        return 1.0
    r = (a * a + b * b) / (2.0 * a * b)
    try:
        return r**spec.max_order
    except OverflowError:
        return math.inf


def _plan(spec: IntegralSpec, a: float, b: float, strategy: str) -> tuple:
    """(threshold, planned segments, reason) for ``strategy`` on [a, b].

    auto: quadrature below the first-zero threshold and over the whole
    interval past AMPLIFICATION_GUARD, recursion above the threshold,
    and a split there when the interval straddles it.
    """
    t = oscillation_threshold(spec)
    if strategy == "quadrature":
        return t, [("quadrature", a, b)], "quadrature strategy requested"
    if strategy == "recursion":
        if a == 0:
            raise QuadratureRecommendedError(
                "the antiderivative value at 0 is not evaluated directly; "
                "use auto strategy, which covers [0, threshold] by quadrature"
            )
        return t, [("recursion", a, b)], "recursion strategy requested"
    if strategy != "auto":
        raise DomainError(f"unknown strategy {strategy!r}")
    if b <= t:
        return t, [("quadrature", a, b)], f"interval entirely below the first-zero threshold {t:.6g}"
    amplification = recursion_amplification(spec)
    if amplification > AMPLIFICATION_GUARD:
        # widely separated scales: the recursion sheds too many digits
        # between its trig bases and the result
        reason = (
            f"recursion amplification {amplification:.3g} exceeds "
            f"AMPLIFICATION_GUARD {AMPLIFICATION_GUARD:g}; quadrature over the whole interval"
        )
        return t, [("quadrature", a, b)], reason
    if a >= t:
        return t, [("recursion", a, b)], f"interval entirely above the first-zero threshold {t:.6g}"
    reason = (
        f"interval straddles the first-zero threshold {t:.6g}; "
        "quadrature below it, recursion above"
    )
    return t, [("quadrature", a, t), ("recursion", t, b)], reason


def _strategy(t: float, segments: list, reason: str) -> Strategy:
    """The Strategy of the routes ``segments`` took: Recursion when any
    segment is analytic (a plan's analytic segment is its last), and
    split_at set when the segments meet at t."""
    kind = "Recursion" if segments[-1][0] == "recursion" else "Quadrature"
    return Strategy(kind, reason, t, t if len(segments) > 1 else None)


def choose_strategy(spec: IntegralSpec, a: float, b: float) -> Strategy:
    """The auto plan for ``spec`` over [a, b], before any analytic route
    runs (or refuses): see ``_plan``."""
    if not a < b:
        raise DomainError("need a < b")
    return _strategy(*_plan(spec, a, b, "auto"))


def _zero_limit(spec: IntegralSpec) -> float:
    """lim_{x->0} x^n * product of j's, finite when the family finiteness
    condition holds (integer exponents make the power n + sum(orders)
    either positive or zero)."""
    if spec.n + sum(spec.orders) > 0:
        return 0.0
    lead = 1.0
    for order, scale in spec.factors:
        lead *= small_x_leading(order, 1.0) * scale**order
    return lead


def integrand(spec: IntegralSpec):
    """Vectorized integrand x^n * (product of spherical Bessels) for the
    quadrature routes.  At x = 0 the analytic limit is substituted; it is
    finite whenever the family finiteness condition holds."""
    n, factors = spec.n, spec.factors

    def f(xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        with np.errstate(invalid="ignore"):
            out = bessel_product(factors, xs, _pow(xs, n))
        zero = xs == 0.0
        if np.any(zero):
            out[zero] = _zero_limit(spec)
        return out

    return f


def _pow(xs: np.ndarray, n: int) -> np.ndarray:
    if n >= 0:
        return xs**n
    out = np.empty_like(xs)
    nz = xs != 0
    out[nz] = xs[nz] ** n
    out[~nz] = np.inf  # patched to the analytic limit by integrand()
    return out


def _j_signed(l: int, scale: float, xs: np.ndarray) -> np.ndarray:
    """j_l(scale * xs) for an array xs >= 0 and a scale of either sign.
    An argument that overflows to inf is j_many's DomainError, with no
    numpy warning first."""
    sign, a = parity_fold(l, scale)
    with np.errstate(over="ignore"):
        u = a * xs
    v = j_many(l, u)
    return -v if sign < 0 else v


def bessel_product(factors: tuple, xs: np.ndarray, lead=None) -> np.ndarray:
    """The product of j_order(scale * xs) over a spec's ``factors``,
    times ``lead`` when given: lead * j1 * j2, left to right.

    Two equal factors (the squared family) share one j_many call, and
    lead multiplies their square.
    """
    (order, scale), *rest = factors
    out = _j_signed(order, scale, xs)
    if rest and rest[0] == factors[0]:
        out = out**2
        rest = ()
    if lead is not None:
        out = lead * out
    for order, scale in rest:
        out = out * _j_signed(order, scale, xs)
    return out


def point_table(
    spec: IntegralSpec, x: float, closed_forms: bool = True, constants: bool = True
):
    """The per-point table of spec's Bessel factors at x: the one
    antiderivative dispatch.

    Its ``value(n)`` is the antiderivative of x^n times spec's Bessel
    product at x for any exponent n; the exponents asked of one table
    share its j tables, trig chains and recursion cells, and each value
    is bitwise the one a fresh table returns.  One factor gets the I
    table; any two factors go to ``mixed_order.l_table``, which folds
    their parity signs once and picks the table by which factors
    coincide: equal scales the squared or equal-argument table (so K
    with |alpha| = |beta| gets the H table with the parity sign), equal
    orders the K table.  spec.n is not read.
    """
    x = check_point(x)
    (k, alpha), *rest = spec.factors
    if not rest:
        return ITable(k, x, alpha, constants)
    (l, beta), = rest
    return l_table(k, l, x, alpha, beta, closed_forms, constants)


def antiderivative(
    spec: IntegralSpec,
    x: float,
    closed_forms: bool = True,
    constants: bool = True,
    tables: dict | None = None,
) -> float:
    """Antiderivative value of the spec's integrand at x, by recursion.

    constants=False drops the x-independent constants of integration
    (definite differences are unchanged, but conditioned on the genuine
    oscillation scale rather than the constants; the definite evaluators
    difference in that mode).

    tables, when given, keeps the per-point tables (see point_table)
    across calls, keyed by x: a caller that needs several exponents of
    one family, orders and scales at the same points passes one dict for
    all of them, with the same closed_forms and constants, so each point
    builds one table.
    """
    if tables is None:
        return point_table(spec, x, closed_forms, constants).value(spec.n)
    table = tables.get(x)
    if table is None:
        table = tables[x] = point_table(spec, x, closed_forms, constants)
    return table.value(spec.n)


def _run_routes(
    spec: IntegralSpec,
    a: float,
    b: float,
    tol: float,
    strategy: str,
    max_evals: int,
    raise_on_nonconverged: bool,
    quad_integrand,
    analytic,
    knots=(),
) -> DefiniteResult:
    """Run ``_plan``'s segments for definite_integral and the weighted
    integrator.  A recursion segment is ``analytic(lo, hi)``; where that
    refuses (NearDegenerateError, QuadratureRecommendedError) auto falls
    back to quadrature.  A quadrature segment is one adaptive_quad run
    of ``quad_integrand`` with the ``knots`` inside it as breakpoints, on
    what is left of max_evals (none left: not evaluated, not converged).
    The Strategy and the record come from the segments actually taken.
    """
    if max_evals < _PANEL_NODES:
        raise DomainError(f"max_evals must be at least {_PANEL_NODES}, one panel (got {max_evals})")
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"limits must be finite, got [{a}, {b}]")
    if not 0 <= a < b:
        raise DomainError("need 0 <= a < b")
    if a == 0 and not spec.finite_at_zero:
        raise DomainError(
            f"integral from 0 diverges: family {spec.family} requires "
            f"{spec.finiteness_condition} (got n={spec.n}, orders={spec.orders})"
        )
    t, plan, reason = _plan(spec, a, b, strategy)
    value = 0.0
    err = 0.0
    evals = 0
    converged = True
    done = []
    for route, lo, hi in plan:
        if route == "recursion":
            try:
                value += analytic(lo, hi)
                done.append(("recursion", lo, hi))
                continue
            except (NearDegenerateError, QuadratureRecommendedError) as exc:
                if strategy == "recursion":
                    raise
                reason = (
                    f"recursion refused ({type(exc).__name__}: {exc}); "
                    "quadrature over the whole interval"
                )
        done.append(("quadrature", lo, hi))
        inner = [p for p in knots if lo < p < hi]
        if max_evals - evals < _PANEL_NODES * (len(inner) + 1):
            # the budget is spent: the segment stays unevaluated
            err = math.inf
            converged = False
            continue
        q = adaptive_quad(
            quad_integrand, lo, hi, tol=tol, max_evals=max_evals - evals, vectorized=True,
            initial_max_width=math.pi / max(abs(s) for s in spec.scales), breakpoints=inner,
        )
        value += q.value
        err += q.error_estimate
        evals += q.evaluations
        converged = converged and q.converged
    result = DefiniteResult(
        value=value,
        error_estimate=err,
        evaluations=evals,
        converged=converged,
        strategy=_strategy(t, done, reason),
        segments=tuple(done),
    )
    if raise_on_nonconverged and not converged:
        raise NotConvergedError(
            f"quadrature error estimate {err:.3g} above tolerance {tol:.3g}",
            result=result,
        )
    return result


def definite_integral(
    spec: IntegralSpec,
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    strategy: str = "auto",
    max_evals: int = MAX_EVALS,
    raise_on_nonconverged: bool = False,
) -> DefiniteResult:
    """Definite integral of ``spec`` over [a, b] with strategy dispatch.

    strategy is "auto" (split at the first-zero threshold), "recursion"
    (antiderivative differences only; degenerate or hazardous analytic
    paths raise instead of falling back) or "quadrature".

    A lower limit of exactly 0 is accepted only when the family's
    finiteness condition holds; auto evaluation then covers [0, t] by
    quadrature, so the antiderivative limit at 0 is never needed.

    max_evals caps the quadrature nodes over all segments and must be at
    least 15, one GK15 panel.  A quadrature segment left with less than
    that is not evaluated: the result is then not converged and its
    error estimate is infinite.  The route policy is ``_run_routes``,
    which the weighted integrator shares.
    """

    def difference(lo: float, hi: float) -> float:
        return antiderivative(spec, hi, constants=False) - antiderivative(spec, lo, constants=False)

    return _run_routes(
        spec, a, b, tol, strategy, max_evals, raise_on_nonconverged, integrand(spec), difference
    )
