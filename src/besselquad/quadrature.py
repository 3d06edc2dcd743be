"""Adaptive quadrature and strategy selection for definite integrals.

The quadrature uses QUADPACK's nested Gauss-Kronrod rules, 7/15 on short
pieces and 30/61 on long oscillatory runs, with bisection of the panel
carrying the largest error estimate.  It serves two roles: the
honest fallback where the recursion engine loses precision (few or no
oscillations, small arguments), and the independent brute-force oracle
the analytic paths are tested against.

Route selection follows the first-zero heuristic: below roughly
4.75 + 1.05 l (pi exactly for l = 0) the integrand of order l has not
started oscillating, quadrature is cheap and the recursion values
suffer cancellation; above it the recursion differences are exact and
fast while quadrature cost grows with the number of oscillations.
Intervals straddling the threshold are split there.  ``_run_routes``,
shared by definite_integral and the weighted integrator, owns the policy,
and its record says how each integral ran: ``segments``, the routes in
order with their intervals, and ``reason``, why.

adaptive_quad is the one primitive that returns a run that missed its
tolerance (converged=False); ``require_converged`` raises
NotConvergedError for every integral built on it.
"""

from __future__ import annotations

import heapq
import math
from functools import cache
from typing import TYPE_CHECKING

from .errors import DomainError, NotConvergedError, QuadratureRecommendedError
from .mixed_order import point_table
from .sph_bessel import first_zero_estimate, j_many, parity_fold, small_x_leading
from .types import (
    DefiniteResult, IntegralSpec, QuadratureResult, check_integer, check_limits, check_real,
    check_real_array,
)

if TYPE_CHECKING:
    import numpy as np

#: default mixed absolute/relative tolerance
DEFAULT_TOL = 1e-10

#: hard cap on integrand evaluations per adaptive run
MAX_EVALS = 10**6

# 15-point Kronrod nodes (positive half) and weights, with the embedded
# 7-point Gauss weights on the odd-indexed nodes.  QUADPACK dqk15 values,
# which ``python3 tools/kronrod.py 7`` prints.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

# 61-point Kronrod nodes and weights with the embedded 30-point Gauss
# weights, laid out as above: QUADPACK dqk61 values, which
# ``python3 tools/kronrod.py 30 --suffix 61`` prints.
_XGK61 = (
    0.999484410050490637571325895705811,
    0.996893484074649540271630050918695,
    0.991630996870404594858628366109486,
    0.983668123279747209970032581605663,
    0.973116322501126268374693868423707,
    0.960021864968307512216871025581798,
    0.944374444748559979415831324037439,
    0.926200047429274325879324277080474,
    0.905573307699907798546522558925958,
    0.882560535792052681543116462530226,
    0.857205233546061098958658510658944,
    0.829565762382768397442898119732502,
    0.799727835821839083013668942322683,
    0.767777432104826194917977340974503,
    0.733790062453226804726171131369528,
    0.697850494793315796932292388026640,
    0.660061064126626961370053668149271,
    0.620526182989242861140477556431189,
    0.579345235826361691756024932172540,
    0.536624148142019899264169793311073,
    0.492480467861778574993693061207709,
    0.447033769538089176780609900322854,
    0.400401254830394392535476211542661,
    0.352704725530878113471037207089374,
    0.304073202273625077372677107199257,
    0.254636926167889846439805129817805,
    0.204525116682309891438957671002025,
    0.153869913608583546963794672743256,
    0.102806937966737030147096751318001,
    0.051471842555317695833025213166723,
    0.0,
)
_WGK61 = (
    0.001389013698677007624551591226760,
    0.003890461127099884051267201844516,
    0.006630703915931292173319826369750,
    0.009273279659517763428441146892024,
    0.011823015253496341742232898853251,
    0.014369729507045804812451432443580,
    0.016920889189053272627572289420322,
    0.019414141193942381173408951050128,
    0.021828035821609192297167485738339,
    0.024191162078080601365686370725232,
    0.026509954882333101610601709335075,
    0.028754048765041292843978785354334,
    0.030907257562387762472884252943092,
    0.032981447057483726031814191016854,
    0.034979338028060024137499670731468,
    0.036882364651821229223911065617136,
    0.038678945624727592950348651532281,
    0.040374538951535959111995279752468,
    0.041969810215164246147147541285970,
    0.043452539701356069316831728117073,
    0.044814800133162663192355551616723,
    0.046059238271006988116271735559374,
    0.047185546569299153945261478181099,
    0.048185861757087129140779492298305,
    0.049055434555029778887528165367238,
    0.049795683427074206357811569379942,
    0.050405921402782346840893085653585,
    0.050881795898749606492297473049805,
    0.051221547849258772170656282604944,
    0.051426128537459025933862879215781,
    0.051494729429451567558340433647099,
)
_WG61 = (
    0.007968192496166605615465883474674,
    0.018466468311090959142302131912047,
    0.028784707883323369349719179611292,
    0.038799192569627049596801936446348,
    0.048402672830594052902938140422808,
    0.057493156217619066481721689402056,
    0.065974229882180495128128515115962,
    0.073755974737705206268243850022191,
    0.080755895229420215354694938460530,
    0.086899787201082979802387530715126,
    0.092122522237786128717632707087619,
    0.096368737174644259639468626351810,
    0.099593420586795267062780282103569,
    0.101762389748405504596428952168554,
    0.102852652893558840341285636705415,
)


#: integrand evaluations of one GK15 panel, the smallest
_PANEL_NODES = 15

#: integrand evaluations of one GK61 panel
_WIDE_NODES = 61

#: widest GK61 panel, in multiples of initial_max_width, which is meant
#: to be a half-period of the fastest factor: a panel spans W half-periods
#: of one factor, and up to 2W of a product (H, or two close scales).
#: Measured on cos over m half-periods (the 30/61 rule on [-1, 1], worst
#: phase), K61's error stays at rounding, below 6e-16 of the panel's
#: integral of |f|, up to m = 32, and G30's up to m = 17; at m = 24 G30
#: is off by 2e-8 of it.  So at W = 12 the estimate |K - G| of a
#: one-factor panel, or of a product whose scales differ by 2.4 or more,
#: is already at rounding; for H it is 1e-8 of |f|, honest and far above
#: K61's error, and bisects the panels where that passes the tolerance.
#: At W = 16 it would bisect every H panel (G30 off by 4e-3 at m = 32).
WIDE_PANEL = 12

#: GK15 panels per integrand call in the initial partition: a call holds
#: at most PANEL_CHUNK * 15 nodes, whatever its mix of rules and however
#: long the interval
PANEL_CHUNK = 256

_CALL_NODES = PANEL_CHUNK * _PANEL_NODES

_TABLES = {_PANEL_NODES: (_XGK, _WGK, _WG), _WIDE_NODES: (_XGK61, _WGK61, _WG61)}


@cache
def _rule(size: int) -> tuple:
    """(nodes, Kronrod weights, Gauss weights) of the GK rule with
    ``size`` nodes, 15 or 61, as read-only arrays on [-1, 1], nodes
    ascending and the Gauss weights zero on the Kronrod-only nodes.
    Built on first use, so a process that runs no quadrature never
    imports numpy."""
    import numpy as np

    xgk, wgk, wg = (np.array(t) for t in _TABLES[size])
    n = size // 2  # Gauss points
    nodes = np.concatenate([-xgk[:n], xgk[::-1]])
    k_weights = np.concatenate([wgk[:n], wgk[::-1]])
    g_full = np.zeros(size)
    odd = np.arange(1, n + 1, 2)  # the Gauss nodes among xgk
    g_full[odd] = wg
    g_full[size - 1 - odd] = wg
    for a in (nodes, k_weights, g_full):
        a.flags.writeable = False
    return nodes, k_weights, g_full


#: relative rounding floor of a panel's error estimate, QUADPACK's 50 eps
_FLOOR = 50.0 * 2.0**-52


def _panels(f, runs: list, vectorized: bool):
    """Values, error estimates and rounding floors of the panels of
    ``runs``, a list of (size, edges) pairs: the panels between
    consecutive ``edges`` under the GK rule of ``size`` nodes.  One
    integrand call takes all their nodes (a flat array, panel after
    panel, run after run); a scalar integrand is mapped over the same
    nodes.  Returns ([(values, errors, floors) per run], nodes evaluated)
    with Python-float lists.

    QUADPACK's error model for both rules: |K - G| scaled by the
    smoothness measure resasc, and never below 50 eps times the panel's
    integral of |f|, the rounding of its sum."""
    import numpy as np

    panels = []
    for size, edges in runs:
        lo, hi = edges[:-1], edges[1:]
        half = 0.5 * (hi - lo)
        center = 0.5 * (lo + hi)
        xs = (center[:, None] + half[:, None] * _rule(size)[0]).ravel()
        panels.append((size, lo, hi, half, xs))
    xs = panels[0][4] if len(panels) == 1 else np.concatenate([p[4] for p in panels])
    if vectorized:
        fs = np.asarray(f(xs), dtype=float)
    else:
        fs = np.array([f(x) for x in xs.tolist()], dtype=float)
    out, start = [], 0
    for size, lo, hi, half, part in panels:
        _, k_weights, g_full = _rule(size)
        rows = fs[start : start + part.size].reshape(len(half), size)
        start += part.size
        # elementwise products and row sums, not a BLAS matrix product: the
        # first 2-D matmul of a process allocates a multi-megabyte buffer,
        # and the sums stay those of numpy whatever BLAS is installed.  The
        # floor needs no exact bits: a matrix-vector np.dot (BLAS gemv,
        # no buffer) is its cheaper sum
        vk = half * (rows * k_weights).sum(axis=1)
        vg = half * (rows * g_full).sum(axis=1)
        mean = vk / (hi - lo)
        resasc = half * (np.abs(rows - mean[:, None]) * k_weights).sum(axis=1)
        floor = (_FLOOR * half) * np.dot(np.abs(rows), k_weights)
        err = np.abs(vk - vg)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        err = np.maximum(np.where((resasc != 0.0) & (err != 0.0), scaled, err), floor)
        out.append((vk.tolist(), err.tolist(), floor.tolist()))
    return out, xs.size


def _initial_calls(knots: list, width: float | None, budget: int) -> list:
    """The initial partition as integrand calls, each a list of (size,
    edges) runs for ``_panels``.

    Each sub-interval between consecutive knots spans H = (hi - lo) /
    width widths.  It takes ceil(H / WIDE_PANEL) equal GK61 panels where
    that costs fewer nodes than ceil(H) GK15 panels and, with the two
    halves of one bisected GK61 panel, at most ``budget`` nodes; else at
    most budget // 15 equal GK15 panels no
    wider than ``width`` where that cap allows (one GK15 panel when
    width is None).  The panels are packed in order into calls of at
    most PANEL_CHUNK * 15 nodes, adjacent panels of one rule in one run."""
    import numpy as np

    sizes, counts = [], []
    for lo, hi in zip(knots[:-1], knots[1:]):
        size, n = _PANEL_NODES, 1
        if width is not None:
            # capped before ceil: a width far below the interval gives inf
            spans = min((hi - lo) / width, budget)
            n = math.ceil(min(spans, max(1, budget // _PANEL_NODES)))
            wide = math.ceil(spans / WIDE_PANEL)
            if (
                wide * _WIDE_NODES < math.ceil(spans) * _PANEL_NODES
                and (wide + 2) * _WIDE_NODES <= budget
            ):
                size, n = _WIDE_NODES, wide
        sizes.append(size)
        counts.append(n)
    # each sub-interval's np.linspace(lo, hi, n + 1) without its overhead,
    # the same bits while (hi - lo) / n does not underflow: lo + k * step
    # for k < n, then the next knot
    if len(counts) == 1:
        edges = knots[0] + np.arange(counts[0] + 1) * ((knots[1] - knots[0]) / counts[0])
    else:
        ends, ns = np.array(knots), np.array(counts)
        k = np.arange(sum(counts)) - np.repeat(np.cumsum(ns) - ns, ns)
        edges = np.empty(len(k) + 1)
        edges[:-1] = np.repeat(ends[:-1], ns) + k * np.repeat((ends[1:] - ends[:-1]) / ns, ns)
    edges[-1] = knots[-1]
    calls, call, room, first = [], [], _CALL_NODES, 0
    for size, n in zip(sizes, counts):
        last = first + n  # this sub-interval's panels are first .. last - 1
        while first < last:
            take = min(last - first, room // size)
            if take == 0:
                calls.append(call)
                call, room = [], _CALL_NODES
                continue
            if call and call[-1][0] == size:  # the run of this rule goes on
                call[-1][2] += take
            else:
                call.append([size, first, first + take])
            room -= take * size
            first += take
    return [[(size, edges[i : j + 1]) for size, i, j in c] for c in [*calls, call]]


def adaptive_quad(
    integrand,
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
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
        Interval, a < b, both finite.
    tol : float
        Tolerance target, tol > 0, absolute and relative: the run stops
        once its error estimate is at most max(tol, tol |value|).
    max_evals : int
        Cap on integrand evaluations, an integer at least 15 (one GK15
        panel); on hitting it the best estimate is returned with
        converged=False (no exception).
    initial_max_width : float, optional
        A width > 0, the unit of the initial partition.  For oscillatory
        integrands pi over the fastest scale, a half-period, is the
        intended width.  A sub-interval between knots that spans H
        widths takes ceil(H / WIDE_PANEL) equal GK61 panels when they
        cost fewer nodes than ceil(H) GK15 panels (so from about 4
        widths up) and fit in its share of the budget with room to bisect
        one of them; otherwise it takes
        equal GK15 panels no wider than this, as many as the budget
        allows.  Without a width each sub-interval starts as one GK15
        panel.
    breakpoints : sequence of float, optional
        Interior points a < p_1 < ... < p_k < b where the integrand may
        change form (a kink, or a switch between pieces).  No panel
        straddles one: each sub-interval between consecutive points gets
        its own equal panels, so its edges are those of a separate call
        on it.  One adaptive run then bisects whichever panel carries the
        largest error, and the tolerance applies to the sum over [a, b],
        not to each sub-interval.  The initial panels take at most
        max_evals // 2 nodes, shared evenly between the sub-intervals,
        and max_evals must allow at least one GK15 panel (15
        evaluations) for each.

    Notes
    -----
    Both rules share QUADPACK's error model: |K - G| scaled by the
    panel's smoothness, and never below 50 eps times the panel's
    integral of |f|, which bounds the rounding of its sum.  When those
    floors alone exceed max(tol, tol |value|), no bisection can meet the
    tolerance: the run stops there and returns converged=False.

    The panels are evaluated in batches: the initial partition with one
    integrand call per PANEL_CHUNK * 15 nodes (PANEL_CHUNK GK15 panels,
    fewer GK61 ones, in any mix), each bisection with one call on the
    nodes of both halves, which keep their panel's rule (30 or 122
    nodes).  So the node arrays, and the memory they take, stay below
    PANEL_CHUNK * 15 points however long [a, b] is.  (A two-factor
    integrand passes both factors' arguments to one j_many call, 2 *
    PANEL_CHUNK * 15 points.)  The panels' values and errors are summed
    in partition order; the heap that picks the panel to bisect is built
    before the first bisection, so a run whose initial partition meets
    the tolerance, the common case, builds none.  A scalar integrand
    goes through the same rules, node by node, and gives the same result
    as its vectorized form.  ``evaluations`` counts the nodes.

    Pure function; when the caller runs it from several threads the
    integrand must itself be safe to call concurrently.
    """
    import numpy as np

    a, b = check_limits(a, b)
    inner = [] if breakpoints is None else [check_real("breakpoints", p) for p in breakpoints]
    knots = [a, *inner, b]
    if inner and not all(lo < hi for lo, hi in zip(knots[:-1], knots[1:])):
        raise DomainError(
            f"breakpoints must be finite and strictly increasing inside ({a}, {b}), got {inner}"
        )
    tol = check_real("tol", tol, 0.0, above=True)
    nsub = len(knots) - 1
    if check_integer("max_evals", max_evals) < _PANEL_NODES * nsub:
        raise DomainError(
            f"max_evals must be at least {_PANEL_NODES} per sub-interval, one panel "
            f"each ({_PANEL_NODES * nsub} for {nsub}; got {max_evals})"
        )
    if initial_max_width is not None:
        initial_max_width = check_real("initial_max_width", initial_max_width, 0.0, above=True)
    calls = _initial_calls(knots, initial_max_width, max_evals // (2 * nsub))
    panels = []  # (values, errors, floors) of each run of each call
    total = total_err = total_floor = 0.0
    evals = 0
    for call in calls:
        runs, n = _panels(integrand, call, vectorized)
        evals += n
        for vs, es, fl in runs:
            for v in vs:
                total += v
            for e in es:
                total_err += e
            total_floor += sum(fl)
        panels.append(runs)
    heap = None  # built before the first bisection: most runs need none
    min_width = 1e-14 * max(1.0, abs(a), abs(b))
    while (
        total_err > max(tol, tol * abs(total))
        and total_floor <= max(tol, tol * abs(total))  # else no bisection can meet tol
        and evals + 2 * _PANEL_NODES <= max_evals
    ):
        if heap is None:
            heap = [
                (-e, lo, hi, v, e, fl, size)
                for call, runs in zip(calls, panels)
                for (size, edges), (vs, es, fls) in zip(call, runs)
                for lo, hi, v, e, fl in zip(edges[:-1].tolist(), edges[1:].tolist(), vs, es, fls)
            ]
            heapq.heapify(heap)
        _, lo, hi, v, e, fl, size = heapq.heappop(heap)
        if hi - lo < min_width or evals + 2 * size > max_evals:
            break  # the panel is too narrow, or its halves too costly
        mid = 0.5 * (lo + hi)
        [((v1, v2), (e1, e2), (f1, f2))], n = _panels(
            integrand, [(size, np.array([lo, mid, hi]))], vectorized
        )
        evals += n
        total += (v1 + v2) - v
        total_err += (e1 + e2) - e
        total_floor += (f1 + f2) - fl
        heapq.heappush(heap, (-e1, lo, mid, v1, e1, f1, size))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2, f2, size))
    converged = total_err <= max(tol, tol * abs(total))
    return QuadratureResult(total, total_err, evals, converged)


def require_converged(result, tol: float):
    """``result`` if it met ``tol``, else NotConvergedError carrying it."""
    if not result.converged:
        message = f"quadrature error estimate {result.error_estimate:.3g} above tolerance {tol:.3g}"
        raise NotConvergedError(message, result)
    return result


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
    """(split point, reason) for ``strategy`` on [a, b].

    Quadrature covers [a, split] and the analytic route [split, b]: a
    split of None is quadrature over [a, b], a split of a the analytic
    route over [a, b].  auto: quadrature below the first-zero threshold
    t and over the whole interval past AMPLIFICATION_GUARD, the analytic
    route above t, and a split at t when the interval straddles it.
    """
    if strategy == "quadrature":
        return None, "quadrature strategy requested"
    if strategy == "recursion":
        if a == 0:
            raise QuadratureRecommendedError(
                "the antiderivative value at 0 is not evaluated directly; "
                "use auto strategy, which covers [0, threshold] by quadrature"
            )
        return a, "recursion strategy requested"
    if strategy != "auto":
        raise DomainError(f"unknown strategy {strategy!r}")
    t = oscillation_threshold(spec)
    if b <= t:
        return None, f"interval entirely below the first-zero threshold {t:.6g}"
    amplification = recursion_amplification(spec)
    if amplification > AMPLIFICATION_GUARD:
        # widely separated scales: the recursion sheds too many digits
        # between its trig bases and the result
        reason = (
            f"recursion amplification {amplification:.3g} exceeds "
            f"AMPLIFICATION_GUARD {AMPLIFICATION_GUARD:g}; quadrature over the whole interval"
        )
        return None, reason
    if a >= t:
        return a, f"interval entirely above the first-zero threshold {t:.6g}"
    reason = (
        f"interval straddles the first-zero threshold {t:.6g}; "
        "quadrature below it, recursion above"
    )
    return t, reason


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
    quadrature routes, on an array of real nodes.  At x = 0 the analytic
    limit is substituted; it is finite whenever the family finiteness
    condition holds.  A value that overflows a float is a DomainError."""
    n, factors = spec.n, spec.factors

    def f(xs):
        import numpy as np

        xs = np.atleast_1d(check_real_array("xs", xs))  # a float64 array as it is
        try:
            with np.errstate(invalid="ignore", over="raise"):
                out = bessel_product(factors, xs, _pow(xs, n))
        except FloatingPointError:
            raise DomainError(
                f"{spec.family} integrand with n = {n}, orders {spec.orders} on "
                f"[{xs.min():g}, {xs.max():g}]: its values overflow a float"
            ) from None
        zero = xs == 0.0
        if np.any(zero):
            out[zero] = _zero_limit(spec)
        return out

    return f


def _pow(xs: np.ndarray, n: int) -> np.ndarray:
    if n >= 0:
        return xs**n
    import numpy as np

    out = np.empty_like(xs)
    nz = xs != 0
    out[nz] = xs[nz] ** n
    out[~nz] = np.inf  # patched to the analytic limit by integrand()
    return out


def _j_signed(l: int, scale: float, xs: np.ndarray) -> np.ndarray:
    """j_l(scale * xs) for an array xs >= 0 and a scale of either sign.
    An argument that overflows to inf is j_many's DomainError, with no
    numpy warning first."""
    import numpy as np

    sign, a = parity_fold(l, scale)
    with np.errstate(over="ignore"):
        u = a * xs
    v = j_many(l, u)
    return -v if sign < 0 else v


def bessel_product(factors: tuple, xs: np.ndarray, lead=None) -> np.ndarray:
    """The product of j_order(scale * xs) over a spec's ``factors``,
    times ``lead`` when given: lead * j1 * j2, left to right.

    Two factors take one j_many call between them: the nodes scaled by
    each factor's |scale|, one array after the other, with each factor's
    order per point, so one walk serves both and a two-factor node array
    of adaptive_quad's initial partition is 2 * PANEL_CHUNK * 15 points.
    Two equal factors (the squared family) take one call on the nodes
    alone, and lead multiplies their square.
    """
    import numpy as np

    if len(factors) == 1 or factors[0] == factors[1]:
        out = _j_signed(*factors[0], xs)
        if len(factors) > 1:
            out = out**2
        return out if lead is None else lead * out
    (k, alpha), (l, beta) = factors
    sign_k, a = parity_fold(k, alpha)
    sign_l, b = parity_fold(l, beta)
    n = len(xs)
    u = np.empty((2 * n, *xs.shape[1:]))
    with np.errstate(over="ignore"):
        np.multiply(a, xs, out=u[:n])
        np.multiply(b, xs, out=u[n:])
    if k == l:  # the same order at every point
        orders = k
    else:
        orders = np.empty(u.shape, dtype=np.int64)
        orders[:n] = k
        orders[n:] = l
    v = j_many(orders, u)
    j1 = -v[:n] if sign_k < 0 else v[:n]
    j2 = -v[n:] if sign_l < 0 else v[n:]
    out = j1 if lead is None else lead * j1
    return out * j2


def antiderivative(
    spec: IntegralSpec,
    x: float,
    closed_forms: bool = True,
    tables: dict | None = None,
    *,
    lower: float | None = None,
) -> float:
    """Antiderivative value of the spec's integrand at x, by recursion:
    ``point_table(spec, x, closed_forms).value(spec.n)``.  Its constant
    of integration is fixed per route (see AntiderivativeValue), so the
    definite evaluators difference two values of one route.

    With ``lower``, the integral from lower to x instead: the value at x
    less the value at lower, from one walk of one table across the pair
    (``point_table(spec, x, closed_forms, lower)``), where two tables
    would walk the recursion twice.  definite_integral takes this form.

    tables, when given, keeps the per-point tables across calls, keyed by
    x (by (lower, x) for a pair): a caller that needs several exponents
    of one family, orders and scales at the same points (the weighted
    integrator) passes one dict for all of them, with the same
    closed_forms, so each point builds one table.
    """
    if tables is None:
        return point_table(spec, x, closed_forms, lower).value(spec.n)
    key = x if lower is None else (lower, x)
    table = tables.get(key)
    if table is None:
        table = tables[key] = point_table(spec, x, closed_forms, lower)
    return table.value(spec.n)


#: relative room above the bound of ``_power_integral`` that an analytic
#: segment's value may take, for the rounding of the bound and the value
_ENVELOPE_MARGIN = 1e-8


def _power_integral(n: int, a: float, b: float) -> float:
    """int_a^b x^n dx for 0 < a <= b, inf where it overflows a float.

    |j_l| <= 1 on the real line (DLMF 10.54.2 with |P_l| <= 1), so this
    bounds |int_a^b x^n (product of j's) dx| for every family.  It is
    taken as a^(n+1) expm1((n+1) log(b/a)) / (n+1), with log(b/a) =
    log1p((b-a)/a), which keeps its digits when b is close to a."""
    span = math.log1p((b - a) / a)
    if n == -1:
        return span
    try:
        return math.exp((n + 1) * math.log(a)) * math.expm1((n + 1) * span) / (n + 1)
    except OverflowError:
        return math.inf


def _run_routes(
    spec: IntegralSpec,
    a: float,
    b: float,
    tol: float,
    strategy: str,
    max_evals: int,
    quad_integrand,
    analytic,
    knots=(),
) -> DefiniteResult:
    """Run ``_plan``'s split for definite_integral and the weighted
    integrator: one analytic attempt, then at most one quadrature run.

    The analytic route over [split, b] is ``analytic(split, b)``; where
    that refuses (QuadratureRecommendedError, NearDegenerateError
    included) or its walk leaves the float range (DomainError: the inputs
    are checked before the plan), auto drops the split and quadrature
    covers the whole interval.  The quadrature, over [a, split] or
    [a, b], is one adaptive_quad run of ``quad_integrand`` with the
    ``knots`` inside it as breakpoints and all of max_evals as its
    budget; a budget below one panel per sub-interval between knots
    leaves it unevaluated (infinite error estimate).  The record's value
    is the quadrature's plus the analytic route's, its segments are the
    routes actually taken and its reason says why; it is returned if it
    meets ``tol`` and carried by NotConvergedError otherwise.
    """
    max_evals = check_integer("max_evals", max_evals, _PANEL_NODES)
    tol = check_real("tol", tol, 0.0, above=True)
    a, b = check_limits(a, b, 0.0)
    if a == 0 and not spec.finite_at_zero:
        raise DomainError(
            f"integral from 0 diverges: family {spec.family} requires "
            f"{spec.finiteness_condition} (got n={spec.n}, orders={spec.orders})"
        )
    split, reason = _plan(spec, a, b, strategy)
    tail, segments = 0.0, ()
    if split is not None:
        try:
            tail = analytic(split, b)
            segments = (("recursion", split, b),)
        except (DomainError, QuadratureRecommendedError) as exc:
            if strategy == "recursion":
                raise
            reason = (
                f"recursion refused ({type(exc).__name__}: {exc}); "
                "quadrature over the whole interval"
            )
            split = None
    value, err, evals, converged = 0.0, 0.0, 0, True
    hi = b if split is None else split
    if hi > a:
        segments = (("quadrature", a, hi), *segments)
        inner = [p for p in knots if a < p < hi]
        if max_evals < _PANEL_NODES * (len(inner) + 1):
            # too few evaluations for one panel between each pair of knots
            err, converged = math.inf, False
        else:
            q = adaptive_quad(
                quad_integrand, a, hi, tol=tol, max_evals=max_evals, vectorized=True,
                initial_max_width=math.pi / max(abs(s) for s in spec.scales), breakpoints=inner,
            )
            value, err, evals, converged = q.value, q.error_estimate, q.evaluations, q.converged
    result = DefiniteResult(value + tail, err, evals, converged, segments, reason)
    return require_converged(result, tol)


def definite_integral(
    spec: IntegralSpec,
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    strategy: str = "auto",
    max_evals: int = MAX_EVALS,
) -> DefiniteResult:
    """Definite integral of ``spec`` over [a, b] with strategy dispatch.

    strategy is "auto" (split at the first-zero threshold), "recursion"
    (antiderivative differences only; degenerate or hazardous analytic
    paths raise instead of falling back) or "quadrature".

    A lower limit of exactly 0 is accepted only when the family's
    finiteness condition holds; auto evaluation then covers [0, t] by
    quadrature, so the antiderivative limit at 0 is never needed.

    The analytic segment is one walk across the pair of its limits
    (``antiderivative(spec, hi, lower=lo)``).  Its value must lie within
    int_lo^hi x^n dx, which bounds the integral as |j| <= 1; one above it
    (by more than a rounding margin) is the walk's rounding, and the
    segment refuses with QuadratureRecommendedError.  A refused analytic
    route under auto drops the split: one quadrature run covers [a, b]
    and meets ``tol`` on the whole.  max_evals caps the
    nodes of the one quadrature run and must be at least 15, one GK15
    panel; a run that misses ``tol`` within it raises NotConvergedError,
    whose ``result`` is the record.  The record's ``segments`` and
    ``reason`` say which routes ran and why; beforehand,
    ``oscillation_threshold(spec)`` gives the threshold t.  The route
    policy is ``_run_routes``, which the weighted integrator shares.
    """

    def difference(lo: float, hi: float) -> float:
        v = antiderivative(spec, hi, lower=lo)
        bound = _power_integral(spec.n, lo, hi)
        if abs(v) > bound * (1.0 + _ENVELOPE_MARGIN):
            raise QuadratureRecommendedError(
                f"the recursion's value {v:.3g} over [{lo:g}, {hi:g}] exceeds "
                f"int x^{spec.n} dx = {bound:.3g}, which bounds the integral as |j| <= 1"
            )
        return v

    return _run_routes(spec, a, b, tol, strategy, max_evals, integrand(spec), difference)
