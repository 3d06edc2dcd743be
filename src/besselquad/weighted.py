"""Integrals of a tabulated slowly-varying prefactor times Bessel factors.

Given samples of f(x) on a grid, the prefactor is replaced by a
piecewise polynomial (linear or cubic spline) and

    int f(x) j_l(a x) dx        int f(x) j_k(a x) j_l(b x) dx

reduce, piece by piece, to sums of monomial antiderivative differences
from the I/H/K/L engines.  weighted_integral states the route policy;
this module supplies what the routes integrate: the quadrature integrand
and the analytic difference over a segment.  A quadrature that misses
``tol`` raises NotConvergedError carrying the record.

Local bases: each interval stores coefficients of (x - x_left)^d, which
keeps interpolation well conditioned; the expansion to global monomials
(what the antiderivative engines integrate) uses exact binomial
coefficients.

The cubic interpolant uses not-a-knot end conditions, so it reproduces
cubic polynomials exactly and converges at fourth order for smooth f.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .errors import DomainError, QuadratureRecommendedError
from .quadrature import (
    DEFAULT_TOL, MAX_EVALS, _check_envelope, _run_routes, antiderivative, bessel_product,
)
from .types import (
    DefiniteResult, IntegralSpec, PiecewisePolynomial, check_integer, check_limits, check_real_array,
)


def _solve_tridiagonal(lower, diag, upper, rhs):
    """Thomas algorithm; arrays are modified copies, O(n)."""
    import numpy as np

    n = len(diag)
    c = np.array(upper, dtype=float)
    d = np.array(diag, dtype=float)
    r = np.array(rhs, dtype=float)
    for i in range(1, n):
        w = lower[i - 1] / d[i - 1]
        d[i] -= w * c[i - 1]
        r[i] -= w * r[i - 1]
    out = np.empty(n)
    out[-1] = r[-1] / d[-1]
    for i in range(n - 2, -1, -1):
        out[i] = (r[i] - c[i] * out[i + 1]) / d[i]
    return out


def _cubic_second_derivatives(x, y):
    """Second derivatives M_i of the not-a-knot cubic spline."""
    import numpy as np

    n = len(x)
    h = np.diff(x)
    if n == 3:
        # single parabola through three points: M is the same constant
        d2 = 2.0 * (
            (y[2] - y[1]) / h[1] - (y[1] - y[0]) / h[0]
        ) / (h[0] + h[1])
        return np.full(3, d2)
    # interior equations: h[i-1] M[i-1] + 2(h[i-1]+h[i]) M[i] + h[i] M[i+1] = r[i]
    # not-a-knot: third derivative continuous at x[1] and x[n-2]:
    #   (M[1]-M[0])/h[0] = (M[2]-M[1])/h[1]
    #   (M[n-1]-M[n-2])/h[n-2] = (M[n-2]-M[n-3])/h[n-3]
    m = n - 2  # unknowns M[1]..M[n-2]
    lower = np.empty(m - 1)
    diag = np.empty(m)
    upper = np.empty(m - 1)
    rhs = np.empty(m)
    for i in range(1, n - 1):
        rhs[i - 1] = 6.0 * ((y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1])
        diag[i - 1] = 2.0 * (h[i - 1] + h[i])
        if i > 1:
            lower[i - 2] = h[i - 1]
        if i < n - 2:
            upper[i - 1] = h[i]
    # eliminate M[0] = (1 + h0/h1) M[1] - (h0/h1) M[2]
    r0 = h[0] / h[1]
    diag[0] += h[0] * (1.0 + r0)
    if m > 1:
        upper[0] -= h[0] * r0
    # eliminate M[n-1] = (1 + h[n-2]/h[n-3]) M[n-2] - (h[n-2]/h[n-3]) M[n-3]
    r1 = h[n - 2] / h[n - 3]
    diag[-1] += h[n - 2] * (1.0 + r1)
    if m > 1:
        lower[-1] -= h[n - 2] * r1
    M = np.empty(n)
    M[1:-1] = _solve_tridiagonal(lower, diag, upper, rhs)
    M[0] = (1.0 + r0) * M[1] - r0 * M[2]
    M[-1] = (1.0 + r1) * M[-2] - r1 * M[-3]
    return M


def build_interpolant(samples, degree: int = 3) -> PiecewisePolynomial:
    """Interpolate (x, f) samples with a piecewise polynomial.

    Parameters
    ----------
    samples : sequence of (x, f) pairs or a 2-column array
        Finite values, abscissae strictly increasing and nonnegative; at
        least two samples (four for a proper cubic; two or three fall back
        to the interpolating polynomial of the data).
    degree : {1, 3}
        1 for broken lines, 3 for a not-a-knot cubic spline with
        continuous first and second derivatives.
    """
    import numpy as np

    arr = check_real_array("samples", list(samples))
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise DomainError("need at least two (x, f) samples")
    x = arr[:, 0]
    y = arr[:, 1]
    if not np.all(np.isfinite(arr)):
        raise DomainError("samples must be finite")
    if np.any(np.diff(x) <= 0):
        raise DomainError("sample abscissae must be strictly increasing")
    if x[0] < 0:
        raise DomainError("sample abscissae must be nonnegative")
    if check_integer("degree", degree) not in (1, 3):
        raise DomainError("degree must be 1 or 3")
    n = len(x)
    coeffs = []
    if degree == 1 or n == 2:
        for i in range(n - 1):
            h = x[i + 1] - x[i]
            slope = (y[i + 1] - y[i]) / h
            if degree == 1:
                coeffs.append((float(y[i]), float(slope)))
            else:
                coeffs.append((float(y[i]), float(slope), 0.0, 0.0))
    else:
        M = _cubic_second_derivatives(x, y)
        for i in range(n - 1):
            h = x[i + 1] - x[i]
            c0 = y[i]
            c2 = 0.5 * M[i]
            c3 = (M[i + 1] - M[i]) / (6.0 * h)
            c1 = (y[i + 1] - y[i]) / h - h * (2.0 * M[i] + M[i + 1]) / 6.0
            coeffs.append((float(c0), float(c1), float(c2), float(c3)))
    return PiecewisePolynomial(tuple(float(v) for v in x), tuple(coeffs))


def _global_coeffs(local, x_left: float):
    """Expand sum_d c_d (x - x0)^d into global monomial coefficients."""
    D = len(local) - 1
    out = [0.0] * (D + 1)
    for d, cd in enumerate(local):
        if cd == 0.0:
            continue
        for m in range(d + 1):
            out[m] += cd * math.comb(d, m) * (-x_left) ** (d - m)
    return out


def _pieces(pp: PiecewisePolynomial, a: float, b: float):
    """The interpolant's intervals clipped to [a, b], as (index, lo, hi)."""
    bps = pp.breakpoints
    for i in range(len(bps) - 1):
        lo, hi = max(a, bps[i]), min(b, bps[i + 1])
        if hi > lo:
            yield i, lo, hi


def _integrand(pp: PiecewisePolynomial, factors: tuple):
    """Vectorised integrand pp(x) times the Bessel product of ``factors``
    at adaptive_quad's float64 nodes: each node takes the polynomial of
    the interpolant piece it falls in, in that piece's local basis."""
    return lambda xs: pp.values(xs) * bessel_product(factors, xs)


def weighted_integral(
    f: PiecewisePolynomial,
    l: int,
    alpha: float,
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    k: int | None = None,
    beta: float | None = None,
) -> DefiniteResult:
    """int_a^b f(x) j_l(alpha x) dx, or with k and beta given
    int_a^b f(x) j_k(alpha x) j_l(beta x) dx, as a result record, for a
    PiecewisePolynomial f (see build_interpolant) whose span covers [a, b].

    The route policy is definite_integral's (auto), from the one runner
    quadrature._run_routes, applied to the n = 0 spec of the Bessel
    factors: quadrature below the first-zero threshold, the analytic sum
    above it, quadrature over the whole interval past AMPLIFICATION_GUARD,
    and quadrature where the analytic route refuses.  It refuses
    near-degenerate scales, a walk that overflows, a sum whose rounding,
    eps times the sum of |c_m (F_m(hi) - F_m(lo))|, passes the tolerance
    (the global monomials cancel far from the origin), and, as
    definite_integral does, a sum past a bound of int |f| dx.  The
    record's reason names the refusal.

    The analytic route over [lo, hi] is the sum of c_m (F_m(hi) - F_m(lo))
    over the pieces and the monomials x^m with nonzero coefficient.  Each
    breakpoint builds one per-point table (point_table, kept in
    antiderivative's tables), whose value(m) serves every monomial, and
    adjacent pieces share the breakpoint between them.  The quadrature,
    below the threshold or over the whole interval, is one adaptive run
    with the interpolant's knots inside it as breakpoints: no panel
    straddles a knot, each node takes the polynomial of its own piece,
    and the tolerance applies to the run, not to each piece.

    The record carries the quadrature run's error estimate and node count
    (the analytic route adds neither), the segments each route covered
    and the reason they ran.  Raises NotConvergedError, carrying the record,
    when the quadrature misses ``tol``.
    """
    if (k is None) != (beta is None):
        raise DomainError("the product form needs both k and beta")
    if not isinstance(f, PiecewisePolynomial):
        raise DomainError(
            f"f must be a PiecewisePolynomial (see build_interpolant), got {type(f).__name__}"
        )
    # the spec checks the orders and scales; the tables (point_table)
    # route squared and same-order products themselves
    if k is None:
        spec = IntegralSpec("I", 0, l, alpha)
    else:
        spec = IntegralSpec("L", 0, l, alpha, k=k, beta=beta)
    a, b = check_limits(a, b, 0.0)
    first, last = f.span
    if a < first - 1e-12 * max(1.0, abs(first)) or b > last + 1e-12 * max(1.0, abs(last)):
        raise DomainError(f"[{a}, {b}] exceeds the interpolant span [{first}, {last}]")
    # the monomial x^m's spec, and one table per breakpoint (antiderivative's
    # tables) serving every monomial and both pieces that meet there
    specs = [replace(spec, n=m) for m in range(f.degree + 1)]
    tables: dict = {}

    def F(m: int, x: float) -> float:
        return antiderivative(specs[m], x, tables=tables)

    def difference(lo: float, hi: float) -> float:
        total = 0.0
        spread = 0.0  # the sum of |c_m (F_m(hi) - F_m(lo))|
        envelope = 0.0  # a bound of int_lo^hi |f| dx: width times max |f| per piece
        for i, p_lo, p_hi in _pieces(f, lo, hi):
            local, left = f.coefficients[i], f.breakpoints[i]
            h, size = p_hi - left, 0.0  # sum_d |c_d| h^d >= |f| on the piece, by Horner
            for c in reversed(local):
                size = size * h + abs(c)
            envelope += (p_hi - p_lo) * size
            for m, cm in enumerate(_global_coeffs(local, left)):
                if cm == 0.0:
                    continue
                term = cm * (F(m, p_hi) - F(m, p_lo))
                total += term
                spread += abs(term)
        # far from the origin the global monomials' terms cancel, like
        # (x / piece width)^degree; their rounding then passes the tolerance
        rounding, bound = math.ulp(1.0) * spread, max(tol, tol * abs(total))
        if rounding > bound:
            raise QuadratureRecommendedError(
                f"the monomial sum over [{lo:g}, {hi:g}] cancels: its rounding, eps times the "
                f"sum of |c_m (F_m(hi) - F_m(lo))|, is {rounding:.3g}, above the tolerance {bound:.3g}"
            )
        # |j| <= 1 bounds the sum by int |f| dx, up to the rounding allowed above
        return _check_envelope(total, envelope, lo, hi, "a bound of int |f| dx", bound)

    return _run_routes(
        spec, a, b, tol, "auto", MAX_EVALS, _integrand(f, spec.factors), difference, f.breakpoints
    )


def integrate_single(
    f: PiecewisePolynomial, l: int, alpha: float, a: float, b: float, tol: float = DEFAULT_TOL
) -> float:
    """int_a^b f(x) j_l(alpha x) dx for an interpolated prefactor f: the
    value of weighted_integral's record."""
    return weighted_integral(f, l, alpha, a, b, tol).value


def integrate_product(
    f: PiecewisePolynomial,
    k: int,
    l: int,
    alpha: float,
    beta: float,
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
) -> float:
    """int_a^b f(x) j_k(alpha x) j_l(beta x) dx for an interpolated f: the
    value of weighted_integral's record, whose per-point tables take the
    squared (k = l, alpha = beta), same-order (k = l) or mixed family."""
    return weighted_integral(f, l, alpha, a, b, tol, k=k, beta=beta).value
