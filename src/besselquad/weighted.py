"""Integrals of a tabulated slowly-varying prefactor times Bessel factors.

Given samples of f(x) on a grid, the prefactor is replaced by a
piecewise polynomial (linear or cubic spline) and

    int f(x) j_l(a x) dx        int f(x) j_k(a x) j_l(b x) dx

reduce, piece by piece, to sums of monomial antiderivative differences
from the I/H/K/L engines.

The route policy is definite_integral's, from the one runner
quadrature._run_routes, applied to the n = 0 spec of the Bessel factors:
quadrature below the first-zero threshold, the analytic sum above it,
quadrature over the whole interval when the scales pass
AMPLIFICATION_GUARD, and quadrature where the analytic route refuses
(near-degenerate scales, or a walk that overflows).  NotConvergedError,
carrying the result record, reports a quadrature run that misses the
tolerance.  This module supplies only what the routes integrate: the
quadrature integrand and the analytic difference over a segment.

The analytic route over [lo, hi] is a sum of c_m (F_m(hi) - F_m(lo))
over the pieces and the monomials x^m with nonzero coefficient.  Each
breakpoint builds one per-point table (quadrature.point_table) that
serves every monomial: its j tables, trig chains and recursion cells are
computed once, and adjacent pieces share the breakpoint between them, so
each (monomial, breakpoint) value is computed once for the whole sum.

A quadrature segment is one adaptive run with the interpolant's knots
inside it as breakpoints: no panel straddles a knot, and each node takes
the polynomial of its own piece.  The tolerance applies to the segment,
not to each piece.

Local bases: each interval stores coefficients of (x - x_left)^d, which
keeps interpolation well conditioned; the expansion to global monomials
(what the antiderivative engines integrate) uses exact binomial
coefficients.

The cubic interpolant uses not-a-knot end conditions, so it reproduces
cubic polynomials exactly and converges at fourth order for smooth f.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .quadrature import DEFAULT_TOL, MAX_EVALS, _run_routes, antiderivative, bessel_product
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
    return PiecewisePolynomial(
        breakpoints=tuple(float(v) for v in x),
        coefficients=tuple(coeffs),
        degree=degree,
    )


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
    """Clip the interpolant's intervals to [a, b]."""
    lo, hi = pp.span
    if a < lo - 1e-12 * max(1.0, abs(lo)) or b > hi + 1e-12 * max(1.0, abs(hi)):
        raise DomainError(f"[{a}, {b}] exceeds the interpolant span [{lo}, {hi}]")
    bps = pp.breakpoints
    out = []
    for i in range(len(bps) - 1):
        seg_a = max(a, bps[i])
        seg_b = min(b, bps[i + 1])
        if seg_b > seg_a:
            out.append((i, seg_a, seg_b))
    return out


def _spec_for(kind: str, k, l, alpha, beta, n: int) -> IntegralSpec:
    """The monomial x^n's spec: I, or L for any product (the tables
    route squared and same-order products themselves)."""
    if kind == "single":
        return IntegralSpec("I", n, l, alpha)
    return IntegralSpec("L", n, l, alpha, k=k, beta=beta)


def _integrand(pp: PiecewisePolynomial, factors: tuple):
    """Vectorised integrand pp(x) times the Bessel product of ``factors``:
    each node takes the polynomial of the interpolant piece it falls in,
    in that piece's local basis."""

    def f(xs):
        import numpy as np

        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return pp.values(xs) * bessel_product(factors, xs)

    return f


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
    int_a^b f(x) j_k(alpha x) j_l(beta x) dx, as a result record.

    The route policy is definite_integral's (auto) for the n = 0 spec:
    the first-zero split, quadrature over the whole interval past
    AMPLIFICATION_GUARD, and quadrature where the analytic route refuses
    (near-degenerate scales, or a walk that overflows), named in the
    strategy's reason.  The record carries the quadrature run's error
    estimate and node count (the recursion pieces add neither), the
    strategy and the segments each route covered.  Raises NotConvergedError, carrying the record,
    when the quadrature misses ``tol``.
    """
    if (k is None) != (beta is None):
        raise DomainError("the product form needs both k and beta")
    kind = "single" if k is None else "product"
    width = max(len(c) for c in f.coefficients)
    # the specs check the orders and scales
    specs = [_spec_for(kind, k, l, alpha, beta, m) for m in range(width)]
    a, b = check_limits(a, b, 0.0)  # before the span test compares them
    pieces = _pieces(f, a, b)
    # antiderivative of monomial m at x; adjacent pieces share their
    # breakpoint, so each (m, x) is evaluated once for the whole sum, and
    # each x builds one table for all its monomials
    tables: dict = {}
    values: dict = {}

    def F(m: int, x: float) -> float:
        v = values.get((m, x))
        if v is None:
            v = values[(m, x)] = antiderivative(specs[m], x, constants=False, tables=tables)
        return v

    def difference(lo: float, hi: float) -> float:
        total = 0.0
        for i, p_lo, p_hi in pieces:
            if p_hi <= lo or p_lo >= hi:
                continue
            p_lo, p_hi = max(p_lo, lo), min(p_hi, hi)
            for m, cm in enumerate(_global_coeffs(f.coefficients[i], f.breakpoints[i])):
                if cm == 0.0:
                    continue
                total += cm * (F(m, p_hi) - F(m, p_lo))
        return total

    return _run_routes(
        specs[0], a, b, tol, "auto", MAX_EVALS, True,
        _integrand(f, specs[0].factors), difference, f.breakpoints,
    )


def integrate_single(
    f: PiecewisePolynomial, l: int, alpha: float, a: float, b: float, tol: float = DEFAULT_TOL
) -> float:
    """int_a^b f(x) j_l(alpha x) dx for an interpolated prefactor f.

    The routes are weighted_integral's: quadrature below the first-zero
    threshold, and over the whole interval past AMPLIFICATION_GUARD or
    where the analytic route refuses.  Raises NotConvergedError, which
    carries the result record, when a quadrature run misses ``tol``;
    weighted_integral returns the record.
    """
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
    """int_a^b f(x) j_k(alpha x) j_l(beta x) dx for an interpolated f.

    Dispatches into the squared (k = l, alpha = beta), same order
    (k = l) or mixed family.  The routes are weighted_integral's:
    quadrature below the first-zero threshold, and over the whole
    interval past AMPLIFICATION_GUARD or where the analytic route refuses
    (near-degenerate scales).  Raises NotConvergedError, which carries
    the result record, when a quadrature run misses ``tol``;
    weighted_integral returns the record.
    """
    return weighted_integral(f, l, alpha, a, b, tol, k=k, beta=beta).value
