"""Shared test helpers."""

import math

EPS = 2.220446049250313e-16


def richardson_derivative(F, x, h=None):
    """Fourth-order central difference of F at x, plus a roundoff bound.

    Returns (derivative, noise): noise is the finite-difference noise
    floor from F's own magnitude, which dominates wherever the
    antiderivative's constant of integration dwarfs the local variation.
    """
    if h is None:
        # sqrt scaling keeps the O(h^4) truncation small for oscillatory
        # antiderivatives (their derivatives do not shrink with x) while
        # still damping roundoff for power-law growth
        h = 7e-4 * math.sqrt(max(1.0, abs(x)))
    f1 = F(x - 2 * h)
    f2 = F(x - h)
    f3 = F(x + h)
    f4 = F(x + 2 * h)
    d_h = (f3 - f2) / (2 * h)
    d_2h = (f4 - f1) / (4 * h)
    deriv = (4 * d_h - d_2h) / 3
    noise = 8 * EPS * max(abs(f1), abs(f2), abs(f3), abs(f4), 1e-300) / h
    return deriv, noise


def assert_derivative_matches(F, target, x, rel=1e-6):
    """Assert that dF/dx at x equals target to ``rel`` relative accuracy,
    allowing for the explicit finite-difference noise floor."""
    deriv, noise = richardson_derivative(F, x)
    tol = rel * abs(target) + noise
    assert abs(deriv - target) <= tol, (
        f"dF/dx at x={x}: got {deriv}, want {target} "
        f"(err {abs(deriv - target):.3e}, tol {tol:.3e})"
    )


def truncates_early(n, l):
    """True when the I^n_l recursion terminates before reaching l = 0:
    l + n odd and 1 - l <= n <= l - 1."""
    return (l + n) % 2 == 1 and 1 - l <= n <= l - 1


def rel_err(got, want):
    return abs(got - want) / max(1.0, abs(want))


def close(got, want, rel=1e-12, abs_tol=0.0):
    return abs(got - want) <= max(rel * abs(want), abs_tol)


def si_series(x):
    """Independent series oracle sum (-1)^k x^(2k+1) / ((2k+1)(2k+1)!)."""
    acc = 0.0
    term = x
    k = 0
    while abs(term) > 1e-20 * max(1.0, abs(acc)):
        acc += term / (2 * k + 1)
        k += 1
        term *= -(x * x) / ((2 * k) * (2 * k + 1))
    return acc


def assert_refuses_or_meets(F, a, b, want, tol=1e-10):
    """The failure contract of a public evaluator F on [a, b]: F refuses
    at a or b with a typed error (DomainError or
    QuadratureRecommendedError), or F(b) - F(a) meets tol against the
    integral want."""
    from besselquad import DomainError, QuadratureRecommendedError

    try:
        got = F(b) - F(a)
    except (DomainError, QuadratureRecommendedError):
        return
    assert abs(got - want) <= max(tol, tol * abs(want)), (got, want)
