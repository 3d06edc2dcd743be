"""The one antiderivative convention: each route fixes its constant of
integration, the same at every x, so differences of the public
evaluators along one route are definite integrals.

The trig anchors carry no constant (see ``test_trig_primitives`` for
X_m(0) = Y_m(0) = 0 and X_{-1} = Si - pi/2); the family values are not
one rule for every spec, and the cells below pin what each route
gives."""

import itertools
import math

import pytest

import besselquad as bq

TOL = 1e-10

#: (family, order, exponent): I; H; K at ratio 1.7; L with k = l - 2 at
#: ratio 1.7
GRID = list(itertools.product("IHKL", (5, 10, 20, 40), (-1, 0, 2)))


def _spec_and_F(family, l, n):
    """The spec and its public evaluator's value at x."""
    if family == "I":
        return bq.IntegralSpec("I", n, l), lambda x: bq.eval_I(n, l, x).value
    if family == "H":
        return bq.IntegralSpec("H", n, l), lambda x: bq.eval_H(n, l, x).value
    if family == "K":
        return (
            bq.IntegralSpec("K", n, l, 1.0, beta=1.7),
            lambda x: bq.eval_K(n, l, x, 1.0, 1.7).value,
        )
    return (
        bq.IntegralSpec("L", n, l, 1.0, k=l - 2, beta=1.7),
        lambda x: bq.eval_L(n, l - 2, l, x, 1.0, 1.7).value,
    )


@pytest.mark.parametrize("family, l, n", GRID, ids=lambda v: str(v))
def test_public_differences_meet_tol(family, l, n):
    # on [t, 2t] and [2t, 4t] past the first-zero threshold t, the
    # difference of two public values meets tol against the routed
    # integral and against a quadrature of the same tolerance
    spec, F = _spec_and_F(family, l, n)
    t = bq.oscillation_threshold(spec)
    for a, b in ((t, 2 * t), (2 * t, 4 * t)):
        got = F(b) - F(a)
        for strategy in ("auto", "quadrature"):
            want = bq.definite_integral(spec, a, b, tol=TOL, strategy=strategy).value
            assert abs(got - want) <= max(TOL, TOL * abs(want)), (a, b, strategy, got, want)


@pytest.mark.parametrize("l", [0, 1, 5, 20, 40, 60, 100, 150])
def test_H0_is_the_integral_from_zero_less_its_limit(l):
    # H^0_l(x) = int_0^x j_l^2 - pi / (2 (2l + 1)) = -int_x^inf j_l^2
    spec = bq.IntegralSpec("H", 0, l)
    t = bq.oscillation_threshold(spec)
    limit = math.pi / (2 * (2 * l + 1))
    for x in (t, 3 * t):
        head = bq.definite_integral(spec, 0.0, x, tol=1e-13).value
        assert bq.eval_H(0, l, x).value == pytest.approx(head - limit, rel=1e-13, abs=0)


@pytest.mark.parametrize("l", [1, 2, 5, 10, 20, 40])
def test_H1_sits_a_constant_above_the_recursion(l):
    # at n = -1 the closed form H1 and the recursion to the trig base
    # differ by 1 / (2 l (l + 1)) at every x: one convention per route
    t = bq.oscillation_threshold(bq.IntegralSpec("H", -1, l))
    for x in (t, 3 * t, 10 * t):
        closed = bq.eval_H(-1, l, x)
        walked = bq.eval_H(-1, l, x, closed_forms=False)
        assert (closed.path, walked.path) == ("recursion+closed", "recursion")
        gap = closed.value - walked.value
        assert gap == pytest.approx(1 / (2 * l * (l + 1)), rel=1e-11), x


@pytest.mark.parametrize("l", [1, 2, 5, 10, 20])
def test_band_walk_names_itself_and_meets_the_triangle(l):
    # even n <= 0 with closed forms walk the band of the exponent
    # relation; closed_forms=False walks the triangle, the reference
    t = bq.oscillation_threshold(bq.IntegralSpec("H", 0, l))
    for n in (0, -2, -4):
        for x in (t, 3 * t):
            band = bq.eval_H(n, l, x)
            walked = bq.eval_H(n, l, x, closed_forms=False)
            assert (band.path, walked.path) == ("recursion+exponent", "recursion")
            assert band.value == pytest.approx(walked.value, rel=1e-13, abs=0), (n, x)
    assert bq.eval_H(0, 0, t).path == "base"
