import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselquad import (
    DomainError,
    QuadratureRecommendedError,
    adaptive_quad,
    ci,
    eval_pair,
    int_pow_cos,
    int_pow_sin,
    si,
)
from besselquad import trig_primitives as tp
from besselquad.trig_primitives import TrigChain
from helpers import assert_derivative_matches, si_series

SI_PI = 1.8519370519824663  # from the quadrature oracle, cross-checked below
CI_1 = 0.33740392290096816  # convergent series / tail quadrature


class TestSiCi:
    def test_si_zero(self):
        assert si(0.0) == 0.0

    def test_si_pi_frozen(self):
        assert abs(si(math.pi) - SI_PI) < 1e-13

    def test_si_pi_against_series_oracle(self):
        assert abs(si(math.pi) - si_series(math.pi)) < 1e-14

    def test_si_pi_against_quadrature_oracle(self):
        r = adaptive_quad(lambda t: math.sin(t) / t if t else 1.0, 1e-300, math.pi, tol=1e-13)
        assert abs(si(math.pi) - r.value) < 1e-12

    def test_ci_one_frozen(self):
        assert abs(ci(1.0) - CI_1) < 1e-13

    def test_ci_decays(self):
        assert abs(ci(1000.0)) < 1e-3

    def test_switchover_is_smooth(self):
        # both branches must agree where they meet
        assert abs(si(6.0 - 1e-9) - si(6.0 + 1e-9)) < 1e-9
        assert abs(ci(6.0 - 1e-9) - ci(6.0 + 1e-9)) < 1e-9

    @pytest.mark.parametrize("x", [0.25, 1.0, 3.0, 5.9, 6.1, 20.0, 117.0])
    def test_si_derivative(self, x):
        assert_derivative_matches(si, math.sin(x) / x, x)

    @pytest.mark.parametrize("x", [0.5, 2.0, 5.9, 6.1, 30.0])
    def test_ci_derivative(self, x):
        assert_derivative_matches(ci, math.cos(x) / x, x)

    def test_si_monotone_on_first_arch(self):
        xs = [i * math.pi / 64 for i in range(65)]
        vals = [si(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            si(-1.0)
        with pytest.raises(DomainError):
            ci(0.0)
        with pytest.raises(DomainError):
            ci(-2.0)


class TestAnchorsAndSpecialValues:
    def test_X0_at_pi(self):
        # X_0 = 1 - cos x
        assert eval_pair(0, math.pi).X == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("x", [1e-3, 1.0, tp.SI_CI_SWITCH, 6.5, 25.0, 1e3])
    def test_X_minus1_is_si_less_half_pi(self, x):
        # X_{-1} = Si - pi/2, which vanishes at infinity; si(x) - pi/2
        # carries the rounding of a value near pi/2
        assert eval_pair(-1, x).X == pytest.approx(si(x) - 0.5 * math.pi, rel=1e-14, abs=4.5e-16)

    def test_X1_at_pi(self):
        # X_1 = sin x - x cos x, and int_0^pi t sin t dt = pi with X_1(0) = 0
        assert eval_pair(1, math.pi).X == pytest.approx(math.pi, rel=1e-14)
        r = adaptive_quad(lambda t: t * math.sin(t), 1e-300, math.pi, tol=1e-13)
        got = eval_pair(1, math.pi).X - eval_pair(1, 1e-300).X
        assert got == pytest.approx(r.value, rel=1e-12)

    def test_Y0_at_half_pi(self):
        assert eval_pair(0, math.pi / 2).Y == pytest.approx(1.0, rel=1e-15)

    def test_Y2_at_zero(self):
        assert eval_pair(2, 0.0).Y == 0.0

    def test_Y_minus1_is_ci(self):
        assert eval_pair(-1, 1.0).Y == pytest.approx(CI_1, abs=1e-13)

    def test_every_pair_vanishes_at_zero(self):
        # the anchors X_0(0) = Y_0(0) = 0 carry no constant up the walk:
        # X_m(x) = int_0^x t^m sin t dt for every m >= 0
        chain = TrigChain(1.0, 0.0)
        for m in range(401):
            assert chain.pair(m) == (0.0, 0.0), m

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_pair(-2, 0.0)
        with pytest.raises(DomainError):
            eval_pair(-1, 0.0)
        with pytest.raises(DomainError):
            eval_pair(0, -1.0)

    def test_small_argument_hazard_signal(self):
        with pytest.raises(QuadratureRecommendedError):
            eval_pair(-2, 0.05)
        with pytest.raises(QuadratureRecommendedError):
            eval_pair(-3, 0.099)
        # boundary: allowed at exactly 0.1
        eval_pair(-2, 0.1)

    def test_public_routes_refuse_differently(self):
        # the scaled primitives take the hazardous range that eval_pair
        # refuses, and there they agree with mpmath
        mpmath = pytest.importorskip("mpmath")
        assert int_pow_sin(-3, 1.0, 0.01) == -99.21626850049145
        with pytest.raises(QuadratureRecommendedError):
            eval_pair(-3, 0.01)
        with mpmath.workdps(30):
            for route, trig in ((int_pow_sin, mpmath.sin), (int_pow_cos, mpmath.cos)):
                want = mpmath.quad(lambda t: trig(t) / t**3, [1, 0.1, 0.01])
                got = route(-3, 1.0, 0.01) - route(-3, 1.0, 1.0)
                assert abs(got - float(want)) <= 1e-15 * abs(float(want))
        # no constant to overflow at x = 0
        p = eval_pair(400, 0.0)
        assert (p.X, p.Y) == (0.0, 0.0)
        assert int_pow_sin(400, 1.3, 0.0) == 0.0


class TestDerivativeProperty:
    @pytest.mark.parametrize("n", range(-6, 9))
    @pytest.mark.parametrize("x", [0.5, 1.7, 7.7, 23.0, 50.0])
    def test_X_derivative(self, n, x):
        assert_derivative_matches(lambda t: eval_pair(n, t).X, x**n * math.sin(x), x)

    @pytest.mark.parametrize("n", range(-6, 9))
    @pytest.mark.parametrize("x", [0.5, 1.7, 7.7, 23.0, 50.0])
    def test_Y_derivative(self, n, x):
        assert_derivative_matches(lambda t: eval_pair(n, t).Y, x**n * math.cos(x), x)


class TestRecursionCycleConsistency:
    @given(
        n=st.integers(min_value=-6, max_value=8),
        x=st.floats(min_value=0.5, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_down_then_up_returns_start(self, n, x):
        # reconstructing (X_n, Y_n) from the pair one step below must
        # reproduce the directly evaluated values
        pair = eval_pair(n, x)
        down = eval_pair(n - 1, x)
        # X_0 = 1 - cos x: the one step whose anchor adds a constant
        X_up = n * down.Y - x**n * math.cos(x) + (n == 0)
        Y_up = x**n * math.sin(x) - n * down.X
        assert X_up == pytest.approx(pair.X, rel=1e-12, abs=1e-12)
        assert Y_up == pytest.approx(pair.Y, rel=1e-12, abs=1e-12)


class TestScaledSeries:
    # int_pow_sin and int_pow_cos take the series at |c x| <= SERIES_ARG_MAX

    def test_X_series_keeps_the_x_dependence_at_tiny_x(self):
        # X_0(x) = 1 - cos x = x^2 / 2 - ..., with no constant to bury it
        assert int_pow_sin(0, 1.0, 1e-12) == pytest.approx(5e-25, rel=1e-15)

    def test_Y_series_agrees_with_recursion(self):
        a = int_pow_cos(1, 1.0, 0.01)
        b = eval_pair(1, 0.01).Y / 1.0
        assert a == pytest.approx(b, rel=1e-12)

    def test_X_series_agrees_with_scaled_recursion(self):
        a = int_pow_sin(2, 2.0, 0.1)
        b = eval_pair(2, 0.2).X / 2.0**3
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("x", [30.0, 50.0])
    def test_recursion_past_the_series_bound(self, x):
        # 60 series terms at |alpha x| = 50 gave -12039.69 for X_0
        # (1 - cos 50 = 0.035); past SERIES_ARG_MAX the pair recursion runs
        p = eval_pair(1, x)
        assert (int_pow_sin(1, 1.0, x), int_pow_cos(1, 1.0, x)) == (p.X, p.Y)
        want = (1 - math.cos(x)) / (0.5 * x)
        assert int_pow_sin(0, 0.5 * x, 2.0) == pytest.approx(want, rel=1e-14)
        assert int_pow_cos(0, 0.5 * x, 2.0) == pytest.approx(math.sin(x) / (0.5 * x), rel=1e-14)

    def test_negative_order_takes_the_pair_route(self):
        # the series holds for n >= 0 only; small |c x| at n < 0 runs the pair
        assert int_pow_sin(-1, 1.0, 0.1) == eval_pair(-1, 0.1).X
        assert int_pow_cos(-2, 1.0, 0.1) == eval_pair(-2, 0.1).Y

    # (n, alpha, x) -> (X series, Y series), as float.hex
    SERIES_AT_ENGINE_BOUND = {
        (0, 1.0, 0.5): ("0x1.f56bfcd241582p-4", "0x1.eaee8744b05f0p-2"),
        (1, 1.0, 0.5): ("0x1.4ce036f7c4502p-5", "0x1.e07111b71f65cp-4"),
        (7, 1.0, 0.5): ("0x1.b7c25c1f862e5p-13", "0x1.cdaebc8ac22acp-12"),
        (2, -1.3, 0.5 / 1.3): ("-0x1.c54393f44c2c0p-8", "0x1.1fc44cc0b7afcp-6"),
    }

    @pytest.mark.parametrize("args", SERIES_AT_ENGINE_BOUND, ids=str)
    def test_series_values_at_the_engine_bound_unchanged(self, args):
        # |alpha x| = SERIES_ARG_MAX, the largest argument that takes the series
        assert bits(int_pow_sin(*args), int_pow_cos(*args)) == self.SERIES_AT_ENGINE_BOUND[args]

    @pytest.mark.parametrize("n", range(0, 7))
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0])
    def test_series_recursion_agreement_on_differences(self, n, alpha):
        # compare increments, removing the shared constant term
        x1 = 0.2 / alpha
        x2 = 0.5 / alpha
        ds = int_pow_sin(n, alpha, x2) - int_pow_sin(n, alpha, x1)
        dr = (eval_pair(n, alpha * x2).X - eval_pair(n, alpha * x1).X) / alpha ** (n + 1)
        assert ds == pytest.approx(dr, rel=1e-10, abs=1e-18)
        ds = int_pow_cos(n, alpha, x2) - int_pow_cos(n, alpha, x1)
        dr = (eval_pair(n, alpha * x2).Y - eval_pair(n, alpha * x1).Y) / alpha ** (n + 1)
        assert ds == pytest.approx(dr, rel=1e-10, abs=1e-18)


class TestScaledHelpers:
    @pytest.mark.parametrize("m", [-3, -1, 0, 2, 4])
    @pytest.mark.parametrize("c", [-2.3, -0.7, 0.4, 1.0, 3.1])
    @pytest.mark.parametrize("x", [0.8, 5.0, 17.0])
    def test_int_pow_sin_derivative(self, m, c, x):
        assert_derivative_matches(
            lambda t: int_pow_sin(m, c, t), x**m * math.sin(c * x), x
        )

    @pytest.mark.parametrize("m", [-3, -1, 0, 2, 4])
    @pytest.mark.parametrize("c", [-2.3, -0.7, 0.4, 1.0, 3.1])
    @pytest.mark.parametrize("x", [0.8, 5.0, 17.0])
    def test_int_pow_cos_derivative(self, m, c, x):
        assert_derivative_matches(
            lambda t: int_pow_cos(m, c, t), x**m * math.cos(c * x), x
        )

    @pytest.mark.parametrize("helper", [int_pow_sin, int_pow_cos])
    def test_nan_arguments_are_refused(self, helper):
        with pytest.raises(DomainError, match="x must be a real number with 0 <= x < inf, got nan"):
            helper(1, 1.0, math.nan)
        with pytest.raises(DomainError, match="c must be a finite nonzero real number, got nan"):
            helper(0, math.nan, 2.0)

    @pytest.mark.parametrize("helper", [int_pow_sin, int_pow_cos])
    @pytest.mark.parametrize("m", [-2, 0, 2])
    @pytest.mark.parametrize("x", [-0.3, -5.0])
    def test_negative_x_refused(self, helper, m, x):
        # the series route takes small |c x| only at x >= 0, as eval_pair does
        with pytest.raises(DomainError, match=rf"x must be a real number with 0 <= x < inf, got {x}"):
            helper(m, 1.0, x)

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("c", [0.02, -0.05])
    def test_series_route_matches_recursion_route_across_threshold(self, m, c):
        # same increment whether the series (small |c x|) or the
        # recursion (larger x) supplies the endpoint values; the shared
        # constant term (huge for odd m at small c) is removed
        x1, x2 = 1.0, 2.0  # |c x| <= 0.1: series route
        d_series = int_pow_cos(m, c, x2) - int_pow_cos(m, c, x1)
        r = adaptive_quad(lambda t: t**m * math.cos(c * t), x1, x2, tol=1e-13)
        assert d_series == pytest.approx(r.value, rel=1e-11)


def plain_pair(n, x):
    """Reference: a fresh walk from the anchors to (X_n(x), Y_n(x)), one
    plain loop per call."""
    c, s = math.cos(x), math.sin(x)
    if n >= 0:
        X = 2.0 * math.sin(0.5 * x) ** 2
        Y = s
        xk = 1.0
        for k in range(1, n + 1):
            xk *= x
            X, Y = k * Y - xk * c, xk * s - k * X
        return X, Y
    if x <= tp.SI_CI_SWITCH:
        X = si(x) - 0.5 * math.pi
    else:
        f, g = tp._aux_fg(x)
        X = -f * c - g * s
    Y = ci(x)
    for k in range(-2, n - 1, -1):
        p = x ** (k + 1)
        X, Y = (p * s - Y) / (k + 1), (p * c + X) / (k + 1)
    return X, Y


def plain_scaled(m, c, x):
    """Reference for int x^m sin(c x) dx and int x^m cos(c x) dx."""
    u = abs(c) * x
    if m >= 0 and u <= tp.SERIES_ARG_MAX:
        return tp._scaled_series(1, m, c, x), tp._scaled_series(0, m, c, x)
    X, Y = plain_pair(m, u)
    v = abs(c) ** (-m - 1) * X
    return (v if c > 0 else -v), abs(c) ** (-m - 1) * Y


def bits(*values):
    return tuple(float(v).hex() for v in values)


# both sides of SERIES_ARG_MAX (0.5) and of SI_CI_SWITCH (6)
CHAIN_ARGS = [0.3, 0.5, 0.7, 3.0, 6.0, 6.5, 25.0]


class TestTrigChain:
    @pytest.mark.parametrize("u", CHAIN_ARGS)
    def test_pair_bitwise_equals_fresh_walk(self, u):
        chain = TrigChain(1.0, u)
        # one chain serves every request, in an order that extends both
        # sides piecemeal and revisits values already walked
        order = [3, -2, 40, 0, -40, 17, -1, -17, 1, 39, -39]
        for m in order + list(range(-40, 41)):
            assert bits(*chain.pair(m)) == bits(*plain_pair(m, u)), m

    @pytest.mark.parametrize("c", [-1.7, 1.7])
    @pytest.mark.parametrize("u", CHAIN_ARGS)
    def test_scaled_bitwise_equals_fresh_walk(self, u, c):
        x = u / abs(c)
        chain = TrigChain(c, x)
        for m in range(-40, 41):
            want = plain_scaled(m, c, x)
            assert bits(chain.int_sin(m), chain.int_cos(m)) == bits(*want), m
            assert bits(int_pow_sin(m, c, x), int_pow_cos(m, c, x)) == bits(*want), m

    @pytest.mark.parametrize("u", [3.0, 25.0])
    def test_eval_pair_reads_the_chain(self, u):
        for n in (-9, -1, 0, 9):
            p = eval_pair(n, u)
            assert bits(p.X, p.Y) == bits(*plain_pair(n, u))

    @pytest.mark.parametrize(
        "u", [1e-3, 3.0, tp.SI_CI_SWITCH, math.nextafter(tp.SI_CI_SWITCH, 7.0), 6.5, 25.0]
    )
    def test_anchor_is_si_ci(self, u):
        # one Si/Ci core: the anchor is (si - pi/2, ci), Si - pi/2 formed
        # from f, g directly above the switch
        X, Y = TrigChain(1.0, u)._anchor()
        assert bits(X, Y) == bits(*plain_pair(-1, u))
        assert bits(Y) == bits(ci(u))
        if u <= tp.SI_CI_SWITCH:
            assert bits(X) == bits(si(u) - 0.5 * math.pi)
        else:
            assert X == pytest.approx(si(u) - 0.5 * math.pi, rel=1e-14)

    @pytest.mark.parametrize("u", [3.0, 25.0])
    def test_si_ci_anchor_computed_once(self, u, monkeypatch):
        calls = []
        for name in ("_aux_fg", "_si_series", "_ci_series"):
            fn = getattr(tp, name)
            monkeypatch.setattr(
                tp, name, lambda v, fn=fn, name=name: calls.append(name) or fn(v)
            )
        chain = TrigChain(1.0, u)
        for m in range(-1, -30, -1):
            chain.pair(m)
        assert len(set(calls)) == len(calls) >= 1
