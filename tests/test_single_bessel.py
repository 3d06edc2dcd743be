import math

import pytest

from besselquad import (
    DomainError,
    adaptive_quad,
    closed_I,
    eval_I,
    eval_I_scaled,
    first_zero_estimate,
    j,
    j_many,
    si,
)
from helpers import assert_derivative_matches, truncates_early

SI_PI = 1.8519370519824663
THREE_PI = 9.42477796076938  # int_0^pi x^3 j_1 dx = pi^3 j_2(pi) = 3 pi


def oracle(n, l, a, b, alpha=1.0, tol=1e-12):
    f = lambda xs: xs**n * j_many(l, alpha * xs) * (1 if alpha > 0 or l % 2 == 0 else -1)
    return adaptive_quad(f, a, b, tol=tol, vectorized=True, initial_max_width=2.0).value


def diff(n, l, a, b, **kw):
    return eval_I(n, l, b, **kw).value - eval_I(n, l, a, **kw).value


class TestBaseCases:
    def test_I00_is_si_less_half_pi(self):
        # I^0_0 = X_{-1} = Si - pi/2, which vanishes at infinity
        assert eval_I(0, 0, math.pi).value == pytest.approx(SI_PI - 0.5 * math.pi, abs=1e-13)
        assert eval_I(0, 0, 2.5).value == pytest.approx(si(2.5) - 0.5 * math.pi, abs=1e-14)

    def test_n3_l1_definite_from_zero(self):
        # antiderivative vanishes at 0 here (l + n = 4 > -1 and the
        # closed form x^{2+l} j_{l+1} has no constant)
        v = eval_I(3, 1, math.pi).value
        assert v == pytest.approx(THREE_PI, rel=1e-12)
        assert v == pytest.approx(oracle(3, 1, 1e-8, math.pi), rel=1e-10)

    def test_early_termination_case_matches_oracle(self):
        # (n=1, l=2): l+n = 3 odd, within the truncation window
        assert truncates_early(1, 2)
        got = diff(1, 2, 1.0, 20.0)
        assert got == pytest.approx(oracle(1, 2, 1.0, 20.0), rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_I(0, -1, 1.0)
        with pytest.raises(DomainError):
            eval_I(0, 0, 0.0)


class TestScaled:
    def test_substitution_identity(self):
        # int_0^{pi/2} j_0(2x) dx = Si(pi)/2
        got = eval_I_scaled(0, 0, math.pi / 2, 2.0).value - eval_I_scaled(0, 0, 1e-12, 2.0).value
        assert got == pytest.approx(SI_PI / 2, rel=1e-10)

    def test_alpha_one_is_identity(self):
        for (n, l, x) in [(0, 0, 3.0), (2, 4, 11.0), (-1, 2, 7.0)]:
            assert eval_I_scaled(n, l, x, 1.0).value == eval_I(n, l, x).value

    def test_negative_alpha_even_order(self):
        # x^2 j_0(-x) = x^2 j_0(x)
        got = eval_I_scaled(2, 0, 5.0, -1.0).value - eval_I_scaled(2, 0, 1.0, -1.0).value
        assert got == pytest.approx(oracle(2, 0, 1.0, 5.0), rel=1e-10)

    def test_negative_alpha_odd_order(self):
        got = eval_I_scaled(1, 1, 6.0, -1.0).value - eval_I_scaled(1, 1, 2.0, -1.0).value
        assert got == pytest.approx(-oracle(1, 1, 2.0, 6.0), rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.7])
    @pytest.mark.parametrize("n,l", [(0, 0), (1, 2), (-1, 3), (3, 5)])
    def test_scaled_against_oracle(self, alpha, n, l):
        a, b = 1.0, 30.0
        got = eval_I_scaled(n, l, b, alpha).value - eval_I_scaled(n, l, a, alpha).value
        want = oracle(n, l, a, b, alpha)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, -1.3])
    def test_order_zero_path_is_base(self, alpha):
        # the l = 0 value is the trig base itself, as in eval_I
        assert eval_I_scaled(0, 0, 2.0, alpha).path == eval_I(0, 0, 2.0).path == "base"
        assert eval_I_scaled(0, 1, 2.0, alpha).path == "recursion"

    def test_zero_alpha_rejected(self):
        with pytest.raises(DomainError):
            eval_I_scaled(0, 0, 1.0, 0.0)


class TestClosedForms:
    def test_I1_l0_definite(self):
        # int_0^pi x^2 j_0 dx = pi^2 j_1(pi) = pi
        v = closed_I("I1", 0, math.pi).value
        assert v == pytest.approx(math.pi, rel=1e-13)
        assert v == pytest.approx(oracle(2, 0, 1e-8, math.pi), rel=1e-10)

    def test_I3_constant_l1(self):
        # sqrt(pi)/2 / Gamma(3/2) = 1
        const = math.sqrt(math.pi) * 0.5 / math.gamma(1.5)
        assert const == pytest.approx(1.0, rel=1e-15)
        # the constant is the x -> 0 limit of the closed form
        small = closed_I("I3", 1, 1e-6).value
        assert small == pytest.approx(0.0, abs=1e-6)

    def test_I2_l0_matches_oracle(self):
        v = closed_I("I2", 0, math.pi).value
        assert v == pytest.approx(12.15672075876106, rel=1e-12)
        assert v == pytest.approx(oracle(4, 0, 1e-8, math.pi), rel=1e-10)

    @pytest.mark.parametrize("l", range(0, 11))
    def test_I1_agrees_with_recursion(self, l):
        a, b = 2.0, 40.0
        c = closed_I("I1", l, b).value - closed_I("I1", l, a).value
        r = diff(2 + l, l, a, b)
        assert c == pytest.approx(r, rel=1e-10)

    @pytest.mark.parametrize("l", range(0, 11))
    def test_I2_agrees_with_recursion(self, l):
        a, b = 2.0, 40.0
        c = closed_I("I2", l, b).value - closed_I("I2", l, a).value
        r = diff(4 + l, l, a, b)
        assert c == pytest.approx(r, rel=1e-10)

    @pytest.mark.parametrize("l", range(1, 11))
    def test_I3_agrees_with_recursion(self, l):
        a, b = 2.0, 40.0
        c = closed_I("I3", l, b).value - closed_I("I3", l, a).value
        r = diff(1 - l, l, a, b)
        assert c == pytest.approx(r, rel=1e-10, abs=1e-14)

    def test_I3_l0_rejected(self):
        with pytest.raises(DomainError):
            closed_I("I3", 0, 1.0)
        with pytest.raises(DomainError):
            closed_I("I9", 1, 1.0)


class TestDerivativeProperty:
    @pytest.mark.parametrize("n", range(-3, 7))
    @pytest.mark.parametrize("l", [0, 1, 3, 6, 9, 12])
    def test_derivative_is_integrand(self, n, l):
        for x in (first_zero_estimate(l), 0.5 * (first_zero_estimate(l) + 100.0), 100.0):
            assert_derivative_matches(
                lambda t: eval_I(n, l, t).value, x**n * j(l, x), x
            )


class TestTruncation:
    def test_predicate(self):
        assert truncates_early(0, 1)
        assert truncates_early(-1, 2)
        assert not truncates_early(0, 0)
        assert not truncates_early(2, 1)  # l+n odd required
        assert not truncates_early(3, 2)  # n <= l-1 required

    @pytest.mark.parametrize(
        "n,l",
        [(n, l) for l in range(0, 9) for n in range(-10, 11) if truncates_early(n, l)],
    )
    def test_truncated_equals_full_path(self, n, l):
        a = first_zero_estimate(l)
        b = a + 20.0
        t = eval_I(n, l, b, closed_forms=True).value - eval_I(n, l, a, closed_forms=True).value
        f = eval_I(n, l, b, closed_forms=False).value - eval_I(n, l, a, closed_forms=False).value
        assert abs(t - f) <= 1e-11 * max(1.0, abs(f))
