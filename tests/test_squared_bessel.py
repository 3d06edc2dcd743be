import math

import pytest

from besselquad import (
    DomainError,
    IntegralSpec,
    adaptive_quad,
    closed_H,
    eval_H,
    first_zero_estimate,
    j,
    j_many,
    oscillation_threshold,
)
from helpers import assert_derivative_matches

H10_LIMIT = -0.6351814227307391  # -(gamma + ln 2)/2


def oracle(n, l, a, b, alpha=1.0, tol=1e-12):
    f = lambda xs: xs**n * j_many(l, abs(alpha) * xs) ** 2
    w = math.pi / max(abs(alpha), 1.0)
    return adaptive_quad(f, a, b, tol=tol, vectorized=True, initial_max_width=w).value


def diff(n, l, a, b, **kw):
    return eval_H(n, l, b, **kw).value - eval_H(n, l, a, **kw).value


class TestBaseCases:
    def test_log_branch_small_x_constant(self):
        assert eval_H(1, 0, 1e-4).value == pytest.approx(H10_LIMIT, abs=1e-7)

    @pytest.mark.parametrize("x", [0.02, 0.05, 0.1])
    def test_log_branch_small_x_series(self, x):
        series = H10_LIMIT + x**2 / 2 - x**4 / 12
        assert eval_H(1, 0, x).value == pytest.approx(series, abs=1e-8)

    def test_n2_l0_against_oracle(self):
        assert diff(2, 0, 1.0, 20.0) == pytest.approx(oracle(2, 0, 1.0, 20.0), rel=1e-10)

    def test_n0_l0_sinc_squared(self):
        got = diff(0, 0, math.pi, 2 * math.pi)
        assert got == pytest.approx(oracle(0, 0, math.pi, 2 * math.pi), rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_H(0, 0, 0.0)
        with pytest.raises(DomainError):
            eval_H(0, -1, 1.0)


class TestScaled:
    def test_alpha_one_identity(self):
        for (n, l, x) in [(1, 0, 2.0), (2, 3, 9.0), (-1, 2, 14.0)]:
            assert eval_H(n, l, x, 1.0).value == eval_H(n, l, x).value

    def test_scaled_against_oracle(self):
        got = (
            eval_H(2, 1, 10.0, 2.0).value - eval_H(2, 1, 0.5, 2.0).value
        )
        assert got == pytest.approx(oracle(2, 1, 0.5, 10.0, 2.0), rel=1e-9)

    def test_even_in_alpha(self):
        for x in (0.7, 4.0, 22.0):
            plus = eval_H(2, 3, x, 2.0).value
            minus = eval_H(2, 3, x, -2.0).value
            assert plus == minus

    def test_zero_alpha_rejected(self):
        with pytest.raises(DomainError):
            eval_H(0, 0, 1.0, 0.0)


class TestClosedForms:
    def test_H3_l1_definite_is_half_pi(self):
        # x^3/2 (j_1^2 - j_0 j_2) at pi: pi^3/2 * (1/pi^2) = pi/2
        v = closed_H("H3", 1, math.pi).value
        assert v == pytest.approx(math.pi / 2, rel=1e-12)
        assert v == pytest.approx(oracle(2, 1, 1e-8, math.pi), rel=1e-10)

    def test_H5_l0_vanishes_at_zero(self):
        assert closed_H("H5", 0, 1e-8).value == pytest.approx(0.0, abs=1e-30)

    def test_H1_l1_against_recursion(self):
        a, b = 1.0, 10.0
        c = closed_H("H1", 1, b).value - closed_H("H1", 1, a).value
        r = diff(-1, 1, a, b, closed_forms=False)
        assert c == pytest.approx(r, rel=1e-10)

    @pytest.mark.parametrize("l", range(1, 11))
    @pytest.mark.parametrize("kind,n_of_l", [
        ("H1", lambda l: -1),
        ("H2", lambda l: 1 - 2 * l),
        ("H3", lambda l: 2),
        ("H4", lambda l: 4),
        ("H5", lambda l: 2 * l + 3),
    ])
    def test_each_closed_form_agrees_with_recursion(self, l, kind, n_of_l):
        # deep negative exponents put x = 2 far below the first zero for
        # large l, outside the recursion's accuracy domain (that region
        # belongs to the quadrature fallback), so anchor the interval at
        # the oscillation threshold there
        a = 2.0
        if (kind == "H1" and l > 7) or (kind == "H2" and l > 3):
            a = first_zero_estimate(l)
        b = a + 38.0
        n = n_of_l(l)
        c = closed_H(kind, l, b).value - closed_H(kind, l, a).value
        r = diff(n, l, a, b, closed_forms=False)
        assert c == pytest.approx(r, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("kind", ["H3", "H4"])
    def test_l0_uses_j_minus_one(self, kind):
        n = {"H3": 2, "H4": 4}[kind]
        a, b = 1.0, 9.0
        c = closed_H(kind, 0, b).value - closed_H(kind, 0, a).value
        assert c == pytest.approx(oracle(n, 0, a, b), rel=1e-10)

    def test_H2_constant(self):
        # pi / (4^(l+1) l Gamma(l+1/2)^2) = 1/(4 l ((2l-1)!!)^2)
        assert math.pi / (16 * math.gamma(1.5) ** 2) == pytest.approx(0.25, rel=1e-14)

    def test_invalid_combinations(self):
        with pytest.raises(DomainError):
            closed_H("H1", 0, 1.0)
        with pytest.raises(DomainError):
            closed_H("H2", 0, 1.0)
        with pytest.raises(DomainError):
            closed_H("H9", 1, 1.0)


class TestEarlyTermination:
    @pytest.mark.parametrize("n,l", [(2, 4), (4, 6), (-1, 3), (5, 1), (13, 5)])
    def test_closed_dispatch_matches_pure_recursion_on_differences(self, n, l):
        a, b = 2.0, 40.0
        with_forms = diff(n, l, a, b, closed_forms=True)
        without = diff(n, l, a, b, closed_forms=False)
        assert with_forms == pytest.approx(without, rel=1e-10, abs=1e-14)

    def test_closed_form_path_is_reported(self):
        assert "closed" in eval_H(2, 4, 10.0).path


class TestDerivativeProperty:
    @pytest.mark.parametrize("n", range(-2, 6))
    @pytest.mark.parametrize("l", [0, 1, 3, 6, 9, 12])
    def test_derivative_is_integrand(self, n, l):
        # the derivative is blind to the constant of integration
        for x in (first_zero_estimate(l), 0.5 * (first_zero_estimate(l) + 100), 100.0):
            assert_derivative_matches(
                lambda t: eval_H(n, l, t).value,
                x**n * j(l, x) ** 2,
                x,
            )


class TestExponentRelation:
    @pytest.mark.parametrize("l", range(13))
    def test_relation_holds_on_the_triangle_cells(self, l):
        # m (m^2 - (2l+1)^2) H^m_l + 4 (m+1) H^{m+2}_l equals the boundary
        # terms at m <= -2 on the plain walk's cells: the band walk of
        # even n <= 0 rests on it
        t = oscillation_threshold(IntegralSpec("H", 0, l))
        for u in (t, 1.7 * t, 3 * t):
            jl = j(l, u)
            dj = l / u * jl - j(l + 1, u)
            for m in range(-12, -1, 2):
                lhs = (
                    m * (m * m - (2 * l + 1) ** 2) * eval_H(m, l, u, closed_forms=False).value
                    + 4 * (m + 1) * eval_H(m + 2, l, u, closed_forms=False).value
                )
                rhs = (
                    2 * u ** (m + 3) * dj * dj
                    - 2 * (m - 1) * u ** (m + 2) * jl * dj
                    + (2 * u * u + m * (m - 1) - 2 * l * (l + 1)) * u ** (m + 1) * jl * jl
                )
                assert lhs == pytest.approx(rhs, rel=1e-13, abs=0), (u, m)
