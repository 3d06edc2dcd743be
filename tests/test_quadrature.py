import math
import warnings

import numpy as np
import pytest

from besselquad import (
    AMPLIFICATION_GUARD,
    DomainError,
    IntegralSpec,
    NotConvergedError,
    QuadratureRecommendedError,
    adaptive_quad,
    choose_strategy,
    definite_integral,
    integrand,
    recursion_amplification,
)
from besselquad.quadrature import PANEL_CHUNK
from helpers import si_series

SI_PI = 1.8519370519824663


class TestAdaptiveQuad:
    def test_sine(self):
        r = adaptive_quad(math.sin, 0.0, math.pi)
        assert r.converged
        assert r.value == pytest.approx(2.0, abs=1e-12)

    def test_sinc_against_series(self):
        r = adaptive_quad(lambda t: math.sin(t) / t if t else 1.0, 1e-300, math.pi)
        assert r.value == pytest.approx(si_series(math.pi), abs=1e-12)
        assert r.value == pytest.approx(SI_PI, abs=1e-10)

    def test_unit_constant(self):
        r = adaptive_quad(lambda t: 1.0, 0.0, 1.0)
        assert r.value == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("deg", range(0, 14))
    def test_polynomials_exact(self, deg):
        # a single Kronrod panel integrates these exactly
        r = adaptive_quad(lambda t: (2 * t - 1) ** deg, 0.0, 1.0)
        expect = (1.0 - (-1.0) ** (deg + 1)) / (2.0 * (deg + 1))
        assert r.value == pytest.approx(expect, abs=1e-13)

    def test_vectorized_matches_scalar(self):
        f_s = lambda t: math.exp(-t) * math.sin(3 * t)
        f_v = lambda ts: np.exp(-ts) * np.sin(3 * ts)
        r1 = adaptive_quad(f_s, 0.0, 5.0)
        r2 = adaptive_quad(f_v, 0.0, 5.0, vectorized=True)
        assert r1.value == pytest.approx(r2.value, abs=1e-14)
        # with the same arithmetic in both forms, the scalar and the
        # batched paths give the same bits, bisections included
        peak = lambda t: t * (3.0 - t) / (1e-3 + (t - 1.3) * (t - 1.3))
        for width in (None, 0.7, 0.01):
            r1 = adaptive_quad(peak, 0.0, 5.0, initial_max_width=width)
            r2 = adaptive_quad(peak, 0.0, 5.0, vectorized=True, initial_max_width=width)
            assert r1 == r2

    def test_initial_partition_is_batched(self):
        seen = []

        def f(xs):
            seen.append(len(xs))
            return np.cos(xs)

        panels = 2 * PANEL_CHUNK + 3
        r = adaptive_quad(f, 0.0, float(panels), vectorized=True, initial_max_width=1.0)
        assert r.converged
        assert len(seen) == math.ceil(panels / PANEL_CHUNK)
        assert seen == [15 * PANEL_CHUNK, 15 * PANEL_CHUNK, 15 * 3]
        assert r.evaluations == sum(seen)
        assert r.value == pytest.approx(math.sin(panels), abs=1e-12)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_bisection_is_one_call(self, vectorized):
        seen = []

        def f(xs):
            seen.append(len(xs) if vectorized else 1)
            return 1.0 / (1e-3 + (xs - 0.3) * (xs - 0.3))

        r = adaptive_quad(f, 0.0, 1.0, vectorized=vectorized)
        assert r.converged
        assert r.evaluations == sum(seen)
        if vectorized:
            assert seen[0] == 15 and len(seen) > 1
            assert set(seen[1:]) == {30}

    def test_max_evals_below_one_panel_is_domain_error(self):
        with pytest.raises(DomainError):
            adaptive_quad(math.sin, 0.0, 1.0, max_evals=10)
        assert adaptive_quad(math.sin, 0.0, 1.0, max_evals=15).evaluations == 15

    def test_error_estimate_is_honest(self):
        r = adaptive_quad(lambda t: math.cos(7.3 * t), 0.0, 20.0, tol=1e-11)
        exact = math.sin(7.3 * 20.0) / 7.3
        assert abs(r.value - exact) <= max(r.error_estimate, 1e-11)

    def test_nonconvergence_flag(self):
        r = adaptive_quad(lambda t: math.sin(50 * t) ** 2, 0.0, 50.0, tol=1e-16, max_evals=120)
        assert not r.converged
        assert r.evaluations <= 120

    def test_oscillation_hint_subdivides(self):
        f = lambda ts: np.sin(40.0 * ts)
        r = adaptive_quad(f, 0.0, 10.0, vectorized=True, initial_max_width=math.pi / 40.0)
        assert r.converged
        assert r.value == pytest.approx((1 - math.cos(400.0)) / 40.0, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            adaptive_quad(math.sin, 1.0, 1.0)
        with pytest.raises(DomainError):
            adaptive_quad(math.sin, 0.0, 1.0, tol=0.0)

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0)])
    def test_nonfinite_limits_are_domain_errors(self, a, b):
        with pytest.raises(DomainError):
            adaptive_quad(math.sin, a, b)


class TestBreakpoints:
    """adaptive_quad over [a, b] with interior breakpoints: one run whose
    initial panels are those of separate runs on the sub-intervals."""

    KNOTS = [0.0, 0.35, 1.9, 2.0, 6.5]
    WIDTH = 0.8

    @staticmethod
    def f(xs):
        return np.exp(-0.3 * xs) * np.cos(2.0 * xs) + np.where(xs < 1.9, xs, 1.0)

    def _nodes(self, a, b, **kw):
        seen = []

        def g(xs):
            seen.append(xs.copy())
            return self.f(xs)

        r = adaptive_quad(g, a, b, vectorized=True, initial_max_width=self.WIDTH, **kw)
        return r, np.concatenate(seen)

    def test_edges_are_the_per_piece_edges(self):
        r, nodes = self._nodes(self.KNOTS[0], self.KNOTS[-1], breakpoints=self.KNOTS[1:-1], tol=1e-6)
        pieces = [
            self._nodes(lo, hi, tol=1e-6)[1] for lo, hi in zip(self.KNOTS[:-1], self.KNOTS[1:])
        ]
        want = np.concatenate(pieces)
        assert len(nodes) == r.evaluations == len(want)  # no bisection either way
        assert np.array_equal(nodes, want)

    def test_value_is_the_sum_of_the_pieces(self):
        r = adaptive_quad(
            self.f, self.KNOTS[0], self.KNOTS[-1], vectorized=True,
            initial_max_width=self.WIDTH, breakpoints=self.KNOTS[1:-1],
        )
        parts = [
            adaptive_quad(self.f, lo, hi, vectorized=True, initial_max_width=self.WIDTH)
            for lo, hi in zip(self.KNOTS[:-1], self.KNOTS[1:])
        ]
        want = sum(q.value for q in parts)
        assert r.converged
        assert abs(r.value - want) <= 1e-14 * abs(want)

    def test_none_and_empty_are_the_plain_call(self):
        plain = adaptive_quad(self.f, 0.0, 6.5, vectorized=True, initial_max_width=self.WIDTH)
        for bps in (None, [], np.array([])):
            assert adaptive_quad(
                self.f, 0.0, 6.5, vectorized=True, initial_max_width=self.WIDTH, breakpoints=bps
            ) == plain

    def test_max_evals_needs_one_panel_per_sub_interval(self):
        bps = self.KNOTS[1:-1]  # four sub-intervals
        with pytest.raises(DomainError):
            adaptive_quad(self.f, 0.0, 6.5, vectorized=True, breakpoints=bps, max_evals=59)
        r = adaptive_quad(self.f, 0.0, 6.5, vectorized=True, breakpoints=bps, max_evals=60)
        assert r.evaluations == 60

    @pytest.mark.parametrize(
        "bps",
        [[math.nan], [math.inf], [2.0, 1.0], [1.0, 1.0], [0.0], [6.5], [-1.0], [7.0]],
    )
    def test_bad_breakpoints_are_domain_errors(self, bps):
        with pytest.raises(DomainError):
            adaptive_quad(self.f, 0.0, 6.5, vectorized=True, breakpoints=bps)


class TestChooseStrategy:
    def test_below_threshold_goes_quadrature(self):
        s = choose_strategy(IntegralSpec("I", 0, 10), 0.0, 2.0)
        assert s.kind == "Quadrature"
        assert s.threshold_x == pytest.approx(15.25)

    def test_above_threshold_goes_recursion(self):
        s = choose_strategy(IntegralSpec("I", 0, 0), 10.0, 100.0)
        assert s.kind == "Recursion"
        assert s.split_at is None

    def test_straddling_splits_at_threshold(self):
        s = choose_strategy(IntegralSpec("H", 2, 5), 1.0, 50.0)
        assert s.split_at == pytest.approx(10.0)

    def test_order_zero_threshold_is_pi(self):
        s = choose_strategy(IntegralSpec("I", 0, 0), 0.0, 1.0)
        assert s.threshold_x == pytest.approx(math.pi)

    def test_scales_shift_threshold(self):
        s = choose_strategy(IntegralSpec("K", 0, 4, 2.0, beta=0.5), 1.0, 100.0)
        assert s.threshold_x == pytest.approx((4.75 + 1.05 * 4) / 0.5)

    def test_guard_plans_quadrature(self):
        s = choose_strategy(IntegralSpec("K", 0, 10, 1.0, beta=20.0), 5.0, 260.0)
        assert (s.kind, s.split_at) == ("Quadrature", None)
        assert "AMPLIFICATION_GUARD" in s.reason


class TestDefiniteIntegral:
    def test_split_equals_single_strategy(self):
        # both pure strategies are valid above the threshold; the split
        # machinery must agree with them
        spec = IntegralSpec("I", 1, 2)
        a, b = 9.0, 60.0
        r_rec = definite_integral(spec, a, b, strategy="recursion")
        r_quad = definite_integral(spec, a, b, strategy="quadrature")
        r_auto = definite_integral(spec, a, b)
        assert r_rec.value == pytest.approx(r_quad.value, rel=1e-9)
        assert r_auto.value == pytest.approx(r_quad.value, rel=1e-9)
        assert r_quad.strategy.kind == "Quadrature"

    def test_auto_splits_interval(self):
        spec = IntegralSpec("H", 0, 5)
        r = definite_integral(spec, 0.0, 100.0)
        kinds = [seg[0] for seg in r.segments]
        assert kinds == ["quadrature", "recursion"]
        assert r.segments[0][2] == pytest.approx(10.0)

    def test_zero_lower_limit_needs_finiteness(self):
        with pytest.raises(DomainError, match="l \\+ n > -1"):
            definite_integral(IntegralSpec("I", -2, 0), 0.0, 10.0)
        with pytest.raises(DomainError, match="2l \\+ n > -1"):
            definite_integral(IntegralSpec("H", -1, 0), 0.0, 10.0)
        with pytest.raises(DomainError, match="k \\+ l \\+ n > -1"):
            definite_integral(IntegralSpec("L", -3, 1, k=1, beta=2.0), 0.0, 10.0)

    def test_forced_recursion_from_zero_refuses(self):
        with pytest.raises(QuadratureRecommendedError):
            definite_integral(IntegralSpec("I", 0, 0), 0.0, 10.0, strategy="recursion")

    def test_degenerate_scales_fall_back_to_quadrature(self):
        spec = IntegralSpec("K", 0, 1, 1.0, beta=1.0 + 1e-8)
        r = definite_integral(spec, 6.0, 20.0)
        assert all(seg[0] == "quadrature" for seg in r.segments)
        ref = definite_integral(IntegralSpec("H", 0, 1), 6.0, 20.0)
        assert r.value == pytest.approx(ref.value, rel=1e-4)

    def test_nonconverged_raises_when_asked(self):
        # a long oscillatory stretch with a tiny evaluation budget
        spec = IntegralSpec("I", 0, 0)
        with pytest.raises(NotConvergedError) as err:
            definite_integral(
                spec, 0.0, 400.0, tol=1e-12, max_evals=300,
                strategy="quadrature", raise_on_nonconverged=True,
            )
        assert err.value.result is not None
        assert not err.value.result.converged

    def test_extreme_scale_ratio_diverts_to_quadrature(self):
        # the two-scale recursions lose ~max_order * log10 of
        # (a^2+b^2)/(2ab) digits; widely separated scales go to
        # quadrature even above the oscillation threshold
        spec = IntegralSpec("L", -3, 13, 3.82, k=12, beta=0.51)
        assert recursion_amplification(spec) > AMPLIFICATION_GUARD
        r = definite_integral(spec, 38.3, 51.0)
        assert all(seg[0] == "quadrature" for seg in r.segments)
        # single-scale families have no such channel
        assert recursion_amplification(IntegralSpec("H", 0, 13)) == 1.0
        # moderately separated scales keep the analytic route
        mild = IntegralSpec("K", 0, 10, 0.5, beta=3.0)
        assert recursion_amplification(mild) < AMPLIFICATION_GUARD
        r = definite_integral(mild, 31.0, 70.0)
        assert r.segments == (("recursion", 31.0, 70.0),)

    def test_refused_recursion_reports_quadrature(self):
        spec = IntegralSpec("K", 0, 1, 1.0, beta=1.0 + 1e-8)
        r = definite_integral(spec, 6.0, 20.0)
        assert r.segments == (("quadrature", 6.0, 20.0),)
        assert r.strategy.kind == "Quadrature"
        assert "recursion refused (NearDegenerateError" in r.strategy.reason

    def test_spent_budget_leaves_segment_unevaluated(self):
        # [1, t] takes the whole budget of one panel; the refused
        # recursion above t falls back to quadrature with none left
        spec = IntegralSpec("K", 0, 1, 1.0, beta=1.0 + 1e-8)
        r = definite_integral(spec, 1.0, 20.0, max_evals=15)
        assert [route for route, _, _ in r.segments] == ["quadrature", "quadrature"]
        assert r.evaluations == 15
        assert not r.converged
        assert r.error_estimate == math.inf
        with pytest.raises(DomainError):
            definite_integral(spec, 1.0, 20.0, max_evals=14)

    def test_guard_diversion_reports_quadrature(self):
        spec = IntegralSpec("K", 0, 10, 1.0, beta=20.0)
        r = definite_integral(spec, 200.0, 260.0)
        assert r.segments == (("quadrature", 200.0, 260.0),)
        assert r.strategy.kind == "Quadrature"
        assert "AMPLIFICATION_GUARD" in r.strategy.reason

    @pytest.mark.parametrize("a, b", [(1.0, 5.0), (1.0, 50.0), (20.0, 50.0)])
    def test_strategy_names_the_route_that_ran(self, a, b):
        # I, n = 2, l = 5: threshold 10
        spec = IntegralSpec("I", 2, 5)
        r = definite_integral(spec, a, b, strategy="recursion")
        assert r.segments == (("recursion", a, b),)
        assert (r.strategy.kind, r.strategy.split_at) == ("Recursion", None)
        assert r.strategy.reason == "recursion strategy requested"
        assert r.strategy.threshold_x == pytest.approx(10.0)
        r = definite_integral(spec, a, b, strategy="quadrature")
        assert r.segments == (("quadrature", a, b),)
        assert (r.strategy.kind, r.strategy.split_at) == ("Quadrature", None)
        assert r.strategy.reason == "quadrature strategy requested"

    def test_split_at_only_where_the_evaluation_split(self):
        # past the guard a straddling interval runs as one quadrature segment
        r = definite_integral(IntegralSpec("K", 0, 10, 1.0, beta=20.0), 5.0, 30.0)
        assert r.segments == (("quadrature", 5.0, 30.0),)
        assert r.strategy.split_at is None
        # a refused recursion above the split keeps the split
        r = definite_integral(IntegralSpec("K", 0, 1, 1.0, beta=1.0 + 1e-8), 1.0, 20.0)
        t = r.strategy.threshold_x
        assert r.segments == (("quadrature", 1.0, t), ("quadrature", t, 20.0))
        assert (r.strategy.kind, r.strategy.split_at) == ("Quadrature", t)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_nonpositive_tolerance_is_a_domain_error(self, tol):
        # above the threshold no quadrature runs to check it
        with pytest.raises(DomainError, match="tolerance"):
            definite_integral(IntegralSpec("I", 0, 2), 20.0, 30.0, tol=tol)

    @pytest.mark.parametrize("a, b", [(1.0, math.inf), (0.0, math.nan)])
    def test_nonfinite_limits_are_domain_errors(self, a, b):
        with pytest.raises(DomainError):
            definite_integral(IntegralSpec("I", 0, 2), a, b)

    def test_overflowing_recursion_is_a_domain_error(self):
        # the exact integer coefficients of I^0_200 pass the float range
        with pytest.raises(DomainError):
            definite_integral(IntegralSpec("I", 0, 200), 300.0, 400.0)

    def test_K_with_equal_scales_delegates_to_H(self):
        r1 = definite_integral(IntegralSpec("K", 0, 1, 1.0, beta=1.0), 5.0, 40.0)
        r2 = definite_integral(IntegralSpec("H", 0, 1, 1.0), 5.0, 40.0)
        assert r1.value == pytest.approx(r2.value, rel=1e-12)


class TestIntegrandBuilder:
    def test_finite_at_zero_when_condition_holds(self):
        f = integrand(IntegralSpec("L", -2, 2, 1.0, k=1, beta=2.0))
        vals = f(np.array([0.0, 1e-8, 0.5]))
        assert np.all(np.isfinite(vals))

    def test_zero_limit_value(self):
        # n + k + l = 0: the limit is the product of leading coefficients
        f = integrand(IntegralSpec("L", -3, 2, 1.0, k=1, beta=2.0))
        expect = (1.0 / 3.0) * (2.0**2 / 15.0)
        assert f(np.array([0.0]))[0] == pytest.approx(expect, rel=1e-12)

    def test_matches_direct_product(self):
        from besselquad import j

        spec = IntegralSpec("K", 2, 3, 1.5, beta=0.5)
        f = integrand(spec)
        xs = np.array([0.3, 2.0, 11.0])
        expect = [x**2 * j(3, 1.5 * x) * j(3, 0.5 * x) for x in xs]
        assert np.allclose(f(xs), expect, rtol=1e-13)

    def test_negative_scale_parity(self):
        from besselquad import j

        f = integrand(IntegralSpec("I", 0, 1, -2.0))
        xs = np.array([0.7, 3.0])
        expect = [-j(1, 2.0 * x) for x in xs]
        assert np.allclose(f(xs), expect, rtol=1e-13)


class TestIntegralSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(family="I", n=1.5, l=2),
            dict(family="H", n=0, l=2.0),
            dict(family="L", n=0, l=2, k=0.5, beta=2.0),
            dict(family="K", n="0", l=2, beta=2.0),
        ],
    )
    def test_non_integer_exponent_or_order(self, kwargs):
        with pytest.raises(DomainError):
            IntegralSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(family="I", alpha=math.inf),
            dict(family="I", alpha=math.nan),
            dict(family="H", alpha=-math.inf),
            dict(family="K", beta=math.inf),
            dict(family="K", alpha=math.nan, beta=2.0),
            dict(family="L", k=1, beta=math.nan),
            dict(family="L", k=1, beta="2"),
        ],
    )
    def test_nonfinite_scales(self, kwargs):
        with pytest.raises(DomainError, match="finite"):
            IntegralSpec(n=0, l=1, **kwargs)

    def test_infinite_scale_never_reaches_a_value(self):
        # the spec used to be accepted and the integral came back nan
        with pytest.raises(DomainError):
            definite_integral(IntegralSpec("K", 0, 1, 1.0, beta=math.inf), 1.0, 2.0)

    def test_integer_like_values_become_int(self):
        spec = IntegralSpec("L", np.int64(2), np.int32(3), k=np.int64(1), beta=2.0)
        assert (type(spec.n), type(spec.l), type(spec.k)) == (int, int, int)
        assert spec == IntegralSpec("L", 2, 3, k=1, beta=2.0)


class TestQuadraturePathGuards:
    def test_overflowing_node_argument_is_a_domain_error(self):
        # alpha * x passes the float range at every node
        match = "j_many requires 0 <= x < inf"
        with np.errstate(over="ignore"), pytest.raises(DomainError, match=match):
            definite_integral(
                IntegralSpec("I", 0, 2, 1e10), 1e299, 1.0000001e299,
                strategy="quadrature", max_evals=300,
            )

    def test_panel_count_is_capped_before_it_overflows(self):
        # (b - a) / initial_max_width is inf: the cap, not math.ceil, decides
        r = adaptive_quad(
            lambda xs: np.ones_like(xs), 0.0, 1e300,
            initial_max_width=1e-10, max_evals=300, vectorized=True,
        )
        assert r.evaluations <= 300
        assert r.value == pytest.approx(1e300, rel=1e-12)

    def test_nan_tolerance_is_a_domain_error(self):
        with pytest.raises(DomainError, match="tolerance must be positive"):
            adaptive_quad(math.sin, 0.0, 1.0, tol=math.nan)

    def test_overflowing_node_argument_warns_nothing(self):
        # the DomainError is the only signal: no numpy overflow warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="j_many requires 0 <= x < inf"):
                definite_integral(
                    IntegralSpec("I", 0, 2, 1e10), 1e299, 1.0000001e299,
                    strategy="quadrature", max_evals=300,
                )
