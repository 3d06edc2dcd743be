import heapq
import math
import time
import warnings

import numpy as np
import pytest

from besselquad import (
    AMPLIFICATION_GUARD,
    DefiniteResult,
    DomainError,
    IntegralSpec,
    NotConvergedError,
    QuadratureRecommendedError,
    adaptive_quad,
    definite_integral,
    integrand,
    oscillation_threshold,
    recursion_amplification,
)
from besselquad import (
    AppendixIdentity, build_interpolant, quadrature, verify_identity, weighted_integral,
)
from besselquad.quadrature import PANEL_CHUNK, WIDE_PANEL
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
        # at most PANEL_CHUNK * 15 nodes per call: 62 GK61 panels (3 782
        # nodes), then the other 3, for 65 * WIDE_PANEL widths
        seen = []

        def f(xs):
            seen.append(len(xs))
            return np.cos(xs)

        assert 62 * 61 <= 15 * PANEL_CHUNK < 63 * 61
        b = 65.0 * WIDE_PANEL
        r = adaptive_quad(f, 0.0, b, vectorized=True, initial_max_width=1.0)
        assert r.converged
        assert seen == [61 * 62, 61 * 3]
        assert r.evaluations == sum(seen)
        assert r.value == pytest.approx(math.sin(b), abs=1e-12)

        # pieces of 4 widths keep GK15: 256 panels per call, across pieces
        seen.clear()
        b = 2.0 * PANEL_CHUNK + 3.0
        r = adaptive_quad(
            f, 0.0, b, vectorized=True, initial_max_width=1.0,
            breakpoints=[float(p) for p in range(4, int(b), 4)],
        )
        assert r.converged
        assert seen == [15 * PANEL_CHUNK, 15 * PANEL_CHUNK, 15 * 3]
        assert r.evaluations == sum(seen)
        assert r.value == pytest.approx(math.sin(b), abs=1e-12)

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

    def test_heap_only_for_bisection(self, monkeypatch):
        # a run whose initial partition converges builds no heap; one that
        # bisects builds it once and still meets tol
        from besselquad import quadrature

        heaps = []
        build = heapq.heapify

        def heapify(heap):
            heaps.append(len(heap))
            return build(heap)

        monkeypatch.setattr(quadrature.heapq, "heapify", heapify)
        r = adaptive_quad(np.cos, 0.0, 40.0, vectorized=True, initial_max_width=1.0)
        assert r.converged and r.evaluations == 61 * 4 and heaps == []  # 40 widths, 4 GK61 panels
        assert r.value == pytest.approx(math.sin(40.0), abs=1e-13)

        tol = 1e-9
        peak = lambda xs: 1.0 / (1e-3 + (xs - 0.3) * (xs - 0.3))
        r = adaptive_quad(peak, 0.0, 1.0, tol=tol, vectorized=True, initial_max_width=0.25)
        assert r.converged and r.evaluations > 15 * 4 and heaps == [4]
        exact = (math.atan(0.7 / math.sqrt(1e-3)) + math.atan(0.3 / math.sqrt(1e-3))) / math.sqrt(1e-3)
        assert abs(r.value - exact) <= tol * max(1.0, abs(exact))

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
        # the last piece, 5.6 widths, takes one GK61 panel, the others GK15
        assert len(nodes) == 15 * (1 + 2 + 1) + 61

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


class TestRuleChoice:
    """Each sub-interval between knots takes GK61 panels no wider than
    WIDE_PANEL widths where they cost fewer nodes than one GK15 panel
    per width and fit in its share of the budget with room to bisect one
    of them, else GK15 panels."""

    @staticmethod
    def _calls(b, **kw):
        seen = []

        def f(xs):
            seen.append(len(xs))
            return np.cos(xs) + 1.0 / (1e-2 + (xs - 13.3) ** 2)

        return adaptive_quad(f, 0.0, b, vectorized=True, initial_max_width=1.0, **kw), seen

    @pytest.mark.parametrize("widths, nodes", [(1.0, 15), (2.5, 45), (4.0, 60), (4.01, 61),
                                               (12.0, 61), (12.5, 122), (40.0, 244)])
    def test_initial_nodes_per_piece(self, widths, nodes):
        # up to 4 widths, ceil(H) GK15 panels cost no more than one GK61
        calls = quadrature._initial_calls([0.0, widths], 1.0, 10**6)
        assert sum(size * (len(edges) - 1) for call in calls for size, edges in call) == nodes

    def test_bisected_halves_keep_the_rule(self):
        r, seen = self._calls(40.0)
        assert r.converged and seen[0] == 4 * 61 and len(seen) > 1
        assert set(seen[1:]) == {2 * 61}
        assert r.evaluations == sum(seen)

    def test_budget_too_small_for_gk61_is_the_gk15_run(self, monkeypatch):
        # 4 GK61 panels and the halves of one need 366 nodes, above
        # max_evals // 2 = 240: the run is the GK15-only one bit for bit,
        # 16 panels and 10 bisections
        r, seen = self._calls(40.0, max_evals=480)
        assert seen[0] == 15 * 16 and set(seen[1:]) == {30}
        assert (r.value, r.evaluations, r.converged) == (32.04840013485588, 480, False)
        assert self._calls(40.0, max_evals=730)[1][0] == 15 * 24  # 366 > 365
        assert self._calls(40.0, max_evals=732)[1][0] == 4 * 61  # 366 fits
        monkeypatch.setattr(quadrature, "WIDE_PANEL", 1)  # GK61 never pays
        assert r == self._calls(40.0, max_evals=480)[0]

    def test_tight_budget_keeps_room_to_bisect(self):
        # 4 GK61 panels (244 nodes) would fit max_evals // 2 = 300, but
        # then only two GK61 bisections fit in 600 and the peak at 13.3
        # stays unresolved; GK15's 20 panels and 10 bisections converge
        r, seen = self._calls(40.0, tol=1e-10, max_evals=600)
        assert seen[0] == 15 * 20 and set(seen[1:]) == {30}
        assert r.converged and r.evaluations == 600
        assert r.value == pytest.approx(32.04840013485588, rel=1e-12)


def _mpmath_integral(spec, a, b, pieces):
    """spec's integral over [a, b] in mpmath at 20 digits: a 20-point
    Gauss-Legendre sum over each of ``pieces`` equal pieces, with j_l(z)
    as sqrt(pi / 2z) J_{l+1/2}(z)."""
    import mpmath as mp

    nodes, weights = np.polynomial.legendre.leggauss(20)
    with mp.workdps(20):
        def f(x):
            x = mp.mpf(x)
            out = x**spec.n
            for order, scale in spec.factors:
                z = scale * x
                out *= mp.sqrt(mp.pi / (2 * z)) * mp.besselj(order + mp.mpf(1) / 2, z)
            return out

        total = mp.mpf(0)
        edges = np.linspace(a, b, pieces + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            c, h = (lo + hi) / 2, (hi - lo) / 2
            total += h * mp.fsum(w * f(c + h * x) for x, w in zip(nodes, weights))
        return float(total)


@pytest.mark.parametrize("family", ["K", "L"])
@pytest.mark.parametrize("l", [10, 30, 60])
def test_wide_panels_agree_with_mpmath(family, l):
    # scales 1 and 20, past AMPLIFICATION_GUARD: auto runs quadrature over
    # 36 widths of pi / 20, three GK61 panels; the reference puts 20 Gauss
    # nodes on each of 18 pieces two widths long, which resolves them
    spec = IntegralSpec(family, 2, l, 1.0, k=l - 2 if family == "L" else None, beta=20.0)
    a = 1.1 * oscillation_threshold(spec)
    b = a + 36 * math.pi / 20.0
    tol = 1e-12
    r = definite_integral(spec, a, b, tol=tol)
    assert r.segments == (("quadrature", a, b),)
    assert r.evaluations % 61 == 0 and r.evaluations < 15 * 36
    ref = _mpmath_integral(spec, a, b, 18)
    assert abs(r.value - ref) <= max(tol, tol * abs(ref)), (r.value, ref)


class TestRoutePlan:
    """The auto plan, read off the record: oscillation_threshold(spec) is
    the threshold, and segments and reason say where and why each route
    ran."""

    def test_below_threshold_goes_quadrature(self):
        spec = IntegralSpec("I", 0, 10)
        assert oscillation_threshold(spec) == pytest.approx(15.25)
        r = definite_integral(spec, 0.0, 2.0)
        assert r.segments == (("quadrature", 0.0, 2.0),)
        assert r.reason == "interval entirely below the first-zero threshold 15.25"

    def test_above_threshold_goes_recursion(self):
        # no split: one recursion segment over the whole interval
        r = definite_integral(IntegralSpec("I", 0, 0), 10.0, 100.0)
        assert r.segments == (("recursion", 10.0, 100.0),)

    def test_straddling_splits_at_threshold(self):
        r = definite_integral(IntegralSpec("H", 2, 5), 1.0, 50.0)
        (_, _, t), recursion = r.segments
        assert t == pytest.approx(10.0)
        assert recursion == ("recursion", t, 50.0)

    def test_order_zero_threshold_is_pi(self):
        spec = IntegralSpec("I", 0, 0)
        assert oscillation_threshold(spec) == pytest.approx(math.pi)
        assert definite_integral(spec, 0.0, 1.0).reason.endswith(f"threshold {math.pi:.6g}")

    def test_scales_shift_threshold(self):
        spec = IntegralSpec("K", 0, 4, 2.0, beta=0.5)
        t = oscillation_threshold(spec)
        assert t == pytest.approx((4.75 + 1.05 * 4) / 0.5)
        r = definite_integral(spec, 1.0, 100.0)
        assert r.segments == (("quadrature", 1.0, t), ("recursion", t, 100.0))

    def test_guard_plans_quadrature(self):
        r = definite_integral(IntegralSpec("K", 0, 10, 1.0, beta=20.0), 5.0, 260.0)
        assert r.segments == (("quadrature", 5.0, 260.0),)
        assert "AMPLIFICATION_GUARD" in r.reason


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
        assert r_quad.segments == (("quadrature", a, b),)

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

    def test_nonconverged_raises_with_its_record(self):
        # a long oscillatory stretch with a tiny evaluation budget: Si(400)
        # is 1.5721148692738116, and the run's record travels in the error
        spec = IntegralSpec("I", 0, 0)
        with pytest.raises(NotConvergedError, match="above tolerance 1e-12") as err:
            definite_integral(spec, 0.0, 400.0, tol=1e-12, max_evals=300, strategy="quadrature")
        r = err.value.result
        assert isinstance(r, DefiniteResult)
        assert (r.value, r.error_estimate, r.evaluations, r.converged) == (
            1.572309425564535, 1.2145480728716014, 300, False
        )
        assert r.segments == (("quadrature", 0.0, 400.0),)
        assert r.reason == "quadrature strategy requested"
        assert oscillation_threshold(spec) == math.pi

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
        assert "recursion refused (NearDegenerateError" in r.reason
        assert r.reason.endswith("; quadrature over the whole interval")

    def test_refused_split_quadrature_covers_the_whole_interval(self):
        # a split plan whose analytic segment [t, b] refuses drops the
        # split: one quadrature segment over [a, b], with its reason
        spec = IntegralSpec("K", 0, 1, 1.0, beta=1.0 + 1e-8)
        r = definite_integral(spec, 1.0, 20.0)
        assert r.segments == (("quadrature", 1.0, 20.0),)
        assert 1.0 < oscillation_threshold(spec) < 20.0
        assert r.reason.startswith("recursion refused (NearDegenerateError")
        assert r.reason.endswith("; quadrature over the whole interval")

    def test_refused_split_meets_tol_on_the_whole(self):
        # one run over [1, 20] meets tol on the sum, like adaptive_quad
        spec = IntegralSpec("K", 0, 1, 1.0, beta=1.0 + 1e-8)
        tol = 1e-14
        r = definite_integral(spec, 1.0, 20.0, tol=tol)
        assert r.converged and r.error_estimate <= tol
        want = adaptive_quad(integrand(spec), 1.0, 20.0, tol=tol, vectorized=True)
        assert want.converged
        assert abs(r.value - want.value) <= tol

    def test_one_panel_budget_covers_the_refused_split(self):
        # the refused split's one run over [1, 20] gets the whole budget:
        # one panel of 15 evaluations, not converged, so it raises
        spec = IntegralSpec("K", 0, 1, 1.0, beta=1.0 + 1e-8)
        with pytest.raises(NotConvergedError) as err:
            definite_integral(spec, 1.0, 20.0, max_evals=15)
        r = err.value.result
        assert r.segments == (("quadrature", 1.0, 20.0),)
        assert (r.value, r.error_estimate, r.evaluations, r.converged) == (
            0.4661502107120101, 0.6129108679761718, 15, False
        )
        assert r.reason.startswith("recursion refused (NearDegenerateError")
        with pytest.raises(DomainError):
            definite_integral(spec, 1.0, 20.0, max_evals=14)

    def test_guard_diversion_reports_quadrature(self):
        spec = IntegralSpec("K", 0, 10, 1.0, beta=20.0)
        r = definite_integral(spec, 200.0, 260.0)
        assert r.segments == (("quadrature", 200.0, 260.0),)
        assert "AMPLIFICATION_GUARD" in r.reason

    @pytest.mark.parametrize("a, b", [(1.0, 5.0), (1.0, 50.0), (20.0, 50.0)])
    def test_strategy_names_the_route_that_ran(self, a, b):
        # I, n = 2, l = 5: threshold 10
        spec = IntegralSpec("I", 2, 5)
        assert oscillation_threshold(spec) == pytest.approx(10.0)
        r = definite_integral(spec, a, b, strategy="recursion")
        assert r.segments == (("recursion", a, b),)
        assert r.reason == "recursion strategy requested"
        r = definite_integral(spec, a, b, strategy="quadrature")
        assert r.segments == (("quadrature", a, b),)
        assert r.reason == "quadrature strategy requested"

    def test_segments_split_only_where_the_evaluation_split(self):
        # past the guard a straddling interval runs as one quadrature segment
        r = definite_integral(IntegralSpec("K", 0, 10, 1.0, beta=20.0), 5.0, 30.0)
        assert r.segments == (("quadrature", 5.0, 30.0),)
        # a refused recursion above the split drops the split
        r = definite_integral(IntegralSpec("K", 0, 1, 1.0, beta=1.0 + 1e-8), 1.0, 20.0)
        assert r.segments == (("quadrature", 1.0, 20.0),)
        # a split that ran puts the segments' boundary at the threshold
        spec = IntegralSpec("K", 0, 1, 1.0, beta=2.0)
        r = definite_integral(spec, 1.0, 20.0)
        t = oscillation_threshold(spec)
        assert r.segments == (("quadrature", 1.0, t), ("recursion", t, 20.0))

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_nonpositive_tolerance_is_a_domain_error(self, tol):
        # above the threshold no quadrature runs to check it
        with pytest.raises(DomainError, match="tol must be a real number with 0 < tol < inf"):
            definite_integral(IntegralSpec("I", 0, 2), 20.0, 30.0, tol=tol)

    @pytest.mark.parametrize("a, b", [(1.0, math.inf), (0.0, math.nan)])
    def test_nonfinite_limits_are_domain_errors(self, a, b):
        with pytest.raises(DomainError):
            definite_integral(IntegralSpec("I", 0, 2), a, b)

    def test_value_past_the_power_bound_refuses(self):
        # |j| <= 1 bounds |int_a^b x^n j_k j_l dx| by int_a^b x^n dx = 20
        # here; the walk of L^0_{0,600} reads 3.47e294
        spec = IntegralSpec("L", 0, 600, 1.0, k=0, beta=1.3)
        with pytest.raises(
            QuadratureRecommendedError,
            match=r"value 3\.47e\+294 over \[5000, 5020\] exceeds int x\^0 dx = 20,",
        ):
            definite_integral(spec, 5000.0, 5020.0, strategy="recursion")

    def test_value_past_the_power_bound_falls_back_under_auto(self):
        # K^0_150 at ratio 1.3 walks to 6.95e58 over 200 units: auto
        # refuses the segment and quadrature meets the tight reference
        spec = IntegralSpec("K", 0, 150, 1.0, beta=1.3)
        a = 1.01 * oscillation_threshold(spec)
        r = definite_integral(spec, a, a + 200.0)
        assert r.segments == (("quadrature", a, a + 200.0),)
        assert r.reason.startswith(
            "recursion refused (QuadratureRecommendedError: the recursion's value 6.95e+58"
        )
        assert r.value == pytest.approx(3.163997813301858e-05, rel=1e-10, abs=0)

    @pytest.mark.parametrize(
        "n, a, b, want",
        [
            (0, 2.0, 5.0, 3.0),
            (-1, 2.0, 6.0, math.log(3.0)),
            (2, 1.0, 4.0, 21.0),
            (-3, 1.0, 2.0, 0.375),
            # close limits keep their digits: a^5 (b - a) (1 + 5 (b - a) / 2a)
            (5, 100.0, 100.0 + 2**-30, 1e10 * 2**-30 * (1 + 2.5 * 2**-30 / 100.0)),
        ],
    )
    def test_power_bound(self, n, a, b, want):
        assert quadrature._power_integral(n, a, b) == pytest.approx(want, rel=1e-13, abs=0)

    def test_power_bound_that_overflows_refuses_nothing(self):
        # 60^401 leaves the float range
        assert quadrature._power_integral(400, 50.0, 60.0) == math.inf
        assert quadrature._power_integral(-400, 1e-3, 2e-3) == math.inf

    def test_power_bound_leaves_room_for_rounding(self):
        # Si(2e-6) - Si(1e-6) reads 1.4e-10 above int dx = 1e-6, which
        # it meets to rounding: the margin keeps the value
        r = definite_integral(IntegralSpec("I", 0, 0), 1e-6, 2e-6, strategy="recursion")
        assert r.value == pytest.approx(1e-6, rel=1e-9, abs=0)

    def test_overflowing_recursion_is_a_domain_error(self):
        # the exact integer coefficients of I^0_200 pass the float range:
        # the recursion strategy raises, auto falls back to quadrature
        spec = IntegralSpec("I", 0, 200)
        with pytest.raises(DomainError, match="overflow"):
            definite_integral(spec, 300.0, 400.0, strategy="recursion")
        r = definite_integral(spec, 300.0, 400.0)
        assert r.converged and "overflow" in r.reason
        assert r.value == definite_integral(spec, 300.0, 400.0, strategy="quadrature").value
        assert r.value == pytest.approx(0.0019413776962425588, rel=0, abs=1e-10)  # mpmath

    def test_K_with_equal_scales_delegates_to_H(self):
        r1 = definite_integral(IntegralSpec("K", 0, 1, 1.0, beta=1.0), 5.0, 40.0)
        r2 = definite_integral(IntegralSpec("H", 0, 1, 1.0), 5.0, 40.0)
        assert r1.value == pytest.approx(r2.value, rel=1e-12)


#: every route shape of the runner: (factors (k, l, alpha, beta), [a, b],
#: strategy, the routes taken); k and beta are None for one factor
ROUTE_SHAPES = {
    "below": ((None, 2, 1.3, None), (0.5, 4.0), "auto", ("quadrature",)),
    "above": ((None, 2, 1.3, None), (10.0, 60.0), "auto", ("recursion",)),
    "split": ((None, 2, 1.3, None), (1.0, 60.0), "auto", ("quadrature", "recursion")),
    "split from 0": ((1, 3, 1.0, 2.0), (0.0, 90.0), "auto", ("quadrature", "recursion")),
    "guard": ((10, 10, 1.0, 20.0), (5.0, 30.0), "auto", ("quadrature",)),
    "refused": ((1, 1, 1.0, 1.0 + 1e-8), (6.0, 20.0), "auto", ("quadrature",)),
    "refused split": ((1, 1, 1.0, 1.0 + 1e-8), (1.0, 20.0), "auto", ("quadrature",)),
    "quadrature": ((None, 2, 1.3, None), (1.0, 60.0), "quadrature", ("quadrature",)),
    "recursion": ((None, 2, 1.3, None), (1.0, 60.0), "recursion", ("recursion",)),
}


@pytest.mark.parametrize(
    "shape, weighted",
    [(shape, False) for shape in ROUTE_SHAPES]
    # the weighted integrator takes the auto strategy only
    + [(shape, True) for shape, case in ROUTE_SHAPES.items() if case[2] == "auto"],
)
def test_one_quadrature_run_per_integral(shape, weighted, monkeypatch):
    # the runner calls adaptive_quad once when quadrature covers any
    # part of [a, b], a refused split included, and never otherwise
    (k, l, alpha, beta), (a, b), strategy, routes = ROUTE_SHAPES[shape]
    calls = []

    def counted(*args, **kw):
        calls.append(args[1:3])
        return adaptive_quad(*args, **kw)

    monkeypatch.setattr(quadrature, "adaptive_quad", counted)
    if weighted:
        pp = build_interpolant([(0.0, 1.5), (50.0, 0.5), (100.0, 1.0)], degree=1)
        r = weighted_integral(pp, l, alpha, a, b, k=k, beta=beta)
    else:
        if k is None:
            spec = IntegralSpec("I", 0, l, alpha)
        else:
            spec = IntegralSpec("L", 0, l, alpha, k=k, beta=beta)
        r = definite_integral(spec, a, b, strategy=strategy)
    assert len(calls) == routes.count("quadrature")
    assert tuple(route for route, _, _ in r.segments) == routes
    if calls:
        assert calls == [r.segments[0][1:]]


#: high orders where the auto strategy's recursion misses tol=1e-10 while
#: reporting converged=True and error_estimate=0.0, for two causes.  The
#: n < 0 trig chain walks away from its Si/Ci anchor and loses digits like
#: u^m / m! (ROADMAP item 1): K and L at l = 60.  L at k = 0 climbs from
#: the L01 base by L's order recursion, which loses digits like an upward
#: j recurrence: at l = 40 it reads -0.0018117138668511529 against
#: -0.0018117153788779607 (15 tol), and at l = 50 -0.02196 against
#: 8.878e-4.  (family, k, l, alpha, beta) -> measured relative error.  The
#: l = 60 values, 0.0039 and -0.0228 against -1.8e-6 and -1.2e-4, and the
#: l = 50 one lie under the bound of int_a^b x^n dx that refuses the
#: l = 150 ones below
SILENT_MISSES = {
    ("K", None, 60, 1.0, 1.7): 2.2e3,
    ("L", 58, 60, 1.0, 1.7): 195,
    ("L", 0, 40, 1.0, 1.3): 8.3e-7,
    ("L", 0, 50, 1.0, 1.3): 26,
}

#: H at n = 0 takes the band walk, which keeps these within tol.  K and L
#: at l = 150 (ratio 1.3: at 1.7 they pass AMPLIFICATION_GUARD) walk to
#: 6.95e58 and -2.58e60, past int_a^b x^0 dx = 200, so the analytic
#: segment refuses and quadrature covers the interval
HIGH_ORDER_HITS = (
    ("H", None, 60, 1.3, None),
    ("H", None, 100, 1.3, None),
    ("H", None, 150, 1.3, None),
    ("K", None, 150, 1.0, 1.3),
    ("L", 148, 150, 1.0, 1.3),
)


@pytest.mark.parametrize(
    "case",
    [
        *(pytest.param(case, id=f"{case[0]}-l{case[2]}") for case in HIGH_ORDER_HITS),
        *(
            pytest.param(case, id=f"{case[0]}-l{case[2]}", marks=pytest.mark.xfail(
                raises=AssertionError, strict=True,
                reason=f"silent miss, relative error {error:.2g} (ROADMAP item 1)"))
            for case, error in SILENT_MISSES.items()
        ),
    ],
)
def test_high_order_auto_meets_tol_or_says_so(case):
    # a returned record must lie within tol of a tight quadrature
    # reference; saying so is NotConvergedError
    family, k, l, alpha, beta = case
    spec = IntegralSpec(family, 0, l, alpha, k=k, beta=beta)
    a = 1.01 * oscillation_threshold(spec)
    tol = 1e-10
    try:
        got = definite_integral(spec, a, a + 200.0, tol=tol)
    except NotConvergedError:
        return
    ref = definite_integral(spec, a, a + 200.0, tol=1e-13, strategy="quadrature")
    error = abs(got.value - ref.value)
    assert error <= max(tol, tol * abs(ref.value)) + ref.error_estimate, error / abs(ref.value)


def test_estimate_is_not_below_rounding():
    # a tolerance no float sum can meet raises NotConvergedError, or the
    # record's estimate is at least half an ulp of its value
    try:
        r = definite_integral(IntegralSpec("H", 0, 2), 0.0, 5.0, tol=1e-20)
    except NotConvergedError:
        return
    assert r.error_estimate >= 0.5 * math.ulp(r.value), (r.value, r.error_estimate, r.evaluations)


def test_unreachable_tolerance_gives_up_at_once():
    # the panels' rounding floors, 50 eps times the integral of |f|, pass
    # tol = 1e-30 on the initial partition: no bisection can meet it, so
    # the run stops there instead of bisecting to max_evals, 10^6 nodes
    t0 = time.perf_counter()
    with pytest.raises(NotConvergedError) as err:
        verify_identity(AppendixIdentity("single-x^(l+1)", l=1), 1.0, 10.0, tol=1e-30)
    assert time.perf_counter() - t0 < 1.0
    r = err.value.result
    assert not r.converged and r.evaluations == 45 and r.error_estimate > 1e-14


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

    @pytest.mark.parametrize("xs", ["1.0", None, [1.0, "2"], 1j])
    def test_nodes_must_be_real(self, xs):
        with pytest.raises(DomainError, match="^xs must be an array of real numbers"):
            integrand(IntegralSpec("I", 0, 2))(xs)

    def test_float_nodes_as_they_are(self):
        f = integrand(IntegralSpec("I", 0, 2))
        xs = np.array([0.0, 0.5, 3.0])
        assert f(xs).tolist() == f([0, 0.5, 3]).tolist() == [f(float(x))[0] for x in xs]

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
            # operator.index(True) is 1, so a bool would pass as order 1
            dict(family="I", n=True, l=2),
            dict(family="H", n=0, l=False),
            dict(family="L", n=0, l=2, k=True, beta=2.0),
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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(family="K", k=7, beta=2.0), r"k must be None or l in family K, got 7: L takes"),
            (dict(family="K", k=np.int64(0), beta=2.0), r"k must be None or l in family K, got 0: L"),
            (dict(family="H", k=5), r"k must be None or l in family H, got 5: L takes two orders"),
            (dict(family="H", beta=-1.0), r"beta must be None or alpha in family H, got -1.0: K"),
            (dict(family="H", alpha=2.0, beta=1.0), r"beta must be None or alpha in family H"),
            (dict(family="H", beta=math.nan), r"beta must be a finite real number, got nan"),
            (dict(family="H", beta="1.0"), r"beta must be a finite real number, got '1.0'"),
        ],
        ids=["K-k-7", "K-k-0", "H-k-5", "H-beta-minus-alpha", "H-beta-half-alpha", "H-beta-nan",
             "H-beta-str"],
    )
    def test_second_order_or_scale_the_family_contradicts(self, kwargs, message):
        # K and H have one order, H one scale: a second one that differs used
        # to be dropped (j_3(x) j_3(2x) for k = 7, j_3(x)^2 for k = 5 or beta = -1)
        with pytest.raises(DomainError, match=f"^{message}"):
            IntegralSpec(n=0, l=3, **kwargs)

    def test_integer_like_values_become_int(self):
        spec = IntegralSpec("L", np.int64(2), np.int32(3), k=np.int64(1), beta=2.0)
        assert (type(spec.n), type(spec.l), type(spec.k)) == (int, int, int)
        assert spec == IntegralSpec("L", 2, 3, k=1, beta=2.0)


class TestQuadraturePathGuards:
    def test_overflowing_integrand_is_a_domain_error(self):
        # x^150 passes the float range at the nodes: no nan, no numpy warning
        spec = IntegralSpec("K", 150, 60, 1.0, beta=1.3)
        t = oscillation_threshold(spec)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="K integrand with n = 150.*overflow"):
                definite_integral(spec, 1.5 * t, 1.5 * t + 20.0, strategy="quadrature")
        assert caught == []

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
        with pytest.raises(DomainError, match="tol must be a real number with 0 < tol < inf, got nan"):
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
