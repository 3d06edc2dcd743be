import math
from collections import Counter

import numpy as np
import pytest

from besselquad import (
    DomainError,
    IntegralSpec,
    NotConvergedError,
    adaptive_quad,
    build_interpolant,
    definite_integral,
    integrate_product,
    integrate_single,
    j_many,
    oscillation_threshold,
)
from besselquad import quadrature, weighted

SI_PI = 1.8519370519824663


def oracle_weighted(fvals, k, l, alpha, beta, a, b, tol=1e-11):
    def f(xs):
        env = fvals(xs)
        out = env * j_many(l, abs(beta) * xs) if k is None else env * j_many(
            k, abs(alpha) * xs
        ) * j_many(l, abs(beta) * xs)
        return out

    w = math.pi / max(abs(alpha or 1.0), abs(beta))
    return adaptive_quad(f, a, b, tol=tol, vectorized=True, initial_max_width=w).value


class TestBuildInterpolant:
    def test_constant_samples(self):
        pp = build_interpolant([(0.0, 1.0), (2.0, 1.0), (5.0, 1.0)], degree=1)
        for c in pp.coefficients:
            assert c[0] == 1.0 and c[1] == 0.0

    def test_linear_exact(self):
        xs = [0.0, 1.0, 2.5, 4.0, 7.0]
        pp = build_interpolant([(x, x) for x in xs], degree=1)
        for t in np.linspace(0, 7, 29):
            assert pp(float(t)) == pytest.approx(t, abs=1e-14)

    def test_cubic_reproduces_cubics(self):
        # 6 Chebyshev-spaced nodes on [1, 5]
        nodes = 1.0 + 2.0 * (1.0 + np.cos(math.pi * np.arange(6) / 5.0))[::-1]
        pp = build_interpolant([(float(t), float(t**3)) for t in nodes], degree=3)
        xs = np.linspace(nodes[0], nodes[-1], 301)
        err = max(abs(pp(float(t)) - t**3) for t in xs)
        assert err < 1e-10

    def test_cubic_is_c1_c2(self):
        rng = np.random.default_rng(3)
        xs = np.sort(rng.uniform(0.1, 10.0, 9))
        ys = np.sin(xs)
        pp = build_interpolant(np.column_stack([xs, ys]), degree=3)
        h = 1e-6
        for bp in pp.breakpoints[1:-1]:
            d_left = (pp(bp - h) - pp(bp - 2 * h)) / h
            d_right = (pp(bp + 2 * h) - pp(bp + h)) / h
            assert d_left == pytest.approx(d_right, abs=2e-4)

    def test_validation(self):
        with pytest.raises(DomainError):
            build_interpolant([(0.0, 1.0)])
        with pytest.raises(DomainError):
            build_interpolant([(0.0, 1.0), (0.0, 2.0)])
        with pytest.raises(DomainError):
            build_interpolant([(1.0, 1.0), (0.5, 2.0)])
        with pytest.raises(DomainError):
            build_interpolant([(-1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(DomainError):
            build_interpolant([(0.0, 1.0), (1.0, 2.0)], degree=2)

    def test_span_enforced(self):
        pp = build_interpolant([(1.0, 1.0), (2.0, 1.0)])
        with pytest.raises(DomainError):
            integrate_single(pp, 0, 1.0, 0.5, 1.5)


class TestIntegrateSingle:
    def test_unit_prefactor_is_si(self):
        pp = build_interpolant([(0.0, 1.0), (10.0, 1.0)], degree=1)
        v = integrate_single(pp, 0, 1.0, 0.0, math.pi)
        assert v == pytest.approx(SI_PI, rel=1e-10)

    def test_unit_prefactor_infinite_tail(self):
        pp = build_interpolant([(0.0, 1.0), (1e4, 1.0)], degree=1)
        v = integrate_single(pp, 0, 1.0, 0.0, 1e4)
        assert v == pytest.approx(math.pi / 2, abs=2e-4)

    def test_identity_prefactor(self):
        pp = build_interpolant([(0.0, 0.0), (5.0, 5.0), (12.0, 12.0), (20.0, 20.0)], degree=1)
        v = integrate_single(pp, 1, 1.0, 0.0, 20.0)
        want = oracle_weighted(lambda xs: xs, None, 1, None, 1.0, 0.0, 20.0)
        assert v == pytest.approx(want, rel=1e-8)

    def test_smooth_prefactor_any_scale(self):
        f = lambda xs: 1.0 / (1.0 + 0.01 * xs**2)
        xs = np.linspace(0.0, 40.0, 161)
        pp = build_interpolant(np.column_stack([xs, f(xs)]), degree=3)
        v = integrate_single(pp, 2, 1.3, 0.0, 40.0)
        want = oracle_weighted(f, None, 2, None, 1.3, 0.0, 40.0)
        assert v == pytest.approx(want, abs=1e-8)

    def test_partial_range(self):
        f = lambda xs: np.exp(-0.05 * xs)
        xs = np.linspace(0.0, 50.0, 201)
        pp = build_interpolant(np.column_stack([xs, f(xs)]), degree=3)
        v = integrate_single(pp, 0, 2.0, 3.0, 47.0)
        want = oracle_weighted(f, None, 0, None, 2.0, 3.0, 47.0)
        assert v == pytest.approx(want, abs=1e-8)

    def test_full_hundred_span(self):
        f = lambda xs: np.exp(-0.02 * xs) + 0.5
        xs = np.linspace(0.0, 100.0, 401)
        pp = build_interpolant(np.column_stack([xs, f(xs)]), degree=3)
        v = integrate_single(pp, 1, 1.0, 0.0, 100.0)
        want = oracle_weighted(f, None, 1, None, 1.0, 0.0, 100.0)
        assert v == pytest.approx(want, abs=1e-8)


class TestIntegrateProduct:
    def test_squared_tail(self):
        pp = build_interpolant([(0.0, 1.0), (1e4, 1.0)], degree=1)
        v = integrate_product(pp, 1, 1, 1.0, 1.0, 0.0, 1e4)
        assert v == pytest.approx(math.pi / 6, abs=2e-4)

    def test_mixed_scale_tail(self):
        pp = build_interpolant([(0.0, 1.0), (1e4, 1.0)], degree=1)
        v = integrate_product(pp, 1, 1, 1.0, 2.0, 0.0, 1e4)
        assert v == pytest.approx(math.pi / 24, abs=2e-4)

    def test_orthogonality(self):
        pp = build_interpolant([(0.0, 1.0), (1e3, 1.0)], degree=1)
        v = integrate_product(pp, 0, 2, 1.0, 1.0, 0.0, 1e3)
        assert abs(v) < 5e-3

    def test_smooth_prefactor_mixed_orders(self):
        f = lambda xs: 1.0 / (1.0 + 0.01 * xs**2)
        xs = np.linspace(0.0, 40.0, 161)
        pp = build_interpolant(np.column_stack([xs, f(xs)]), degree=3)
        v = integrate_product(pp, 1, 3, 1.0, 2.0, 0.5, 40.0)
        want = oracle_weighted(f, 1, 3, 1.0, 2.0, 0.5, 40.0)
        assert v == pytest.approx(want, abs=2e-8)


class TestConvergenceOrder:
    def _order(self, degree):
        # integrate the interpolation error against a fixed target; a
        # smooth f keeps the observed order at degree + 1
        f = lambda xs: np.sin(0.17 * xs) + 2.0
        a, b = 1.0, 21.0
        want = oracle_weighted(f, None, 1, None, 1.0, a, b, tol=1e-13)
        errs = []
        for npts in (41, 81):
            xs = np.linspace(a, b, npts)
            pp = build_interpolant(np.column_stack([xs, f(xs)]), degree=degree)
            v = integrate_single(pp, 1, 1.0, a, b, tol=1e-13)
            errs.append(abs(v - want))
        return math.log2(errs[0] / errs[1])

    def test_linear_order(self):
        assert self._order(1) == pytest.approx(2.0, abs=0.5)

    def test_cubic_order(self):
        assert self._order(3) == pytest.approx(4.0, abs=0.5)


class TestRefinementStability:
    def test_halving_grid_changes_little(self):
        f = lambda xs: np.cos(0.11 * xs)
        a, b = 0.5, 30.0
        xs1 = np.linspace(a, b, 31)
        xs2 = np.linspace(a, b, 61)
        v1 = integrate_single(
            build_interpolant(np.column_stack([xs1, f(xs1)]), 3), 2, 1.0, a, b
        )
        v2 = integrate_single(
            build_interpolant(np.column_stack([xs2, f(xs2)]), 3), 2, 1.0, a, b
        )
        # fourth-order interpolation: halving h shrinks the difference
        # to the h^4 scale of the fine grid
        assert abs(v1 - v2) < 1e-5


def per_piece_reference(pp, k, l, alpha, beta, a, b):
    """The per-piece sum with both ends of every piece evaluated afresh;
    valid when [a, b] lies above the oscillation threshold."""
    total = 0.0
    for i, lo, hi in weighted._pieces(pp, a, b):
        for m, cm in enumerate(weighted._global_coeffs(pp.coefficients[i], pp.breakpoints[i])):
            if cm == 0.0:
                continue
            if k is None:
                spec = IntegralSpec("I", m, l, alpha)
            else:
                spec = IntegralSpec("L", m, l, alpha, k=k, beta=beta)
            total += cm * (
                quadrature.antiderivative(spec, hi)
                - quadrature.antiderivative(spec, lo)
            )
    return total


class TestSharedBreakpoints:
    @pytest.mark.parametrize("degree", [1, 3])
    @pytest.mark.parametrize(
        "k, l, alpha, beta",
        [(None, 2, 1.3, None), (2, 2, 1.0, 1.0), (2, 2, 1.0, 1.6), (1, 3, 1.0, 1.6)],
    )
    def test_each_antiderivative_once_and_same_value(self, degree, k, l, alpha, beta, monkeypatch):
        xs = np.linspace(10.0, 40.0, 13)
        pp = build_interpolant(np.column_stack([xs, 1.0 / (1.0 + 0.01 * xs**2)]), degree=degree)
        a, b = 12.0, 40.0
        want = per_piece_reference(pp, k, l, alpha, beta, a, b)
        tables = Counter()

        def counted_table(spec, x, *args, **kw):
            tables[x] += 1
            return point_table(spec, x, *args, **kw)

        point_table = quadrature.point_table
        monkeypatch.setattr(quadrature, "point_table", counted_table)
        if k is None:
            got = integrate_single(pp, l, alpha, a, b)
        else:
            got = integrate_product(pp, k, l, alpha, beta, a, b)
        assert got == want
        # one table per point, serving every monomial there: a, and the
        # 12 breakpoints 12.5, 15, ..., 40 in (a, b]
        assert set(tables.values()) == {1}
        assert len(tables) == 13


class TestNonConvergence:
    @pytest.mark.parametrize("k", [None, 1])
    def test_missed_tolerance_raises(self, k, monkeypatch):
        # a small evaluation cap on the route runner's quadrature call
        # keeps the unreachable tolerance cheap
        adaptive_quad = quadrature.adaptive_quad

        def capped(f, lo, hi, **kw):
            return adaptive_quad(f, lo, hi, **{**kw, "max_evals": 600})

        monkeypatch.setattr(quadrature, "adaptive_quad", capped)
        pp = build_interpolant([(0.0, 1.0), (2.0, 0.9), (4.0, 0.7), (6.0, 0.2)], degree=3)
        with pytest.raises(NotConvergedError) as err:
            if k is None:
                integrate_single(pp, 2, 1.3, 0.0, 6.0, tol=1e-300)
            else:
                integrate_product(pp, k, 2, 1.3, 0.7, 0.0, 6.0, tol=1e-300)
        assert err.value.result.evaluations <= 600
        assert not err.value.result.converged


class TestOneQuadratureRun:
    """The pieces below the threshold share one adaptive_quad call, the
    route runner's in quadrature."""

    @pytest.mark.parametrize("k", [None, 1])
    @pytest.mark.parametrize("a", [0.0, 1.3])
    def test_one_call_per_integral(self, k, a, monkeypatch):
        xs = np.linspace(0.0, 30.0, 25)
        pp = build_interpolant(np.column_stack([xs, np.exp(-0.05 * xs)]), degree=3)
        seen = []

        def counted(f, lo, hi, **kw):
            seen.append((lo, hi, list(kw["breakpoints"])))
            return adaptive_quad(f, lo, hi, **kw)

        monkeypatch.setattr(quadrature, "adaptive_quad", counted)
        r = weighted.weighted_integral(pp, 2, 1.3, a, 30.0, k=k, beta=None if k is None else 0.7)
        (lo, hi, bps), = seen
        # the threshold of the n = 0 spec of the factors
        if k is None:
            t = oscillation_threshold(IntegralSpec("I", 0, 2, 1.3))
        else:
            t = oscillation_threshold(IntegralSpec("L", 0, 2, 1.3, k=k, beta=0.7))
        assert (lo, hi) == (a, t)
        # the knots strictly between a and the threshold
        assert bps == [float(x) for x in xs if a < x < t]
        assert r.segments == (("quadrature", a, t), ("recursion", t, 30.0))
        want = oracle_weighted(
            lambda v: pp(v), k, 2, 1.3, 1.3 if k is None else 0.7, a, 30.0, tol=1e-12
        )
        assert r.value == pytest.approx(want, abs=1e-9)

    def test_no_call_above_the_threshold(self, monkeypatch):
        monkeypatch.setattr(quadrature, "adaptive_quad", None)  # any call would fail
        pp = build_interpolant([(10.0, 1.0), (20.0, 2.0), (30.0, 1.5)], degree=1)
        r = weighted.weighted_integral(pp, 1, 1.0, 12.0, 30.0)
        assert (r.evaluations, r.error_estimate) == (0, 0.0)
        assert r.segments == (("recursion", 12.0, 30.0),)

    def test_run_below_one_panel_per_piece_stays_unevaluated(self):
        # MAX_EVALS covers one 15-node panel for at most 66 666 pieces;
        # past that the run is left out, not converged, rather than an
        # adaptive_quad error about a max_evals the caller never passed
        xs = np.linspace(0.0, 1.0, quadrature.MAX_EVALS // 15 + 2)
        pp = build_interpolant(np.column_stack([xs, 1.0 + xs]), degree=1)
        with pytest.raises(NotConvergedError) as err:
            weighted.weighted_integral(pp, 10, 1.0, 0.0, 1.0)
        r = err.value.result
        assert (r.value, r.error_estimate, r.evaluations, r.converged) == (0.0, math.inf, 0, False)
        assert r.segments == (("quadrature", 0.0, 1.0),)

    def test_record_reports_the_quadrature_run(self):
        pp = build_interpolant([(0.0, 1.0), (2.0, 0.8), (4.0, 0.9), (40.0, 0.2)], degree=3)
        r = weighted.weighted_integral(pp, 0, 1.0, 0.0, 40.0, tol=1e-10)
        assert r.converged and r.evaluations > 0
        assert 0.0 < r.error_estimate <= 1e-10
        assert r.value == integrate_single(pp, 0, 1.0, 0.0, 40.0, tol=1e-10)

    def test_value_matches_per_piece_quadrature(self):
        # one run with breakpoints against one run per piece, as before
        xs = np.linspace(0.0, 12.0, 9)
        pp = build_interpolant(np.column_stack([xs, 1.0 + 0.1 * xs]), degree=1)
        got = integrate_single(pp, 3, 1.0, 0.0, 7.0)
        f = weighted._integrand(pp, ((3, 1.0),))
        parts = [
            adaptive_quad(f, lo, hi, vectorized=True, initial_max_width=math.pi)
            for _, lo, hi in weighted._pieces(pp, 0.0, 7.0)
        ]
        want = sum(q.value for q in parts)
        assert abs(got - want) <= 1e-14 * abs(want)


class TestFarFromTheOrigin:
    """Far from the origin a cubic piece's global monomials cancel like
    (x / piece width)^3.  Where their rounding passes the tolerance the
    analytic sum refuses, and quadrature covers the interval."""

    @staticmethod
    def interpolant(x0, degree):
        xs = np.linspace(x0, x0 + 40.0, 25)
        fs = 1.0 + 0.3 * np.sin(xs / 7.0) + 0.01 * (xs - x0)
        return xs, build_interpolant(np.column_stack([xs, fs]), degree=degree)

    @staticmethod
    def scipy_reference(xs, pp, l):
        from scipy import integrate, special

        return sum(
            integrate.quad(
                lambda x: pp(x) * special.spherical_jn(l, x), lo, hi, epsabs=1e-16, epsrel=1e-14,
            )[0]
            for lo, hi in zip(xs[:-1], xs[1:])
        )

    def test_cancelling_sum_falls_back_to_quadrature(self):
        x0 = 1e5
        xs, pp = self.interpolant(x0, 3)
        r = weighted.weighted_integral(pp, 3, 1.0, x0, x0 + 40.0)
        assert abs(r.value - self.scipy_reference(xs, pp, 3)) <= 1e-10
        assert r.converged and r.evaluations > 0
        assert r.segments == (("quadrature", x0, x0 + 40.0),)
        assert "recursion refused (QuadratureRecommendedError: the monomial sum" in r.reason

    def test_linear_pieces_keep_the_analytic_sum(self):
        x0 = 1e4
        xs, pp = self.interpolant(x0, 1)
        r = weighted.weighted_integral(pp, 2, 1.0, x0, x0 + 40.0)
        assert abs(r.value - self.scipy_reference(xs, pp, 2)) <= 1e-13
        assert r.segments == (("recursion", x0, x0 + 40.0),)


class TestMagnitudeBound:
    """|j| <= 1 bounds the analytic sum by int |f| dx; a walk that loses
    its digits past that bound refuses, and quadrature covers the
    interval, as definite_integral's segment does under int x^n dx."""

    @pytest.mark.parametrize("k, want", [(150, 3.163997813301858e-05), (148, -1.3120921616819945e-05)])
    def test_sum_past_the_bound_falls_back_to_quadrature(self, k, want):
        a, b = 163.8725, 363.8725
        pp = build_interpolant([(a, 1.0), (a + 100.0, 1.0), (b, 1.0)], degree=1)
        r = weighted.weighted_integral(pp, 150, 1.0, a, b, k=k, beta=1.3)
        family, order = ("K", None) if k == 150 else ("L", k)
        ref = definite_integral(IntegralSpec(family, 0, 150, 1.0, k=order, beta=1.3), a, b)
        assert ref.value == want
        assert abs(r.value - ref.value) <= 1e-10
        assert r.segments == (("quadrature", a, b),)
        assert "recursion refused (QuadratureRecommendedError: the recursion's value" in r.reason
        assert "exceeds a bound of int |f| dx = 200" in r.reason


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_samples(self, bad):
        with pytest.raises(DomainError):
            build_interpolant([(0.0, 1.0), (1.0, bad), (2.0, 1.0)])
        with pytest.raises(DomainError):
            build_interpolant([(0.0, 1.0), (bad, 2.0)], degree=1)

    @pytest.mark.parametrize("f", [None, [(0.0, 1.0), (5.0, 1.0)], math.sin])
    def test_prefactor_must_be_an_interpolant(self, f):
        calls = (
            lambda: integrate_single(f, 2, 1.0, 1.0, 2.0),
            lambda: integrate_product(f, 1, 2, 1.0, 2.0, 1.0, 2.0),
            lambda: weighted.weighted_integral(f, 2, 1.0, 1.0, 2.0),
        )
        for call in calls:
            with pytest.raises(DomainError, match="^f must be a PiecewisePolynomial"):
                call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_scales(self, bad):
        pp = build_interpolant([(0.0, 1.0), (5.0, 1.0)], degree=1)
        with pytest.raises(DomainError):
            integrate_single(pp, 1, bad, 0.0, 5.0)
        with pytest.raises(DomainError):
            integrate_product(pp, 1, 2, 1.0, bad, 0.0, 5.0)


# f = 1 as the linear interpolant through (0, 1), (100, 1), (200, 1)
UNIT = build_interpolant([(0.0, 1.0), (100.0, 1.0), (200.0, 1.0)], degree=1)


def tight_product(k, l, alpha, beta, a, b):
    """int_a^b j_k(alpha x) j_l(beta x) dx by quadrature at tol 1e-14."""
    spec = IntegralSpec("L", 0, l, alpha, k=k, beta=beta)
    return definite_integral(spec, a, b, tol=1e-14, strategy="quadrature").value


class TestSharedRoutePolicy:
    """The weighted integrator runs definite_integral's route policy: the
    amplification guard and the fallback where the analytic route
    refuses."""

    @pytest.mark.parametrize(
        "k, l, beta, a, b", [(12, 12, 30.0, 30.0, 100.0), (8, 9, 25.0, 25.0, 80.0)]
    )
    def test_past_the_guard_quadrature_covers_the_interval(self, k, l, beta, a, b):
        r = weighted.weighted_integral(UNIT, l, 1.0, a, b, k=k, beta=beta)
        assert abs(r.value - tight_product(k, l, 1.0, beta, a, b)) <= 1e-10
        assert r.segments == (("quadrature", a, b),)
        assert "AMPLIFICATION_GUARD" in r.reason
        assert r.converged and r.evaluations > 0
        assert integrate_product(UNIT, k, l, 1.0, beta, a, b) == r.value

    def test_refused_recursion_falls_back(self):
        beta = 1.0 + 1e-9
        r = weighted.weighted_integral(UNIT, 2, 1.0, 20.0, 40.0, k=2, beta=beta)
        assert abs(r.value - tight_product(2, 2, 1.0, beta, 20.0, 40.0)) <= 1e-10
        assert r.segments == (("quadrature", 20.0, 40.0),)
        assert "recursion refused (NearDegenerateError" in r.reason

    def test_nonconverged_error_carries_the_record(self, monkeypatch):
        adaptive_quad = quadrature.adaptive_quad

        def capped(f, lo, hi, **kw):
            return adaptive_quad(f, lo, hi, **{**kw, "max_evals": 300})

        monkeypatch.setattr(quadrature, "adaptive_quad", capped)
        with pytest.raises(NotConvergedError) as err:
            weighted.weighted_integral(UNIT, 12, 1.0, 30.0, 100.0, k=12, beta=30.0)
        r = err.value.result
        assert not r.converged and r.evaluations <= 300
        assert r.segments == (("quadrature", 30.0, 100.0),)


class TestParityWithDefiniteIntegral:
    """A constant prefactor c gives c times definite_integral of the
    n = 0 spec, through the same routes."""

    @pytest.mark.parametrize(
        "k, l, alpha, beta, a, b",
        [
            (None, 2, 1.3, None, 0.5, 4.0),  # below the threshold
            (None, 2, 1.3, None, 10.0, 60.0),  # above
            (None, 2, 1.3, None, 1.0, 60.0),  # straddling
            (1, 3, 1.0, 2.0, 0.0, 5.0),
            (1, 3, 1.0, 2.0, 12.0, 90.0),
            (1, 3, 1.0, 2.0, 2.0, 90.0),
            (12, 12, 1.0, 30.0, 30.0, 100.0),  # past the guard
            (12, 12, 1.0, 30.0, 5.0, 100.0),  # past the guard, straddling
            (2, 2, 1.0, 1.0 + 1e-9, 20.0, 40.0),  # recursion refused
            (2, 2, 1.0, 1.0 + 1e-9, 1.0, 40.0),  # refused above the split
        ],
    )
    def test_same_value_segments_and_reason(self, k, l, alpha, beta, a, b):
        c = 2.5
        pp = build_interpolant([(0.0, c), (100.0, c), (200.0, c)], degree=1)
        if k is None:
            spec = IntegralSpec("I", 0, l, alpha)
        else:
            spec = IntegralSpec("L", 0, l, alpha, k=k, beta=beta)
        want = definite_integral(spec, a, b)
        got = weighted.weighted_integral(pp, l, alpha, a, b, k=k, beta=beta)
        assert abs(got.value - c * want.value) <= 1e-10 * max(1.0, abs(got.value))
        assert got.segments == want.segments
        assert got.reason == want.reason


@pytest.mark.parametrize("degree", [1, 3])
def test_interpolant_array_call_is_bitwise_the_scalar_calls(degree):
    pp = build_interpolant([(0.5, 1.0), (1.5, -2.0), (2.0, 0.25), (4.0, 3.0), (7.5, 1.0)], degree)
    lo, hi = pp.span
    xs = np.concatenate([pp.breakpoints, np.linspace(lo, hi, 41), [np.nextafter(hi, 0.0)]])
    got = pp(xs)
    want = np.array([pp(float(x)) for x in xs])
    assert got.tobytes() == want.tobytes()
    with pytest.raises(DomainError, match=r"x=7.6 outside interpolant span \[0.5, 7.5\]"):
        pp(np.array([lo, 7.6, hi]))


class TestPiecewisePolynomialChecks:
    """A hand-built interpolant is checked on construction: finite, strictly
    increasing breakpoints, one non-empty tuple of finite coefficients per
    interval, stored as floats; the degree follows from the coefficients."""

    @pytest.mark.parametrize(
        "breakpoints, coefficients",
        [
            ((0.0, 30.0), ((math.nan,),)),
            ((0.0, 30.0), ((1.0, math.inf),)),
            ((0.0, 30.0), ()),
            ((0.0, 10.0, 30.0), ((1.0, 0.5),)),
            ((0.0, 30.0), ((),)),
            ((0.0, 30.0), ((1.0,), (2.0,))),
            ((0.0, math.inf), ((1.0,),)),
            ((0.0, math.nan), ((1.0,),)),
            ((30.0, 0.0), ((1.0,),)),
            ((0.0, 0.0), ((1.0,),)),
            ((0.0,), ()),
            ((0.0, "30"), ((1.0,),)),
            ((0.0, 30.0), (("1",),)),
            ((0.0, 30.0), ((True,),)),
            (5.0, ((1.0,),)),
            ((0.0, 30.0), (1.0,)),
        ],
        ids=["nan-coefficient", "inf-coefficient", "no-coefficients", "one-tuple-two-intervals",
             "empty-tuple", "two-tuples-one-interval", "inf-breakpoint", "nan-breakpoint",
             "decreasing", "repeated", "one-breakpoint", "string-breakpoint", "string-coefficient",
             "bool-coefficient", "breakpoints-not-a-sequence", "coefficients-not-tuples"],
    )
    def test_malformed_interpolant_is_a_domain_error(self, breakpoints, coefficients):
        with pytest.raises(DomainError):
            weighted.PiecewisePolynomial(breakpoints, coefficients)

    def test_nan_coefficient_never_reaches_an_integral(self):
        # it used to give value nan, converged, with a zero error estimate
        with pytest.raises(DomainError, match="coefficients must be a finite real number, got nan"):
            weighted_integral_of(weighted.PiecewisePolynomial((0.0, 30.0), ((math.nan,),)))

    @pytest.mark.parametrize("degree", [1.0, True, "1", -1, None])
    def test_degree_must_be_an_integer(self, degree):
        # build_interpolant takes 1 or 3 only
        match = "degree must be 1 or 3" if degree == -1 else "degree must be an integer"
        with pytest.raises(DomainError, match=match):
            build_interpolant([(0.0, 1.0), (30.0, 2.0)], degree=degree)

    def test_degree_follows_the_coefficients(self):
        # a hand-built cubic is a cubic: the degree is read off its
        # longest coefficient tuple, and cannot contradict it
        cubic = weighted.PiecewisePolynomial((0.0, 1.0), ((1.0, 2.0, 3.0, 4.0),))
        assert cubic(0.5) == 3.25 and cubic.degree == 3
        mixed = weighted.PiecewisePolynomial((0.0, 1.0, 2.0), ((1.0,), (1.0, 0.5, 0.25)))
        assert mixed.degree == 2
        # two samples pad the cubic to four coefficients
        assert build_interpolant([(0.0, 1.0), (30.0, 2.0)], degree=3).degree == 3
        assert build_interpolant([(0.0, 1.0), (30.0, 2.0)], degree=1).degree == 1

    def test_numbers_are_stored_as_floats(self):
        pp = weighted.PiecewisePolynomial(
            np.array([0, 10.0, 30.0]), [(np.float64(1.0), 2), [np.int64(3)]]
        )
        assert pp.breakpoints == (0.0, 10.0, 30.0) and pp.coefficients == ((1.0, 2.0), (3.0,))
        assert type(pp.degree) is int and pp.degree == 1
        assert {type(v) for v in pp.breakpoints + sum(pp.coefficients, ())} == {float}

    def test_nan_point_is_outside_the_span(self):
        pp = build_interpolant([(0.0, 1.0), (30.0, 2.0)], degree=1)
        with pytest.raises(DomainError, match="x=nan outside interpolant span"):
            pp(math.nan)
        with pytest.raises(DomainError, match="x=nan outside interpolant span"):
            pp(np.array([1.0, math.nan]))
        with pytest.raises(DomainError, match="x must be an array of real numbers"):
            pp("1.0")

    @pytest.mark.parametrize(
        "samples",
        [[("a", 1), (1, 2)], [(0.0, None), (1.0, 2.0)], [(0.0, 1.0), (1.0,)], [(0.0, 1j), (1.0, 2.0)]],
        ids=["string", "none", "ragged", "complex"],
    )
    def test_samples_that_are_not_numbers(self, samples):
        with pytest.raises(DomainError, match="samples must be an array of real numbers"):
            build_interpolant(samples)


def weighted_integral_of(pp):
    return weighted.weighted_integral(pp, 2, 1.0, 20.0, 30.0)
