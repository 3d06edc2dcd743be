"""One canonical spec and one table dispatch.

``IntegralSpec.factors`` is the one (order, scale) list every derived
property, integrand and table reads; the parity fold lives in
``sph_bessel.parity_fold``; every table value passes one handler that
turns overflow and recursion depth into DomainError; and every public
evaluator shares one point check and the spec's scale validation.
"""

import math
from collections import Counter

import numpy as np
import pytest

from besselquad import (
    DomainError,
    IntegralSpec,
    antiderivative,
    base_L01_equal,
    build_interpolant,
    closed_H,
    closed_I,
    closed_K2,
    closed_L_equal,
    definite_integral,
    eval_H,
    eval_H_scaled,
    eval_I,
    eval_I_scaled,
    eval_K,
    eval_L,
    integrand,
    oscillation_threshold,
    weighted_integral,
)
from besselquad import quadrature
from besselquad.sph_bessel import j, j_array, parity_fold
from besselquad.trig_primitives import TrigChain
from helpers import assert_refuses_or_meets


class TestFactors:
    @pytest.mark.parametrize(
        "spec, factors",
        [
            (IntegralSpec("I", 1, 3, -1.5), ((3, -1.5),)),
            (IntegralSpec("H", 1, 3, -1.5), ((3, -1.5), (3, -1.5))),
            (IntegralSpec("K", 1, 3, -1.5, beta=2.0), ((3, -1.5), (3, 2.0))),
            (IntegralSpec("L", 1, 3, -1.5, k=2, beta=2.0), ((2, -1.5), (3, 2.0))),
            (IntegralSpec("L", 1, 3, -1.5, beta=2.0), ((3, -1.5), (3, 2.0))),
            # I reads neither the second order nor the second scale
            (IntegralSpec("I", 1, 3, 0.5, k=7, beta=9.0), ((3, 0.5),)),
            # a second order or scale that repeats the first is the same integral
            (IntegralSpec("K", 1, 3, -1.5, k=3, beta=2.0), ((3, -1.5), (3, 2.0))),
            (IntegralSpec("H", 1, 3, -1.5, beta=np.float64(-1.5)), ((3, -1.5), (3, -1.5))),
            (IntegralSpec("H", 1, 3, -1.5, k=np.int64(3)), ((3, -1.5), (3, -1.5))),
        ],
    )
    def test_one_pair_per_factor(self, spec, factors):
        assert spec.factors == factors
        assert spec.orders == tuple(o for o, _ in factors)
        assert spec.scales == tuple(s for _, s in factors)
        assert spec.max_order == max(spec.orders)
        assert spec.min_scale == min(abs(s) for s in spec.scales)

    @pytest.mark.parametrize(
        "family, kw, edge",
        [("I", {}, -4), ("H", {}, -7), ("K", {"beta": 2.0}, -7), ("L", {"k": 1, "beta": 2.0}, -5)],
    )
    def test_finite_at_zero_follows_the_stated_condition(self, family, kw, edge):
        # l = 3: I needs l + n > -1, H and K 2l + n > -1, L (k = 1) k + l + n > -1
        assert IntegralSpec(family, edge + 1, 3, **kw).finite_at_zero
        assert not IntegralSpec(family, edge, 3, **kw).finite_at_zero

    def test_factors_are_not_compared_or_printed(self):
        spec = IntegralSpec("H", 0, 2)
        assert "factors" not in repr(spec)
        assert spec == IntegralSpec("H", 0, 2) and hash(spec) == hash(IntegralSpec("H", 0, 2))

    @pytest.mark.parametrize("order, scale, want", [
        (3, -2.0, (-1.0, 2.0)), (2, -2.0, (1.0, 2.0)), (3, 2.0, (1.0, 2.0)), (0, -0.5, (1.0, 0.5)),
    ])
    def test_parity_fold(self, order, scale, want):
        assert parity_fold(order, scale) == want


BAD_POINTS = [math.nan, math.inf, -math.inf, 0.0, -1.0]

#: every public evaluator that takes a point, as a function of it
AT_POINT = {
    "eval_I": lambda x: eval_I(0, 2, x),
    "eval_I_scaled": lambda x: eval_I_scaled(0, 2, x, 1.3),
    "eval_H": lambda x: eval_H(0, 2, x),
    "eval_H_scaled": lambda x: eval_H_scaled(0, 2, x, 1.3),
    "eval_K": lambda x: eval_K(0, 1, x, 1.0, 2.0),
    "eval_L": lambda x: eval_L(0, 1, 2, x, 1.0, 2.0),
    "eval_L equal scales": lambda x: eval_L(0, 1, 2, x, 1.0, 1.0),
    "closed_I": lambda x: closed_I("I1", 2, x),
    "closed_H": lambda x: closed_H("H3", 1, x),
    "closed_K2": lambda x: closed_K2(1, x, 1.0, 2.0),
    "closed_L_equal": lambda x: closed_L_equal("L4", 1, 2, x),
    "eval_L L01 base": lambda x: eval_L(0, 0, 1, x, 1.0, 2.0),
    "base_L01_equal": lambda x: base_L01_equal(0, x),
    "eval_L ladder": lambda x: eval_L(0, 1, 2, x, 1.0, 2.0, closed_forms=False),
    **{
        f"antiderivative {spec.family}": (lambda x, spec=spec: antiderivative(spec, x))
        for spec in (
            IntegralSpec("I", 0, 2),
            IntegralSpec("H", 0, 2),
            IntegralSpec("K", 0, 2, 1.0, beta=2.0),
            IntegralSpec("L", 0, 2, 1.0, k=1, beta=2.0),
        )
    },
}

#: every public evaluator that takes a scale, as a function of one
WITH_SCALE = {
    "eval_I_scaled": lambda s: eval_I_scaled(0, 2, 3.0, s),
    "eval_H_scaled": lambda s: eval_H_scaled(0, 2, 3.0, s),
    "eval_K alpha": lambda s: eval_K(0, 1, 3.0, s, 2.0),
    "eval_K beta": lambda s: eval_K(0, 1, 3.0, 1.0, s),
    "eval_L alpha": lambda s: eval_L(0, 1, 2, 3.0, s, 2.0),
    "eval_L beta": lambda s: eval_L(0, 1, 2, 3.0, 1.0, s),
    "closed_K2": lambda s: closed_K2(1, 3.0, s, 2.0),
    "eval_L L01 base": lambda s: eval_L(0, 0, 1, 3.0, 1.0, s),
    "eval_L ladder": lambda s: eval_L(0, 1, 2, 3.0, 1.0, s, closed_forms=False),
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("x", BAD_POINTS)
    @pytest.mark.parametrize("name", sorted(AT_POINT))
    def test_bad_point_is_a_domain_error(self, name, x):
        with pytest.raises(DomainError):
            AT_POINT[name](x)

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    @pytest.mark.parametrize("name", sorted(WITH_SCALE))
    def test_nonfinite_scale_is_a_domain_error(self, name, scale):
        with pytest.raises(DomainError):
            WITH_SCALE[name](scale)

    @pytest.mark.parametrize("name", sorted(AT_POINT))
    def test_good_point_still_evaluates(self, name):
        assert math.isfinite(float(AT_POINT[name](3.0)))


class TestNonFiniteArgument:
    """A finite point times a finite scale, or the trig chain's argument
    built from it ((a + b) x, 2u), can still overflow; j_array and
    TrigChain refuse it."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: eval_I_scaled(0, 2, 1e300, 1e10),
            lambda: eval_K(0, 1, 1e300, 1e10, 2.0),
            lambda: eval_H_scaled(0, 1, 1e308, 1.0),
            lambda: eval_K(0, 1, 1e308, 1.0, 1.5),
        ],
        ids=["I u", "K alpha x", "H 2u", "K (a+b) x"],
    )
    def test_overflowing_argument_is_a_domain_error(self, call):
        with pytest.raises(DomainError, match="inf"):
            call()

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_primitives_refuse(self, x):
        with pytest.raises(DomainError):
            j_array(3, x)
        with pytest.raises(DomainError):
            j(0, x)
        with pytest.raises(DomainError):
            TrigChain(1.0, x)


def _above_threshold(spec, c=1.5, width=20.0):
    t = oscillation_threshold(spec)
    return c * t, c * t + width


def _assert_quadrature_fallback(spec, a, b):
    """Auto treats a walk that leaves the float range as a refusal: its
    value is bitwise the quadrature strategy's over the same interval,
    and its reason names the overflow."""
    got = definite_integral(spec, a, b)
    assert got.value == definite_integral(spec, a, b, strategy="quadrature").value
    assert got.converged and got.segments == (("quadrature", a, b),)
    assert "recursion refused (DomainError" in got.reason
    assert "overflow" in got.reason


class TestDeepRecursions:
    """Every table value passes one handler, so a recursion that leaves
    the float range is a DomainError naming the family, n, orders and x;
    the walks fill their tables bottom-up, so depth alone is no limit."""

    @pytest.mark.parametrize(
        "spec",
        [IntegralSpec("H", 150, 60, 1.3), IntegralSpec("K", 150, 60, 1.0, beta=1.3)],
        ids=["H", "K"],
    )
    @pytest.mark.parametrize("strategy", ["auto", "recursion"])
    def test_overflow(self, spec, strategy):
        a, b = _above_threshold(spec)
        if strategy == "auto" and spec.family == "H":
            _assert_quadrature_fallback(spec, a, b)
        elif strategy == "auto":
            # the fallback's integrand, x^150 j_60 j_60, leaves the float range too
            with pytest.raises(DomainError, match=r"K integrand with n = 150, orders \(60, 60\) .*overflow"):
                definite_integral(spec, a, b)
        else:
            with pytest.raises(DomainError, match=rf"{spec.family} .*n = 150, orders \(60,\) at x = .*overflow"):
                definite_integral(spec, a, b, strategy=strategy)

    @pytest.mark.parametrize(
        "spec",
        [
            IntegralSpec("H", -3, 1000),
            IntegralSpec("K", -3, 1000, 1.0, beta=1.3),
            IntegralSpec("L", -3, 1000, 1.0, k=0, beta=1.3),
        ],
        ids=["H", "K", "L"],
    )
    def test_recursion_depth(self, spec):
        # a thousand levels run to the end; their terms leave the float range
        a, b = _above_threshold(spec)
        with pytest.raises(DomainError, match=r"n = -3, orders \(.*1000,?\) at x = .*overflow a float"):
            definite_integral(spec, a, b, strategy="recursion")

    @pytest.mark.parametrize("n", [1, 5])
    def test_deep_walk_matches_gauss_legendre(self, n):
        # 1 200 levels of the H walk against a 200-node Gauss-Legendre sum
        # of x^n j_1200(x)^2 over twenty units past the threshold
        ss = pytest.importorskip("scipy.special")
        spec = IntegralSpec("H", n, 1200)
        a, b = _above_threshold(spec)
        nodes, weights = np.polynomial.legendre.leggauss(200)
        xs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        ref = 0.5 * (b - a) * float(np.sum(weights * xs**n * ss.spherical_jn(1200, xs) ** 2))
        got = definite_integral(spec, a, b, strategy="recursion")
        assert got.segments == (("recursion", a, b),)
        assert abs(got.value - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("closed_forms", [True, False], ids=["closure", "ladder"])
    def test_adjacent_orders_overflow(self, closed_forms):
        # x^(n+1) = 50^401 alone passes the float range
        with pytest.raises(DomainError, match=r"L .*n = 400, orders \(1, 2\) at x = 50: .*overflow"):
            eval_L(400, 1, 2, 50.0, 1.0, 2.0, closed_forms=closed_forms)

    def test_scale_power_overflow(self):
        # alpha^(-n-1) alone passes the float range
        with pytest.raises(DomainError, match=r"I .*n = 50, orders \(0,\)"):
            eval_I_scaled(50, 0, 1.0, 1e-10)


def _count_j_many(monkeypatch):
    """Count quadrature's j_many calls by (orders, points): the orders a
    call takes, one or one per point, as a sorted tuple."""
    calls = Counter()
    j_many = quadrature.j_many

    def counted(l, xs):
        orders = (l,) if isinstance(l, int) else tuple(sorted(set(l.tolist())))
        calls[orders, len(xs)] += 1
        return j_many(l, xs)

    monkeypatch.setattr(quadrature, "j_many", counted)
    return calls


class TestSharedProduct:
    """One Bessel product over spec.factors, one j_many call per integrand
    call: two equal factors share it on the nodes alone, two other
    factors take it on both their arguments, with an order per point."""

    @pytest.mark.parametrize(
        "spec, call",
        [
            (IntegralSpec("I", 1, 2, -1.3), ((2,), 7)),
            (IntegralSpec("H", 1, 2, -1.3), ((2,), 7)),
            (IntegralSpec("L", 1, 2, -1.3, k=2, beta=-1.3), ((2,), 7)),
            (IntegralSpec("K", 1, 2, 1.3, beta=-1.3), ((2,), 14)),
            (IntegralSpec("L", 1, 2, 1.3, k=1, beta=0.7), ((1, 2), 14)),
        ],
    )
    def test_integrand(self, spec, call, monkeypatch):
        f = integrand(spec)
        calls = _count_j_many(monkeypatch)
        xs = np.linspace(0.5, 9.0, 7)
        got = f(xs)
        assert calls == {call: 1}
        want = [
            x**spec.n * math.prod(float(quadrature.j_many(o, abs(s) * np.array([x]))[0])
                                  * (-1 if s < 0 and o % 2 else 1) for o, s in spec.factors)
            for x in xs
        ]
        assert np.allclose(got, want, rtol=1e-14, atol=0)

    def test_equal_factor_weighted_integral(self, monkeypatch):
        xs = np.linspace(0.0, 8.0, 9)
        pp = build_interpolant(np.column_stack([xs, 1.0 + 0.1 * xs]), degree=3)
        calls = _count_j_many(monkeypatch)
        evaluations = Counter()
        adaptive_quad = quadrature.adaptive_quad

        def counted_quad(f, *args, **kw):
            def g(nodes):
                evaluations["calls"] += 1
                return f(nodes)

            return adaptive_quad(g, *args, **kw)

        monkeypatch.setattr(quadrature, "adaptive_quad", counted_quad)
        r = weighted_integral(pp, 3, 1.3, 0.0, 8.0, k=3, beta=1.3)
        assert r.segments[0][0] == "quadrature" and r.evaluations > 0
        assert evaluations["calls"] > 0
        assert sum(calls.values()) == evaluations["calls"]


class TestNonFiniteWalkValues:
    """A walk whose float products end in inf or nan, without raising
    OverflowError, is the same DomainError: no non-finite value leaves a
    table, and auto falls back to quadrature, whose value the float range
    still holds."""

    @pytest.mark.parametrize(
        "spec, a",
        [
            (IntegralSpec("H", 140, 60), 68.4275),
            (IntegralSpec("H", 100, 200), 859.0),
            (IntegralSpec("K", 140, 20, 1.0, beta=1.02), 26.0075),
        ],
        ids=["H-inf", "H-nan", "K-nan"],
    )
    def test_auto_definite_integral(self, spec, a):
        _assert_quadrature_fallback(spec, a, a + 20.0)

    @pytest.mark.xfail(
        strict=True, reason="no accuracy guard: the walk's rounding is returned as the value"
    )
    def test_eval_L(self):
        # at order 600 the walk's terms stay floats, but its rounding,
        # 7.4e291 at x = 5000, swamps the value; the call refused while
        # its constants overflowed, and a value must now meet tol or refuse
        spec = IntegralSpec("L", 0, 600, 1.0, k=0, beta=1.3)
        want = definite_integral(spec, 5000.0, 5020.0, tol=1e-12, strategy="quadrature")
        assert_refuses_or_meets(
            lambda x: eval_L(0, 0, 600, x, 1.0, 1.3).value, 5000.0, 5020.0, want.value
        )

    def test_eval_L_overflow(self):
        with pytest.raises(DomainError, match=r"L .*n = 0, orders \(0, 700\) at x = 5000: .*overflow"):
            eval_L(0, 0, 700, 5000.0, 1.0, 1.3)
