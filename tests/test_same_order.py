import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselquad import (
    DomainError,
    NearDegenerateError,
    adaptive_quad,
    closed_K2,
    eval_H_scaled,
    eval_K,
    first_zero_estimate,
    j,
    j_many,
)
from besselquad import trig_primitives
from helpers import assert_derivative_matches


def oracle(n, l, a, b, alpha, beta, tol=1e-12):
    f = lambda xs: xs**n * j_many(l, alpha * xs) * j_many(l, beta * xs)
    w = math.pi / max(alpha, beta)
    return adaptive_quad(f, a, b, tol=tol, vectorized=True, initial_max_width=w).value


def diff(n, l, a, b, alpha, beta, **kw):
    return eval_K(n, l, b, alpha, beta, **kw).value - eval_K(n, l, a, alpha, beta, **kw).value


class TestAgainstOracle:
    def test_spec_case_from_zero(self):
        # finite at 0 (2l + n = 4); antiderivative vanishes there, so the
        # value at b is the definite integral
        got = diff(2, 1, 1e-8, 5.0, 1.0, 2.0)
        assert got == pytest.approx(oracle(2, 1, 1e-8, 5.0, 1.0, 2.0), rel=1e-9)

    @pytest.mark.parametrize(
        "n,l,alpha,beta",
        [(0, 0, 1.0, 3.0), (3, 2, 0.5, 2.2), (-1, 4, 1.1, 0.6), (2, 7, 2.0, 0.7)],
    )
    def test_definite_integrals(self, n, l, alpha, beta):
        a = first_zero_estimate(l) / min(alpha, beta)
        b = a + 25.0
        assert diff(n, l, a, b, alpha, beta) == pytest.approx(
            oracle(n, l, a, b, alpha, beta), rel=1e-9, abs=1e-13
        )


class TestSymmetry:
    def test_swap_is_bit_identical(self):
        v1 = eval_K(2, 1, 7.0, 1.0, 2.0).value
        v2 = eval_K(2, 1, 7.0, 2.0, 1.0).value
        assert v1 == v2

    @given(
        n=st.integers(min_value=-2, max_value=5),
        l=st.integers(min_value=0, max_value=8),
        alpha=st.floats(min_value=0.5, max_value=3.0),
        delta=st.floats(min_value=0.2, max_value=2.0),
        x=st.floats(min_value=1.0, max_value=40.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_swap_property(self, n, l, alpha, delta, x):
        beta = alpha + delta
        assert eval_K(n, l, x, alpha, beta).value == eval_K(n, l, x, beta, alpha).value

    def test_negative_scale_parity(self):
        # odd order: each negative scale contributes one sign flip
        v = eval_K(2, 1, 7.0, 1.0, 2.0).value
        assert eval_K(2, 1, 7.0, -1.0, 2.0).value == -v
        assert eval_K(2, 1, 7.0, -1.0, -2.0).value == v
        v = eval_K(2, 2, 7.0, 1.0, 2.0).value
        assert eval_K(2, 2, 7.0, -1.0, 2.0).value == v


class TestBaseCase:
    def test_derivative_at_base(self):
        assert_derivative_matches(
            lambda t: eval_K(0, 0, t, 1.0, 3.0).value,
            j(0, 7.0) * j(0, 21.0),
            7.0,
        )


class TestDegeneracy:
    def test_equal_scales_rejected(self):
        with pytest.raises(DomainError):
            eval_K(0, 0, 1.0, 2.0, 2.0)
        # alpha = -beta has equal magnitudes after parity folding
        with pytest.raises(DomainError):
            eval_K(0, 2, 1.0, 2.0, -2.0)

    def test_guard_with_no_series_route(self):
        with pytest.raises(NearDegenerateError):
            eval_K(0, 1, 5.0, 1.0, 1.0 + 1e-8)

    def test_guard_allows_series_route(self):
        # n - 2l - 2 >= 0: every base term has a series
        v = eval_K(4, 1, 5.0, 1.0, 1.0 + 1e-8)
        assert math.isfinite(v.value)

    def test_H_limit(self):
        # beta -> alpha approaches the squared family
        eps = 1e-3
        for (n, l, alpha) in [(0, 0, 1.0), (2, 1, 1.0), (0, 2, 1.3)]:
            a, b = 1.0, 10.0
            kv = diff(n, l, a, b, alpha, alpha * (1 + eps))
            hv = (
                eval_H_scaled(n, l, b, alpha).value
                - eval_H_scaled(n, l, a, alpha).value
            )
            assert abs(kv - hv) / abs(hv) < 5e-3


class TestClosedK2:
    def test_matches_recursion_differences(self):
        a, b = 1e-8, 4.0
        c = closed_K2(1, b, 1.0, 2.0).value - closed_K2(1, a, 1.0, 2.0).value
        r = diff(2, 1, a, b, 1.0, 2.0, closed_forms=False)
        assert c == pytest.approx(r, rel=1e-11)

    def test_vanishes_at_zero(self):
        assert closed_K2(1, 1e-9, 1.0, 2.0).value == pytest.approx(0.0, abs=1e-20)

    def test_l0_against_oracle(self):
        got = closed_K2(0, math.pi, 2.0, 1.0).value - closed_K2(0, 0.5, 2.0, 1.0).value
        assert got == pytest.approx(oracle(2, 0, 0.5, math.pi, 2.0, 1.0), rel=1e-9)

    @pytest.mark.parametrize("l", range(1, 11))
    def test_agrees_with_recursion_for_all_orders(self, l):
        a, b = 2.0, 40.0
        c = closed_K2(l, b, 1.0, 2.0).value - closed_K2(l, a, 1.0, 2.0).value
        r = diff(2, l, a, b, 1.0, 2.0, closed_forms=False)
        assert c == pytest.approx(r, rel=1e-10, abs=1e-14)

    def test_equal_scales_rejected(self):
        with pytest.raises(DomainError):
            closed_K2(1, 1.0, 2.0, 2.0)


class TestDerivativeProperty:
    @pytest.mark.parametrize("n", range(-2, 6))
    @pytest.mark.parametrize("l", [0, 2, 5, 9])
    @pytest.mark.parametrize("alpha,beta", [(0.7, 1.0), (1.0, 2.3)])
    def test_derivative_is_integrand(self, n, l, alpha, beta):
        x0 = first_zero_estimate(l) / min(alpha, beta)
        for x in (x0, x0 + 20.0, 50.0):
            assert_derivative_matches(
                lambda t: eval_K(n, l, t, alpha, beta).value,
                x**n * j(l, alpha * x) * j(l, beta * x),
                x,
            )


class TestSharedWork:
    @pytest.mark.parametrize(
        "alpha, beta, x",
        [(1.7, 1.0, 40.0), (1.3, 1.0, 10.0)],  # (a - b) x above / below SI_CI_SWITCH
    )
    def test_si_ci_anchor_once_per_chain(self, alpha, beta, x, monkeypatch):
        calls = Counter()
        for name in ("_aux_fg", "_si_series", "_ci_series"):
            fn = getattr(trig_primitives, name)
            monkeypatch.setattr(
                trig_primitives, name, lambda u, fn=fn, name=name: calls.update([name]) or fn(u)
            )
        want = eval_K(0, 20, x, alpha, beta).value
        # the base cells of K^0_20 reach X/Y_{-42}: two chains, (a - b) x
        # and (a + b) x, each anchored once
        assert calls["_aux_fg"] + calls["_si_series"] == 2
        assert calls["_si_series"] == calls["_ci_series"]
        monkeypatch.undo()
        assert eval_K(0, 20, x, alpha, beta).value == want
