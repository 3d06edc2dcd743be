import gc
import math

import pytest

from besselquad import (
    DomainError,
    adaptive_quad,
    base_L01_equal,
    closed_L_equal,
    eval_H,
    eval_K,
    eval_L,
    first_zero_estimate,
    identity_residual,
    int_pow_cos,
    int_pow_sin,
    j,
    j_many,
)
from besselquad import mixed_order, same_order
from helpers import assert_derivative_matches


def oracle(n, k, l, a, b, alpha, beta, tol=1e-12):
    f = lambda xs: xs**n * j_many(k, alpha * xs) * j_many(l, beta * xs)
    w = math.pi / max(alpha, beta)
    return adaptive_quad(f, a, b, tol=tol, vectorized=True, initial_max_width=w).value


def diff(n, k, l, a, b, alpha, beta, **kw):
    return (
        eval_L(n, k, l, b, alpha, beta, **kw).value
        - eval_L(n, k, l, a, alpha, beta, **kw).value
    )


def diff_eq(n, k, l, a, b, **kw):
    return eval_L(n, k, l, b, 1.0, 1.0, **kw).value - eval_L(n, k, l, a, 1.0, 1.0, **kw).value


class TestGeneralEvaluation:
    def test_orthogonality_tail(self):
        # int_0^X j_0 j_2 -> 0; antiderivative vanishes at 0 (k+l+n = 2)
        X = 1000.0
        v = diff(0, 0, 2, 1e-8, X, 1.0, 1.0)
        assert abs(v) < 5e-3

    def test_against_oracle(self):
        got = diff(1, 0, 1, 0.5, 10.0, 1.0, 2.0)
        assert got == pytest.approx(oracle(1, 0, 1, 0.5, 10.0, 1.0, 2.0), rel=1e-9)

    @pytest.mark.parametrize(
        "n,k,l,alpha,beta",
        [
            (0, 1, 3, 2.0, 3.0),
            (2, 2, 5, 1.3, 0.7),
            (-1, 0, 4, 0.6, 1.7),
            (3, 1, 6, 1.0, 2.5),
            (1, 4, 5, 2.0, 0.9),
            (-2, 3, 7, 1.4, 0.8),
        ],
    )
    def test_definite_grid(self, n, k, l, alpha, beta):
        a = max(first_zero_estimate(k) / alpha, first_zero_estimate(l) / beta)
        b = a + 22.0
        assert diff(n, k, l, a, b, alpha, beta) == pytest.approx(
            oracle(n, k, l, a, b, alpha, beta), rel=1e-9, abs=1e-13
        )

    def test_joint_swap_symmetry(self):
        v1 = eval_L(1, 0, 2, 9.0, 1.3, 0.8).value
        v2 = eval_L(1, 2, 0, 9.0, 0.8, 1.3).value
        assert v1 == v2

    def test_k_equals_l_delegates(self):
        # same order goes through the K engine, equal scales through H,
        # and the path is the route of that engine's table (K2, H3)
        assert eval_L(2, 3, 3, 8.0, 1.0, 2.0) == eval_K(2, 3, 8.0, 1.0, 2.0)
        assert eval_L(2, 3, 3, 8.0, 1.5, 1.5) == eval_H(2, 3, 8.0, 1.5)
        assert eval_L(2, 3, 3, 8.0, 1.0, 2.0).path == "recursion+closed"
        assert eval_L(2, 3, 3, 8.0, 1.5, 1.5).path == "recursion+closed"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_L(0, -1, 2, 1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            eval_L(0, 0, 2, 0.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            eval_L(0, 0, 2, 1.0, 0.0, 2.0)


class TestAdjacentClosure:
    def test_against_oracle(self):
        got = eval_L(0, 0, 1, 20.0, 1.0, 2.0).value - eval_L(0, 0, 1, 1.0, 1.0, 2.0).value
        assert got == pytest.approx(oracle(0, 0, 1, 1.0, 20.0, 1.0, 2.0), rel=1e-9)

    def test_derivative(self):
        x = 15.0
        assert_derivative_matches(
            lambda t: eval_L(2, 2, 3, t, 1.3, 0.7).value,
            x**2 * j(2, 1.3 * x) * j(3, 0.7 * x),
            x,
        )

    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_n_one_against_oracle(self, l):
        # n = 1 has no closure of its own; eval_L serves it from the table
        got = diff(1, l - 1, l, 2.0, 30.0, 1.0, 2.0)
        assert got == pytest.approx(oracle(1, l - 1, l, 2.0, 30.0, 1.0, 2.0), rel=1e-9)

    @pytest.mark.parametrize("closed_forms", [True, False], ids=["closure", "ladder"])
    @pytest.mark.parametrize("l", [1, 2, 5])
    def test_equal_scales_take_the_equal_argument_value(self, l, closed_forms):
        # equal scales go to the equal-argument table at every order, not
        # to quadrature through the degeneracy guard
        got = diff(2, l - 1, l, 2.0, 10.0, 1.0, 1.0, closed_forms=closed_forms)
        assert got == pytest.approx(oracle(2, l - 1, l, 2.0, 10.0, 1.0, 1.0), rel=1e-9)

    @pytest.mark.parametrize("n,l,alpha,beta", [
        (0, 1, 1.0, 2.0), (2, 3, 1.3, 0.7), (4, 2, 2.0, 1.1), (-1, 4, 0.9, 1.8),
    ])
    def test_agrees_with_ladder(self, n, l, alpha, beta):
        # the closure against the pure-recursion ladder of closed_forms=False
        a, b = 2.0, 40.0
        c = eval_L(n, l - 1, l, b, alpha, beta).value - eval_L(n, l - 1, l, a, alpha, beta).value
        r = (
            eval_L(n, l - 1, l, b, alpha, beta, closed_forms=False).value
            - eval_L(n, l - 1, l, a, alpha, beta, closed_forms=False).value
        )
        assert c == pytest.approx(r, rel=1e-10, abs=1e-14)


class TestBaseL01:
    def test_derivative(self):
        x = 9.0
        assert_derivative_matches(
            lambda t: eval_L(2, 0, 1, t, 1.0, 2.0).value,
            x**2 * j(0, x) * j(1, 2.0 * x),
            x,
        )

    def test_order_swap_consistency(self):
        # L^n_{10}(x; alpha, beta) = L^n_{01}(x; beta, alpha)
        v1 = eval_L(2, 1, 0, 7.0, 2.0, 1.0).value
        v2 = eval_L(2, 0, 1, 7.0, 1.0, 2.0).value
        assert v1 == v2

    def test_against_oracle(self):
        got = eval_L(0, 0, 1, 10.0, 2.0, 3.0).value - eval_L(0, 0, 1, 1.0, 2.0, 3.0).value
        assert got == pytest.approx(oracle(0, 0, 1, 1.0, 10.0, 2.0, 3.0), rel=1e-9)

    @pytest.mark.parametrize(
        "alpha, beta", [(1.0, 2.0), (2.0, 1.0), (-1.0, 2.0), (2.0, -1.0), (-2.0, -1.0)]
    )
    @pytest.mark.parametrize("n", [0, 4])
    def test_equals_product_to_sum_formula(self, n, alpha, beta):
        # the parity fold of negative scales and the shared |a - b| and
        # a + b chains carry the signs of the odd sine terms exactly
        x, a, b = 5.0, alpha, beta
        want = (int_pow_cos(n - 3, a - b, x) - int_pow_cos(n - 3, a + b, x)) / (2.0 * a * b * b) - (
            int_pow_sin(n - 2, a - b, x) + int_pow_sin(n - 2, a + b, x)
        ) / (2.0 * a * b)
        assert eval_L(n, 0, 1, x, alpha, beta).value == want


class TestTablesDieWithTheirCall:
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda: eval_H(3, 6, 20.0),
            lambda: eval_K(0, 6, 20.0, 1.0, 1.6),
            lambda: eval_L(0, 2, 6, 20.0, 1.0, 1.6),
            lambda: eval_L(1, 2, 6, 20.0, 1.0, 1.6),
            lambda: eval_L(1, 2, 6, 20.0, 1.0, 1.0, closed_forms=False),
        ],
        ids=["H", "K", "L-closure", "L-ladder", "L-equal-args"],
    )
    def test_no_cyclic_garbage(self, evaluate):
        # tables, their rows, j tables and chains are freed at return,
        # not left for the cyclic collector to find later
        gc.collect()
        gc.disable()
        try:
            evaluate()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSharedKTable:
    @pytest.mark.parametrize("n", [0, 1])  # adjacent closure / n = 1 ladder
    def test_one_pair_of_j_tables_per_evaluation(self, n, monkeypatch):
        calls = []
        for mod in (mixed_order, same_order):
            fn = mod._j_list
            monkeypatch.setattr(
                mod, "_j_list", lambda l, x, fn=fn: calls.append((l, x)) or fn(l, x)
            )
        want = eval_L(n, 2, 5, 30.0, 1.0, 1.6).value
        assert len(calls) == 2
        monkeypatch.undo()
        assert eval_L(n, 2, 5, 30.0, 1.0, 1.6).value == want

    @pytest.mark.parametrize("closed_forms", [True, False], ids=["closure", "ladder"])
    def test_adjacent_orders_build_one_j_table_per_scale(self, closed_forms, monkeypatch):
        calls = []
        for mod in (mixed_order, same_order):
            fn = mod._j_list
            monkeypatch.setattr(
                mod, "_j_list", lambda l, x, fn=fn: calls.append((l, x)) or fn(l, x)
            )
        eval_L(0, 3, 4, 30.0, 1.0, 1.6, closed_forms=closed_forms)
        assert sorted(x for _, x in calls) == [30.0, 48.0]


class TestIdentityResidual:
    def test_specific_case(self):
        assert identity_residual(0, 2, 1.0, 10.0, 1.0, 2.0) < 1e-9

    def test_equal_order_reduces_to_K2_relation(self):
        assert identity_residual(2, 2, 1.0, 10.0, 1.0, 2.0) < 1e-9

    def test_fully_degenerate_is_zero(self):
        assert identity_residual(1, 1, 1.0, 10.0, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("k,l", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 2.0), (0.7, 1.3), (2.0, 0.9), (1.1, 2.3)])
    def test_twenty_case_grid(self, k, l, alpha, beta):
        assert identity_residual(k, l, 1.0, 10.0, alpha, beta) < 1e-9


class TestEqualArguments:
    def test_orthogonality_via_closed_form(self):
        X = 1000.0
        v = diff_eq(0, 0, 2, 1e-8, X)
        assert abs(v) < 5e-3

    def test_L5_pattern_vanishes_at_zero(self):
        n = 0 + 1 + 3
        assert eval_L(n, 0, 1, 1e-6, 1.0, 1.0).value == pytest.approx(0.0, abs=1e-20)

    def test_n1_k0_l1_base_against_oracle(self):
        got = diff_eq(1, 0, 1, 1.0, 10.0)
        assert got == pytest.approx(oracle(1, 0, 1, 1.0, 10.0, 1.0, 1.0), rel=1e-10)
        # the explicit trig base carries the same increments
        base = base_L01_equal(1, 10.0).value - base_L01_equal(1, 1.0).value
        assert base == pytest.approx(got, rel=1e-10)

    def test_base_log_branch(self):
        # n = 2 turns the power-rule piece into a logarithm
        got = base_L01_equal(2, 9.0).value - base_L01_equal(2, 2.0).value
        assert got == pytest.approx(oracle(2, 0, 1, 2.0, 9.0, 1.0, 1.0), rel=1e-10)

    def test_symmetry(self):
        assert eval_L(1, 0, 3, 8.0, 1.0, 1.0).value == eval_L(1, 3, 0, 8.0, 1.0, 1.0).value

    def test_scaled_reduction(self):
        # eval_L at alpha = beta reduces through alpha^(-1-n) L(alpha x)
        for (n, k, l, alpha) in [(0, 0, 2, 2.0), (1, 1, 4, 0.7), (-1, 2, 3, 1.6)]:
            a, b = 2.0, 9.0
            v1 = diff(n, k, l, a, b, alpha, alpha)
            v2 = alpha ** (-1 - n) * (
                eval_L(n, k, l, alpha * b, 1.0, 1.0).value
                - eval_L(n, k, l, alpha * a, 1.0, 1.0).value
            )
            assert v1 == pytest.approx(v2, rel=1e-11)

    @pytest.mark.parametrize(
        "kind,k,l",
        [
            ("L1", 0, 2), ("L1", 1, 3), ("L1", 2, 5),
            ("L2", 0, 2), ("L2", 1, 3), ("L2", 2, 4),
            ("L3", 0, 1), ("L3", 1, 2), ("L3", 2, 3),
            ("L4", 0, 2), ("L4", 1, 3), ("L4", 1, 2),
            ("L5", 0, 1), ("L5", 1, 2), ("L5", 2, 4),
        ],
    )
    def test_closed_forms_agree_with_recursion(self, kind, k, l):
        n = {
            "L1": 0,
            "L2": -1,
            "L3": 1 - k - l,
            "L4": l - k + 2,
            "L5": k + l + 3,
        }[kind]
        a, b = 2.0, 40.0
        c = closed_L_equal(kind, k, l, b).value - closed_L_equal(kind, k, l, a).value
        r = diff_eq(n, k, l, a, b, closed_forms=False)
        assert c == pytest.approx(r, rel=1e-10, abs=1e-14)

    def test_closed_form_guards(self):
        with pytest.raises(DomainError):
            closed_L_equal("L1", 2, 2, 1.0)  # k = l is the squared family
        with pytest.raises(DomainError):
            closed_L_equal("L2", 1, 2, 1.0)  # |k - l| = 1
        with pytest.raises(DomainError):
            closed_L_equal("L2", 0, 0, 1.0)  # k + l = 0
        with pytest.raises(DomainError):
            closed_L_equal("L3", 0, 0, 1.0)

    @pytest.mark.parametrize("n,k,l", [(0, 0, 2), (2, 1, 4), (-1, 2, 6), (3, 0, 5)])
    def test_equal_args_against_oracle(self, n, k, l):
        a = first_zero_estimate(l)
        b = a + 20.0
        assert diff_eq(n, k, l, a, b) == pytest.approx(
            oracle(n, k, l, a, b, 1.0, 1.0), rel=1e-9, abs=1e-13
        )


class TestDerivativeProperty:
    @pytest.mark.parametrize("n", [-1, 0, 2, 4])
    @pytest.mark.parametrize("k,l", [(0, 2), (1, 5), (3, 8), (2, 4)])
    @pytest.mark.parametrize("alpha,beta", [(0.7, 1.0), (1.0, 2.3)])
    def test_derivative_is_integrand(self, n, k, l, alpha, beta):
        x0 = max(first_zero_estimate(k) / alpha, first_zero_estimate(l) / beta)
        for x in (x0, x0 + 17.0):
            assert_derivative_matches(
                lambda t: eval_L(n, k, l, t, alpha, beta).value,
                x**n * j(k, alpha * x) * j(l, beta * x),
                x,
            )

    def test_equal_args_derivative(self):
        for (n, k, l) in [(0, 0, 3), (2, 1, 2), (-1, 2, 5)]:
            x = first_zero_estimate(l) + 5.0
            assert_derivative_matches(
                lambda t: eval_L(n, k, l, t, 1.0, 1.0).value,
                x**n * j(k, x) * j(l, x),
                x,
            )
