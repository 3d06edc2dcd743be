"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per
criterion report.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from besselquad import (
    EULER_GAMMA,
    IntegralSpec,
    adaptive_quad,
    antiderivative,
    closed_H,
    closed_I,
    closed_K2,
    closed_L_equal,
    definite_integral,
    eval_H,
    eval_I,
    eval_K,
    eval_L,
    first_zero_estimate,
    identity_residual,
    integrand,
    oscillation_threshold,
    verify_identity,
)
from besselquad.ordinary_bessel import default_suite
from helpers import richardson_derivative, truncates_early


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def infinite_single(l):
    return math.sqrt(math.pi) * math.gamma((l + 1) / 2) / (2 * math.gamma(1 + l / 2))


class TestCriterion1InfiniteIntegrals:
    X = 1e4
    TOL = 2e-4  # oscillatory tail envelope ~ 1/X
    TIME_LIMIT = 0.1

    def _run(self, spec, expect):
        t0 = time.perf_counter()
        r = definite_integral(spec, 0.0, self.X)
        dt = time.perf_counter() - t0
        assert abs(r.value - expect) < self.TOL, (spec, r.value, expect)
        assert dt < self.TIME_LIMIT, f"{spec} took {dt:.3f}s"
        return dt

    def test_infinite_integral_reproductions(self):
        definite_integral(IntegralSpec("I", 0, 0), 0.0, 10.0)  # warm-up
        worst = 0.0
        worst = max(worst, self._run(IntegralSpec("I", 0, 0), math.pi / 2))
        for l in (1, 2, 5, 10):
            worst = max(worst, self._run(IntegralSpec("I", 0, l), infinite_single(l)))
        for l in (0, 1, 5):
            worst = max(worst, self._run(IntegralSpec("H", 0, l), math.pi / (2 * (2 * l + 1))))
        for l in (1, 3):
            expect = math.pi / (2 * (2 * l + 1)) * 2.0 ** (-(l + 1))
            worst = max(
                worst, self._run(IntegralSpec("K", 0, l, 1.0, beta=2.0), expect)
            )
        report(1, True, f"10 infinite-integral cases, |err| < {self.TOL}, slowest {worst * 1e3:.1f} ms")


class TestCriterion2Orthogonality:
    def test_orthogonality(self):
        X = 1e3
        v1 = definite_integral(IntegralSpec("L", 0, 2, 1.0, k=0, beta=1.0), 0.0, X).value
        v2 = definite_integral(IntegralSpec("L", 0, 3, 1.0, k=1, beta=1.0), 0.0, X).value
        ok = abs(v1) < 5e-3 and abs(v2) < 5e-3
        report(2, ok, f"|int j0 j2| = {abs(v1):.2e}, |int j1 j3| = {abs(v2):.2e} < 5e-3")


class TestCriterion3SmallXConstant:
    def test_euler_mascheroni_limit(self):
        got = eval_H(1, 0, 1e-4).value
        want = -(EULER_GAMMA + math.log(2.0)) / 2.0
        ok = abs(got - want) < 1e-7
        report(3, ok, f"H^1_0(1e-4) = {got:.10f}, limit {want:.10f}, err {abs(got - want):.1e}")


class TestCriterion4OracleEquivalence:
    def test_200_randomized_cases(self):
        rng = np.random.default_rng(20260808)
        t0 = time.perf_counter()
        worst = 0.0
        fams = ["I", "H", "K", "L"]
        for i in range(200):
            fam = fams[i % 4]
            n = int(rng.integers(-2, 6))
            l = int(rng.integers(0, 11))
            alpha = float(rng.uniform(0.5, 3.0))
            beta = None
            if fam in ("K", "L"):
                while True:
                    beta = float(rng.uniform(0.5, 3.0))
                    if abs(alpha - beta) > 0.1:
                        break
            k = int(rng.integers(0, 11)) if fam == "L" else None
            spec = IntegralSpec(fam, n, l, alpha, k=k, beta=beta)
            a = oscillation_threshold(spec)
            b = a + 40.0
            rec = antiderivative(spec, b) - antiderivative(spec, a)
            pair = antiderivative(spec, b, lower=a)  # one walk across (a, b)
            orc = adaptive_quad(
                integrand(spec), a, b, tol=1e-13, vectorized=True,
                initial_max_width=math.pi / max(abs(s) for s in spec.scales),
            )
            rel = max(abs(rec - orc.value), abs(pair - orc.value)) / abs(orc.value)
            assert rel < 1e-8, (spec, rel)
            worst = max(worst, rel)
        dt = time.perf_counter() - t0
        ok = dt < 60.0
        report(4, ok, f"200 cases, worst rel {worst:.2e} < 1e-8, runtime {dt:.1f}s < 60s")


class TestCriterion5DerivativeProperty:
    def test_100_randomized_cases(self):
        rng = np.random.default_rng(17)
        t0 = time.perf_counter()
        fams = ["I", "H", "K", "L"]
        checked = 0
        for i in range(100):
            fam = fams[i % 4]
            n = int(rng.integers(-2, 6))
            l = int(rng.integers(0, 9))
            alpha = float(rng.uniform(0.5, 3.0))
            beta = float(rng.uniform(0.5, 3.0))
            if fam in ("K",) and abs(alpha - beta) < 0.12:
                beta = alpha + 0.5
            k = int(rng.integers(0, 9)) if fam == "L" else None
            spec = IntegralSpec(
                fam, n, l, alpha, k=k, beta=beta if fam in ("K", "L") else None
            )
            f = integrand(spec)
            F = lambda t: antiderivative(spec, t)
            x0 = oscillation_threshold(spec)
            # oversample, then keep the 10 points where the integrand is
            # largest so the relative criterion is meaningful
            cand = x0 + 30.0 * rng.random(25)
            fvals = np.abs(f(cand))
            points = cand[np.argsort(fvals)[-10:]]
            for x in points:
                x = float(x)
                target = float(f(np.array([x]))[0])
                deriv, noise = richardson_derivative(F, x)
                assert abs(deriv - target) <= 1e-6 * abs(target) + noise, (
                    spec, x, deriv, target, noise,
                )
                checked += 1
        dt = time.perf_counter() - t0
        ok = dt < 30.0 and checked == 1000
        report(5, ok, f"{checked} derivative checks at 1e-6 relative, runtime {dt:.1f}s < 30s")


class TestCriterion6ClosedFormAgreement:
    A, B = 2.0, 40.0
    RTOL = 1e-10

    def _check(self, closed_diff, recursion_diff, label):
        assert closed_diff == pytest.approx(recursion_diff, rel=self.RTOL, abs=1e-14), label

    def test_closed_forms_match_recursion(self):
        a, b = self.A, self.B
        cases = 0

        def d(fn, *args, **kw):
            return fn(*args, b, **kw).value - fn(*args, a, **kw).value

        for l in (0, 3, 7):
            c = closed_I("I1", l, b).value - closed_I("I1", l, a).value
            r = eval_I(2 + l, l, b).value - eval_I(2 + l, l, a).value
            self._check(c, r, ("I1", l))
            c = closed_I("I2", l, b).value - closed_I("I2", l, a).value
            r = eval_I(4 + l, l, b).value - eval_I(4 + l, l, a).value
            self._check(c, r, ("I2", l))
            cases += 2
        for l in (1, 3, 6):
            c = closed_I("I3", l, b).value - closed_I("I3", l, a).value
            r = eval_I(1 - l, l, b).value - eval_I(1 - l, l, a).value
            self._check(c, r, ("I3", l))
            cases += 1

        h_orders = {"H1": (1, 4, 7), "H2": (1, 2, 3), "H3": (1, 4, 8),
                    "H4": (1, 4, 8), "H5": (0, 3, 7)}
        n_of = {"H1": lambda l: -1, "H2": lambda l: 1 - 2 * l, "H3": lambda l: 2,
                "H4": lambda l: 4, "H5": lambda l: 2 * l + 3}
        for kind, orders in h_orders.items():
            for l in orders:
                if kind in ("H1", "H2") and l == 0:
                    continue
                c = closed_H(kind, l, b).value - closed_H(kind, l, a).value
                r = (
                    eval_H(n_of[kind](l), l, b, closed_forms=False).value
                    - eval_H(n_of[kind](l), l, a, closed_forms=False).value
                )
                self._check(c, r, (kind, l))
                cases += 1

        for l in (1, 3, 6):
            c = closed_K2(l, b, 1.0, 2.0).value - closed_K2(l, a, 1.0, 2.0).value
            r = (
                eval_K(2, l, b, 1.0, 2.0, closed_forms=False).value
                - eval_K(2, l, a, 1.0, 2.0, closed_forms=False).value
            )
            self._check(c, r, ("K2", l))
            cases += 1

        l_pairs = {"L1": ((0, 2), (1, 3), (2, 5)), "L2": ((0, 2), (1, 3), (2, 4)),
                   "L3": ((0, 1), (1, 2), (2, 3)), "L4": ((0, 2), (1, 3), (2, 7)),
                   "L5": ((0, 1), (1, 2), (2, 4))}
        n_of_kl = {"L1": lambda k, l: 0, "L2": lambda k, l: -1,
                   "L3": lambda k, l: 1 - k - l, "L4": lambda k, l: l - k + 2,
                   "L5": lambda k, l: k + l + 3}
        for kind, pairs in l_pairs.items():
            for (k, l) in pairs:
                c = closed_L_equal(kind, k, l, b).value - closed_L_equal(kind, k, l, a).value
                n = n_of_kl[kind](k, l)
                r = (
                    eval_L(n, k, l, b, 1.0, 1.0, closed_forms=False).value
                    - eval_L(n, k, l, a, 1.0, 1.0, closed_forms=False).value
                )
                self._check(c, r, (kind, k, l))
                cases += 1

        for (n, l, al, be) in ((0, 1, 1.0, 2.0), (2, 3, 1.3, 0.7), (4, 2, 2.0, 1.1)):
            c = eval_L(n, l - 1, l, b, al, be).value - eval_L(n, l - 1, l, a, al, be).value
            r = (
                eval_L(n, l - 1, l, b, al, be, closed_forms=False).value
                - eval_L(n, l - 1, l, a, al, be, closed_forms=False).value
            )
            self._check(c, r, ("closure", n, l))
            cases += 1

        report(6, True, f"{cases} closed-form vs recursion agreements at 1e-10 on [2, 40]")


class TestCriterion7IdentityResidual:
    def test_twenty_case_grid(self):
        worst = 0.0
        for (k, l) in ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)):
            for (alpha, beta) in ((1.0, 2.0), (0.7, 1.3), (2.0, 0.9), (1.1, 2.3)):
                r = identity_residual(k, l, 1.0, 10.0, alpha, beta)
                assert r < 1e-9, (k, l, alpha, beta, r)
                worst = max(worst, r)
        report(7, True, f"20-case grid, worst residual {worst:.2e} < 1e-9")


class TestCriterion8AppendixSuite:
    def test_translated_identities(self):
        t0 = time.perf_counter()
        worst = 0.0
        count = 0
        for identity, (a, b) in default_suite():
            r = verify_identity(identity, a, b)
            assert r < 1e-8, (identity, a, b, r)
            worst = max(worst, r)
            count += 1
        dt = time.perf_counter() - t0
        ok = dt < 30.0
        report(8, ok, f"{count} identity checks, worst residual {worst:.2e} < 1e-8, {dt:.1f}s < 30s")


class TestCriterion9TruncationRule:
    def test_early_termination_equals_full_path(self):
        cases = [
            (n, l)
            for l in range(0, 9)
            for n in range(-10, 11)
            if truncates_early(n, l)
        ]
        assert len(cases) == 36
        worst = 0.0
        for (n, l) in cases:
            a = first_zero_estimate(l)
            b = a + 20.0
            t = eval_I(n, l, b, closed_forms=True).value - eval_I(n, l, a, closed_forms=True).value
            f = eval_I(n, l, b, closed_forms=False).value - eval_I(n, l, a, closed_forms=False).value
            rel = abs(t - f) / max(1.0, abs(f))
            assert rel < 1e-11, (n, l, rel)
            worst = max(worst, rel)
        report(9, True, f"{len(cases)} truncation cases, worst rel diff {worst:.2e} < 1e-11")
