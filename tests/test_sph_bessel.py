import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselquad import (
    DomainError,
    first_zero_estimate,
    j,
    j_array,
    j_extended,
    j_many,
    j_parity_extend,
    small_x_leading,
)
from besselquad import sph_bessel
from helpers import richardson_derivative

J2_PI = 3.0 / math.pi**2  # the printed j_2 form at pi: only the cos term survives


def j0_closed(x):
    return math.sin(x) / x


def j1_closed(x):
    return math.sin(x) / x**2 - math.cos(x) / x


def j2_closed(x):
    return (3.0 / x**2 - 1.0) * math.sin(x) / x - 3.0 * math.cos(x) / x**2


class TestPointValues:
    def test_j0_at_pi_is_tiny(self):
        assert abs(j(0, math.pi)) < 1e-15

    def test_j2_at_pi(self):
        assert j(2, math.pi) == pytest.approx(J2_PI, rel=1e-13)

    def test_high_order_at_zero(self):
        assert j(5, 0.0) == 0.0
        assert j(0, 0.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            j(-1, 1.0)
        with pytest.raises(DomainError):
            j(2, -1.0)


class TestParity:
    def test_odd_order_flips(self):
        assert j_parity_extend(1, -math.pi) == -j(1, math.pi)

    def test_even_order_keeps_sign(self):
        assert j_parity_extend(2, -math.pi) == pytest.approx(J2_PI, rel=1e-13)

    def test_zero_argument(self):
        assert j_parity_extend(0, -0.0) == 1.0

    @given(
        l=st.integers(min_value=0, max_value=12),
        x=st.floats(min_value=0.01, max_value=80.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_parity_identity(self, l, x):
        expect = j(l, x) * (-1 if l % 2 else 1)
        assert j_parity_extend(l, -x) == expect


class TestFirstZeroEstimate:
    @pytest.mark.parametrize("l,expect", [(0, 4.75), (10, 15.25), (100, 109.75)])
    def test_linear_fit(self, l, expect):
        assert first_zero_estimate(l) == pytest.approx(expect)


class TestSmallX:
    def test_order_zero_leading_constant(self):
        assert small_x_leading(0, 0.73) == 1.0

    def test_order_one(self):
        lead = small_x_leading(1, 0.01)
        assert lead == pytest.approx(0.01 / 3.0)
        assert j(1, 0.01) == pytest.approx(lead, rel=2e-5)

    def test_order_three(self):
        lead = small_x_leading(3, 0.1)
        assert lead == pytest.approx(1e-3 / 105.0)
        assert j(3, 0.1) == pytest.approx(lead, rel=1e-3)

    @pytest.mark.parametrize("l", [0, 1, 2, 5, 10, 20])
    def test_series_regime(self, l):
        for x in (1e-8, 1e-4, 1e-2):
            if x**l == 0.0:
                continue
            assert j(l, x) == pytest.approx(small_x_leading(l, x), rel=1e-3)


class TestRecursionConsistency:
    @pytest.mark.parametrize("x", [0.5, 2.0, 9.3, 47.0, 200.0])
    def test_three_term_residual(self, x):
        jt = j_array(50, x)
        scale = max(1.0, float(np.max(np.abs(jt))))
        for l in range(2, 51):
            resid = jt[l] - ((2 * l - 1) / x * jt[l - 1] - jt[l - 2])
            assert abs(resid) < 1e-12 * max(1.0, abs(jt[l])) + 1e-15 * scale

    @pytest.mark.parametrize("l", [1, 2, 5, 11])
    @pytest.mark.parametrize("x", [1.3, 6.0, 24.0])
    def test_derivative_recursion(self, l, x):
        # j_l = (l-1)/x j_{l-1} - j'_{l-1}
        d, noise = richardson_derivative(lambda t: j(l - 1, t), x)
        expect = (l - 1) / x * j(l - 1, x) - d
        assert j(l, x) == pytest.approx(expect, rel=1e-6, abs=10 * noise)

    @pytest.mark.parametrize("x", [0.1, 0.7, 3.0, 12.0, 41.0, 100.0])
    def test_printed_closed_forms(self, x):
        # the closed forms cancel at small x, so allow their own roundoff
        eps = 2.3e-16

        def tol(term_sum):
            return 4 * eps * term_sum

        s, c = abs(math.sin(x)), abs(math.cos(x))
        assert j(0, x) == pytest.approx(j0_closed(x), rel=1e-13, abs=1e-15)
        assert j(1, x) == pytest.approx(
            j1_closed(x), rel=1e-13, abs=tol(s / x**2 + c / x)
        )
        assert j(2, x) == pytest.approx(
            j2_closed(x), rel=1e-13, abs=tol((3 / x**2 + 1) * s / x + 3 * c / x**2)
        )


class TestMagnitudeBound:
    @given(
        l=st.integers(min_value=0, max_value=40),
        x=st.floats(min_value=0.0, max_value=300.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_one(self, l, x):
        assert abs(j(l, x)) <= 1.0 + 1e-12


class TestVectorized:
    def test_j_many_matches_scalar(self):
        xs = np.array([0.0, 1e-5, 0.3, 2.0, 5.0, 14.0, 80.0])
        for l in (0, 1, 3, 8):
            vec = j_many(l, xs)
            ref = np.array([j(l, float(x)) for x in xs])
            assert np.allclose(vec, ref, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 5, 8, 12, 20, 25, 30, 40, 80])
    def test_below_margin_is_one_walk_bitwise_equal_to_j(self, l, monkeypatch):
        top = l + sph_bessel.UPWARD_MARGIN
        small = sph_bessel.SMALL_X_SERIES
        xs = np.concatenate([
            # x = 0 and the ascending series, then the Miller walk; at
            # l = 40 the points near 1e-3 pass the rescaling threshold
            [0.0, 1e-9, 0.5 * small, np.nextafter(small, 0.0), small, 1e-3, 2e-3],
            np.linspace(0.01, top, 97, endpoint=False),
            [top - 1e-9, np.nextafter(top, 0.0)],
        ])
        want = np.array([j(l, x) for x in xs.tolist()])

        def per_point(*args):
            raise AssertionError("j_many fell back to the scalar table")

        # every scalar j table (j, j_array) is built by _j_list
        monkeypatch.setattr(sph_bessel, "_j_list", per_point)
        got = j_many(l, xs)
        assert got.tobytes() == want.tobytes()

    def test_j_extended_minus_one(self):
        assert j_extended(-1, 2.0) == pytest.approx(math.cos(2.0) / 2.0)
        with pytest.raises(DomainError):
            j_extended(-1, 0.0)


@pytest.mark.parametrize("l", [0, 3, 15, 40])
def test_scipy_cross_check(l):
    ss = pytest.importorskip("scipy.special")
    for x in (1e-3, 0.5, 7.0, 33.0, 150.0):
        ref = float(ss.spherical_jn(l, x))
        got = j(l, x)
        assert abs(got - ref) <= 1e-12 * max(abs(ref), 1e-2)


@pytest.mark.parametrize("x", [math.inf, math.nan, -1.0])
def test_j_many_refuses_nonfinite_or_negative_arguments(x):
    with pytest.raises(DomainError, match="j_many requires 0 <= x < inf"):
        j_many(2, np.array([1.0, x, 2.0]))


class TestListCore:
    """``_j_list`` is the one j table: j_array wraps it, j and the
    engines' tables index it."""

    @pytest.mark.parametrize(
        "lmax, x",
        [
            (8, 0.0), (8, 5e-5),  # ascending series
            (0, 3.0), (1, 3.0), (12, 40.0), (40, 1e4),  # sinc, upward
            (12, 3.0), (40, 12.0), (80, 0.37),  # Miller
            (300, 1e-3), (700, 1e-3), (700, 0.5),  # Miller, rescaled
        ],
    )
    def test_is_j_array_bitwise_in_python_floats(self, lmax, x):
        got = sph_bessel._j_list(lmax, x)
        assert all(type(v) is float for v in got)
        arr = j_array(lmax, x)
        assert type(arr) is np.ndarray and arr.dtype == np.float64 and arr.shape == (lmax + 1,)
        assert np.array(got).tobytes() == arr.tobytes()
        assert j(lmax, x) == got[lmax]
        if x >= sph_bessel.SMALL_X_SERIES:
            # the normalisation survives the rescaling: j_0 and j_1 as printed
            assert got[0] == pytest.approx(j0_closed(x), rel=1e-13)
            if lmax >= 1:  # the printed j_1 cancels ~1/x^2 ulps at small x
                assert got[1] == pytest.approx(j1_closed(x), rel=1e-9)

    def test_numpy_argument_gives_python_floats(self):
        got = sph_bessel._j_list(5, np.float64(2.5))
        assert all(type(v) is float for v in got)
        assert got == sph_bessel._j_list(5, 2.5)
