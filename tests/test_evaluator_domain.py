"""The public scalar evaluators return a finite float or raise a
BesselQuadError: an argument out of range, a value or term that overflows
a float, and a NaN all end as a DomainError naming the call, never as a
bare ValueError or OverflowError or as inf or nan."""

import itertools
import math

import numpy as np
import pytest

import besselquad as bq
from besselquad import BesselQuadError, DomainError
from helpers import assert_refuses_or_meets

NS = (-5, -1, 0, 2, 7, 400)
XS = (0.0, 1e-320, 1e-8, 0.7, 50.0, 1e200, 1e308, math.inf, math.nan)

EVALUATORS = {
    "si": lambda n, x: bq.si(x),
    "ci": lambda n, x: bq.ci(x),
    "j_extended": bq.j_extended,
    "small_x_leading": bq.small_x_leading,
    **{f"closed_I[{k}]": (lambda k: lambda n, x: bq.closed_I(k, n, x))(k) for k in ("I1", "I2", "I3")},
    **{
        f"closed_H[{k}]": (lambda k: lambda n, x: bq.closed_H(k, n, x))(k)
        for k in ("H1", "H2", "H3", "H4", "H5")
    },
    **{
        f"closed_L_equal[{k}]": (lambda k: lambda n, x: bq.closed_L_equal(k, 1, n, x))(k)
        for k in ("L1", "L2", "L3", "L4", "L5")
    },
    "closed_K2": lambda n, x: bq.closed_K2(n, x, 1.3, 0.7),
    "eval_I": lambda n, x: bq.eval_I(n, 3, x),
    "eval_I[scaled]": lambda n, x: bq.eval_I(n, 3, x, 1.3),
    "eval_H": lambda n, x: bq.eval_H(n, 3, x),
    "eval_H[scaled]": lambda n, x: bq.eval_H(n, 3, x, 1.3),
    "eval_K": lambda n, x: bq.eval_K(n, 2, x, 1.3, 0.7),
    "eval_L": lambda n, x: bq.eval_L(n, 1, 3, x, 1.3, 0.7),
    "eval_L[closure]": lambda n, x: bq.eval_L(n, 1, 2, x, 1.3, 0.7),
    "eval_L[ladder]": lambda n, x: bq.eval_L(n, 1, 2, x, 1.3, 0.7, closed_forms=False),
    "eval_L[equal]": lambda n, x: bq.eval_L(n, 1, 2, x, 1.3, 1.3),
    "eval_L[L01]": lambda n, x: bq.eval_L(n, 0, 1, x, 1.3, 0.7),
    "base_L01_equal": bq.base_L01_equal,
    "int_pow_sin": lambda n, x: bq.int_pow_sin(n, 1.3, x),
    "int_pow_cos": lambda n, x: bq.int_pow_cos(n, -0.7, x),
    "eval_pair": lambda n, x: (lambda p: (p.X, p.Y))(bq.eval_pair(n, x)),
}


@pytest.mark.parametrize("name", EVALUATORS)
def test_finite_float_or_typed_error(name):
    for n, x in itertools.product(NS, XS):
        try:
            v = EVALUATORS[name](n, x)
        except BesselQuadError:
            continue
        values = v if isinstance(v, tuple) else (float(v),)
        assert all(math.isfinite(f) for f in values), (name, n, x, v)


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: bq.si(math.inf), "x must be a real number with 0 <= x < inf, got inf"),
        (lambda: bq.ci(math.nan), "x must be a real number with 0 < x < inf, got nan"),
        (lambda: bq.j_extended(-1, math.inf), "x must be a finite real number, got inf"),
        (lambda: bq.j_extended(-1, 1e-320), r"j_extended\(-1, 1e-320\): its terms overflow"),
        (lambda: bq.closed_H("H2", 3, 1e-320), r"closed_H\('H2', 3, 1e-320\): its terms overflow"),
        (lambda: bq.eval_pair(400, 0.7), r"eval_pair\(400, 0.7\): its terms overflow"),
        (lambda: bq.small_x_leading(3, 1e200), r"small_x_leading\(3, 1e\+200\): its terms"),
        (lambda: bq.small_x_leading(0, math.nan), "x must be a finite real number, got nan"),
        (lambda: bq.small_x_leading(0, math.inf), "x must be a finite real number, got inf"),
    ],
    ids=[
        "si-inf", "ci-nan", "j_ext-inf", "j_ext-tiny", "H2", "pair", "leading",
        "leading-0-nan", "leading-0-inf",
    ],
)
def test_error_names_the_call(call, text):
    with pytest.raises(DomainError, match=text):
        call()


def test_high_exponent_at_zero_is_zero():
    # X_m(0) = Y_m(0) = 0 for m >= 0: no m! constant to overflow
    assert bq.int_pow_sin(400, 1.3, 0.0) == 0.0
    assert bq.int_pow_cos(400, 1.3, 0.0) == 0.0


def test_near_degenerate_high_exponent_overflows_only_in_its_terms():
    # the far base term walks Y_73 at (1 + beta) x = 17 212, whose terms
    # of order u^73 leave the float range
    with pytest.raises(DomainError, match="L antiderivative with n = 76.*its terms overflow"):
        bq.eval_L(76, 0, 1, 8606.03, 1.0, 1.000000001)


#: the public evaluators have no accuracy guard, so a walk whose rounding
#: swamps the value returns that rounding
NO_ACCURACY_GUARD = pytest.mark.xfail(
    strict=True, reason="no accuracy guard: the walk's rounding is returned as the value"
)


@NO_ACCURACY_GUARD
@pytest.mark.parametrize("closed_forms", [True, False], ids=["closure", "ladder"])
def test_noisy_walk_refuses(closed_forms):
    # int_{0.0383}^{0.05} t^218 j_58(t) j_59(beta t) dt is of order
    # 0.05^336, below the float range, and quadrature gives 0.0; the
    # adjacent-order walk reads -2.8e85 (closure) and -1.95e85 (ladder)
    # at 0.0383.  These calls refused while the n! / alpha^(n+1) series
    # constant overflowed; a value must now meet tol or refuse
    beta = 1.000000001
    assert_refuses_or_meets(
        lambda x: bq.eval_L(218, 58, 59, x, 1.0, beta, closed_forms=closed_forms).value,
        0.0383,
        0.05,
        bq.definite_integral(
            bq.IntegralSpec("L", 218, 59, 1.0, k=58, beta=beta), 0.0383, 0.05,
            tol=1e-12, strategy="quadrature",
        ).value,
    )


@pytest.mark.parametrize(
    "n, l, x, alpha, closed_forms",
    [
        pytest.param(-10, 30, 0.06264738300091865, 1.8267598422591373, True,
                     marks=NO_ACCURACY_GUARD, id="n-10-l30-band"),
        pytest.param(-10, 30, 0.06264738300091865, 1.8267598422591373, False,
                     marks=NO_ACCURACY_GUARD, id="n-10-l30-triangle"),
        pytest.param(-18, 57, 0.04444957486329262, 1.814723671190613, True,
                     marks=NO_ACCURACY_GUARD, id="n-18-l57-band"),
        # the triangle's terms overflow at x, a refusal
        pytest.param(-18, 57, 0.04444957486329262, 1.814723671190613, False,
                     id="n-18-l57-triangle"),
    ],
)
def test_far_below_threshold_H_walk_refuses(n, l, x, alpha, closed_forms):
    # far below the first-zero threshold (about 20 and 36 here) the
    # integral over [x, 1.05 x] is below 1e-130, but the H walks at even
    # n <= -4 read their rounding: 7.25 (band) and 7.2e129 (triangle) at
    # x for n = -10, where mpmath gives F(x) = -2.19e-15, and -1.5e13
    # (band) for n = -18; the small-argument guard (2u < 0.1) misses them
    spec = bq.IntegralSpec("H", n, l, alpha)
    assert_refuses_or_meets(
        lambda t: bq.eval_H(n, l, t, alpha, closed_forms).value,
        x,
        1.05 * x,
        bq.definite_integral(spec, x, 1.05 * x, strategy="quadrature").value,
    )


def test_near_degenerate_series_has_no_constant():
    # near-degenerate scales take the scaled trig series, which carries
    # no n! / alpha^(n+1) constant: the values are int_0^x, however small
    # alpha^(n+1) is
    assert bq.int_pow_cos(35, 1e-9, 1.0) == pytest.approx(1 / 36, rel=1e-15)
    assert bq.int_pow_sin(40, 1e-9, 1.0) == pytest.approx(1e-9 / 42, rel=1e-15)
    mpmath = pytest.importorskip("mpmath")
    beta = 1.000000001
    got = bq.eval_K(37, 0, 10.0, 1.0, beta).value - bq.eval_K(37, 0, 5.0, 1.0, beta).value
    with mpmath.workdps(30):
        want = mpmath.quad(
            lambda t: t**37 * mpmath.sinc(t) * mpmath.sinc(beta * t), mpmath.linspace(5, 10, 9)
        )
    assert got == pytest.approx(float(want), rel=1e-12)


def test_finite_values_are_untouched():
    # finite neighbours of the refused calls keep their values
    assert bq.int_pow_cos(400, 1.0, 0.0) == 0.0  # Y_m(0) = 0 for m >= 0
    assert bq.small_x_leading(0, 1e300) == 1.0
    assert bq.j_extended(-1, 2.0) == math.cos(2.0) / 2.0
    assert bq.si(0.0) == 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: bq.j_many(-1, [5.0]),
        lambda: bq.j_many(-2, [5.0]),
        lambda: bq.j_many(-1, [0.0]),
        lambda: bq.j_many(-1, [0.5]),
        lambda: bq.j(True, 1.0),
        lambda: bq.j_array(True, 1.0),
        lambda: bq.j_many(True, [1.0]),
        lambda: bq.j_array(2.5, 1.0),
        lambda: bq.j_extended(1.5, 1.0),
        lambda: bq.small_x_leading(2.5, 1.0),
        lambda: bq.eval_pair(2.5, 1.0),
        lambda: bq.int_pow_sin(1.5, 1.0, 1.0),
        lambda: bq.besselJ(2.5, 1.0),
        lambda: bq.besselJ(True, 1.0),
        lambda: bq.first_zero_estimate(-1),
        lambda: bq.first_zero_estimate(2.5),
        lambda: bq.first_zero_estimate(True),
        lambda: bq.eval_I(1.5, 2, 1.0),
        lambda: bq.eval_I(True, 2, 1.0),
        lambda: bq.j_array(-1, 1.0),
        lambda: bq.eval_I(1, 2.0, 1.0),
        lambda: bq.eval_I(0, False, 1.0),
    ],
    ids=[
        "j_many-neg1", "j_many-neg2", "j_many-neg1-at-0", "j_many-neg1-small", "j-bool",
        "j_array-bool", "j_many-bool", "j_array-float", "j_extended-float", "leading-float",
        "pair-float", "int_pow_sin-float", "besselJ-float",
        "besselJ-bool", "first_zero-neg1", "first_zero-float", "first_zero-bool",
        "eval_I-n-float", "eval_I-n-bool", "j_array-neg1", "eval_I-l-float", "eval_I-l-bool",
    ],
)
def test_orders_and_exponents_are_integers(call):
    # the one integer rule of IntegralSpec: operator.index, booleans
    # refused, and orders at least 0
    with pytest.raises(DomainError, match="must be an integer"):
        call()


#: values that are not real numbers: each is a DomainError naming the argument
NOT_REAL = ("1.0", None, 1j, [1.0], True)
NOT_REAL_IDS = ("str", "None", "complex", "list", "bool")


@pytest.mark.parametrize("x", NOT_REAL, ids=NOT_REAL_IDS)
@pytest.mark.parametrize("name", EVALUATORS)
def test_point_that_is_not_real_is_named(name, x):
    with pytest.raises(DomainError, match=r"^x must be a (finite )?real number"):
        EVALUATORS[name](2, x)


#: f = 1 on [0, 40], the prefactor of the weighted_integral calls below
_ONE = bq.build_interpolant([(0.0, 1.0), (40.0, 1.0)], degree=1)


def _limits_calls():
    spec = bq.IntegralSpec("I", 0, 2)
    calls = {
        "definite_integral": lambda **kw: bq.definite_integral(spec, **{"a": 1.0, "b": 20.0, **kw}),
        "adaptive_quad": lambda **kw: bq.adaptive_quad(math.sin, **{"a": 0.0, "b": 1.0, **kw}),
        "weighted_integral": lambda **kw: bq.weighted_integral(
            _ONE, 2, 1.0, **{"a": 1.0, "b": 20.0, **kw}
        ),
    }
    arguments = {
        "definite_integral": ("a", "b", "tol", "max_evals"),
        "adaptive_quad": ("a", "b", "tol", "initial_max_width", "max_evals"),
        "weighted_integral": ("a", "b", "tol"),
    }
    # initial_max_width=None is its default, one panel per interval; a
    # width that is not positive is refused too
    bad = {
        "initial_max_width": [
            *((v, vid) for v, vid in zip(NOT_REAL, NOT_REAL_IDS) if v is not None),
            (0, "zero"), (-1.0, "negative"),
        ],
    }
    return [
        pytest.param(arg, calls[f], value, id=f"{f}-{arg}-{vid}")
        for f in calls for arg in arguments[f]
        for value, vid in bad.get(arg, zip(NOT_REAL, NOT_REAL_IDS))
    ]


@pytest.mark.parametrize("argument, call, value", _limits_calls())
def test_limit_or_tolerance_that_is_not_real_is_named(argument, call, value):
    kind = "an integer" if argument == "max_evals" else "a (finite )?real number"
    with pytest.raises(DomainError, match=rf"^{argument} must be {kind}"):
        call(**{argument: value})


@pytest.mark.parametrize("xs", [[1.0, 2j], np.array([1.0, 2.0]) + 0j, ["1.0"], "1.0", [True]],
                         ids=["complex-list", "complex-array", "string-list", "string", "bool"])
def test_j_many_refuses_arrays_that_are_not_real(xs):
    with pytest.raises(DomainError, match="xs must be an array of real numbers"):
        bq.j_many(2, xs)


@pytest.mark.parametrize(
    "a, b",
    [(-5.0, 10.0), (0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan),
     (2.0, 1.0), (0.0, 10.0), (1.0, 20.0), (0, 10), (np.float64(30.0), np.float64(40.0))],
)
def test_weighted_integral_refuses_what_definite_integral_refuses(a, b):
    # f = 1 makes weighted_integral the definite integral of j_3 through the
    # same route runner: the same refusal, or the same routes and value
    spec = bq.IntegralSpec("I", 0, 3)
    try:
        got = bq.weighted_integral(_ONE, 3, 1.0, a, b)
    except DomainError as exc:
        with pytest.raises(DomainError) as caught:
            bq.definite_integral(spec, a, b)
        assert str(caught.value) == str(exc)
        return
    want = bq.definite_integral(spec, a, b)
    assert got.segments == want.segments
    assert got.reason == want.reason
    assert abs(got.value - want.value) <= 1e-10 * max(1.0, abs(want.value))


def test_check_real_converts_and_refuses():
    from besselquad.types import check_real

    for v in (2, np.float64(2.0), np.float32(2.0), np.int64(2), 2.0):
        assert type(check_real("v", v)) is float and check_real("v", v) == 2.0
    for v in (np.bool_(True), False, 10**400, "2", 2 + 0j, np.array(2.0), None):
        with pytest.raises(DomainError, match="^v must be a finite real number"):
            check_real("v", v)
    with pytest.raises(DomainError, match=r"^v must be a real number with 0 < v < inf, got 0"):
        check_real("v", 0, 0.0, above=True)
    with pytest.raises(DomainError, match=r"^v must be a real number with 0 <= v <= 1, got 1.5"):
        check_real("v", 1.5, 0.0, 1.0)
    with pytest.raises(DomainError, match=r"^v must be a finite nonzero real number, got 0.0"):
        check_real("v", 0.0, nonzero=True)


#: one spec per table kind: I, H, K, L and equal-argument L
TABLE_SPECS = {
    "I": dict(family="I", n=0, l=3, alpha=2),
    "H": dict(family="H", n=0, l=5, alpha=-2),
    "K": dict(family="K", n=0, l=4, alpha=2, beta=3),
    "L": dict(family="L", n=0, k=2, l=5, alpha=2, beta=-3),
    "L-equal": dict(family="L", n=0, k=2, l=5, alpha=2, beta=2),
}


@pytest.mark.parametrize("convert", [np.float64, int], ids=["float64", "int"])
@pytest.mark.parametrize("kind", TABLE_SPECS)
def test_converted_points_give_the_float_values(kind, convert):
    # a numpy or int point and scales are converted to floats first, so the
    # walks run on Python floats and give bitwise the float-input values
    from besselquad.quadrature import point_table

    def values(spec, x, closed_forms):
        table = point_table(spec, x, closed_forms)
        out = []
        for n in range(-4, 9):
            try:
                out.append(table.value(n).hex())
            except BesselQuadError as exc:
                out.append(type(exc).__name__)
        return out

    fields = TABLE_SPECS[kind]
    floats = bq.IntegralSpec(**{k: float(v) if k in ("alpha", "beta") else v for k, v in fields.items()})
    converted = bq.IntegralSpec(**{k: convert(v) if k in ("alpha", "beta") else v for k, v in fields.items()})
    for x, closed_forms in itertools.product((3, 7, 60), (True, False)):
        want = values(floats, float(x), closed_forms)
        assert values(converted, convert(x), closed_forms) == want
