"""The public scalar evaluators return a finite float or raise a
BesselQuadError: an argument out of range, a value or term that overflows
a float, and a NaN all end as a DomainError naming the call, never as a
bare ValueError or OverflowError or as inf or nan."""

import itertools
import math

import pytest

import besselquad as bq
from besselquad import BesselQuadError, DomainError

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
    "base_L01": lambda n, x: bq.base_L01(n, x, 1.3, 0.7),
    "base_L01_equal": bq.base_L01_equal,
    "int_pow_sin": lambda n, x: bq.int_pow_sin(n, 1.3, x),
    "int_pow_cos": lambda n, x: bq.int_pow_cos(n, -0.7, x),
    "eval_scaled_X_series": lambda n, x: bq.eval_scaled_X_series(n, 1.3, x),
    "eval_scaled_Y_series": lambda n, x: bq.eval_scaled_Y_series(n, 1.3, x),
    "eval_X": bq.eval_X,
    "eval_Y": bq.eval_Y,
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
        (lambda: bq.si(math.inf), "si requires 0 <= x < inf, got inf"),
        (lambda: bq.ci(math.nan), "ci requires a finite x, got nan"),
        (lambda: bq.j_extended(-1, math.inf), "requires a finite x, got inf"),
        (lambda: bq.j_extended(-1, 1e-320), r"j_extended\(-1, 1e-320\): its terms overflow"),
        (lambda: bq.closed_H("H2", 3, 1e-320), r"closed_H\('H2', 3, 1e-320\): its terms overflow"),
        (lambda: bq.int_pow_sin(400, 1.3, 0.0), r"int_pow_sin\(400, 1.3, 0.0\): its terms overflow"),
        (lambda: bq.eval_pair(400, 0.7), r"eval_pair\(400, 0.7, True\): its terms overflow"),
        (lambda: bq.small_x_leading(3, 1e200), r"small_x_leading\(3, 1e\+200\): its terms"),
        (lambda: bq.small_x_leading(0, math.nan), "small_x_leading requires a finite x, got nan"),
        (lambda: bq.small_x_leading(0, math.inf), "small_x_leading requires a finite x, got inf"),
    ],
    ids=[
        "si-inf", "ci-nan", "j_ext-inf", "j_ext-tiny", "H2", "int_pow_sin", "pair", "leading",
        "leading-0-nan", "leading-0-inf",
    ],
)
def test_error_names_the_call(call, text):
    with pytest.raises(DomainError, match=text):
        call()


def test_finite_values_are_untouched():
    # finite neighbours of the refused calls keep their values
    assert bq.eval_Y(400, 0.0) == 0.0  # Y_400(0) = 400! sin(200 pi), though X_400(0) overflows
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
        lambda: bq.eval_X(1.5, 1.0),
        lambda: bq.int_pow_sin(1.5, 1.0, 1.0),
        lambda: bq.eval_scaled_X_series(1.5, 1.0, 0.1),
        lambda: bq.besselJ(2.5, 1.0),
        lambda: bq.besselJ(True, 1.0),
    ],
    ids=[
        "j_many-neg1", "j_many-neg2", "j_many-neg1-at-0", "j_many-neg1-small", "j-bool",
        "j_array-bool", "j_many-bool", "j_array-float", "j_extended-float", "leading-float",
        "pair-float", "X-float", "int_pow_sin-float", "scaled_X-float", "besselJ-float",
        "besselJ-bool",
    ],
)
def test_orders_and_exponents_are_integers(call):
    # the one integer rule of IntegralSpec: operator.index, booleans
    # refused, and orders at least 0
    with pytest.raises(DomainError, match="must be an integer"):
        call()
