"""One per-point table serves every exponent: its values are bitwise the
ones a fresh table per exponent returns, whatever order the exponents
are asked in."""

import itertools

import pytest

from besselquad import (
    BesselQuadError,
    IntegralSpec,
    eval_H_scaled,
    eval_I,
    eval_I_scaled,
    eval_K,
    eval_L,
)
from besselquad.mixed_order import LEqualTable, LTable
from besselquad.quadrature import antiderivative, point_table
from besselquad.same_order import KTable
from besselquad.single_bessel import ITable
from besselquad.squared_bessel import HTable

EXPONENTS = range(-2, 4)

SPECS = [
    *(IntegralSpec("I", 0, l, al) for l in (0, 1, 4) for al in (1.3, -1.3)),
    *(IntegralSpec("H", 0, l, al) for l in (0, 2, 3) for al in (0.9, -0.9)),
    # distinct scales, negative ones, and |alpha| = |beta| routed to H
    *(
        IntegralSpec("K", 0, l, al, beta=be)
        for l in (0, 1, 3)
        for al, be in ((1.3, 0.7), (-0.7, 1.3), (1.2, -1.2), (-1.2, -1.2))
    ),
    # k < l, k > l, equal orders, equal arguments, negative scales
    *(
        IntegralSpec("L", 0, l, al, k=k, beta=be)
        for k, l in ((0, 1), (1, 4), (4, 1), (2, 2), (0, 3))
        for al, be in ((1.3, 0.7), (-0.7, 1.3), (1.1, 1.1), (1.1, -1.1))
    ),
]


def _outcome(fn):
    try:
        return fn()
    except BesselQuadError as exc:
        return type(exc)


def _public(spec, x, closed_forms):
    """The family's own public evaluator, which builds a fresh table."""
    n = spec.n
    if spec.family == "I":
        return eval_I_scaled(n, spec.l, x, spec.alpha).value
    if spec.family == "H":
        return eval_H_scaled(n, spec.l, x, spec.alpha, closed_forms).value
    if spec.family == "K" and abs(spec.alpha) != abs(spec.beta):
        return eval_K(n, spec.l, x, spec.alpha, spec.beta, closed_forms).value
    k = spec.orders[0]
    return eval_L(n, k, spec.l, x, spec.alpha, spec.beta, closed_forms).value


@pytest.mark.parametrize("spec", SPECS, ids=repr)
@pytest.mark.parametrize("x", [0.6, 7.3, 41.0])
def test_shared_table_is_bitwise_the_fresh_one(spec, x):
    for closed_forms in (True, False):
        fresh = {}
        for n in EXPONENTS:
            s = IntegralSpec(spec.family, n, spec.l, spec.alpha, k=spec.k, beta=spec.beta)
            fresh[n] = _outcome(lambda: antiderivative(s, x, closed_forms))
            assert fresh[n] == _outcome(lambda: _public(s, x, closed_forms))
        for order in (list(EXPONENTS), list(reversed(EXPONENTS))):
            table = point_table(spec, x, closed_forms)
            got = {n: _outcome(lambda: table.value(n)) for n in order}
            assert got == fresh


def test_tables_memo_builds_one_table_per_point():
    spec = IntegralSpec("L", 0, 3, 1.3, k=1, beta=0.7)
    tables = {}
    for n, x in itertools.product(EXPONENTS, (9.0, 12.5)):
        s = IntegralSpec("L", n, 3, 1.3, k=1, beta=0.7)
        assert antiderivative(s, x, tables=tables) == antiderivative(s, x)
    assert sorted(tables) == [9.0, 12.5]
    assert type(tables[9.0]) is type(point_table(spec, 9.0))


def test_equal_magnitude_K_gets_the_H_table_with_the_parity_sign():
    x = 6.1
    table = point_table(IntegralSpec("K", 0, 3, 1.2, beta=-1.2), x)
    assert isinstance(table, HTable) and table.sign == -1.0
    for n in EXPONENTS:
        assert table.value(n) == -eval_H_scaled(n, 3, x, 1.2).value


@pytest.mark.parametrize("route", ["point_table", "antiderivative"])
def test_closed_forms_off_walks_I_to_its_trig_base(route, monkeypatch):
    # n = 0, l = 3 stops at the first vanishing coefficient (I's closed
    # form) and reads no X_m; closed_forms=False walks on to the base
    spec, x = IntegralSpec("I", 0, 3), 20.0
    want = eval_I(0, 3, x, closed_forms=False).value
    calls = []
    read_X = ITable._X
    monkeypatch.setattr(ITable, "_X", lambda self, m: calls.append(m) or read_X(self, m))
    point_table(spec, x).value(0)
    assert calls == []
    if route == "point_table":
        got = point_table(spec, x, closed_forms=False).value(0)
    else:
        got = antiderivative(spec, x, closed_forms=False)
    assert len(calls) == 1
    assert got.hex() == want.hex()


@pytest.mark.parametrize("x", [0.0, -1.0, float("nan")])
def test_point_must_be_positive(x):
    with pytest.raises(BesselQuadError):
        point_table(IntegralSpec("I", 0, 1), x)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ITable(3, 7.5, 1.3),
        lambda: HTable(7.5, 4),
        lambda: KTable(7.5, 1.3, 0.7, 4),
        lambda: LTable(7.5, 1, 4, 1.3, 0.7),
        lambda: LEqualTable(7.5, 1, 4),
        lambda: LTable(7.5, 3, 4, 1.3, 0.7),
        lambda: LTable(7.5, 3, 4, 1.3, 0.7, False),
    ],
    ids=["I", "H", "K", "L", "L-equal", "adjacent-closure", "adjacent-ladder"],
)
def test_table_values_are_python_floats(make):
    # the j tables are float lists, so no walk runs numpy scalar arithmetic
    table = make()
    for n in (0, 2, 3):
        assert type(table.value(n)) is float
