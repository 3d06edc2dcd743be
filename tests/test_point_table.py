"""One per-point table serves every exponent: its values are bitwise the
ones a fresh table per exponent returns, whatever order the exponents
are asked in."""

import itertools

import pytest

from besselquad import (
    BesselQuadError,
    IntegralSpec,
    eval_H,
    eval_I,
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
        return eval_I(n, spec.l, x, spec.alpha).value
    if spec.family == "H":
        return eval_H(n, spec.l, x, spec.alpha, closed_forms).value
    if spec.family == "K":
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
        assert table.value(n) == -eval_H(n, 3, x, 1.2).value


@pytest.mark.parametrize(
    "spec, path",
    [
        (IntegralSpec("H", 0, 3, 1.2), "recursion+exponent"),  # the band
        (IntegralSpec("H", 2, 3, 1.2), "recursion+closed"),  # H3
        (IntegralSpec("H", -3, 3, 1.2), "recursion+closed"),  # the triangle, H2 at l = 2
        (IntegralSpec("H", -7, 3, 1.2), "recursion"),  # the triangle
        (IntegralSpec("H", 0, 0, 1.2), "base"),
        (IntegralSpec("K", 0, 3, 1.2, beta=-1.2), "recursion+exponent"),  # H's table
        (IntegralSpec("K", 2, 3, 1.2, beta=0.7), "recursion+closed"),  # K2
        (IntegralSpec("K", 1, 3, 1.2, beta=0.7), "recursion"),
        (IntegralSpec("L", 1, 3, 1.2, k=1, beta=0.7), "recursion+closed"),  # the closure
        (IntegralSpec("L", 2, 3, 1.2, k=1, beta=0.7), "recursion+closed"),  # ladder and K2
        (IntegralSpec("L", 1, 3, 1.2, k=0, beta=0.7), "recursion"),  # the L01 base
        (IntegralSpec("L", 1, 3, 1.2, k=1, beta=1.2), "equal-args"),
        (IntegralSpec("I", 0, 3, 1.2), "recursion+closed"),  # a vanishing coefficient
        (IntegralSpec("I", 1, 3, 1.2), "recursion"),
        (IntegralSpec("I", 0, 0, 1.2), "base"),
    ],
    ids=repr,
)
def test_one_table_one_route(spec, path):
    # each evaluator that reaches a table reports that table's route
    x, n = 9.0, spec.n
    table = point_table(spec, x)
    table.value(n)
    if spec.family == "I":
        assert {table.path, eval_I(n, spec.l, x, spec.alpha).path} == {path}
        return
    (k, alpha), (l, beta) = spec.factors[-2:]
    paths = {table.path, eval_L(n, k, l, x, alpha, beta).path}
    if spec.family == "H":
        paths.add(eval_H(n, l, x, alpha).path)
    if k == l:
        paths.add(eval_K(n, l, x, alpha, beta).path)
    assert paths == {path}


@pytest.mark.parametrize("closed_forms", [True, False])
@pytest.mark.parametrize("route", ["point_table", "antiderivative"])
def test_truncated_I_walk_reads_no_trig_base(route, closed_forms, monkeypatch):
    # n = 0, l = 3 stops at the first vanishing coefficient (I's closed
    # form) and reads no X_m; I has that one route, whatever closed_forms
    # the two-factor tables are given
    spec, x = IntegralSpec("I", 0, 3), 20.0
    want = eval_I(0, 3, x)
    calls = []
    read_X = ITable._X
    monkeypatch.setattr(ITable, "_X", lambda self, m: calls.append(m) or read_X(self, m))
    if route == "point_table":
        table = point_table(spec, x, closed_forms)
        got = table.value(0)
        assert table.path == want.path == "recursion+closed"
    else:
        got = antiderivative(spec, x, closed_forms)
    assert calls == []
    assert got.hex() == want.value.hex()
    # an exponent whose coefficients never vanish reads the base once
    point_table(spec, x, closed_forms).value(1)
    assert len(calls) == 1


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
