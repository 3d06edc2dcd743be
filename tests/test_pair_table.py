"""A per-point table across a pair of points (a, b) holds F(b) - F(a) in
one walk: its values agree with the difference of two one-point tables,
it stores the cells a one-point table stores and no more, it refuses
where the two tables refuse, and definite_integral takes it, one
antiderivative call per analytic segment."""

import pytest

from besselquad import (
    BesselQuadError,
    DomainError,
    IntegralSpec,
    antiderivative,
    definite_integral,
    oscillation_threshold,
)
from besselquad import quadrature
from besselquad.mixed_order import LEqualTable, LTable
from besselquad.quadrature import point_table
from besselquad.single_bessel import ITable

#: every kind of table, by the spec that reaches it at order l
KINDS = {
    "I": lambda l: IntegralSpec("I", 0, l, 1.3),
    "I-negative": lambda l: IntegralSpec("I", 0, l, -1.3),
    "H": lambda l: IntegralSpec("H", 0, l, 0.9),
    "K": lambda l: IntegralSpec("K", 0, l, 1.0, beta=1.1),
    "K-negative": lambda l: IntegralSpec("K", 0, l, -1.0, beta=1.1),
    "K-equal-magnitudes": lambda l: IntegralSpec("K", 0, l, 1.2, beta=-1.2),
    "L-adjacent": lambda l: IntegralSpec("L", 0, l, 1.0, k=max(l - 1, 0), beta=1.1),
    "L-levels": lambda l: IntegralSpec("L", 0, l, 1.1, k=max(l - 3, 0), beta=1.0),
    "L-k0": lambda l: IntegralSpec("L", 0, l, 1.0, k=0, beta=1.1),
    "L-equal-arguments": lambda l: IntegralSpec("L", 0, l, 1.1, k=max(l - 2, 0), beta=1.1),
    "L-negative": lambda l: IntegralSpec("L", 0, l, -1.0, k=max(l - 2, 0), beta=-1.1),
}

ORDERS = (0, 1, 5, 16, 25, 40)


def _exponents(kind, l, closed_forms):
    """The exponents whose walks keep their digits at order l.  At l = 40
    the two-scale walks with n <= 2 and H's triangle at n < 0 lose digits
    (ROADMAP item 1), and so does L with k = 0, which climbs 40 orders
    from L01, at every n: the pair and two tables then differ by that
    noise, not by the algebra this file checks."""
    if l <= 25:
        return range(-3, 6)
    if kind == "L-k0":
        return ()
    band = (0, -2) if kind == "H" and closed_forms else ()
    return (*band, 3, 4, 5)


def _intervals(spec):
    t = oscillation_threshold(spec)
    return (1.1 * t, 1.1 * t + 15.0), (2.0 * t, 3.5 * t)


@pytest.mark.parametrize("closed_forms", [True, False], ids=["closed", "plain"])
@pytest.mark.parametrize("l", ORDERS)
@pytest.mark.parametrize("kind", KINDS)
def test_pair_is_the_difference_of_two_tables(kind, l, closed_forms):
    spec = KINDS[kind](l)
    for a, b in _intervals(spec):
        pair = point_table(spec, b, closed_forms, lower=a)
        at_a, at_b = point_table(spec, a, closed_forms), point_table(spec, b, closed_forms)
        assert type(pair) is type(at_b)
        for n in _exponents(kind, l, closed_forms):
            fa, fb = at_a.value(n), at_b.value(n)
            assert abs(pair.value(n) - (fb - fa)) <= 1e-13 * (abs(fa) + abs(fb)), (n, a, b)


def _stored(rows):
    return {(m, lam) for lam, row in enumerate(rows) if row for m in row}


@pytest.mark.parametrize("closed_forms", [True, False], ids=["closed", "plain"])
@pytest.mark.parametrize(
    "kind", ["H", "K", "K-equal-magnitudes", "L-adjacent", "L-levels", "L-k0", "L-equal-arguments"]
)
def test_pair_walks_once(kind, closed_forms):
    # the pair stores the cells of one one-point walk, and the table of
    # its lower point, whose j tables and chains the walk reads, none
    spec = KINDS[kind](9)
    (a, b), _ = _intervals(spec)
    for n in (-2, 0, 1, 3):
        pair, one = point_table(spec, b, closed_forms, lower=a), point_table(spec, b, closed_forms)
        pair.value(n)
        one.value(n)
        tables = [(pair, one)]
        if isinstance(pair, LTable):  # and the K or H table an L table shares
            tables.append((pair.kt, one.kt))
        elif isinstance(pair, LEqualTable):
            tables.append((pair.ht, one.ht))
        for p, o in tables:
            assert _stored(p.rows) == _stored(o.rows), n
            assert p.lower.x == a and not any(p.lower.rows)


def test_I_pair_is_two_sums():
    # I walks no cells: its pair is the sum at b less the sum at a, so
    # it is bitwise the difference of the two sums
    table = ITable(7, 40.0, 1.3, lower=25.0)
    for n in range(-3, 9):
        want = 1.3 ** (-n - 1) * (ITable(7, 40.0, 1.3)._I(n) - ITable(7, 25.0, 1.3)._I(n))
        assert table.value(n) == want


def _outcome(fn):
    try:
        return fn()
    except BesselQuadError as exc:
        return type(exc), str(exc)


def _two_tables(spec, a, b):
    return lambda: antiderivative(spec, b) - antiderivative(spec, a)


@pytest.mark.parametrize(
    "spec, a, b",
    [
        # scales under the degeneracy guard
        (IntegralSpec("K", 0, 3, 1.0, beta=1.0 + 1e-9), 5.0, 9.0),
        (IntegralSpec("L", 0, 1, 1.0, k=0, beta=1.0 + 1e-9), 5.0, 9.0),
        (IntegralSpec("L", 0, 3, 1.0, k=1, beta=1.0 + 1e-9), 5.0, 9.0),
        (IntegralSpec("L", 1, 3, 1.0, k=2, beta=1.0 + 1e-9), 5.0, 9.0),
        # the small-argument guard at both points, and at the lower one only
        (IntegralSpec("H", -4, 2), 0.01, 0.02),
        (IntegralSpec("H", -4, 2), 0.01, 5.0),
        (IntegralSpec("H", -3, 5), 0.01, 5.0),
        (IntegralSpec("I", -3, 0), 0.01, 0.05),
        (IntegralSpec("I", -3, 2, 2.0), 0.01, 5.0),
        (IntegralSpec("L", -4, 3, 1.0, k=1, beta=1.0), 0.02, 5.0),
        (IntegralSpec("K", -4, 3, 0.5, beta=-0.5), 0.05, 0.08),
    ],
    ids=repr,
)
def test_pair_refuses_as_the_two_tables_do(spec, a, b):
    want = _outcome(_two_tables(spec, a, b))
    assert isinstance(want, tuple), "the case must refuse"
    assert _outcome(lambda: antiderivative(spec, b, lower=a)) == want


@pytest.mark.parametrize(
    "spec",
    [
        IntegralSpec("H", -3, 1000),
        IntegralSpec("K", -3, 1000, 1.0, beta=1.3),
        IntegralSpec("L", -3, 1000, 1.0, k=0, beta=1.3),
    ],
    ids=["H", "K", "L"],
)
def test_pair_overflows_as_the_two_tables_do(spec):
    # a thousand levels leave the float range at either point; the pair
    # names both points
    t = oscillation_threshold(spec)
    a, b = 1.5 * t, 1.5 * t + 20.0
    kind, message = _outcome(_two_tables(spec, a, b))
    assert kind is DomainError and message.endswith(f"at x = {b:g}: its terms overflow a float")
    with pytest.raises(DomainError) as info:
        antiderivative(spec, b, lower=a)
    assert str(info.value) == message.replace(
        f"at x = {b:g}", f"at x = {b:g} less its value at x = {a:g}"
    )


def test_tables_memo_keys_a_pair_by_both_points():
    spec = IntegralSpec("L", 0, 3, 1.3, k=1, beta=0.7)
    tables = {}
    for n in range(-2, 4):
        s = IntegralSpec("L", n, 3, 1.3, k=1, beta=0.7)
        assert antiderivative(s, 12.5, tables=tables, lower=9.0) == antiderivative(
            s, 12.5, lower=9.0
        )
        assert antiderivative(s, 12.5, tables=tables) == antiderivative(s, 12.5)
    assert sorted(tables, key=str) == [(9.0, 12.5), 12.5]
    assert type(tables[(9.0, 12.5)]) is type(point_table(spec, 12.5)) is LTable


@pytest.mark.parametrize(
    "spec",
    [
        IntegralSpec("I", 2, 4, 1.3),
        IntegralSpec("H", 0, 6),
        IntegralSpec("K", 1, 6, 1.0, beta=1.4),
        IntegralSpec("L", 0, 6, 1.0, k=3, beta=1.4),
    ],
    ids=["I", "H", "K", "L"],
)
def test_one_antiderivative_call_per_analytic_segment(spec, monkeypatch):
    calls = []
    one = quadrature.antiderivative
    monkeypatch.setattr(
        quadrature, "antiderivative", lambda *args, **kw: calls.append(kw) or one(*args, **kw)
    )
    t = oscillation_threshold(spec)
    r = definite_integral(spec, 0.5 * t, 4.0 * t)
    assert [route for route, _, _ in r.segments] == ["quadrature", "recursion"]
    assert calls == [{"lower": t}]
