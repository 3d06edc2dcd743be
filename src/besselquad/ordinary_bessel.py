"""Ordinary Bessel functions J_n and verification of the translated
integral identities.

Unlike the spherical case, the integral recursions for J_n do not
terminate in elementary functions, so this module is not an evaluation
engine.  It provides a stable J_n evaluator (downward recurrence with
the even-order sum normalization J_0 + 2 J_2 + 2 J_4 + ... = 1) and a
registry of every translated identity, each checkable numerically: the
closed forms by differencing against quadrature, the recursion-type
relations by evaluating both sides with quadrature plus boundary terms.

verify_identity returns the relative residual; anything structurally
wrong in a formula shows up many orders of magnitude above the 1e-8
acceptance threshold, and a quadrature that misses its tolerance raises
NotConvergedError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .quadrature import adaptive_quad, require_converged
from .sph_bessel import _RESCALE_AT
from .types import check_integer, check_limits, check_real

#: besselJ refuses x above this: the Miller walk starts near 1.2 x, so its
#: cost grows with x (about 0.3 s at the bound)
_X_MAX = 1e6


def _J_list(nmax: int, x: float) -> list:
    """J_0(x) .. J_nmax(x) as a list of Python floats, by Miller's
    downward recurrence normalised by J_0 + 2 J_2 + 2 J_4 + ... = 1."""
    if not 0 <= x <= _X_MAX:  # the residuals pass computed scale * x
        raise DomainError(f"besselJ requires 0 <= x <= {_X_MAX:g}, got {x}")
    if x == 0.0:
        return [1.0] + [0.0] * nmax
    out = [0.0] * (nmax + 1)
    start = max(nmax, int(math.ceil(x))) + 40 + max(nmax, int(x)) // 5
    jp = 0.0
    jc = 1.0
    ssum = 2.0 * jc if start % 2 == 0 else 0.0
    for m in range(start, 0, -1):
        jm = (2.0 * m / x) * jc - jp
        jp, jc = jc, jm
        idx = m - 1
        if idx <= nmax:
            out[idx] = jm
        if idx == 0:
            ssum += jm
        elif idx % 2 == 0:
            ssum += 2.0 * jm
        if abs(jm) > _RESCALE_AT:
            jp /= _RESCALE_AT
            jc /= _RESCALE_AT
            ssum /= _RESCALE_AT
            if idx <= nmax:
                out[idx:] = [v / _RESCALE_AT for v in out[idx:]]
    return [v / ssum for v in out]


def besselJ(order: int, x: float) -> float:
    """Ordinary Bessel function J_order(x) for integer order >= 0 and
    0 <= x <= 1e6."""
    order = check_integer("order", order, 0)
    return _J_list(order, check_real("x", x, 0.0, _X_MAX))[order]


def _J(order: int, x: float) -> float:
    # negative integer orders through the reflection J_{-n} = (-1)^n J_n
    v = _J_list(abs(order), x)[abs(order)]
    return -v if order < 0 and order % 2 else v


@dataclass(frozen=True)
class AppendixIdentity:
    """One translated identity together with its parameters: integer
    n, k and l and finite real alpha and beta, checked on construction."""

    id: str
    n: int = 0
    k: int = 0
    l: int = 1
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        for name in ("n", "k", "l"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
        for name in ("alpha", "beta"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))


def _integral(n: int, factors, a: float, b: float, tol: float) -> float:
    """int_a^b x^n prod J_order(scale x) dx by adaptive quadrature, over
    the (order, scale) factors, as in IntegralSpec.factors, with pi over
    the fastest scale as adaptive_quad's initial_max_width."""
    import numpy as np

    def f(xs):
        out = xs**n
        for order, scale in factors:
            out = out * np.array([_J(order, scale * x) for x in xs.tolist()])
        return out

    width = math.pi / max(max(abs(scale) for _, scale in factors), 1e-6)
    q = adaptive_quad(f, a, b, tol=tol, vectorized=True, initial_max_width=width)
    return require_converged(q, tol).value


def _rel(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(rhs))


# --- single Bessel -----------------------------------------------------------

def _r_single_recursion(p, a, b, tol):
    n, l = p.n, p.l
    lhs = _integral(n, [(l, 1)], a, b, tol)
    rhs = (l + n - 1) * _integral(n - 1, [(l - 1, 1)], a, b, tol)
    rhs -= b**n * _J(l - 1, b) - a**n * _J(l - 1, a)
    return _rel(lhs, rhs)


def _r_single_l_plus_1(p, a, b, tol):
    l = p.l
    q = _integral(l + 1, [(l, 1)], a, b, tol)
    F = lambda x: x ** (l + 1) * _J(l + 1, x)
    return _rel(F(b) - F(a), q)


def _r_single_l_plus_3(p, a, b, tol):
    l = p.l
    q = _integral(l + 3, [(l, 1)], a, b, tol)
    F = lambda x: x ** (2 + l) * (2 * (l + 1) * _J(l + 2, x) - x * _J(l + 3, x))
    return _rel(F(b) - F(a), q)


def _r_single_1_minus_l(p, a, b, tol):
    l = p.l
    q = _integral(1 - l, [(l, 1)], a, b, tol)
    # constant 2^-l / Gamma(l) cancels in the difference but is kept so the
    # a -> 0 limit of F matches the integral from 0
    F = lambda x: 2.0 ** (-l) / math.gamma(l) - x ** (1 - l) * _J(l - 1, x)
    return _rel(F(b) - F(a), q)


# --- Bessel squared ----------------------------------------------------------

def _r_squared_recursion(p, a, b, tol):
    n, l = p.n, p.l
    lhs = _integral(n, [(l, 1), (l, 1)], a, b, tol)
    rhs = _integral(n, [(l - 1, 1), (l - 1, 1)], a, b, tol)
    rhs += 0.5 * (n - 1) * (2 * l + n - 3) * _integral(n - 2, [(l - 1, 1), (l - 1, 1)], a, b, tol)
    F = lambda x: 0.5 * (1 - n) * x ** (n - 1) * _J(l - 1, x) ** 2 - x**n * _J(l, x) * _J(
        l - 1, x
    )
    rhs += F(b) - F(a)
    return _rel(lhs, rhs)


def _r_squared_minus_2(p, a, b, tol):
    l = p.l
    q = _integral(-2, [(l, 1), (l, 1)], a, b, tol)

    def F(x):
        jm, jl = _J(l - 1, x), _J(l, x)
        return (
            2 * x * x * jm * jm
            - (4 * l - 2) * x * jm * jl
            + (2 * x * x + 1 - 2 * l) * jl * jl
        ) / (x * (4 * l * l - 1))

    return _rel(F(b) - F(a), q)


def _r_squared_1_minus_2l(p, a, b, tol):
    l = p.l
    q = _integral(1 - 2 * l, [(l, 1), (l, 1)], a, b, tol)

    def F(x):
        jm, jl = _J(l - 1, x), _J(l, x)
        return 2.0 / (4.0**l * (2 * l - 1) * math.gamma(l) ** 2) - x ** (
            2 * (1 - l)
        ) * (jm * jm + jl * jl) / (2.0 * (2 * l - 1))

    return _rel(F(b) - F(a), q)


def _r_squared_x(p, a, b, tol):
    l = p.l
    q = _integral(1, [(l, 1), (l, 1)], a, b, tol)
    F = lambda x: 0.5 * x * x * (_J(l, x) ** 2 - _J(l - 1, x) * _J(l + 1, x))
    return _rel(F(b) - F(a), q)


def _r_squared_x3(p, a, b, tol):
    l = p.l
    q = _integral(3, [(l, 1), (l, 1)], a, b, tol)

    def F(x):
        jm, jl = _J(l - 1, x), _J(l, x)
        return (
            x
            / 6.0
            * (
                -(l + 1) * (4 * l * l - 4 * l + 2 * x * x) * jl * jm
                + x * (2 * l * l + x * x - 2) * jm * jm
                + x * (2 * l * l + 2 * l + x * x) * jl * jl
            )
        )

    return _rel(F(b) - F(a), q)


def _r_squared_2l_plus_1(p, a, b, tol):
    l = p.l
    q = _integral(2 * l + 1, [(l, 1), (l, 1)], a, b, tol)
    F = lambda x: x ** (2 * l + 2) / (2.0 * (2 * l + 1)) * (
        _J(l, x) ** 2 + _J(l + 1, x) ** 2
    )
    return _rel(F(b) - F(a), q)


# --- two Bessels, same order -------------------------------------------------

def _r_same_recursion(p, a, b, tol):
    n, l, al, be = p.n, p.l, p.alpha, p.beta
    lhs = 2 * al * be * _integral(n, [(l, al), (l, be)], a, b, tol)
    rhs = (al * al + be * be) * _integral(n, [(l - 1, al), (l - 1, be)], a, b, tol)
    rhs += (n - 1) * (n + 2 * l - 3) * _integral(n - 2, [(l - 1, al), (l - 1, be)], a, b, tol)

    def F(x):
        return (1 - n) * x ** (n - 1) * _J(l - 1, al * x) * _J(l - 1, be * x) - x**n * (
            be * _J(l - 1, al * x) * _J(l, be * x)
            + al * _J(l, al * x) * _J(l - 1, be * x)
        )

    rhs += F(b) - F(a)
    return _rel(lhs, rhs)


def _r_same_x(p, a, b, tol):
    l, al, be = p.l, p.alpha, p.beta
    q = _integral(1, [(l, al), (l, be)], a, b, tol)
    F = lambda x: x / (al * al - be * be) * (
        be * _J(l, al * x) * _J(l - 1, be * x) - al * _J(l - 1, al * x) * _J(l, be * x)
    )
    return _rel(F(b) - F(a), q)


# --- two Bessels, different order --------------------------------------------

def _r_diff_recursion(p, a, b, tol):
    n, k, l, al, be = p.n, p.k, p.l, p.alpha, p.beta
    lhs = _integral(n, [(k, al), (l, be)], a, b, tol)
    rhs = 2 * (l - 1) / be * _integral(n - 1, [(k, al), (l - 1, be)], a, b, tol)
    rhs -= _integral(n, [(k, al), (l - 2, be)], a, b, tol)
    return _rel(lhs, rhs)


def _r_diff_closure(p, a, b, tol):
    n, l, al, be = p.n, p.l, p.alpha, p.beta
    lhs = n * _integral(n, [(l - 1, al), (l, be)], a, b, tol)
    F = lambda x: x ** (n + 1) * _J(l - 1, al * x) * _J(l, be * x)
    rhs = F(b) - F(a)
    rhs += al * _integral(n + 1, [(l, al), (l, be)], a, b, tol)
    rhs -= be * _integral(n + 1, [(l - 1, al), (l - 1, be)], a, b, tol)
    return _rel(lhs, rhs)


def _r_diff_combined(p, a, b, tol):
    k, l, al, be = p.k, p.l, p.alpha, p.beta
    lhs = (al * al - be * be) * _integral(1, [(k, al), (l, be)], a, b, tol)
    rhs = (k * k - l * l) * _integral(-1, [(k, al), (l, be)], a, b, tol)

    def F(x):
        return (
            be * x * _J(k, al * x) * _J(l - 1, be * x)
            - al * x * _J(k - 1, al * x) * _J(l, be * x)
            + (k - l) * _J(k, al * x) * _J(l, be * x)
        )

    rhs += F(b) - F(a)
    return _rel(lhs, rhs)


# --- two Bessels, equal argument ---------------------------------------------

def _r_equal_adjacent(p, a, b, tol):
    n, l = p.n, p.l
    lhs = _integral(n, [(l - 1, 1), (l, 1)], a, b, tol)
    rhs = (l + 0.5 * n - 1) * _integral(n - 1, [(l - 1, 1), (l - 1, 1)], a, b, tol)
    F = lambda x: 0.5 * x**n * _J(l - 1, x) ** 2
    rhs -= F(b) - F(a)
    return _rel(lhs, rhs)


def _r_equal_over_x(p, a, b, tol):
    k, l = p.k, p.l
    q = _integral(-1, [(k, 1), (l, 1)], a, b, tol)

    def F(x):
        return (
            x * (_J(k - 1, x) * _J(l, x) - _J(k, x) * _J(l - 1, x))
            + (l - k) * _J(k, x) * _J(l, x)
        ) / (k * k - l * l)

    return _rel(F(b) - F(a), q)


def _r_equal_over_x2(p, a, b, tol):
    k, l = p.k, p.l
    q = _integral(-2, [(k, 1), (l, 1)], a, b, tol)

    def F(x):
        jk, jl = _J(k, x), _J(l, x)
        jkp, jlp = _J(k + 1, x), _J(l + 1, x)
        return (
            jk * jl / (x * (k + l - 1))
            - jkp * jl / ((1 + k - l) * (k + l - 1))
            - jk * jlp / ((1 + l - k) * (k + l - 1))
            + 2
            * x
            * (jkp * jlp + jk * jl)
            / ((k + l - 1) * (k + l + 1) * (1 + k - l) * (1 + l - k))
        )

    return _rel(F(b) - F(a), q)


def _r_equal_1_minus_kl(p, a, b, tol):
    k, l = p.k, p.l
    q = _integral(1 - k - l, [(k, 1), (l, 1)], a, b, tol)

    def F(x):
        return 1.0 / (
            2.0 ** (k + l - 1) * (k + l - 1) * math.gamma(k) * math.gamma(l)
        ) - x ** (2 - k - l) * (
            _J(k - 1, x) * _J(l - 1, x) + _J(k, x) * _J(l, x)
        ) / (2.0 * (k + l - 1))

    return _rel(F(b) - F(a), q)


def _r_equal_l_minus_k(p, a, b, tol):
    k, l = p.k, p.l
    q = _integral(l - k + 1, [(k, 1), (l, 1)], a, b, tol)
    F = lambda x: x ** (l - k + 2) / (2.0 * (k - l - 1)) * (
        _J(k - 1, x) * _J(l + 1, x) - _J(k, x) * _J(l, x)
    )
    return _rel(F(b) - F(a), q)


def _r_equal_k_plus_l(p, a, b, tol):
    k, l = p.k, p.l
    q = _integral(k + l + 1, [(k, 1), (l, 1)], a, b, tol)
    F = lambda x: x ** (k + l + 2) / (2.0 * (k + l + 1)) * (
        _J(k + 1, x) * _J(l + 1, x) + _J(k, x) * _J(l, x)
    )
    return _rel(F(b) - F(a), q)


#: id -> residual function; this is the complete set of translated identities
IDENTITY_REGISTRY = {
    "single-recursion": _r_single_recursion,
    "single-x^(l+1)": _r_single_l_plus_1,
    "single-x^(l+3)": _r_single_l_plus_3,
    "single-x^(1-l)": _r_single_1_minus_l,
    "squared-recursion": _r_squared_recursion,
    "squared-x^-2": _r_squared_minus_2,
    "squared-x^(1-2l)": _r_squared_1_minus_2l,
    "squared-x": _r_squared_x,
    "squared-x^3": _r_squared_x3,
    "squared-x^(2l+1)": _r_squared_2l_plus_1,
    "same-recursion": _r_same_recursion,
    "same-x": _r_same_x,
    "diff-recursion": _r_diff_recursion,
    "diff-closure": _r_diff_closure,
    "diff-combined": _r_diff_combined,
    "equal-adjacent": _r_equal_adjacent,
    "equal-1/x": _r_equal_over_x,
    "equal-1/x^2": _r_equal_over_x2,
    "equal-x^(1-k-l)": _r_equal_1_minus_kl,
    "equal-x^(l-k+1)": _r_equal_l_minus_k,
    "equal-x^(k+l+1)": _r_equal_k_plus_l,
}


def verify_identity(identity: AppendixIdentity, a: float, b: float, tol: float = 1e-11) -> float:
    """Relative residual of one translated identity over [a, b].

    Closed forms are differenced against quadrature of their integrand;
    recursion-type relations have every integral evaluated by quadrature
    and the two sides compared.  Expected below 1e-8 for valid
    parameters.  A quadrature that misses ``tol`` raises
    NotConvergedError instead of giving a residual.
    """
    a, b = check_limits(a, b, 0.0, above=True)
    if identity.id not in IDENTITY_REGISTRY:
        raise DomainError(f"unknown identity {identity.id!r}")
    return IDENTITY_REGISTRY[identity.id](identity, a, b, tol)


def default_suite():
    """Three (identity, interval) settings per registry entry: small
    order, moderate order, wide interval."""
    cases = []

    def add(id_, settings):
        for (params, interval) in settings:
            cases.append((AppendixIdentity(id_, **params), interval))

    single = [
        ({"n": 2, "l": 1}, (1.0, 10.0)),
        ({"n": 3, "l": 5}, (0.5, 20.0)),
        ({"n": 1, "l": 2}, (2.0, 50.0)),
    ]
    add("single-recursion", single)
    add("single-x^(l+1)", [({"l": 1}, (1.0, 10.0)), ({"l": 4}, (0.5, 20.0)), ({"l": 2}, (2.0, 50.0))])
    add("single-x^(l+3)", [({"l": 1}, (1.0, 10.0)), ({"l": 3}, (0.5, 20.0)), ({"l": 2}, (2.0, 50.0))])
    add("single-x^(1-l)", [({"l": 1}, (1.0, 10.0)), ({"l": 5}, (0.5, 20.0)), ({"l": 3}, (2.0, 50.0))])
    add(
        "squared-recursion",
        [({"n": 2, "l": 1}, (1.0, 10.0)), ({"n": 0, "l": 4}, (0.5, 20.0)), ({"n": 3, "l": 2}, (2.0, 50.0))],
    )
    add("squared-x^-2", [({"l": 1}, (1.0, 10.0)), ({"l": 2}, (0.5, 20.0)), ({"l": 3}, (2.0, 50.0))])
    add("squared-x^(1-2l)", [({"l": 1}, (1.0, 10.0)), ({"l": 2}, (0.5, 20.0)), ({"l": 4}, (2.0, 50.0))])
    add("squared-x", [({"l": 1}, (1.0, 10.0)), ({"l": 2}, (0.5, 20.0)), ({"l": 5}, (2.0, 50.0))])
    add("squared-x^3", [({"l": 1}, (1.0, 10.0)), ({"l": 3}, (0.5, 20.0)), ({"l": 2}, (2.0, 50.0))])
    add("squared-x^(2l+1)", [({"l": 0}, (1.0, 10.0)), ({"l": 2}, (0.5, 20.0)), ({"l": 1}, (2.0, 40.0))])
    same = [
        ({"n": 2, "l": 1, "alpha": 1.0, "beta": 2.0}, (1.0, 10.0)),
        ({"n": 0, "l": 3, "alpha": 0.7, "beta": 1.9}, (0.5, 20.0)),
        ({"n": 1, "l": 2, "alpha": 1.3, "beta": 0.6}, (2.0, 40.0)),
    ]
    add("same-recursion", same)
    add(
        "same-x",
        [
            ({"l": 1, "alpha": 1.0, "beta": 2.0}, (1.0, 10.0)),
            ({"l": 4, "alpha": 0.8, "beta": 1.7}, (0.5, 20.0)),
            ({"l": 2, "alpha": 2.2, "beta": 1.1}, (2.0, 40.0)),
        ],
    )
    add(
        "diff-recursion",
        [
            ({"n": 1, "k": 0, "l": 2, "alpha": 1.0, "beta": 1.5}, (1.0, 10.0)),
            ({"n": 0, "k": 1, "l": 4, "alpha": 0.9, "beta": 2.1}, (0.5, 20.0)),
            ({"n": 2, "k": 2, "l": 5, "alpha": 1.4, "beta": 0.8}, (2.0, 40.0)),
        ],
    )
    add(
        "diff-closure",
        [
            ({"n": 2, "l": 1, "alpha": 1.0, "beta": 2.0}, (1.0, 10.0)),
            ({"n": 3, "l": 3, "alpha": 0.7, "beta": 1.6}, (0.5, 20.0)),
            ({"n": 1, "l": 2, "alpha": 1.8, "beta": 0.9}, (2.0, 40.0)),
        ],
    )
    add(
        "diff-combined",
        [
            ({"k": 1, "l": 2, "alpha": 1.0, "beta": 2.0}, (1.0, 10.0)),
            ({"k": 2, "l": 4, "alpha": 0.8, "beta": 1.5}, (0.5, 20.0)),
            ({"k": 1, "l": 3, "alpha": 2.0, "beta": 1.2}, (2.0, 40.0)),
        ],
    )
    add(
        "equal-adjacent",
        [({"n": 2, "l": 1}, (1.0, 10.0)), ({"n": 1, "l": 3}, (0.5, 20.0)), ({"n": 0, "l": 2}, (2.0, 50.0))],
    )
    add("equal-1/x", [({"k": 1, "l": 2}, (1.0, 10.0)), ({"k": 2, "l": 4}, (0.5, 20.0)), ({"k": 0, "l": 3}, (2.0, 50.0))])
    add("equal-1/x^2", [({"k": 0, "l": 2}, (1.0, 10.0)), ({"k": 1, "l": 4}, (0.5, 20.0)), ({"k": 2, "l": 5}, (2.0, 50.0))])
    add("equal-x^(1-k-l)", [({"k": 1, "l": 2}, (1.0, 10.0)), ({"k": 2, "l": 3}, (0.5, 20.0)), ({"k": 1, "l": 4}, (2.0, 50.0))])
    add("equal-x^(l-k+1)", [({"k": 0, "l": 2}, (1.0, 10.0)), ({"k": 1, "l": 3}, (0.5, 20.0)), ({"k": 2, "l": 4}, (2.0, 40.0))])
    add("equal-x^(k+l+1)", [({"k": 0, "l": 1}, (1.0, 10.0)), ({"k": 1, "l": 2}, (0.5, 20.0)), ({"k": 2, "l": 3}, (2.0, 30.0))])
    return cases


def verify_suite(tol: float = 1e-11):
    """Run the default suite; returns a list of (identity, (a, b), residual)."""
    return [(i, (a, b), verify_identity(i, a, b, tol)) for i, (a, b) in default_suite()]
