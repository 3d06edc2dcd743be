"""Stable evaluation of spherical Bessel functions of the first kind.

j_l(x) satisfies the three-term recursion

    j_l(x) = (2l - 1)/x * j_{l-1}(x) - j_{l-2}(x)

which is stable upward only while the order stays below the argument.
Above the argument the minimal solution j_l is swamped by the second
kind y_l, so for x < l + 2 we recurse downward from a starting order
well above l with arbitrary seed values and normalize afterwards
(Miller's algorithm).  The normalization reference is j_0 = sinc or j_1,
whichever is larger in magnitude, so zeros of either do not poison it.

Very small arguments (x < SMALL_X_SERIES) go straight to the ascending
series to avoid 0/0 in the sinc-based seeds.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DomainError
from .types import check_integer, check_real, check_real_array, finite_result

if TYPE_CHECKING:
    import numpy as np

#: below this argument the ascending series is used directly
SMALL_X_SERIES = 1e-4

#: upward recursion is used for x >= l + UPWARD_MARGIN
UPWARD_MARGIN = 2.0

#: rescaling threshold inside the downward recursion
_RESCALE_AT = 1e250


def first_zero_estimate(l: int) -> float:
    """Rough location of the first zero of j_l, from a linear fit over
    0 <= l <= 100.  An overestimate for very low l (j_0 vanishes at pi).
    An order that is not an integer >= 0 is a DomainError."""
    return 4.75 + 1.05 * check_integer("l", l, 0)


@finite_result
def small_x_leading(l: int, x: float) -> float:
    """Leading small-x behavior x^l sqrt(pi) / (2^(l+1) Gamma(l + 3/2)),
    i.e. x^l / (2l+1)!!, for finite x."""
    return _leading(check_integer("l", l, 0), check_real("x", x))


def _leading(l: int, x):
    # small_x_leading's core: _series_value applies it to arrays of x too,
    # which the public, finite-checked form does not take
    out = 1.0
    for m in range(1, l + 1):
        out *= x / (2 * m + 1)
    return out


def _series_value(l: int, x: float) -> float:
    # x^l / (2l+1)!! * (1 - t/(2l+3) + t^2/(2 (2l+3)(2l+5)) - ...), t = x^2/2
    # works elementwise on an array of x as well
    t = 0.5 * x * x
    c1 = -t / (2 * l + 3)
    c2 = t * t / (2.0 * (2 * l + 3) * (2 * l + 5))
    return _leading(l, x) * (1.0 + c1 + c2)


def _j_list(lmax: int, x: float) -> list:
    """j_0(x) .. j_lmax(x) as a list of Python floats: the one j table.

    ``j_array`` wraps it in an array; ``j`` and the per-point tables of
    the engines index it directly, so their recursion walks run on
    Python floats, where an index and a product cost a fraction of a
    numpy scalar's.  x is taken as float(x).
    """
    if not 0 <= x < math.inf:
        raise DomainError(f"j_array requires 0 <= x < inf, got {x}; use j_parity_extend for x < 0")
    x = float(x)
    if x < SMALL_X_SERIES:
        return [_series_value(l, x) for l in range(lmax + 1)]
    s = math.sin(x)
    c = math.cos(x)
    if lmax == 0:
        return [s / x]
    if x >= lmax + UPWARD_MARGIN:
        j0 = s / x
        j1 = s / (x * x) - c / x
        out = [j0, j1]
        for m in range(2, lmax + 1):
            j0, j1 = j1, (2 * m - 1) / x * j1 - j0
            out.append(j1)
        return out
    # downward (Miller) from a safety margin above lmax
    lstart = lmax + max(20, math.ceil(1.5 * lmax))
    out = [0.0] * (lmax + 1)
    jp = 0.0  # j_{m+1}, unnormalized
    jc = 1.0  # j_m, unnormalized
    for m in range(lstart, 0, -1):
        jm = (2 * m + 1) / x * jc - jp
        jp, jc = jc, jm
        idx = m - 1
        if idx <= lmax:
            out[idx] = jm
        if abs(jm) > _RESCALE_AT:
            jp /= _RESCALE_AT
            jc /= _RESCALE_AT
            if idx <= lmax:
                out[idx:] = [v / _RESCALE_AT for v in out[idx:]]
    j0_true = s / x
    j1_true = s / (x * x) - c / x
    if abs(j0_true) >= abs(j1_true):
        scale = j0_true / out[0]
    else:
        scale = j1_true / out[1]
    return [v * scale for v in out]


def j_array(lmax: int, x: float) -> np.ndarray:
    """Table of j_0(x) .. j_lmax(x) at a finite scalar argument x >= 0."""
    import numpy as np

    return np.array(_j_list(check_integer("lmax", lmax, 0), check_real("x", x, 0.0)))


def j(l: int, x: float) -> float:
    """j_l(x) for integer l >= 0 and real 0 <= x < inf."""
    l = check_integer("l", l, 0)
    return _j_list(l, check_real("x", x, 0.0))[l]


def parity_fold(order: int, scale: float) -> tuple:
    """(sign, |scale|) with j_order(scale u) = sign * j_order(|scale| u).

    The one home of the parity rule j_l(-u) = (-1)^l j_l(u): every
    engine and integrand folds a negative scale through it.
    """
    if scale < 0:
        return (-1.0 if order % 2 else 1.0), -scale
    return 1.0, scale


def j_parity_extend(l: int, x: float) -> float:
    """j_l extended to negative arguments via j_l(-x) = (-1)^l j_l(x)."""
    l = check_integer("l", l, 0)
    sign, u = parity_fold(l, check_real("x", x))
    v = _j_list(l, u)[l]
    return -v if sign < 0 else v


def j_many(l: int, xs) -> np.ndarray:
    """Vectorized j_l over an array of finite nonnegative arguments.

    Arguments at or above l + UPWARD_MARGIN are handled with vectorized
    upward recursion; the rest go through ``_j_below_margin``, one
    downward (Miller) recursion over all of them at once, so a call costs
    a fixed number of array steps for its order, whatever the number of
    points.  Below the margin every value is bitwise equal to ``j(l, x)``.
    """
    import numpy as np

    l = check_integer("l", l, 0)
    xs = check_real_array("xs", xs)
    ok = (xs >= 0) & (xs < math.inf)
    if not ok.all():
        raise DomainError(f"j_many requires 0 <= x < inf, got {xs[~ok].flat[0]}")
    out = np.empty_like(xs)
    up = xs >= l + UPWARD_MARGIN
    if np.any(up):
        xu = xs[up]
        s = np.sin(xu)
        c = np.cos(xu)
        j0 = s / xu
        if l == 0:
            out[up] = j0
        else:
            j1 = s / (xu * xu) - c / xu
            if l == 1:
                out[up] = j1
            else:
                for m in range(2, l + 1):
                    j0, j1 = j1, (2 * m - 1) / xu * j1 - j0
                out[up] = j1
    rest = ~up
    if np.any(rest):
        out[rest] = _j_below_margin(l, xs[rest])
    return out


#: log of _RESCALE_AT, less a margin for the rounding of the growth bound
#: in _j_below_margin
_LOG_RESCALE_AT = math.log(_RESCALE_AT) - 1.0


def _j_below_margin(l: int, x: np.ndarray) -> np.ndarray:
    """j_l at a 1-D array of arguments 0 <= x < l + UPWARD_MARGIN.

    The same arithmetic as ``j``, one array step per order: the ascending
    series below SMALL_X_SERIES, sinc at l = 0, and otherwise the Miller
    walk of ``_j_list`` from the same starting order, with the same
    per-point rescaling and the same j_0 / j_1 normalisation.
    """
    import numpy as np

    out = np.empty_like(x)
    small = x < SMALL_X_SERIES
    if np.any(small):
        out[small] = _series_value(l, x[small])
        x = x[~small]
        if not len(x):
            return out
    # math.sin and math.cos, as j uses: numpy's may differ in the last bit
    xl = x.tolist()
    s = np.fromiter(map(math.sin, xl), float, len(xl))
    if l == 0:
        out[~small] = s / x
        return out
    c = np.fromiter(map(math.cos, xl), float, len(xl))
    lstart = l + max(20, math.ceil(1.5 * l))
    jp = np.zeros_like(x)  # j_{m+1}, unnormalized
    jc = np.ones_like(x)  # j_m, unnormalized
    jm = np.empty_like(x)
    kept = {}  # order -> unnormalized j at the orders l, 1 and 0
    # |j_m| grows by at most a factor (2m+1)/x + 1 per step, so no point
    # can pass _RESCALE_AT before this bound on log max |j| does
    growth = 0.0
    x_min = float(x.min())
    for m in range(lstart, 0, -1):
        np.divide(2 * m + 1, x, out=jm)
        jm *= jc
        jm -= jp
        jp, jc, jm = jc, jm, jp
        if m - 1 in (l, 1, 0):
            kept[m - 1] = jc.copy()
        if growth <= _LOG_RESCALE_AT:
            growth += math.log1p((2 * m + 1) / x_min)
            if growth <= _LOG_RESCALE_AT:
                continue
        over = np.abs(jc) > _RESCALE_AT
        if over.any():
            jp[over] /= _RESCALE_AT
            jc[over] /= _RESCALE_AT
            for v in kept.values():
                v[over] /= _RESCALE_AT
    j0_true = s / x
    j1_true = s / (x * x) - c / x
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(
            np.abs(j0_true) >= np.abs(j1_true), j0_true / kept[0], j1_true / kept[1]
        )
    out[~small] = kept[l] * scale
    return out


@finite_result
def j_extended(order: int, x: float) -> float:
    """j at integer order >= -1; j_{-1}(x) = cos(x)/x.

    The order -1 continuation is what the closed forms need when a
    formula written for l >= 1 is evaluated at l = 0.
    """
    order = check_integer("order", order, -1)
    return _j_extended(order, check_real("x", x, -math.inf if order < 0 else 0.0))


def _j_extended(order: int, x: float) -> float:
    """j_extended's core, for the closed forms of the engines: x finite."""
    if order == -1:
        if x == 0:
            raise DomainError("j_{-1} diverges at x = 0")
        return math.cos(x) / x
    return _j_list(order, x)[order]
