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


def _miller_start(order: int) -> int:
    """The order a downward (Miller) walk for j_0..j_order starts from: a
    safety margin above ``order``.  ``_j_list`` and ``_j_miller`` share it,
    so their values agree bitwise."""
    return order + max(20, math.ceil(1.5 * order))


def _j_list(lmax: int, x: float) -> list:
    """j_0(x) .. j_lmax(x) as a list of Python floats: the one j table.

    ``j_array`` wraps it in an array; ``j`` and the per-point tables of
    the engines index it directly, so their recursion walks run on
    Python floats, where an index and a product cost a fraction of a
    numpy scalar's.  x is taken as float(x).
    """
    if not 0 <= x < math.inf:
        raise DomainError(
            f"j_array requires 0 <= x < inf, got {x}; fold x < 0 by j_l(-x) = (-1)^l j_l(x)"
        )
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
    out = [0.0] * (lmax + 1)
    jp = 0.0  # j_{m+1}, unnormalized
    jc = 1.0  # j_m, unnormalized
    for m in range(_miller_start(lmax), 0, -1):
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


def j_many(l, xs) -> np.ndarray:
    """Vectorized j_l over an array of finite nonnegative arguments.

    ``l`` is one order for every point, or a numpy integer array shaped
    like ``xs`` that gives each point its own order.  Arguments at or
    above their order + UPWARD_MARGIN share one vectorized upward walk to
    the highest of their orders; the rest go through ``_j_below_margin``,
    one downward (Miller) walk over all of them at once.  So a call costs
    a fixed number of array steps for its highest order, whatever the
    number of points, and the factors of a product integrand take one
    call between them.  Every value is bitwise what a call with its own
    order alone gives, and below the margin bitwise equal to
    ``j(order, x)``.
    """
    import numpy as np

    per_point = isinstance(l, np.ndarray) and l.ndim > 0
    if not per_point:
        l = check_integer("l", l, 0)
    xs = check_real_array("xs", xs)
    if per_point:
        l = _check_orders(l, xs)
    if xs.size and not (xs.min() >= 0 and xs.max() < math.inf):  # nan fails too
        bad = ~((xs >= 0) & (xs < math.inf))
        raise DomainError(f"j_many requires 0 <= x < inf, got {xs[bad].flat[0]}")
    if not xs.size:
        return np.empty(xs.shape)
    shape = xs.shape
    xs = xs.ravel()
    if per_point:
        l = l.ravel()
    up = xs >= l + UPWARD_MARGIN
    if up.all():
        return _j_upward(l, xs).reshape(shape)
    if not up.any():
        return _j_below_margin(l, xs).reshape(shape)
    out = np.empty_like(xs)
    out[up] = _j_upward(l[up] if per_point else l, xs[up])
    rest = ~up
    out[rest] = _j_below_margin(l[rest] if per_point else l, xs[rest])
    return out.reshape(shape)


def _check_orders(l: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """j_many's order array as int64, when it holds integers >= 0 (bools
    are not integers), one per point of xs; anything else is a
    DomainError."""
    if l.dtype.kind not in "iu" or l.shape != xs.shape:
        raise DomainError(
            f"l must be an integer or an integer array shaped like xs {xs.shape}, "
            f"got {l.dtype} values of shape {l.shape}"
        )
    if l.size and l.min() < 0:
        raise DomainError(f"l must hold integers >= 0, got {l.min()}")
    return l.astype("int64", copy=False)


def _by_order(l, x: np.ndarray) -> tuple:
    """(x, runs, perm): the points x sorted by falling order, the run
    (order, lo, hi) of x[lo:hi] that each order holds, highest first, and
    the sorting permutation (None: x was sorted).  An int l is one run;
    rising orders, as a product's factors may give, are reversed."""
    import numpy as np

    if isinstance(l, int):
        return x, [(l, 0, len(x))], None
    perm = None
    if (l[1:] > l[:-1]).any():
        perm = slice(None, None, -1) if (l[1:] >= l[:-1]).all() else np.argsort(-l, kind="stable")
        l, x = l[perm], np.ascontiguousarray(x[perm])
    bounds = [0, *(np.flatnonzero(l[1:] != l[:-1]) + 1).tolist(), len(l)]
    return x, [(int(l[lo]), lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])], perm


def _unsorted(values: np.ndarray, perm) -> np.ndarray:
    """Values at the points ``_by_order`` sorted by ``perm``, in the
    points' own order."""
    import numpy as np

    if perm is None:
        return values
    out = np.empty_like(values)
    out[perm] = values
    return out


def _j_upward(l, x: np.ndarray) -> np.ndarray:
    """j at a 1-D array of arguments x >= order + UPWARD_MARGIN, with one
    order or one per point: one upward walk from j_0 and j_1, each value
    taken at its own order.  Sorted by falling order, the points whose
    order the walk has not reached are a prefix, and each step runs on
    that prefix alone."""
    import numpy as np

    x, runs, perm = _by_order(l, x)
    out = np.empty_like(x) if len(runs) > 1 else None
    s = np.sin(x)
    c = np.cos(x)
    xk = x
    j1 = s / x  # the walk at m on the points xk = x[:k], j0 at m - 1
    m = 0
    for order, lo, k in reversed(runs):  # lowest order first: its points end xk
        if k < len(xk):
            xk, j1 = x[:k], j1[:k]
            if m:
                j0, jm = j0[:k], jm[:k]
        if m == 0 and order > 0:
            m = 1
            j0, j1 = j1, s[:k] / (xk * xk) - c[:k] / xk
            jm = np.empty_like(j1)
        for m in range(m + 1, order + 1):
            np.divide(2 * m - 1, xk, out=jm)
            jm *= j1
            jm -= j0
            j0, j1, jm = j1, jm, j0
        if out is None:
            return j1
        out[lo:k] = j1[lo:k]
    return _unsorted(out, perm)


#: log of _RESCALE_AT, less a margin for the rounding of the growth bound
#: in _j_miller
_LOG_RESCALE_AT = math.log(_RESCALE_AT) - 1.0


def _j_below_margin(l, x: np.ndarray) -> np.ndarray:
    """j at a 1-D array of arguments 0 <= x < order + UPWARD_MARGIN, with
    one order or one per point.

    The same arithmetic as ``j``, one array step per order: the ascending
    series below SMALL_X_SERIES, and above it ``_j_miller``.
    """
    import numpy as np

    small = x < SMALL_X_SERIES
    if not np.any(small):
        return _j_miller(l, x)
    out = np.empty_like(x)
    xs, runs, perm = _by_order(l if isinstance(l, int) else l[small], x[small])
    series = np.empty_like(xs)
    for order, lo, hi in runs:
        series[lo:hi] = _series_value(order, xs[lo:hi])
    out[small] = _unsorted(series, perm)
    big = ~small
    if np.any(big):
        out[big] = _j_miller(l if isinstance(l, int) else l[big], x[big])
    return out


def _j_miller(l, x: np.ndarray) -> np.ndarray:
    """j at a 1-D array of arguments SMALL_X_SERIES <= x < order +
    UPWARD_MARGIN: sinc at order 0, and otherwise the Miller walk of
    ``_j_list`` from the same starting order, with the same per-point
    rescaling and the same j_0 / j_1 normalisation.

    One walk serves every order: sorted by falling order, which is
    falling start, the points whose start the walk has passed are a
    prefix, and each point joins it at its own start.
    """
    import numpy as np

    x, runs, perm = _by_order(l, x)
    # math.sin and math.cos, as j uses: numpy's may differ in the last bit
    xl = x.tolist()
    s = np.fromiter(map(math.sin, xl), float, len(xl))
    out = np.empty_like(x)
    if runs[-1][0] == 0:
        _, lo, _ = runs.pop()
        out[lo:] = s[lo:] / x[lo:]
        if not runs:
            return _unsorted(out, perm)
    n = runs[-1][2]  # the points of order >= 1
    xn, s = x[:n], s[:n]
    c = np.fromiter(map(math.cos, xl[:n]), float, n)
    # after the step that reaches order m - 1: the runs of that order
    # keep their values, and the run whose start is m - 1 joins; a run's
    # start rises with its order, so the points joined are a prefix
    keep_at = {order + 1: (lo, hi) for order, lo, hi in runs}
    join_at = {_miller_start(order) + 1: hi for order, _, hi in runs}
    top = max(join_at) - 1
    k = join_at.pop(top + 1)
    marks = {*keep_at, *join_at, 2, 1}
    jp = np.zeros(k)  # j_{m+1}, unnormalized
    jc = np.ones(k)  # j_m, unnormalized
    jm = np.empty(k)
    xk = xn[:k]
    # unnormalized j at each point's own order; zero until kept, so the
    # rescaling of the points not kept yet leaves them zero
    kept = np.zeros(n)
    kept_k = kept[:k]
    kept_low = {}  # order -> unnormalized j at the orders 1 and 0
    # |j_m| grows by at most a factor (2m+1)/x + 1 per step, so no point
    # can pass _RESCALE_AT before this bound on log max |j| does
    growth = 0.0
    x_min = float(xn.min())
    for m in range(top, 0, -1):
        np.divide(2 * m + 1, xk, out=jm)
        jm *= jc
        jm -= jp
        jp, jc, jm = jc, jm, jp
        if growth <= _LOG_RESCALE_AT:
            growth += math.log1p((2 * m + 1) / x_min)
        if growth > _LOG_RESCALE_AT:
            over = np.abs(jc) > _RESCALE_AT
            if over.any():
                jp[over] /= _RESCALE_AT
                jc[over] /= _RESCALE_AT
                kept_k[over] /= _RESCALE_AT
                for v in kept_low.values():
                    v[over] /= _RESCALE_AT
        if m not in marks:
            continue
        # a value kept after the rescaling of its step is the one kept
        # before it and rescaled with the walk
        span = keep_at.get(m)
        if span is not None:
            kept[span[0] : span[1]] = jc[span[0] : span[1]]
        if m <= 2:
            kept_low[m - 1] = jc.copy()
        end = join_at.get(m)
        if end is not None:
            # the points starting at m - 1 join with j_m = 0, j_{m-1} = 1
            jp = np.concatenate([jp, np.zeros(end - k)])
            jc = np.concatenate([jc, np.ones(end - k)])
            k = end
            jm = np.empty(k)
            xk = xn[:k]
            kept_k = kept[:k]
    j0_true = s / xn
    j1_true = s / (xn * xn) - c / xn
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(
            np.abs(j0_true) >= np.abs(j1_true), j0_true / kept_low[0], j1_true / kept_low[1]
        )
    out[:n] = kept * scale
    return _unsorted(out, perm)


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
