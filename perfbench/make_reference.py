"""Generate the benchmark's input pools and their reference values.

    python3 perfbench/make_reference.py

For each workload this writes ``perfbench/reference/<workload>.json``:
the fixed pool of candidate inputs (drawn from ``POOL_SEED``) and, for
every one of them, a reference value computed without ``besselquad``.
A benchmark run picks one candidate per cell of the pool with its
``--seed`` (see ``harness.select``), so every input a run can meet has a
stored reference.

Reference values are Gauss-Legendre sums of ``scipy.special.spherical_jn``
products over quarter-period chunks of the fastest oscillation, split at
every interpolant knot for the weighted workload, whose prefactor is
``scipy.interpolate.CubicSpline(bc_type="not-a-knot")`` or
``numpy.interp`` on the stored samples.  Each value is computed with 24
and with 40 nodes per chunk; the difference is stored as ``ref_err`` and
the command fails if it is not far below the benchmark's check
tolerance.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import spherical_jn

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

#: seed of the candidate pools; a run's --seed only selects among them
POOL_SEED = 1703

#: candidates per cell; a run uses one of them per cell
CANDIDATES = 4

#: the benchmark's check: |v - ref| <= CHECK_C * max(CHECK_TOL, CHECK_TOL * |ref|)
CHECK_TOL = 1e-10
CHECK_C = 10.0

#: the library's amplification guard, first-zero and finiteness rules are
#: restated here so that this command stays independent of the package it checks
AMPLIFICATION_GUARD = 1e6

ORDERS = (0, 1, 2, 3, 5, 8, 12, 16, 20, 25, 30, 35, 40)

#: K and L stop at 25: from 30 up their recursions lose digits just above
#: the threshold while the amplification estimate stays under the guard
#: (see the FOUND lines in CHANGES.md), so a run would fail on some seeds
TWO_SCALE_ORDERS = tuple(l for l in ORDERS if l <= 25)
EXPONENTS = (-2, -1, 0, 1, 2)


def first_zero(l: int) -> float:
    return math.pi if l == 0 else 4.75 + 1.05 * l


def threshold(l: int, k, alpha: float, beta) -> float:
    """First-zero threshold of the slowest factor (k, beta may be None)."""
    orders = (l,) if k is None else (k, l)
    scales = (alpha,) if beta is None else (alpha, beta)
    return first_zero(max(orders)) / min(abs(s) for s in scales)


def amplification(l: int, a: float, b: float) -> float:
    return ((a * a + b * b) / (2.0 * a * b)) ** l


def finite_at_zero(family: str, n: int, k: int, l: int) -> bool:
    if family == "I":
        return l + n > -1
    if family in ("H", "K"):
        return 2 * l + n > -1
    return k + l + n > -1


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + rng.random() * (math.log(hi) - math.log(lo)))


def _partner_order(l: int, slot: int) -> int:
    """Order k != l of the first factor of an L cell, fixed by the cell."""
    gap = (1, 2, 3, 1, 2)[slot % 5]
    return l - gap if l >= gap else l + gap


#: scale ratio of a two-scale cell, by exponent slot.  A cell's cost
#: depends on its ratio, so a candidate keeps it within 2 % and the
#: seed cannot shift the mix's cost.
RATIOS = (1.2, 1.45, 1.7, 1.95, 1.3)


def _cell_ratio(rng: random.Random, l: int, slot: int, limit: float) -> float:
    """The slot's ratio, jittered, lowered until amplification < ``limit``."""
    q = RATIOS[slot % len(RATIOS)] * (1.0 + 0.04 * (rng.random() - 0.5))
    while q > 1.1 and amplification(max(l, 1), 1.0, q) > limit:
        q -= 0.01
    return q


def _orient(rng: random.Random, alpha: float, q: float):
    return (alpha, alpha * q) if rng.random() < 0.5 else (alpha * q, alpha)


def _definite(cell, family, n, l, k, alpha, beta, a, b):
    return {
        "cell": cell, "op": "definite", "family": family, "n": n, "l": l, "k": k,
        "alpha": alpha, "beta": beta, "a": a, "b": b,
    }


def _families_cells(exponents):
    for family in "IHKL":
        for l in ORDERS if family in "IH" else TWO_SCALE_ORDERS:
            for slot, n in enumerate(exponents):
                k = _partner_order(l, slot) if family == "L" else None
                yield f"{family}/l={l}/n={n}", family, l, n, k, slot


def _scales(rng, family, l, slot, limit):
    alpha = _log_uniform(rng, 0.5, 2.0)
    if family in "IH":
        return alpha, None
    return _orient(rng, alpha, _cell_ratio(rng, l, slot, limit))


def pool_oscillatory_tail(rng: random.Random) -> list:
    out = []
    for cell, family, l, n, k, slot in _families_cells(EXPONENTS):
        for _ in range(CANDIDATES):
            alpha, beta = _scales(rng, family, max(l, k or 0), slot, AMPLIFICATION_GUARD / 100)
            a = threshold(l, k, alpha, beta) * (1.05 + 2.0 * rng.random())
            b = a + _log_uniform(rng, 10.0, 1e4)
            out.append(_definite(cell, family, n, l, k, alpha, beta, a, b))
    return out


def pool_from_zero(rng: random.Random) -> list:
    out = []
    for cell, family, l, n, k, slot in _families_cells((-1, 0, 1, 2)):
        if not finite_at_zero(family, n, k or 0, l):
            continue
        for _ in range(CANDIDATES):
            alpha, beta = _scales(rng, family, max(l, k or 0), slot, AMPLIFICATION_GUARD / 100)
            b = threshold(l, k, alpha, beta) * (1.5 + 2.5 * rng.random())
            out.append(_definite(cell, family, n, l, k, alpha, beta, 0.0, b))
    return out


GUARDED_ORDERS = (8, 9, 10, 12, 14, 16, 18, 20, 25, 30)


def pool_guarded_fallback(rng: random.Random) -> list:
    out = []
    for family in "KL":
        for l in GUARDED_ORDERS:
            for slot, n in enumerate(EXPONENTS):
                k = l - (1 + slot % 2) if family == "L" else None
                for _ in range(CANDIDATES):
                    # amplification 1e7.5 to 1e8: well past the guard
                    target = 10.0 ** (7.5 + 0.5 * rng.random())
                    q = 1.0
                    while amplification(l, 1.0, q) < target:
                        q += 0.01
                    alpha, beta = _orient(rng, _log_uniform(rng, 0.5, 2.0), q)
                    a = threshold(l, k, alpha, beta) * (1.05 + rng.random())
                    half_periods = 90.0 * (1.0 + 0.04 * (rng.random() - 0.5))
                    b = a + half_periods * math.pi / (alpha + beta)
                    out.append(_definite(f"{family}/l={l}/n={n}", family, n, l, k, alpha, beta, a, b))
    return out


WEIGHTED_ORDERS = (0, 1, 2, 3, 4, 6, 9)

#: pieces of every weighted interpolant
WEIGHTED_PIECES = 28


def _prefactor(rng: random.Random, shape: str, x: np.ndarray) -> np.ndarray:
    """A smooth, slowly varying prefactor over [0, x[-1]]."""
    width = x[-1] * (0.2 + 0.6 * rng.random())
    if shape == "lorentz":
        ripple = x[-1] * (0.3 + 0.5 * rng.random())
        return 1.0 / (1.0 + (x / width) ** 2) * (1.0 + 0.3 * np.cos(x / ripple))
    centre = x[-1] * rng.random()
    return 0.2 + np.exp(-(((x - centre) / width) ** 2))


def pool_weighted_tabulated(rng: random.Random) -> list:
    out = []
    for kind in ("I", "H", "K", "L"):
        for degree in (1, 3):
            for shape in ("lorentz", "gauss"):
                for slot, l in enumerate(WEIGHTED_ORDERS):
                    k = None if kind == "I" else l
                    if kind == "L":
                        k = l + 1 if l < 2 else l - 1 - (l % 2)
                    for _ in range(CANDIDATES):
                        alpha = _log_uniform(rng, 0.5, 2.0)
                        beta = None if kind == "I" else alpha
                        if kind in "KL":
                            alpha, beta = _orient(rng, alpha, _cell_ratio(rng, l, slot, 1e3))
                        x_hi = threshold(l, k, alpha, beta) * (5.5 + rng.random())
                        xs = np.linspace(0.0, x_hi, WEIGHTED_PIECES + 1)
                        ys = _prefactor(rng, shape, xs)
                        samples = [[float(f"{x:.12g}"), float(f"{y:.12g}")] for x, y in zip(xs, ys)]
                        out.append({
                            "cell": f"{kind}/degree={degree}/{shape}/l={l}",
                            "op": "single" if kind == "I" else "product",
                            "family": kind, "n": 0, "l": l, "k": k,
                            "alpha": alpha, "beta": beta,
                            "a": samples[0][0], "b": samples[-1][0],
                            "degree": degree, "samples": samples,
                        })
    return out


POOLS = {
    "oscillatory_tail": pool_oscillatory_tail,
    "from_zero": pool_from_zero,
    "weighted_tabulated": pool_weighted_tabulated,
    "guarded_fallback": pool_guarded_fallback,
}


def generate_pool(workload: str) -> list:
    rng = random.Random(f"{POOL_SEED}:{workload}")
    return POOLS[workload](rng)


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------

_RULES = {m: np.polynomial.legendre.leggauss(m) for m in (24, 40)}


def _bessel_product(item: dict, x: np.ndarray) -> np.ndarray:
    fam, l, k = item["family"], item["l"], item["k"]
    alpha, beta = item["alpha"], item["beta"]
    if fam == "I":
        return spherical_jn(l, alpha * x)
    if fam == "H":
        return spherical_jn(l, alpha * x) ** 2
    if fam == "K":
        return spherical_jn(l, alpha * x) * spherical_jn(l, beta * x)
    return spherical_jn(k, alpha * x) * spherical_jn(l, beta * x)


def _edges(item: dict) -> np.ndarray:
    fam = item["family"]
    alpha, beta = abs(item["alpha"]), abs(item["beta"] or 0.0)
    fastest = {"I": alpha, "H": 2.0 * alpha}.get(fam, alpha + beta)
    a, b = item["a"], item["b"]
    width = 0.5 * math.pi / fastest  # a quarter period of the fastest term
    knots = [a, b]
    if "samples" in item:
        knots += [x for x, _ in item["samples"] if a < x < b]
    edges = []
    knots = sorted(set(knots))
    for lo, hi in zip(knots[:-1], knots[1:]):
        m = max(1, math.ceil((hi - lo) / width))
        edges.append(np.linspace(lo, hi, m + 1)[:-1])
    edges.append(np.array([b]))
    return np.concatenate(edges)


def _prefactor_fn(item: dict):
    if "samples" not in item:
        n = item["n"]
        return lambda x: x**n
    xs, ys = np.array(item["samples"]).T
    if item["degree"] == 1:
        return lambda x: np.interp(x, xs, ys)
    return CubicSpline(xs, ys, bc_type="not-a-knot")


def reference_value(item: dict) -> tuple:
    """(value, error estimate) of the item's integral, without besselquad."""
    edges = _edges(item)
    lo, hi = edges[:-1, None], edges[1:, None]
    pre = _prefactor_fn(item)
    values = []
    for m in (24, 40):
        nodes, weights = _RULES[m]
        x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
        f = pre(x) * _bessel_product(item, x)
        chunks = (0.5 * (hi - lo)[:, 0]) * (f @ weights)
        values.append(math.fsum(chunks))
    return values[1], abs(values[1] - values[0])


def write_reference(workload: str) -> str:
    items = generate_pool(workload)
    worst = 0.0
    for item in items:
        ref, err = reference_value(item)
        item["ref"] = ref
        item["ref_err"] = err
        worst = max(worst, err / max(CHECK_TOL, CHECK_TOL * abs(ref)))
    if worst > 0.01 * CHECK_C:
        raise SystemExit(f"{workload}: reference error reaches {worst:.3g} x tolerance")
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    payload = {
        "workload": workload,
        "pool_seed": POOL_SEED,
        "check_tol": CHECK_TOL,
        "check_c": CHECK_C,
        "items": items,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"{workload}: {len(items)} inputs, worst reference error "
          f"{worst:.2e} x tolerance -> {os.path.relpath(path)}")
    return path


def main() -> int:
    for workload in POOLS:
        write_reference(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
