"""Closed-loop benchmark of besselquad's public integral API.

One process, one thread.  A run loads the workload's pool of inputs
(``reference/<workload>.json``), picks one candidate per cell with
``--seed``, builds every call up front and then makes whole passes over
that fixed list until ``--seconds`` are used, timing each integral and
each pass.  A fixed reference kernel is timed every few dozen
milliseconds inside each pass, and every time metric is divided by it:
the machine's speed swings too much for raw wall times to compare from
run to run (see README.md).  Pass and latency figures are therefore in
units of the kernel's time ("ref"); set-up, which must be in seconds, is
quoted for a machine on which the kernel takes ``KERNEL_NOMINAL_S``.
Every output is checked against the stored reference values.

Only the standard library is imported at module level: ``setup_s`` times
a fresh interpreter's import of besselquad (and numpy with it).
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("oscillatory_tail", "from_zero", "weighted_tabulated", "guarded_fallback")

#: fresh interpreters started per run to time set-up; the median is reported
SETUP_STARTS = 7

#: at least this many timed passes, even past --seconds
MIN_PASSES = 3

#: seconds of integrals between two timings of the reference kernel
KERNEL_EVERY = 0.03

#: setup_s is quoted for a machine on which the kernel takes this long
KERNEL_NOMINAL_S = 3.0e-3

#: spans kept for the trace file of a traced run
KEEP_SPANS = 200_000


class LibraryMissing(RuntimeError):
    """The checkout holds no besselquad sources under src/."""


def import_library():
    """Import besselquad from this checkout's src/, and nowhere else."""
    init = os.path.join(SRC, "besselquad", "__init__.py")
    if not os.path.isfile(init):
        raise LibraryMissing(f"no besselquad package at {os.path.relpath(init, ROOT)}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import besselquad

    if os.path.realpath(besselquad.__file__) != os.path.realpath(init):
        raise LibraryMissing(f"besselquad imported from {besselquad.__file__}, not {init}")
    return besselquad


def load_pool(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


def select(pool: dict, seed: int) -> list:
    """One candidate per cell, in pool order, chosen by ``seed``."""
    cells: dict = {}
    for item in pool["items"]:
        cells.setdefault(item["cell"], []).append(item)
    rng = random.Random(f"{pool['workload']}:{seed}")
    return [cands[rng.randrange(len(cands))] for cands in cells.values()]


def make_call(bq, item: dict):
    """A no-argument callable returning (value, converged) for one input.

    Interpolants are built here, before timing starts.
    """
    if item["op"] == "definite":
        spec = bq.IntegralSpec(
            item["family"], item["n"], item["l"], item["alpha"], k=item["k"], beta=item["beta"]
        )
        a, b = item["a"], item["b"]

        def call():
            r = bq.definite_integral(spec, a, b)
            return r.value, r.converged

        return call
    pp = bq.build_interpolant(item["samples"], degree=item["degree"])
    a, b, l, alpha = item["a"], item["b"], item["l"], item["alpha"]
    if item["op"] == "single":
        return lambda: (float(bq.integrate_single(pp, l, alpha, a, b)), True)
    k, beta = item["k"], item["beta"]
    return lambda: (float(bq.integrate_product(pp, k, l, alpha, beta, a, b)), True)


def check(item: dict, value: float, converged: bool, tol: float, c: float) -> bool:
    """The library's mixed criterion, plus convergence and finiteness."""
    ref = item["ref"]
    return (
        converged
        and math.isfinite(value)
        and abs(value - ref) <= c * max(tol, tol * abs(ref))
    )


def prepare(workload: str, seed: int):
    """Import the library, select the inputs and build their calls."""
    bq = import_library()
    pool = load_pool(workload)
    items = select(pool, seed)
    return pool, items, [make_call(bq, item) for item in items]


def setup_probe(workload: str, seed: int) -> None:
    """Body of one fresh set-up start: prepare, then make the first call."""
    _, _, calls = prepare(workload, seed)
    calls[0]()


def measure_setup(workload: str, seed: int, starts: int = SETUP_STARTS) -> list:
    """Seconds of ``starts`` fresh interpreters running ``setup_probe``,
    each quoted at the nominal kernel time like the other time metrics
    (the kernel is timed around every start)."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import harness; "
        "harness.setup_probe(sys.argv[2], int(sys.argv[3]))"
    )
    times = []
    kernel = [time_kernel() for _ in range(3)]
    for _ in range(starts):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, HERE, workload, str(seed)],
            cwd=ROOT, check=True, timeout=120,
        )
        wall = time.perf_counter() - t0
        after = [time_kernel() for _ in range(3)]
        times.append(wall * KERNEL_NOMINAL_S / statistics.median(kernel + after))
        kernel = after
    return times


def reference_kernel() -> float:
    """Fixed work shaped like the library's own mix, timed between
    integrals to gauge the machine's speed of the moment: a downward
    three-term recurrence in Python floats (``j_array``), a memoised
    two-index recursion over a dict (the antiderivative engines) and a
    15-node rule over small numpy arrays with a heap (``adaptive_quad``).
    It never calls besselquad, so a change to the library leaves it as is.
    """
    import heapq

    import numpy as np

    acc = 0.0
    for x in (0.7, 3.1, 9.4, 17.2):
        jp, jc = 0.0, 1.0
        for m in range(80, 0, -1):
            jp, jc = jc, (2 * m + 1) / x * jc - jp
            if abs(jc) > 1e250:
                jp /= 1e250
                jc /= 1e250
        acc += jc * 1e-300
    memo: dict = {}

    def cell(m: int, lam: int) -> float:
        key = (m, lam)
        if key in memo:
            return memo[key]
        if lam == 0:
            v = math.sin(0.1 * m) / (1.0 + m * m)
        else:
            v = 0.5 * cell(m, lam - 1) + 2.5e-4 * (m - 2) * cell(m - 2, lam - 1) - 1e-4 * lam
        memo[key] = v
        return v

    for n in range(3):
        memo.clear()
        acc += cell(40 + n, 30)
    nodes = np.linspace(-1.0, 1.0, 15)
    weights = np.full(15, 2.0 / 15.0)
    heap: list = []
    for i in range(120):
        lo = 0.1 * i
        xs = lo + 0.05 * (1.0 + nodes)
        v = 0.05 * float(np.dot(weights, np.sin(xs) * np.cos(2.0 * xs) / (1.0 + xs)))
        heapq.heappush(heap, (-abs(v), lo, v))
    while heap:
        acc += heapq.heappop(heap)[2]
    return acc


def time_kernel() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class Loop:
    """Whole passes over a fixed list of calls, with every output checked."""

    def __init__(self, items, calls, tol: float, c: float):
        self.items = items
        self.calls = calls
        self.tol = tol
        self.c = c
        self.attempted = 0
        self.failed = 0
        self.errors: dict = {}  # exception name -> [count, repr of the first]
        self.first_values: list | None = None
        self.repeatable = True

    @property
    def correct(self) -> bool:
        """Every integral passed its check, and every pass gave the same values."""
        return self.repeatable and self.attempted > 0 and self.failed == 0

    def one_pass(self, latencies=None, kernel=None, on_request=None) -> float:
        """Run every call once; return the sum of their wall times.

        With a ``kernel`` list, the reference kernel is timed at the start
        and then whenever ``KERNEL_EVERY`` seconds of integrals have run
        since its last timing, so its samples spread evenly over the pass.
        """
        clock = time.perf_counter
        values = []
        total = 0.0
        since_kernel = math.inf
        for i, (item, call) in enumerate(zip(self.items, self.calls)):
            if kernel is not None and since_kernel >= KERNEL_EVERY:
                kernel.append(time_kernel())
                since_kernel = 0.0
            if on_request is not None:
                on_request(i)
            t0 = clock()
            try:
                value, converged = call()
            except Exception as exc:  # a raising integral is a failed one
                value, converged = math.nan, False
                seen = self.errors.setdefault(type(exc).__name__, [0, repr(exc)])
                seen[0] += 1
            dt = clock() - t0
            total += dt
            since_kernel += dt
            if latencies is not None:
                latencies.append(dt)
            values.append(value)
            self.attempted += 1
            if not check(item, value, converged, self.tol, self.c):
                self.failed += 1
        if self.first_values is None:
            self.first_values = values
        elif any(
            v != w and not (math.isnan(v) and math.isnan(w))
            for v, w in zip(values, self.first_values)
        ):
            self.repeatable = False
        return total


def _enough(rounds: list, start: float, seconds: float) -> bool:
    """Record the round just ended; stop once another round would end
    past ``seconds``, but not before ``MIN_PASSES`` rounds."""
    now = time.perf_counter()
    rounds.append(now - (start + sum(rounds)))
    return len(rounds) >= MIN_PASSES and now - start + statistics.median(rounds) > seconds


def timed_run(loop: Loop, seconds: float) -> dict:
    """End-to-end metrics of whole passes filling ``seconds``.

    Each pass's times are divided by the median reference-kernel time
    taken during that pass, which cancels the machine's speed of the
    moment.  Latency quantiles are taken over the inputs, each input's
    time being its median over the passes.
    """
    ratios, per_pass, walls, rounds = [], [], [], []
    start = time.perf_counter()
    while True:
        lat, kernel = [], []
        wall = loop.one_pass(lat, kernel)
        k = statistics.median(kernel)
        walls.append(wall)
        ratios.append(wall / k)
        per_pass.append([t / k for t in lat])
        if _enough(rounds, start, seconds):
            break
    n = len(loop.calls)
    pass_ref = statistics.median(ratios)
    per_input = [statistics.median(times) for times in zip(*per_pass)]
    p90 = statistics.quantiles(per_input, n=10)[8]
    print(
        f"raw: {len(walls)} passes, median pass {statistics.median(walls):.4f} s "
        f"({n / statistics.median(walls):.2f} integrals/s)",
        file=sys.stderr,
    )
    return {
        "cost_per_integral_ref": (pass_ref / n, "ref"),
        "latency_p50_ref": (statistics.median(per_input), "ref"),
        "latency_p90_ref": (p90, "ref"),
    }


#: per-layer metrics of a traced run, each per pass over the input list
PER_LAYER = (
    ("sph_bessel.j_array.calls", "count"),
    ("sph_bessel.j_array.self_s", "s"),
    ("sph_bessel.j_many.points", "count"),
    ("sph_bessel.j_many.fallback_points", "count"),
    ("sph_bessel.j_many.self_s", "s"),
    ("trig_primitives.eval_pair.calls", "count"),
    ("trig_primitives.eval_pair.chain_steps", "count"),
    ("trig_primitives.eval_pair.self_s", "s"),
    ("trig_primitives.si_ci.calls", "count"),
    ("trig_primitives.si_ci.self_s", "s"),
    ("single_bessel.eval_I_scaled.calls", "count"),
    ("single_bessel.eval_I_scaled.self_s", "s"),
    ("squared_bessel.eval_H_scaled.calls", "count"),
    ("squared_bessel.eval_H_scaled.self_s", "s"),
    ("same_order.eval_K.calls", "count"),
    ("same_order.eval_K.self_s", "s"),
    ("mixed_order.eval_L.calls", "count"),
    ("mixed_order.eval_L.self_s", "s"),
    ("quadrature.definite_integral.self_s", "s"),
    ("quadrature.antiderivative.calls", "count"),
    ("quadrature.antiderivative.self_s", "s"),
    ("quadrature.adaptive_quad.calls", "count"),
    ("quadrature.adaptive_quad.evals", "count"),
    ("quadrature.adaptive_quad.nonconverged", "count"),
    ("quadrature.adaptive_quad.self_s", "s"),
    ("weighted.antiderivative.calls", "count"),
    ("weighted.adaptive_quad.calls", "count"),
    ("weighted.integrate.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
)


def traced_run(loop: Loop, seconds: float, tracer, out_path: str) -> dict:
    """Per-layer metrics per pass, alternating untraced and traced passes.

    The tracing overhead is the difference of the two pass medians.
    """
    plain, traced, rounds = [], [], []
    start = time.perf_counter()

    def on_request(i):
        tracer.request = i

    while True:
        plain.append(loop.one_pass())
        tracer.enabled = True
        traced.append(loop.one_pass(on_request=on_request))
        tracer.enabled = False
        tracer.keep_spans = 0  # spans of the first traced pass only
        if _enough(rounds, start, seconds):
            break
    npass = len(traced)
    metrics = {}
    for name, unit in PER_LAYER:
        if name.startswith("trace."):
            continue
        if name.endswith(".self_s"):
            value = tracer.self_s.get(name[: -len(".self_s")], 0.0) / npass
        else:
            value = tracer.counts.get(name, tracer.site_calls.get(name, 0)) / npass
        metrics[name] = (value, unit)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100.0 * overhead / statistics.median(plain), "%")
    tracer.write(out_path, {"passes": npass, "integrals_per_pass": len(loop.calls)})
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object that run.py prints."""
    pool, items, calls = prepare(workload, seed)
    loop = Loop(items, calls, pool["check_tol"], pool["check_c"])
    if trace:
        import spans

        tracer = spans.Tracer(keep_spans=KEEP_SPANS)
        patched = spans.install(tracer)
        try:
            os.makedirs(OUT_DIR, exist_ok=True)
            out_path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
            metrics = traced_run(loop, seconds, tracer, out_path)
        finally:
            spans.uninstall(patched)
    else:
        setup = measure_setup(workload, seed)
        metrics = timed_run(loop, seconds)
        metrics["setup_s"] = (statistics.median(setup), "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    for name, (count, first) in sorted(loop.errors.items()):
        print(f"{workload}: {count} integrals raised {name}, first: {first}", file=sys.stderr)
    return {
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
