"""Fast self-test of the benchmark harness (a few seconds).

Runs a few integrals of each workload through the timed and the traced
loops, and checks that the output check, the seed and the tracer do what
the benchmark relies on.
"""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import spans  # noqa: E402

#: integrals per workload in the short runs below
SHORT = 4


@pytest.fixture(scope="module")
def bq():
    return harness.import_library()


def _short_loop(bq, workload, seed=1, perturb=None):
    pool = harness.load_pool(workload)
    items = harness.select(pool, seed)[:SHORT]
    calls = [harness.make_call(bq, item) for item in items]
    tol, c = pool["check_tol"], pool["check_c"]
    if perturb is not None:
        calls = [perturb(item, call, tol, c) for item, call in zip(items, calls)]
    return harness.Loop(items, calls, tol, c)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_short_run_passes_its_checks(bq, workload):
    loop = _short_loop(bq, workload)
    metrics = harness.timed_run(loop, seconds=0.0)
    assert loop.attempted == harness.MIN_PASSES * SHORT
    assert loop.failed == 0 and loop.correct and not loop.errors
    for value, _unit in metrics.values():
        assert math.isfinite(value) and value > 0


def _shifted(factor):
    """Move each output by ``factor`` times the allowed deviation."""

    def perturb(item, call, tol, c):
        def shifted():
            value, converged = call()
            return value + factor * c * max(tol, tol * abs(item["ref"])), converged

        return shifted

    return perturb


def test_result_past_tolerance_counts_as_failed(bq):
    loop = _short_loop(bq, "oscillatory_tail", perturb=_shifted(1.5))
    loop.one_pass()
    assert loop.failed == SHORT
    assert not loop.correct


def test_result_within_tolerance_passes(bq):
    loop = _short_loop(bq, "oscillatory_tail", perturb=_shifted(0.5))
    loop.one_pass()
    assert loop.failed == 0
    assert loop.correct


def test_nonconverged_nonfinite_and_raising_results_fail():
    item = {"ref": 1.0}
    assert not harness.check(item, 1.0, False, 1e-10, 10.0)
    assert not harness.check(item, math.nan, True, 1e-10, 10.0)

    def boom():
        raise ValueError("math domain error")

    loop = harness.Loop([item], [boom], 1e-10, 10.0)
    loop.one_pass()
    assert loop.failed == 1
    assert loop.errors == {"ValueError": [1, "ValueError('math domain error')"]}


def test_seed_selects_the_inputs():
    for workload in harness.WORKLOADS:
        pool = harness.load_pool(workload)
        first = harness.select(pool, 1)
        assert first == harness.select(pool, 1)
        assert first != harness.select(pool, 2)
        assert len(first) == len({item["cell"] for item in pool["items"]})
        assert all(math.isfinite(item["ref"]) for item in first)


@pytest.mark.parametrize(
    "workload, zero, positive",
    [
        ("oscillatory_tail", "quadrature.adaptive_quad.evals", "quadrature.antiderivative.calls"),
        ("from_zero", None, "sph_bessel.j_many.fallback_points"),
        ("guarded_fallback", "same_order.eval_K.calls", "quadrature.adaptive_quad.evals"),
        ("weighted_tabulated", None, "weighted.antiderivative.calls"),
    ],
)
def test_traced_pass_counts_layers(bq, workload, zero, positive):
    loop = _short_loop(bq, workload)
    tracer = spans.Tracer(keep_spans=100)
    patched = spans.install(tracer)
    try:
        tracer.enabled = True
        loop.one_pass()
    finally:
        spans.uninstall(patched)
    assert not any(
        getattr(mod, attr) is not orig for mod, attr, orig in patched
    ), "uninstall must restore every original"
    counts = {**tracer.site_calls, **tracer.counts}
    if zero is not None:
        assert counts.get(zero, 0) == 0
    assert counts.get(positive, 0) > 0
    assert loop.failed == 0
    for span_id, _name, parent, _req, start, end in tracer.spans:
        assert end >= start and (parent is None or parent < span_id)


def test_self_time_excludes_children():
    ticks = iter(range(100))
    tracer = spans.Tracer(keep_spans=10, clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None, "site")
    outer = tracer.wrap("outer", lambda: inner() or inner(), "site")
    tracer.enabled = True
    outer()
    # outer spans 5 ticks; each inner call spans 1
    assert tracer.self_s["inner"] == 2.0
    assert tracer.self_s["outer"] == 3.0
    assert tracer.counts["inner.calls"] == 2


@pytest.mark.parametrize("margin", [2.0, 6.0])
def test_fallback_points_follow_the_library_margin(bq, monkeypatch, margin):
    import numpy as np

    sph_bessel = sys.modules["besselquad.sph_bessel"]
    monkeypatch.setattr(sph_bessel, "UPWARD_MARGIN", margin)
    xs = np.linspace(0.5, 20.0, 40)
    tracer = spans.Tracer()
    patched = spans.install(tracer)
    try:
        tracer.enabled = True
        sph_bessel.j_many(5, xs)
    finally:
        spans.uninstall(patched)
    assert tracer.counts["sph_bessel.j_many.fallback_points"] == int((xs < 5 + margin).sum())
