"""Span tracing of besselquad's layers, installed from outside the package.

``install`` replaces each traced public function, at every besselquad
module that holds it by name, with a wrapper that records a span (name,
start, end, parent, request) and per-layer counters.  A layer's self
time is its span's length minus the part its child spans cover; spans
nest strictly because the benchmark runs one thread.  ``uninstall``
puts the original functions back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


# A hook receives the traced function's defining module first, so that it
# reads the library's own constants rather than copies of them.


def _j_many_counts(sph_bessel, args, kwargs, result, counts):
    l, xs = args[0], args[1]
    points = len(xs)
    counts["sph_bessel.j_many.points"] += points
    if points:
        fallback = xs < l + sph_bessel.UPWARD_MARGIN
        counts["sph_bessel.j_many.fallback_points"] += int(fallback.sum())


def _eval_pair_counts(trig_primitives, args, kwargs, result, counts):
    counts["trig_primitives.eval_pair.chain_steps"] += abs(int(args[0]))


def _adaptive_quad_counts(quadrature, args, kwargs, result, counts):
    counts["quadrature.adaptive_quad.evals"] += result.evaluations
    counts["quadrature.adaptive_quad.nonconverged"] += 0 if result.converged else 1


#: (defining module, function) -> (span name, extra counter hook)
TRACED = {
    ("sph_bessel", "j_array"): ("sph_bessel.j_array", None),
    ("sph_bessel", "j_many"): ("sph_bessel.j_many", _j_many_counts),
    ("trig_primitives", "eval_pair"): ("trig_primitives.eval_pair", _eval_pair_counts),
    ("trig_primitives", "si"): ("trig_primitives.si_ci", None),
    ("trig_primitives", "ci"): ("trig_primitives.si_ci", None),
    ("single_bessel", "eval_I_scaled"): ("single_bessel.eval_I_scaled", None),
    ("squared_bessel", "eval_H_scaled"): ("squared_bessel.eval_H_scaled", None),
    ("same_order", "eval_K"): ("same_order.eval_K", None),
    ("mixed_order", "eval_L"): ("mixed_order.eval_L", None),
    ("quadrature", "definite_integral"): ("quadrature.definite_integral", None),
    ("quadrature", "antiderivative"): ("quadrature.antiderivative", None),
    ("quadrature", "adaptive_quad"): ("quadrature.adaptive_quad", _adaptive_quad_counts),
    ("weighted", "integrate_single"): ("weighted.integrate", None),
    ("weighted", "integrate_product"): ("weighted.integrate", None),
}


class Tracer:
    """Collects spans and per-layer counters while ``enabled``.

    ``keep_spans`` caps how many spans are kept for writing out (0 keeps
    none); counters and self times cover every span regardless.
    """

    def __init__(self, keep_spans: int = 0, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.request = -1
        self.counts: Counter = Counter()
        self.site_calls: Counter = Counter()  # "<calling module>.<function>.calls"
        self.self_s: defaultdict = defaultdict(float)
        self.keep_spans = keep_spans
        self.spans: list = []
        self.dropped = 0
        self._stack: list = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self._t0 = clock()

    def wrap(self, name: str, fn, site: str, hook=None):
        site_key = f"{site}.{fn.__name__}.calls"
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            self.counts[f"{name}.calls"] += 1
            self.site_calls[site_key] += 1
            frame = [span_id, name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.self_s[name] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                self._keep(span_id, name, frame[2], end)
            if hook is not None:
                hook(args, kwargs, result, self.counts)
            return result

        return traced

    def _keep(self, span_id, name, start, end) -> None:
        if not self.keep_spans:
            return
        if len(self.spans) >= self.keep_spans:
            self.dropped += 1
            return
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(
            (span_id, name, parent, self.request, start - self._t0, end - self._t0)
        )

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    **meta,
                    "fields": ["id", "name", "parent", "request", "start_s", "end_s"],
                    "spans": self.spans,
                    "dropped": self.dropped,
                },
                fh,
            )


def _package_modules():
    return [
        (name.rpartition(".")[2], mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "besselquad" or name.startswith("besselquad."))
    ]


def install(tracer: Tracer) -> list:
    """Wrap every traced function wherever a besselquad module binds it.

    Returns the list of (module, attribute, original) needed by
    ``uninstall``.
    """
    modules = dict(_package_modules())
    originals = {}
    for (home, attr), (name, hook) in TRACED.items():
        if hook is not None:
            hook = functools.partial(hook, modules[home])
        originals[id(getattr(modules[home], attr))] = (name, hook)
    patched = []
    for site, mod in modules.items():
        for attr, value in list(vars(mod).items()):
            target = originals.get(id(value)) if callable(value) else None
            if target is None:
                continue
            name, hook = target
            setattr(mod, attr, tracer.wrap(name, value, site, hook))
            patched.append((mod, attr, value))
    return patched


def uninstall(patched: list) -> None:
    for mod, attr, value in patched:
        setattr(mod, attr, value)
