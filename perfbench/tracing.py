"""Tracing from outside the program: wrap the public functions each layer of
powcert calls in the next, record one span per call, and derive per-layer
self time and call counts from the spans.

A span is ``[name, start, end, parent, thread]`` with ``time.perf_counter``
endpoints.  Spans are kept in memory while the traced operation runs and are
written out once, when it has finished.  Nothing here is imported by powcert;
the wrappers replace module and class attributes and are removed again by
``Tracer.uninstall``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

# (module, attribute) pairs wrapped in the traced run.  Module names are
# relative to the powcert package; "PowerSeries2D" entries are methods of
# psa.PowerSeries2D, so they also see the calls psa makes internally.
CLI_NAMES = (
    "newton_solve",
    "pipeline_sweep",
    "symmetric_indices",
    "sup_weight",
    "spectral_K_from_gram",
    "delta_from_residual",
    "g_coefficient",
    "find_alpha",
    "exact_l2_norm",
    "linf_bound",
    "positivity_check",
    "amplitude_enclosure",
    "build_certificate",
)
TARGETS = (
    [("cli", n) for n in CLI_NAMES]
    + [
        ("quad", "ps_compose"),
        ("quad", "iv_matmul"),
        ("quad", "iv_corr2d"),
        ("quad", "iv_conv2d_full"),
        ("psa", "iv_conv2d_full"),
        ("quad", "iv_sin"),
        ("quad", "iv_cos"),
        ("psa", "iv_sin"),
        ("psa", "iv_cos"),
        ("quad", "iv_pow"),
        ("psa", "iv_pow"),
        ("PowerSeries2D", "__add__"),
        ("PowerSeries2D", "__mul__"),
        ("PowerSeries2D", "scale"),
        ("PowerSeries2D", "range"),
    ]
)
# the benchmark's own call into the public quadrature API (quad-oracle)
INTEGRAL_SPAN = "bench.integral_power"
SPAN_NAMES = [f"{owner}.{attr}" for owner, attr in TARGETS] + [INTEGRAL_SPAN]

CERTIFY_STAGE = [f"cli.{n}" for n in CLI_NAMES[5:]]


def _matmul_cost(a, b):
    (m, k), n = a.lo.shape, b.lo.shape[1]
    # iv_matmul forms five real products of the same shape
    return 10 * m * k * n, 0


def _window_cost(windows, taps):
    # one (windows x taps) matmul against a vector, over window matrices
    # materialized for lo and hi in binary64
    return 10 * windows * taps, 2 * 8 * windows * taps


def _corr2d_cost(t, k):
    (p, q), (P, Q) = k.lo.shape, t.lo.shape
    return _window_cost((P - p + 1) * (Q - q + 1), p * q)


def _conv2d_cost(u, v):
    (m, n), (a, b) = u.lo.shape, v.lo.shape
    return _window_cost((a + m - 1) * (b + n - 1), m * n)


COSTS = {
    "iv_matmul": _matmul_cost,
    "iv_corr2d": _corr2d_cost,
    "iv_conv2d_full": _conv2d_cost,
}


class Tracer:
    """Span recorder.  ``wrap`` returns a function that records a span around
    each call; spans of one thread nest through a thread-local stack."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        # hooks run on the sweep's worker threads too
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def wrap(self, name, fn, after=None):
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, ident()]
            spans.append(rec)
            stack.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _cost_hook(self, attr):
        cost = COSTS.get(attr)
        if cost is None:
            return None
        counters, lock = self.counters, self._lock

        def after(args, _out):
            flops, nbytes = cost(*args[:2])
            with lock:
                counters["ivarray.flops"] += flops
                counters["ivarray.window_bytes"] += nbytes

        return after

    def _sweep_hook(self):
        counters = self.counters

        def after(_args, out):
            stats = out[3]
            counters["quad.leaf_rects"] += stats["rects"]
            counters["quad.over_budget"] += stats["over_budget"]

        return after

    def install(self, pc):
        """Wrap every TARGETS entry; ``pc`` holds the powcert modules, as
        ``workloads.import_powcert`` gives them."""
        for owner, attr in TARGETS:
            obj = pc.psa.PowerSeries2D if owner == "PowerSeries2D" else getattr(pc, owner)
            orig = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
            if owner == "cli" and attr == "pipeline_sweep":
                fn = self._timed_sweep(orig)
                after = self._sweep_hook()
            else:
                fn, after = orig, self._cost_hook(attr)
            setattr(obj, attr, self.wrap(f"{owner}.{attr}", fn, after))
            self._patches.append((obj, attr, orig))

    def _timed_sweep(self, sweep):
        counters = self.counters

        def timed(*args, **kwargs):
            c0 = time.process_time()
            try:
                return sweep(*args, **kwargs)
            finally:
                counters["quad.sweep_cpu_s"] += time.process_time() - c0

        return timed

    def uninstall(self):
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    def dump(self, path):
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        threads = {}
        rows = []
        for name, start, end, parent, thread in self.spans:
            tid = threads.setdefault(thread, len(threads))
            rows.append([name, start, end, None if parent is None else index[id(parent)], tid])
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counters": dict(self.counters)}, fh)


def summarize(spans):
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the time its child spans cover.
    Children are recorded on their parent's thread only, and the spans of
    one thread nest without overlap, so the covered time is the sum of the
    direct children's durations."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _thread in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    for i, (name, start, end, _parent, _thread) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return out
