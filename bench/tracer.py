"""Spans around the benchmark's calls into the package's public functions.

The package itself is not instrumented: every layer call an op makes goes
through `Tracer.call(layer, fn, ...)`.  `NullTracer` (the untraced runs)
calls straight through; `Tracer` (the `--trace 1` runs) keeps one span per
call, (layer, start, end, raised), and integer counters the ops add
(records, steps, ...).  Spans stay in memory and are summarised when the
run ends, when their durations can be corrected for host speed.  Layer
calls never nest here: each span is one call made by an op, so a layer's
busy time is its self time as seen from outside the package.
"""

from __future__ import annotations

import time
from collections import Counter


class NullTracer:
    """Untraced: call through, record nothing."""

    enabled = False

    def call(self, layer, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, key, value=1):
        pass


class Tracer:
    """In-memory spans and counters of one run, timed on `clock`."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = Counter()

    def call(self, layer, fn, *args, **kwargs):
        start, raised = self.clock(), True
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            self.spans.append((layer, start, self.clock(), raised))

    def count(self, key, value=1):
        self.counters[key] += value

    def overhead_s(self, reps=2000):
        """Wall time tracing added to the run: span count times the extra
        cost of one traced call over an untraced one, measured here on a
        no-op (median of five batches).  Subtracting an untraced run's op
        times instead would be swamped by their run-to-run noise."""
        def noop():
            pass

        extra = []
        for _ in range(5):
            probe, null = Tracer(self.clock), NullTracer()
            t0 = time.perf_counter()
            for _ in range(reps):
                probe.call("probe", noop)
            t1 = time.perf_counter()
            for _ in range(reps):
                null.call("probe", noop)
            t2 = time.perf_counter()
            extra.append(((t1 - t0) - (t2 - t1)) / reps)
        extra.sort()
        return len(self.spans) * extra[2]
