"""Spans around the benchmark's calls into the library's layers.

A span is recorded for each public call an op makes (`blades_to_efb`,
`mv_mul`, `classification_record`, ...), named `<layer>.<call>`.  Layer
calls never nest inside one another, so a span's self time is its whole
duration; the op's own self time is its duration minus its spans.  Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

from time import perf_counter


class NullTracer:
    """Tracing off: the call goes straight through."""

    enabled = False
    op = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Tracing on: one span per call, with the op-counter deltas it caused.

    `counts` returns the library's (blade_pairs, efb_triples) counters,
    so a span carries the exact number of products its call executed.
    """

    enabled = True

    def __init__(self, counts):
        self.counts = counts
        self.op = None
        # (op, name, start, end, blade_pairs, efb_triples, raised)
        self.spans: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        c0 = self.counts()
        raised = True
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
            raised = False
            return out
        finally:
            t1 = perf_counter()
            c1 = self.counts()
            self.spans.append((self.op, name, t0, t1, c1[0] - c0[0],
                               c1[1] - c0[1], raised))


NULL = NullTracer()


def _noop():
    return None


def span_cost(counts, n: int = 20000) -> float:
    """Seconds that tracing adds to one call, from n empty calls each way."""
    traced, plain = Tracer(counts), NULL
    t0 = perf_counter()
    for _ in range(n):
        traced.call("noop", _noop)
    t1 = perf_counter()
    for _ in range(n):
        plain.call("noop", _noop)
    t2 = perf_counter()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / n)
