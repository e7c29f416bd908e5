"""In-memory spans around library calls, and what a span costs.

A span is ``(op, name, parent, start, end)``: ``op`` identifies one
(game, route) operation and is shared by the route span and every call span
inside it; ``parent`` is the name of the enclosing span, or ``None``.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class NullTracer:
    """Untraced calls: no clock reads, no records.  ``last`` names the call
    in progress so that an exception can be charged to its layer."""

    traced = False

    def __init__(self):
        self.last = None

    def call(self, name, fn, *args):
        self.last = name
        return fn(*args)

    @contextmanager
    def span(self, op, name):
        yield


class Tracer(NullTracer):
    """Records a span around every call, parented to the open span."""

    traced = True

    def __init__(self):
        super().__init__()
        self.spans: list[tuple] = []
        self._op = None
        self._parent = None

    def call(self, name, fn, *args):
        self.last = name
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((self._op, name, self._parent, start, time.perf_counter()))

    @contextmanager
    def span(self, op, name):
        outer = self._op, self._parent
        self._op, self._parent = op, name
        start = time.perf_counter()
        try:
            yield
        finally:
            self._op, self._parent = outer
            self.spans.append((op, name, outer[1], start, time.perf_counter()))


def span_cost(calls: int = 20_000, batches: int = 7) -> float:
    """Seconds one recorded call span adds over an untraced call: the
    median over ``batches`` of the difference between ``calls`` traced and
    untraced calls of a no-op, divided by ``calls``."""

    def noop():
        return None

    def batch(tracer):
        start = time.perf_counter()
        with tracer.span("calibration", "route.calibration"):
            for _ in range(calls):
                tracer.call("calibration.noop", noop)
        return time.perf_counter() - start

    return statistics.median(
        (batch(Tracer()) - batch(NullTracer())) / calls for _ in range(batches)
    )


def as_records(spans) -> list[dict]:
    return [
        {"id": op, "name": name, "parent": parent, "start": start, "end": end}
        for op, name, parent, start, end in spans
    ]
