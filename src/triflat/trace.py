"""Opt-in run tracing: named counters and timed spans.

Both ``count`` and ``span`` do nothing unless a collector is active in the
current context (``with collect() as c: ...``), so instrumented code pays
one context-variable lookup when tracing is off.  Counts are deterministic;
span times are kept apart from them, so reports can compare counts across
runs.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager

_ACTIVE = contextvars.ContextVar("triflat_trace", default=None)


class Collector:
    """Counters (key -> int) and spans (name -> [calls, seconds])."""

    def __init__(self):
        self.counts = {}
        self.spans = {}


@contextmanager
def collect():
    """Activate a fresh collector for the enclosed block and yield it."""
    collector = Collector()
    token = _ACTIVE.set(collector)
    try:
        yield collector
    finally:
        _ACTIVE.reset(token)


def count(key, n=1):
    collector = _ACTIVE.get()
    if collector is not None:
        collector.counts[key] = collector.counts.get(key, 0) + n


class span:
    """``with span(name): ...`` adds one call and its wall time to ``name``."""

    __slots__ = ("name", "collector", "start")

    def __init__(self, name):
        self.name = name
        self.collector = _ACTIVE.get()

    def __enter__(self):
        if self.collector is not None:
            self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.collector is not None:
            entry = self.collector.spans.setdefault(self.name, [0, 0.0])
            entry[0] += 1
            entry[1] += time.perf_counter() - self.start
        return False
