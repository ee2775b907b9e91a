"""Opt-in run tracing: named counters.

``count`` does nothing unless a collector is active in the current context
(``with collect() as c: ...``), so instrumented code pays one
context-variable lookup when tracing is off.  Counts are deterministic, so
reports can compare them across runs.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager

_ACTIVE = contextvars.ContextVar("triflat_trace", default=None)


class Collector:
    """Counters (key -> int)."""

    def __init__(self):
        self.counts = {}


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
