"""Run one job in a forked child with a wall-clock budget.

The child starts from the parent's memory image, so it sees exactly the
caches the parent has filled (none, as long as the parent only imported
the package and prepared inputs without calling into it).  It reports back
over a pipe, one JSON object per line: ``{"progress": ...}`` lines while it
works and one final ``{"result": ...}`` or ``{"error": ...}`` line.

While it waits, the parent can call ``tick()`` every ``tick_s`` seconds
and keep what it returns; the harness uses this to probe the speed of the
CPU the child runs on (see ``speed.py``).

At the budget the parent sends SIGTERM; the child answers with one
``{"stopped": on_stop()}`` line and exits, so a stopped job still reports
how far it got.  A child that does not end within ``GRACE_S`` after that is
killed.  The parent always reaps the child before returning.
"""

from __future__ import annotations

import json
import os
import select
import signal
import time
from dataclasses import dataclass, field

_fd = None  # the child's write end; None in the parent
GRACE_S = 2.0  # after SIGTERM, time to report before SIGKILL


def _send(obj) -> None:
    data = (json.dumps(obj) + "\n").encode()
    while data:
        data = data[os.write(_fd, data):]


def progress(payload) -> None:
    """Report progress from inside a child; a no-op in the parent."""
    if _fd is not None:
        _send({"progress": payload})


@dataclass
class Outcome:
    result: object = None  # the job's return value, JSON-decoded
    error: str | None = None  # exception raised by the job
    timed_out: bool = False
    stopped: object = None  # what on_stop() returned at the budget
    progress: list = field(default_factory=list)
    ticks: list = field(default_factory=list)  # what tick() returned
    elapsed_s: float = 0.0  # parent-side wall time, fork to end of output
    cpu_s: float = 0.0  # the child's CPU time, user plus system
    maxrss_mb: float = 0.0  # the child's peak resident set


def _child(job, wfd, on_stop):
    global _fd
    _fd = wfd

    def stop(_signum, _frame):
        try:
            _send({"stopped": on_stop() if on_stop else None})
        finally:
            os._exit(0)

    signal.signal(signal.SIGTERM, stop)
    try:
        _send({"result": job()})
    except Exception as e:  # reported to the parent, which fails the job
        _send({"error": f"{type(e).__name__}: {e}"})


def run_isolated(job, budget_s: float, on_stop=None, tick=None, tick_s=1.0) -> Outcome:
    """Fork, run ``job()`` in the child, stop it after ``budget_s`` seconds."""
    rfd, wfd = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            _child(job, wfd, on_stop)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    out = Outcome()
    chunks = []
    deadline = t0 + budget_s
    next_tick = t0 + tick_s
    try:
        with os.fdopen(rfd, "rb", buffering=0) as reader:
            while True:
                now = time.perf_counter()
                left = deadline - now
                if left <= 0:
                    if out.timed_out:  # grace period over
                        os.kill(pid, signal.SIGKILL)
                        break
                    out.timed_out = True
                    os.kill(pid, signal.SIGTERM)
                    deadline += GRACE_S
                    continue
                if tick is not None and not out.timed_out:
                    if now >= next_tick:
                        out.ticks.append(tick())
                        next_tick = time.perf_counter() + tick_s
                        continue
                    left = min(left, next_tick - now)
                ready, _, _ = select.select([reader], [], [], left)
                if ready:
                    chunk = reader.read(1 << 16)
                    if not chunk:
                        break
                    chunks.append(chunk)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    out.elapsed_s = time.perf_counter() - t0
    _, status, usage = os.wait4(pid, 0)
    out.maxrss_mb = usage.ru_maxrss / 1024.0
    out.cpu_s = usage.ru_utime + usage.ru_stime
    for raw in b"".join(chunks).splitlines():
        try:
            msg = json.loads(raw)
        except ValueError:
            continue  # a line cut short by SIGKILL
        if "progress" in msg:
            out.progress.append(msg["progress"])
        elif "result" in msg:
            out.result = msg["result"]
        elif "error" in msg:
            out.error = msg["error"]
        elif "stopped" in msg:
            out.stopped = msg["stopped"]
    if not out.timed_out and out.result is None and out.error is None:
        out.error = f"child ended without a result (wait status {status})"
    return out
