"""A fixed probe of the machine's speed, taken around and during jobs.

The machine this benchmark was built on (2 shared vCPUs) changes speed by
up to 1.8x from one few-second spell to the next, in CPU time as much as in
wall time.  A job's raw time then says as much about the spell it ran in as
about the program.  ``probe()`` times, in CPU time as the jobs are timed
(``workloads.CLOCK``), a fixed pure-Python workload shaped like the
symbolic layer (expression trees of exact fractions, evaluated through a
memo dict), which no change to ``src/`` can alter.

The harness runs it before every job, after the last, and every
``DURING_S`` seconds while a job runs in its child process.  It scales a
job's time by ``REF_S`` over the mean of the probes around and during it:
the job's time at the speed at which the probe takes ``REF_S``.  A probe
during a job takes turns with the job on its CPU, but the job is timed in
its own CPU time, to which the probe adds nothing.  With the two probes
around a job alone, a job of seconds was often scaled by a speed it did
not run at.  The harness pins itself and its children to one CPU, so that
the probes gauge the CPU the jobs run on.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

REF_S = 0.014  # median probe() between jobs on the machine above, Python 3.11
DEPTH = 9  # a tree of 2**9 leaves
ROUNDS = 2
# a probe is the fastest of this many timings: a hiccup during one short
# timing says nothing about the speed the next job will see
REPEATS = 3
DURING_S = 0.5


def probe() -> float:
    """CPU seconds the fixed probe workload takes now (its fastest repeat)."""

    def build(rng, depth):
        if depth == 0:
            if rng.random() < 0.6:
                return ("sym", rng.randrange(6))
            return ("const", Fraction(rng.randrange(1, 9), rng.randrange(1, 9)))
        return (rng.choice("+*"), build(rng, depth - 1), build(rng, depth - 1))

    def value(tree, memo):
        out = memo.get(tree)
        if out is None:
            if tree[0] == "sym":
                out = Fraction(tree[1] + 1, 3)
            elif tree[0] == "const":
                out = tree[1]
            else:
                a, b = value(tree[1], memo), value(tree[2], memo)
                out = (a + b if tree[0] == "+" else a * b).limit_denominator(10**6)
            memo[tree] = out
        return out

    best = float("inf")
    for _ in range(REPEATS):
        rng = random.Random(7)  # the same trees every repeat
        start = time.process_time()
        for _ in range(ROUNDS):
            value(build(rng, DEPTH), {})
        best = min(best, time.process_time() - start)
    return best


def factor(before: float, after: float, during=()) -> float:
    """Scale for a job between probes ``before`` and ``after``, with the
    probes taken ``during`` it."""
    probes = [before, *during, after]
    return REF_S * len(probes) / sum(probes)
