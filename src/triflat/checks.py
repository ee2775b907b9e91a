"""Static feedback linearizability, and the outcome record checks return.

A check returns a verdict plus the first failing condition rather than
raising, so callers can report diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diffgeo import drift_step, flag, is_involutive, pruned
from .sampling import Sampler
from .systems import AffineSystem


@dataclass
class CheckOutcome:
    verdict: bool
    failing: Optional[str] = None

    def __bool__(self):
        return self.verdict


def drift_flag(sys: AffineSystem, sp: Sampler):
    """D_1 = span{b1, b2}, D_{i+1} = D_i + [a, D_i], as a lazy :func:`flag`."""
    return flag(pruned(sys.input_distribution(), sp), lambda D: drift_step(D, sys.drift, sp), sp)


def check_static_feedback_linearizable(sys: AffineSystem, sp: Sampler) -> CheckOutcome:
    """All D_i involutive and D_{n-1} the full tangent space."""
    for i, (D, rank) in enumerate(drift_flag(sys, sp), start=1):
        if not is_involutive(D, sp):
            return CheckOutcome(False, f"D{i} is not involutive")
    if rank != sys.n:
        return CheckOutcome(False, "chain stalls below the full tangent space")
    if i > max(1, sys.n - 1):
        return CheckOutcome(False, "chain reaches full rank too late")
    return CheckOutcome(True)
