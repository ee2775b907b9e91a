"""Static feedback linearizability, and the outcome record checks return.

A check returns a verdict plus a witness record (ranks, the first failing
condition) rather than raising, so callers can report diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .diffgeo import (
    basis,
    extend,
    generic_rank,
    is_involutive,
    lie_bracket,
    pruned,
)
from .sampling import Sampler
from .systems import AffineSystem


@dataclass
class CheckOutcome:
    verdict: bool
    failing: Optional[str] = None
    witness: dict = field(default_factory=dict)

    def __bool__(self):
        return self.verdict


def _drift_chain(sys: AffineSystem, sp: Sampler, cap=None):
    """D_1 = span{b1, b2}, D_{i+1} = D_i + [a, D_i], pruned at each step."""
    chain = [pruned(sys.input_distribution(), sp)]
    cap = cap if cap is not None else sys.n
    for _ in range(cap):
        cur = chain[-1]
        if generic_rank(cur, sp) == sys.n:
            break
        nxt = pruned(
            extend(cur, [lie_bracket(sys.drift, f) for f in basis(cur, sp)]), sp
        )
        if generic_rank(nxt, sp) == generic_rank(cur, sp):
            chain.append(nxt)
            break
        chain.append(nxt)
    return chain


def check_static_feedback_linearizable(sys: AffineSystem, sp: Sampler) -> CheckOutcome:
    """All D_i involutive and D_{n-1} the full tangent space."""
    chain = _drift_chain(sys, sp)
    ranks = [generic_rank(D, sp) for D in chain]
    witness = {"ranks": ranks}
    for i, D in enumerate(chain, start=1):
        if not is_involutive(D, sp):
            return CheckOutcome(False, f"D{i} is not involutive", witness)
    if ranks[-1] != sys.n:
        return CheckOutcome(False, "chain stalls below the full tangent space", witness)
    if len(ranks) > max(1, sys.n - 1):
        return CheckOutcome(False, "chain reaches full rank too late", witness)
    return CheckOutcome(True, None, witness)
