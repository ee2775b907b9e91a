"""Executable forms of the classical equivalence tests.

Each check returns a verdict plus a witness record (ranks, the first failing
condition) rather than raising, so callers can report diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .diffgeo import (
    basis,
    contains_generic,
    derived_step,
    drift_compatible,
    extend,
    generic_rank,
    is_involutive,
    lie_bracket,
    pruned,
)
from .fields import Distribution
from .sampling import Sampler
from .systems import AffineSystem


@dataclass
class CheckOutcome:
    verdict: bool
    failing: Optional[str] = None
    witness: dict = field(default_factory=dict)
    regular: Optional[bool] = None

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


def _derived_ranks(D: Distribution, sp: Sampler, n: int):
    out = [generic_rank(D, sp)]
    cur = D
    for _ in range(n):
        nxt = derived_step(cur, sp)
        r = generic_rank(nxt, sp)
        if r == out[-1]:
            break
        out.append(r)
        cur = nxt
    return out


def _lie_ranks(D: Distribution, sp: Sampler, n: int):
    base = basis(D, sp)
    out = [generic_rank(D, sp)]
    cur = pruned(D, sp)
    for _ in range(n):
        new = list(cur.fields)
        for v in base:
            for w in cur.fields:
                new.append(lie_bracket(v, w))
        nxt = pruned(Distribution(D.frame, new), sp)
        r = generic_rank(nxt, sp)
        if r == out[-1]:
            break
        out.append(r)
        cur = nxt
    return out


def check_chained(sys: AffineSystem, sp: Sampler) -> CheckOutcome:
    """Derived flag of span{b1, b2} grows by one per step up to full rank.

    The drift must lie in the input span (zero up to static feedback); the
    Lie-flag regularity condition is reported separately and does not affect
    the verdict.
    """
    n = sys.n
    D = sys.input_distribution()
    if not sys.drift.is_zero() and not contains_generic(pruned(D, sp), sys.drift, sp):
        return CheckOutcome(False, "drift does not vanish up to static feedback", {})
    ranks = _derived_ranks(D, sp, n)
    lranks = _lie_ranks(D, sp, n)
    expected = list(range(2, n + 1))
    regular = lranks == expected
    witness = {"derived_ranks": ranks, "lie_ranks": lranks}
    if ranks != expected:
        return CheckOutcome(False, "derived flag ranks are not 2 + i", witness, regular)
    return CheckOutcome(True, None, witness, regular)


def check_extended_chained(sys: AffineSystem, sp: Sampler) -> CheckOutcome:
    """Chained input geometry plus drift compatibility with the flag."""
    n = sys.n
    D = pruned(sys.input_distribution(), sp)
    ranks = _derived_ranks(D, sp, n)
    lranks = _lie_ranks(D, sp, n)
    expected = list(range(2, n + 1))
    regular = lranks == expected
    witness = {"derived_ranks": ranks, "lie_ranks": lranks}
    if ranks != expected:
        return CheckOutcome(False, "derived flag ranks are not 2 + i", witness, regular)
    flag = D
    for i in range(1, n - 2):
        flag = derived_step(flag, sp)
        if not drift_compatible(flag, sys.drift, sp):
            witness["failing_level"] = i
            return CheckOutcome(
                False, f"drift incompatible at flag level {i}", witness, regular
            )
    return CheckOutcome(True, None, witness, regular)
