"""Decision procedure for equivalence to the flat triangular normal form.

Assembles the distribution ladder for a given direction candidate, evaluates
the five structural conditions (a)-(e), classifies the terminal-chain case
and records all witnesses in a report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .diffgeo import (
    ad_iter,
    basis,
    characteristics_span,
    derived_step,
    drift_compatible,
    drift_extension_rank,
    drift_step,
    extend,
    flag,
    generic_rank,
    is_involutive,
    lie_bracket,
    pruned,
)
from .direction_search import BracketChain, CheckOutcome, DirectionCandidate, compute_bracket_chain
from .fields import Distribution
from .sampling import Sampler
from .systems import AffineSystem

CASE_TWO_CHAINS = "TwoChains"
CASE_ONE_CHAIN = "OneChain"
CASE_NO_X1 = "NoX1"


@dataclass
class TriangularReport:
    system: AffineSystem
    chain: BracketChain
    candidate: Optional[DirectionCandidate]
    delta0: Optional[Distribution] = None
    delta1: Optional[Distribution] = None
    delta1_flags: List[Distribution] = field(default_factory=list)
    closure: Optional[Distribution] = None
    g_chain: List[Distribution] = field(default_factory=list)
    items: dict = field(default_factory=dict)  # 'a'..'e' -> bool | None (skipped)
    failures: List[str] = field(default_factory=list)
    n2: Optional[int] = None
    s: Optional[int] = None
    case: Optional[str] = None
    chain_lengths: Optional[tuple] = None
    verdict: bool = False

    @property
    def depth(self):
        return self.chain.depth

    @property
    def dims(self):
        l = self.chain_lengths or (None, None)
        return {
            "x1_chain_lengths": l,
            "n2": self.n2,
            "n3": self.depth,
        }


def _fail(report, label):
    report.failures.append(label)
    return report


def triangular_form_check(
    sys: AffineSystem,
    candidate: DirectionCandidate,
    sp: Sampler,
    chain: Optional[BracketChain] = None,
) -> TriangularReport:
    """Evaluate the full set of structural conditions for one candidate."""
    chain = chain or compute_bracket_chain(sys, sp)
    report = TriangularReport(sys, chain, candidate)
    if not chain.rank_ok:
        return _fail(report, f"chain ranks {chain.ranks} differ from 2, 4, ...")
    if not chain.cauchy_ok:
        return _fail(
            report,
            "characteristics of the first non-involutive member coincide with "
            "the previous member",
        )
    n3 = chain.depth
    a = sys.drift
    v_low = ad_iter(a, n3 - 1, candidate.field)
    v_high = lie_bracket(a, v_low)
    delta0 = pruned(extend(chain.d(n3 - 1), [v_low]), sp)
    delta1 = pruned(extend(chain.d(n3), [v_high]), sp)
    report.delta0, report.delta1 = delta0, delta1
    if generic_rank(delta0, sp) != 2 * n3 - 1 or generic_rank(delta1, sp) != 2 * n3 + 1:
        return _fail(report, "candidate direction degenerates the ladder ranks")
    return _run_items(report, delta0, delta1, sp)


def _run_items(report: TriangularReport, delta0, delta1, sp: Sampler) -> TriangularReport:
    sys = report.system
    a = sys.drift
    n = sys.n

    # (a) characteristics of delta1 equal delta0
    report.items["a"] = characteristics_span(delta1, delta0, sp)
    if not report.items["a"]:
        _fail(report, "(a) characteristic distribution differs from the lower rung")

    # (b) derived flag grows by one per step up to the involutive closure
    flags, ranks = map(list, zip(*flag(delta1, lambda D: derived_step(D, sp), sp)))
    report.delta1_flags = flags
    report.closure = flags[-1]
    increments_ok = all(b - a == 1 for a, b in zip(ranks, ranks[1:]))
    non_involutive = len(flags) > 1
    report.items["b"] = increments_ok and non_involutive
    if not report.items["b"]:
        return _fail(report, "(b) derived flag of the ladder top does not grow by single steps")
    report.n2 = ranks[-1] - ranks[0] + 2
    n2 = report.n2

    # (c) drift compatibility along the characteristic ladder, plus coupling
    compat = True
    for i in range(1, n2 - 2):  # flag levels 1 .. n2-3
        if not drift_compatible(flags[i], a, sp):
            compat = False
            _fail(report, f"(c) drift incompatible at flag level {i}")
            break
    if ranks[-1] == n:
        report.items["c"] = compat
        report.items["d"] = None
        report.items["e"] = None
        report.case = CASE_NO_X1
        report.chain_lengths = (0, 0)
        report.s = 0
        report.g_chain = [report.closure]
    else:
        coupling_src = flags[n2 - 3] if n2 >= 3 else delta1
        extended = drift_extension_rank(report.closure, basis(coupling_src, sp), a, sp)
        coupling = extended == ranks[-1] + 1
        if not coupling:
            _fail(report, "(c) coupling rank condition fails")
        report.items["c"] = compat and coupling

        # (d), (e): prolong the closure by the drift until the full space
        g_chain, g_ranks = [], []
        involutive_ok = True
        for k, (D, r) in enumerate(flag(report.closure, lambda D: drift_step(D, a, sp), sp)):
            g_chain.append(D)
            g_ranks.append(r)
            if k and not is_involutive(D, sp):
                involutive_ok = False
                _fail(report, f"(d) extension step {k} is not involutive")
                break
        report.g_chain = g_chain
        report.items["d"] = involutive_ok
        reached = g_ranks[-1] == n
        report.items["e"] = reached
        if not reached:
            _fail(report, "(e) drift extensions of the closure stall below the full space")
        report.s = len(g_chain) - 1
        if reached and involutive_ok:
            increments = [b - a_ for a_, b in zip(g_ranks, g_ranks[1:])]
            if all(i in (1, 2) for i in increments):
                long_len = report.s
                short_len = sum(1 for i in increments if i == 2)
                report.chain_lengths = (long_len, short_len)
                report.case = (
                    CASE_TWO_CHAINS if increments and increments[0] == 2 else CASE_ONE_CHAIN
                )
            else:
                _fail(report, "terminal chain increments are not 1 or 2")

    ok = all(v for v in report.items.values() if v is not None)
    if ok and report.chain_lengths is not None and ranks[-1] + sum(report.chain_lengths) != n:
        _fail(report, "block dimensions do not add up to the state count")
    report.verdict = not report.failures
    return report


def equal_length_variant_check(sys: AffineSystem, chain: BracketChain,
                               sp: Sampler) -> CheckOutcome:
    """Conditions (a)-(e) run on the members of sys's bracket chain themselves.

    This recognizes the stricter normal form whose terminal chains have
    equal lengths (with no cross-coupling in the last core equation).
    """
    if not chain.rank_ok:
        return CheckOutcome(False, "chain ranks differ from 2, 4, ...")
    report = _run_items(TriangularReport(sys, chain, None), chain.d(chain.depth), chain.top, sp)
    return CheckOutcome(report.verdict, report.failures[0] if report.failures else None)
