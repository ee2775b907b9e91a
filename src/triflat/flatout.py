"""Flat output derivation from the decision report, without transforming.

The two output functions are read off the involutive distribution ladder.
The terminal-chain case decides only where phi1 comes from (an integral of
the annihilator of the top drift extension, or the caller's choice when
there is no terminal chain) and which codistribution phi2 is integrated
from.  Whether phi1 annihilates the Cauchy characteristics of the last flag
member is the transform's membership question of that member's ladder level
(:func:`~triflat.diffgeo.characteristic_annihilator`, asked through
:func:`~triflat.diffgeo.form_in_span`); whether the kernel of the
annihilator sum lies in that member is decided from sampled values alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .diffgeo import (
    annihilator,
    characteristic_annihilator,
    codistribution_rank,
    differential,
    form_in_span,
    generic_rank,
    kernel_within,
    lie_derivative,
)
from .errors import IntegrationError, NotApplicable, TriflatError
from .expr import Expr, Sym, ZERO
from .fields import Codistribution
from .integrate import integrate_codistribution
from .sampling import Sampler
from .simplify import simplify
from .triform import CASE_NO_X1, CASE_TWO_CHAINS, TriangularReport


@dataclass
class FlatOutput:
    phi1: Expr
    phi2: Expr
    case: str
    l_perp: Codistribution
    provenance: Tuple[str, str]
    chain_lengths: Tuple[int, int]
    feeds: Tuple[Expr, Expr] = (None, None)  # core-top functions (chain bottoms)

    def pair(self):
        return (self.phi1, self.phi2)


def _last_flag(report):
    """The last non-involutive derived-flag member (level n2 - 3)."""
    return report.delta1_flags[report.n2 - 3]


def flat_output_for_report(
    report: TriangularReport,
    sp: Sampler,
    phi1: Optional[Expr] = None,
    hints: Sequence[Expr] = (),
) -> FlatOutput:
    """The flat output pair of a passing report, for all three cases.

    With two terminal chains phi2 integrates the annihilator of the short
    chain's extension member, knowing phi1 and its drift derivatives up to
    the length difference.  Otherwise phi2 integrates ann(last flag member)
    plus d(L_a^s phi1), knowing phi1 and its derivatives up to s.
    """
    if not report.verdict:
        raise NotApplicable("flat outputs exist only for passing systems")
    sysm, case = report.system, report.case
    a = sysm.drift
    long_len, short_len = report.chain_lengths
    if case == CASE_NO_X1:
        phi1, source1 = _chosen_phi1(report, sp, phi1), "user"
    else:
        top = integrate_codistribution(
            annihilator(report.g_chain[report.s - 1], sp), sp, hints=hints
        )
        phi1, source1 = top[0].expr, top[0].source
    if case == CASE_TWO_CHAINS:
        knowns = [lie_derivative(a, phi1, k) for k in range(long_len - short_len + 1)]
        found = top if long_len == short_len else integrate_codistribution(
            annihilator(report.g_chain[short_len - 1], sp), sp, hints=hints, knowns=knowns
        )
    else:
        knowns = [lie_derivative(a, phi1, k) for k in range(long_len + 1)]
        lperp = _extended_annihilator(report, sp, knowns[-1])
        found = integrate_codistribution(
            lperp, sp, hints=hints, knowns=knowns, extra_candidates=sysm.call_arguments()
        )
    new = [fi for fi in found if fi.expr not in knowns]
    if not new:
        raise IntegrationError("no independent second output found")
    phi2 = new[0].expr
    feeds = (lie_derivative(a, phi1, long_len), phi2)
    if case == CASE_TWO_CHAINS:
        feeds = (feeds[0], lie_derivative(a, phi2, short_len))
        lperp = _extended_annihilator(report, sp, *feeds)
    out = FlatOutput(
        phi1, phi2, case, lperp, (source1, new[0].source), report.chain_lengths, feeds
    )
    _validate(report, out, sp)
    return out


def _chosen_phi1(report, sp, phi1) -> Expr:
    """The caller's phi1 for the no-terminal-chain case, checked."""
    if phi1 is None:
        raise NotApplicable(
            "a first output function must be supplied; admissible coordinate "
            f"choices: {', '.join(admissible_phi1(report, sp)) or 'none found'}"
        )
    phi1 = simplify(phi1)
    dphi1 = differential(phi1, report.system.frame)
    if all(c == ZERO for c in dphi1.coefficients):
        raise NotApplicable("the chosen first output has zero differential")
    if not form_in_span(dphi1, characteristic_annihilator(_last_flag(report), sp), sp):
        raise NotApplicable(
            "the chosen first output does not annihilate the characteristic "
            "directions of the last flag member"
        )
    return phi1


def _extended_annihilator(report, sp, *functions) -> Codistribution:
    """Annihilator of the last flag member extended by the differentials."""
    frame = report.system.frame
    forms = list(annihilator(_last_flag(report), sp).forms)
    forms += [differential(f, frame) for f in functions]
    return Codistribution(frame, forms)


def admissible_phi1(report, sp) -> List[str]:
    """State coordinates annihilating the last flag member's characteristics."""
    frame = report.system.frame
    W = characteristic_annihilator(_last_flag(report), sp)
    return [x for x in frame if form_in_span(differential(Sym(x), frame), W, sp)]


def _validate(report, out: FlatOutput, sp: Sampler):
    frame = report.system.frame
    pair = Codistribution(frame, [differential(f, frame) for f in out.pair()])
    if codistribution_rank(pair, sp) != 2:
        raise TriflatError("flat output functions are not independent")
    flag = _last_flag(report)
    lperp_rank = codistribution_rank(out.l_perp, sp)
    if lperp_rank != report.system.n - (generic_rank(flag, sp) - 1):
        raise TriflatError("annihilator sum has an unexpected rank")
    if not kernel_within(out.l_perp, flag, sp):
        raise TriflatError("annihilated distribution escapes the flag member")
