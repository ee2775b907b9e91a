"""Flat output derivation from the decision report, without transforming.

The two output functions are read off the involutive distribution ladder:
depending on how many terminal integrator chains exist, they come from the
annihilators of the last proper members of the drift-extension sequence, or
from the annihilator sum involving the last non-involutive flag member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .diffgeo import (
    annihilator,
    basis,
    codistribution_rank,
    contains_distribution,
    differential,
    generic_rank,
    lie_derivative,
)
from .errors import IntegrationError, NotApplicable, TriflatError
from .expr import Expr, ZERO
from .fields import Codistribution, Distribution
from .integrate import integrate_codistribution
from .sampling import MatrixSampler, Sampler, is_zero_generic, ranks
from .simplify import simplify
from .triform import CASE_NO_X1, CASE_ONE_CHAIN, CASE_TWO_CHAINS, TriangularReport


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


def _independent(report, sp, *functions):
    frame = report.system.frame
    rows = [list(differential(f, frame).coefficients) for f in functions]
    _points, stack = MatrixSampler(rows, frame, sp).stack()
    return bool(ranks(stack, sp.tol).max() == len(rows))


def _last_flag(report):
    """The last non-involutive derived-flag member (level n2 - 3)."""
    return report.delta1_flags[report.n2 - 3]


def _last_characteristics(report) -> Distribution:
    """Cauchy characteristics of the last flag member, solved once per report."""
    return report.characteristics(report.n2 - 3)


def flat_output_for_report(
    report: TriangularReport,
    sp: Sampler,
    phi1: Optional[Expr] = None,
    hints: Sequence[Expr] = (),
) -> FlatOutput:
    if not report.verdict:
        raise NotApplicable("flat outputs exist only for passing systems")
    if report.case == CASE_TWO_CHAINS:
        return flat_output_two_chains(report, sp, hints)
    if report.case == CASE_ONE_CHAIN:
        return flat_output_one_chain(report, sp, hints)
    return flat_output_no_chains(report, sp, phi1, hints)


def flat_output_two_chains(report, sp: Sampler, hints=()) -> FlatOutput:
    """Both terminal chains exist; outputs linearize the terminal block."""
    if report.case != CASE_TWO_CHAINS:
        raise NotApplicable("terminal block does not have two chains")
    sysm = report.system
    a = sysm.drift
    g_chain = report.g_chain
    s = report.s
    long_len, short_len = report.chain_lengths
    top = annihilator(g_chain[s - 1], sp)
    if long_len == short_len:
        ints = integrate_codistribution(top, sp, hints=hints)
        phi1, phi2 = ints[0].expr, ints[1].expr
        prov = (ints[0].source, ints[1].source)
    else:
        ints1 = integrate_codistribution(top, sp, hints=hints)
        phi1 = ints1[0].expr
        ladder = [phi1]
        for _ in range(long_len - short_len):
            ladder.append(lie_derivative(a, ladder[-1]))
        lower = annihilator(g_chain[short_len - 1], sp)
        ints2 = integrate_codistribution(lower, sp, hints=hints, knowns=ladder)
        new = [fi for fi in ints2 if fi.expr not in ladder]
        if not new:
            raise IntegrationError("no independent second output found")
        phi2 = new[0].expr
        prov = (ints1[0].source, new[0].source)
    feeds = (
        _iterated_lie(a, phi1, long_len),
        _iterated_lie(a, phi2, short_len),
    )
    lp = _l_perp_from_feeds(report, feeds, sp)
    out = FlatOutput(phi1, phi2, report.case, lp, prov, report.chain_lengths, feeds)
    _validate(report, out, sp)
    return out


def _iterated_lie(a, f, k):
    out = f
    for _ in range(k):
        out = lie_derivative(a, out)
    return out


def flat_output_one_chain(report, sp: Sampler, hints=()) -> FlatOutput:
    """A single terminal chain fixes the first output; the second spans the
    annihilator sum with the chain's drift derivatives."""
    if report.case != CASE_ONE_CHAIN:
        raise NotApplicable("terminal block does not have exactly one chain")
    sysm = report.system
    a = sysm.drift
    s = report.s
    top = annihilator(report.g_chain[s - 1], sp)
    ints1 = integrate_codistribution(top, sp, hints=hints)
    phi1 = ints1[0].expr
    ladder = [phi1]
    for _ in range(s):
        ladder.append(lie_derivative(a, ladder[-1]))
    lperp = _extended_annihilator(report, ladder[-1], sp)
    ints2 = integrate_codistribution(
        lperp, sp, hints=hints, knowns=ladder, extra_candidates=_rhs_pool(sysm)
    )
    new = [fi for fi in ints2 if fi.expr not in ladder]
    if not new:
        raise IntegrationError("no independent second output found")
    phi2 = new[0].expr
    out = FlatOutput(
        phi1, phi2, report.case, lperp, (ints1[0].source, new[0].source),
        report.chain_lengths, (ladder[-1], phi2),
    )
    _validate(report, out, sp)
    return out


def flat_output_no_chains(report, sp: Sampler, phi1, hints=()) -> FlatOutput:
    """No terminal block: the first output is the caller's choice."""
    if report.case != CASE_NO_X1:
        raise NotApplicable("system has a terminal block; no free choice here")
    if phi1 is None:
        raise NotApplicable(
            "a first output function must be supplied; admissible coordinate "
            f"choices: {', '.join(admissible_phi1(report, sp)) or 'none found'}"
        )
    phi1 = simplify(phi1)
    dphi1 = differential(phi1, report.system.frame)
    if all(c == ZERO for c in dphi1.coefficients):
        raise NotApplicable("the chosen first output has zero differential")
    C = _last_characteristics(report)
    for f in basis(C, sp):
        if not is_zero_generic(simplify(dphi1.pair(f)), sp):
            raise NotApplicable(
                "the chosen first output does not annihilate the characteristic "
                "directions of the last flag member"
            )
    lperp = _extended_annihilator(report, phi1, sp)
    ints = integrate_codistribution(
        lperp, sp, hints=hints, knowns=[phi1], extra_candidates=_rhs_pool(report.system)
    )
    new = [fi for fi in ints if fi.expr != phi1]
    if not new:
        raise IntegrationError("no independent second output found")
    phi2 = new[0].expr
    out = FlatOutput(
        phi1, phi2, report.case, lperp, ("user", new[0].source),
        report.chain_lengths, (phi1, phi2),
    )
    _validate(report, out, sp)
    return out


def _extended_annihilator(report, top_function, sp) -> Codistribution:
    """Annihilator of the last flag member extended by one differential."""
    frame = report.system.frame
    forms = list(annihilator(_last_flag(report), sp).forms)
    forms.append(differential(top_function, frame))
    return Codistribution(frame, forms)


def _rhs_pool(sysm):
    pool = []
    for f in (sysm.drift, sysm.b1, sysm.b2):
        for c in f.components:
            from .expr import Call

            if isinstance(c, Call):
                pool.append(c.arg)
    return pool


def admissible_phi1(report, sp) -> List[str]:
    """State coordinates annihilating the last flag member's characteristics."""
    C = _last_characteristics(report)
    out = []
    for i, x in enumerate(report.system.frame):
        if all(
            is_zero_generic(simplify(f.components[i]), sp) for f in basis(C, sp)
        ):
            out.append(x)
    return out


def _l_perp_from_feeds(report, feeds, sp) -> Codistribution:
    frame = report.system.frame
    forms = list(annihilator(_last_flag(report), sp).forms)
    for f in feeds:
        forms.append(differential(f, frame))
    return Codistribution(frame, forms)


def _validate(report, out: FlatOutput, sp: Sampler):
    if not _independent(report, sp, out.phi1, out.phi2):
        raise TriflatError("flat output functions are not independent")
    # the annihilated distribution sits inside the last non-involutive flag
    flag = _last_flag(report)
    from .diffgeo import annihilated_distribution

    frame = report.system.frame
    lperp_rank = codistribution_rank(out.l_perp, sp)
    if lperp_rank != report.system.n - (generic_rank(flag, sp) - 1):
        raise TriflatError("annihilator sum has an unexpected rank")
    L = annihilated_distribution(out.l_perp, sp)
    if not contains_distribution(L, flag, sp):
        raise TriflatError("annihilated distribution escapes the flag member")
