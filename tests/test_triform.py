"""Full decision procedure and the equal-chain-length variant."""

from triflat.diffgeo import generic_rank
from triflat.direction_search import _normalized_candidate, compute_bracket_chain
from triflat.expr import ONE, ZERO
from triflat.generator import triangular_template
from triflat.sampling import Sampler
from triflat.triform import (
    CASE_NO_X1,
    CASE_ONE_CHAIN,
    CASE_TWO_CHAINS,
    equal_length_variant_check,
    triangular_form_check,
)

from reference import cauchy_flags, equal_chain_template

SP = Sampler()


def test_vtol_report(vtol_analysis):
    rep = vtol_analysis.report
    assert rep.verdict
    assert rep.items == {"a": True, "b": True, "c": True, "d": True, "e": True}
    assert rep.n2 == 3 and rep.s == 1
    assert rep.chain_lengths == (1, 1)
    assert rep.case == CASE_TWO_CHAINS


def test_sin_report(sin_analysis):
    rep = sin_analysis.report
    assert rep.verdict
    assert rep.n2 == 3
    assert rep.chain_lengths == (1, 0)
    assert rep.case == CASE_ONE_CHAIN
    # the second projective root fails the procedure
    verdicts = [r.verdict for r in sin_analysis.reports]
    assert verdicts.count(True) == 1


def test_academic10_report(academic10_analysis):
    rep = academic10_analysis.report
    assert rep.verdict
    assert rep.n2 == 4
    assert rep.depth == 2
    assert sorted(rep.chain_lengths) == [1, 2]
    assert generic_rank(rep.g_chain[1], academic10_analysis.sp) == 9
    assert generic_rank(rep.g_chain[2], academic10_analysis.sp) == 10
    assert rep.case == CASE_TWO_CHAINS


def test_sqrt_report(sqrt_analysis):
    rep = sqrt_analysis.report
    assert rep.verdict
    assert rep.n2 == 4 and rep.depth == 1
    assert rep.chain_lengths == (0, 0)
    assert rep.case == CASE_NO_X1


def test_ladder_dimension_record(academic10_analysis):
    # characteristic ladder ranks grow one by one above the lower rung
    rep = academic10_analysis.report
    sp = academic10_analysis.sp
    base = generic_rank(rep.delta0, sp)
    for i, C in enumerate(cauchy_flags(rep, sp), start=1):
        assert generic_rank(C, sp) == base + i
    assert generic_rank(rep.closure, sp) == base + rep.n2


def test_vtol_fails_equal_length_variant(vtol_analysis):
    a = vtol_analysis
    out = equal_length_variant_check(a.system, a.chain, a.sp)
    assert not out.verdict


def test_equal_template_passes_variant():
    inst = equal_chain_template(4, 2, seed=9)
    out = equal_length_variant_check(inst.system, compute_bracket_chain(inst.system, SP), SP)
    assert out.verdict


def test_template_necessity_direction():
    inst = triangular_template(1, 2, 4, 2, seed=13)
    chain = compute_bracket_chain(inst.system, SP)
    cand = _normalized_candidate(inst.system, ONE, ZERO, "h-method")
    rep = triangular_form_check(inst.system, cand, SP, chain)
    assert rep.verdict
    l1, l2, n2, n3 = inst.dims
    assert rep.n2 == n2 and rep.depth == n3
    assert rep.chain_lengths == (max(l1, l2), min(l1, l2))


def test_wrong_direction_fails():
    inst = triangular_template(1, 1, 4, 2, seed=4)
    chain = compute_bracket_chain(inst.system, SP)
    wrong = _normalized_candidate(inst.system, ZERO, ONE, "h-method")
    rep = triangular_form_check(inst.system, wrong, SP, chain)
    assert not rep.verdict


def test_verdict_invariant_under_state_diffeomorphism():
    """A fixed shear-and-warp change of coordinates leaves the verdict and
    the recovered dimensions unchanged."""
    from triflat.expr import Sym
    from triflat.parser import parse_expr
    from triflat.transform import apply_state_change, initial_stage

    inst = triangular_template(1, 1, 3, 1, seed=6)
    s = inst.system
    stage = initial_stage(s, blocks={"original": s})
    defs = []
    for i, x in enumerate(s.frame):
        if i == 0:
            defs.append((f"t{i}", parse_expr(f"{x} + y2^2")))
        elif i == 2:
            defs.append((f"t{i}", parse_expr(f"exp({x})")))
        else:
            defs.append((f"t{i}", Sym(x)))
    moved = apply_state_change(stage, defs, SP, note="test diffeo").sys
    chain = compute_bracket_chain(moved, SP)
    cand = _normalized_candidate(moved, ONE, ZERO, "h")
    rep = triangular_form_check(moved, cand, SP, chain)
    assert rep.verdict
    assert rep.n2 == 3 and rep.depth == 1 and rep.chain_lengths == (1, 1)
