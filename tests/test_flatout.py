"""Flat output derivation for the three terminal-chain cases."""

from dataclasses import replace

import pytest

from triflat.diffgeo import annihilator, differential, form_in_span, kernel_within
from triflat.errors import NotApplicable, TriflatError
from triflat.expr import Rat, Sym
from triflat.fields import Codistribution
from triflat.flatout import _validate, admissible_phi1, flat_output_for_report
from triflat.parser import parse_expr
from triflat.sampling import MatrixSampler, Sampler, is_zero_generic, ranks
from triflat.simplify import simplify

from reference import annihilated_distribution, contains_distribution

SP = Sampler()


def test_vtol_flat_output_spans_closure_annihilator(vtol_analysis):
    s = vtol_analysis.system
    sp = vtol_analysis.sp
    flat = vtol_analysis.flat
    produced = [
        differential(flat.phi1, s.frame),
        differential(flat.phi2, s.frame),
    ]
    classical = [
        differential(parse_expr("eps*cos(theta)+z"), s.frame),
        differential(parse_expr("eps*sin(theta)-x"), s.frame),
    ]
    W = Codistribution(s.frame, produced)
    for w in classical:
        assert form_in_span(w, W, sp)
    Wp = Codistribution(s.frame, classical)
    for w in produced:
        assert form_in_span(w, Wp, sp)


def test_sin_flat_output_pair(sin_analysis):
    flat = sin_analysis.flat
    sp = sin_analysis.sp
    assert flat.phi1 == Sym("x3")
    assert is_zero_generic(simplify(flat.phi2 - parse_expr("x1-x2*u1/u2")), sp)
    # the produced pair's differentials lie in the stored codistribution
    s = sin_analysis.system
    for phi in (flat.phi1, flat.phi2):
        assert form_in_span(differential(phi, s.frame), flat.l_perp, sp)


def test_academic10_flat_output(academic10_analysis):
    flat = academic10_analysis.flat
    assert flat.phi1 == Sym("x1")
    assert flat.phi2 == Sym("x3")


def test_case3_requires_phi1(sqrt_analysis):
    with pytest.raises(NotApplicable):
        flat_output_for_report(sqrt_analysis.report, sqrt_analysis.sp)


def test_case3_no_admissible_coordinates(sqrt_analysis):
    assert admissible_phi1(sqrt_analysis.report, sqrt_analysis.sp) == []


def test_case3_rejects_non_annihilating_phi1(sqrt_analysis):
    with pytest.raises(NotApplicable):
        flat_output_for_report(sqrt_analysis.report, sqrt_analysis.sp, phi1=Sym("x3"))


def test_case3_rejects_constant_phi1(sqrt_analysis):
    with pytest.raises(NotApplicable):
        flat_output_for_report(sqrt_analysis.report, sqrt_analysis.sp, phi1=Rat(3))


def test_case3_valid_choice(sqrt_analysis):
    flat = sqrt_analysis.flat
    assert flat.case == "NoX1"
    s = sqrt_analysis.system
    sp = sqrt_analysis.sp
    rows = [
        list(differential(flat.phi1, s.frame).coefficients),
        list(differential(flat.phi2, s.frame).coefficients),
    ]
    _points, stack = MatrixSampler(rows, s.frame, sp).stack()
    assert ranks(stack, sp.tol).max() == 2


def test_l_distribution_contained_in_flag(sqrt_analysis, sin_analysis):
    for a in (sqrt_analysis, sin_analysis):
        rep = a.report
        flag = rep.delta1_flags[rep.n2 - 3]
        L = annihilated_distribution(a.flat.l_perp, a.sp)
        assert contains_distribution(L, flag, a.sp)
        assert kernel_within(a.flat.l_perp, flag, a.sp)


@pytest.mark.parametrize("name", ["sqrt", "sin", "academic10", "vtol"])
def test_validate_rejects_kernel_outside_flag(request, name):
    # the first form of L_perp is one of ann(flag); in its place d(last
    # state) keeps the rank of L_perp but lets its kernel leave the flag
    a = request.getfixturevalue(f"{name}_analysis")
    rep, sp, frame = a.report, a.sp, a.system.frame
    flag = rep.delta1_flags[rep.n2 - 3]
    forms = a.flat.l_perp.forms
    assert forms[0] == annihilator(flag, sp).forms[0]
    bad = Codistribution(frame, [differential(Sym(frame[-1]), frame), *forms[1:]])
    assert not contains_distribution(annihilated_distribution(bad, sp), flag, sp)
    with pytest.raises(TriflatError, match="escapes the flag member"):
        _validate(rep, replace(a.flat, l_perp=bad), sp)


@pytest.mark.parametrize("name", ["sqrt", "sin", "academic10", "vtol"])
def test_validate_rejects_an_annihilator_sum_of_another_rank(request, name):
    # one coordinate differential outside L_perp, added to it, raises its rank
    a = request.getfixturevalue(f"{name}_analysis")
    rep, sp, frame = a.report, a.sp, a.system.frame
    extra = next(w for w in (differential(Sym(x), frame) for x in frame)
                 if not form_in_span(w, a.flat.l_perp, sp))
    bad = Codistribution(frame, [*a.flat.l_perp.forms, extra])
    with pytest.raises(TriflatError, match="annihilator sum has an unexpected rank"):
        _validate(rep, replace(a.flat, l_perp=bad), sp)


def test_template_top_pair_via_case3():
    # with no terminal chains the core top variables form a flat pair
    from triflat.direction_search import _normalized_candidate, compute_bracket_chain
    from triflat.expr import ONE, ZERO
    from triflat.generator import triangular_template
    from triflat.triform import triangular_form_check

    inst = triangular_template(0, 0, 4, 1, seed=21)
    s = inst.system
    chain = compute_bracket_chain(s, SP)
    cand = _normalized_candidate(s, ONE, ZERO, "h-method")
    rep = triangular_form_check(s, cand, SP, chain)
    assert rep.verdict and rep.case == "NoX1"
    opts = admissible_phi1(rep, SP)
    assert "y1" in opts
    flat = flat_output_for_report(rep, SP, phi1=Sym("y1"))
    assert flat.phi1 == Sym("y1")
    assert flat.phi2 is not None
