"""Distinguished-direction search: chains, the H condition, the quadratic."""

import os
import signal

import pytest

from triflat import direction_search
from triflat.diffgeo import contains_generic, generic_rank
from triflat.direction_search import (
    _best_triple,
    _consistent_pair,
    candidate_via_h,
    candidates_via_quadratic,
    compute_bracket_chain,
    h_distribution,
)
from triflat.errors import NotApplicable
from triflat.expr import ONE, Rat, Sym, ZERO, mul, sub
from triflat.generator import triangular_template
from triflat.parser import parse_expr
from triflat.sampling import Sampler, is_zero_generic
from triflat.simplify import simplify
from triflat.sysfile import load_sysfile

from reference import (
    criterion5_combos,
    disguise,
    double_integrator_pair,
    field_sum,
    pairwise_direction,
    scale,
    span_equal,
)

SP = Sampler()


def ratio_equal(c, a1_text, a2_text, sp):
    """Candidate matches (a1 : a2) projectively at generic points."""
    a1 = parse_expr(a1_text)
    a2 = parse_expr(a2_text)
    cross = simplify(sub(mul(c.alpha1, a2), mul(c.alpha2, a1)))
    return is_zero_generic(cross, sp)


def test_chain_depths(vtol_analysis, sin_analysis, academic10_analysis):
    assert vtol_analysis.chain.depth == 1
    assert sin_analysis.chain.depth == 1
    assert academic10_analysis.chain.depth == 2
    for a in (vtol_analysis, sin_analysis, academic10_analysis):
        assert a.chain.rank_ok and a.chain.cauchy_ok


def test_linearizable_system_rejected():
    with pytest.raises(NotApplicable):
        compute_bracket_chain(double_integrator_pair(), SP)


def test_h_ranks(vtol_analysis, sin_analysis, academic10_analysis):
    assert generic_rank(h_distribution(vtol_analysis.chain, vtol_analysis.sp), vtol_analysis.sp) == 5
    assert generic_rank(h_distribution(sin_analysis.chain, sin_analysis.sp), sin_analysis.sp) == 5
    assert generic_rank(h_distribution(academic10_analysis.chain, academic10_analysis.sp), academic10_analysis.sp) == 8


def test_vtol_h_method_picks_second_input(vtol_analysis):
    c = vtol_analysis.h_candidate
    assert c is not None
    assert c.alpha1 == ZERO and c.alpha2 == ONE


def test_vtol_h_membership(vtol_analysis):
    from triflat.diffgeo import ad_iter

    s = vtol_analysis.system
    sp = vtol_analysis.sp
    H = h_distribution(vtol_analysis.chain, sp)
    assert contains_generic(H, ad_iter(s.drift, 2, s.b2), sp)
    assert not contains_generic(H, ad_iter(s.drift, 2, s.b1), sp)


def test_academic10_h_method(academic10_analysis):
    c = academic10_analysis.h_candidate
    assert c is not None
    assert ratio_equal(c, "x8", "1", academic10_analysis.sp)
    from triflat.diffgeo import ad_iter

    s = academic10_analysis.system
    sp = academic10_analysis.sp
    H = h_distribution(academic10_analysis.chain, sp)
    combo = field_sum(scale(s.b1, Sym("x8")), s.b2)
    assert contains_generic(H, ad_iter(s.drift, 3, combo), sp)


def test_sin_h_inapplicable_and_quadratic_roots(sin_analysis):
    assert sin_analysis.h_candidate is None
    cands = candidates_via_quadratic(sin_analysis.system, sin_analysis.chain, sin_analysis.sp)
    assert len(cands) == 2
    assert ratio_equal(cands[0], "u1", "u2", sin_analysis.sp)
    assert ratio_equal(
        cands[1], "u1*tan(u1/u2)-2*u2", "u2*tan(u1/u2)", sin_analysis.sp
    )


def test_quadratic_homogeneity(sin_analysis):
    # scaled solutions satisfy the same homogeneous condition
    from triflat.direction_search import _quadratic_coefficients

    s = sin_analysis.system
    sp = sin_analysis.sp
    triples = _quadratic_coefficients(s, sin_analysis.chain, sp)
    lam = parse_expr("1 + x3^2")
    a1 = mul(lam, Sym("u1"))
    a2 = mul(lam, Sym("u2"))
    for A, B, C in triples:
        q = simplify(
            mul(A, a1, a1) + Rat(2) * mul(B, a1, a2) + mul(C, a2, a2)
        )
        assert is_zero_generic(q, sp)


def test_h_result_satisfies_quadratic(vtol_analysis, academic10_analysis):
    from triflat.direction_search import _quadratic_coefficients

    for a in (vtol_analysis, academic10_analysis):
        c = a.h_candidate
        triples = _quadratic_coefficients(a.system, a.chain, a.sp)
        for A, B, C in triples:
            q = simplify(
                mul(A, c.alpha1, c.alpha1)
                + Rat(2) * mul(B, c.alpha1, c.alpha2)
                + mul(C, c.alpha2, c.alpha2)
            )
            assert is_zero_generic(q, a.sp)


def test_template_quadratic_recovers_long_input_direction():
    inst = triangular_template(1, 1, 3, 1, seed=2)
    chain = compute_bracket_chain(inst.system, SP)
    cands = candidates_via_quadratic(inst.system, chain, SP)
    assert any(
        is_zero_generic(simplify(c.alpha2), SP) and not is_zero_generic(simplify(c.alpha1), SP)
        for c in cands
    )


def test_pde_condition_implied(sin_analysis):
    """Accepted candidates drive the full bracket condition into the ladder."""
    from triflat.diffgeo import lie_bracket

    s = sin_analysis.system
    sp = sin_analysis.sp
    rep = sin_analysis.report
    c = rep.candidate
    vp = c.field
    bracket = lie_bracket(vp, lie_bracket(s.drift, vp))
    assert contains_generic(rep.delta1, bracket, sp)


def test_quadratic_matches_hand_expansion(sin_analysis):
    """The sin system's quadratic, expanded by hand with the first root
    substituted, cancels identically; the computed coefficient triple agrees
    with the hand-expanded one projectively."""
    sp = sin_analysis.sp
    hand = parse_expr(
        "u1^2*sin(u1/u2)*u2^2"
        " + 2*u1*u2*(cos(u1/u2)*u2 - sin(u1/u2)*u1)*u2"
        " + u2^2*(sin(u1/u2)*u1 - 2*cos(u1/u2)*u2)*u1"
    )
    assert is_zero_generic(simplify(hand), sp)
    assert simplify(hand) == parse_expr("0")
    from triflat.direction_search import _quadratic_coefficients

    triples = _quadratic_coefficients(sin_analysis.system, sin_analysis.chain, sp)
    hand_triple = (
        parse_expr("sin(u1/u2)*u2^2"),
        parse_expr("(cos(u1/u2)*u2 - sin(u1/u2)*u1)*u2"),
        parse_expr("(sin(u1/u2)*u1 - 2*cos(u1/u2)*u2)*u1"),
    )
    matched = False
    for A, B, C in triples:
        crosses = [
            simplify(sub(mul(A, hand_triple[1]), mul(B, hand_triple[0]))),
            simplify(sub(mul(A, hand_triple[2]), mul(C, hand_triple[0]))),
        ]
        if all(is_zero_generic(c, sp) for c in crosses):
            matched = True
            break
    assert matched


def test_vtol_h_display(vtol_analysis):
    from triflat.fields import Distribution, VectorField, coordinate_field

    s = vtol_analysis.system
    sp = vtol_analysis.sp
    H = h_distribution(vtol_analysis.chain, sp)
    classical = Distribution(
        s.frame,
        [
            VectorField.from_dict(
                s.frame, {"x": parse_expr("sin(theta)"), "z": parse_expr("-cos(theta)")}
            ),
            VectorField.from_dict(
                s.frame, {"x": parse_expr("eps"), "theta": parse_expr("cos(theta)")}
            ),
            coordinate_field(s.frame, "vx"),
            coordinate_field(s.frame, "vz"),
            coordinate_field(s.frame, "omega"),
        ],
    )
    assert span_equal(H, classical, sp)


def test_best_triple_gives_up_within_the_resample_budget():
    # log(-x1^2 - 1) is undefined everywhere: no coefficient ever evaluates
    e = parse_expr("log(-x1^2 - 1)")

    def stop(_signum, _frame):
        raise TimeoutError("_best_triple did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(10)
    try:
        with pytest.raises(NotApplicable):
            _best_triple([(e, e, e)], Sampler())
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# --- the h-method's pair choice ---------------------------------------------------


CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "triflat", "corpus")


def _h_systems():
    """academic10 and vtol at their file's sampler, and the criterion-5
    instances, plain and disguised."""
    for name in ("academic10", "vtol"):
        def load(name=name):
            definition = load_sysfile(os.path.join(CORPUS, name + ".sys"))
            return definition.system(), definition.sampler()
        yield pytest.param(load, id=name)
    for index, combo in enumerate(criterion5_combos()):
        for k in (0, 1, 3):
            def build(combo=combo, index=index, k=k):
                inst = triangular_template(*combo, seed=index)
                system = inst.system if k == 0 else disguise(inst.system, k, seed=index)[0]
                return system, SP
            yield pytest.param(build, id=f"{'-'.join(map(str, combo))}-seed{index}-k{k}")


# the cases whose H leaves both iterated brackets out, so a pair is chosen
PAIRED = {"academic10", "2-0-3-1-seed4-k1", "2-2-4-3-seed5-k1", "1-0-5-1-seed6-k3",
          "1-2-3-1-seed9-k1"}


def _h_outcome(system, sp):
    try:
        c = candidate_via_h(system, compute_bracket_chain(system, sp), sp)
    except NotApplicable as e:
        return str(e)
    return c.alpha1, c.alpha2


@pytest.mark.parametrize("build", _h_systems())
def test_h_pair_choice_matches_the_pairwise_loop(build, monkeypatch, request):
    system, sp = build()
    seen = []

    def joint(pairs, sp):
        seen.append(pairs)
        return _consistent_pair(pairs, sp)

    monkeypatch.setattr(direction_search, "_consistent_pair", joint)
    got = _h_outcome(system, sp)
    monkeypatch.setattr(direction_search, "_consistent_pair", pairwise_direction)
    assert _h_outcome(system, sp) == got
    assert bool(seen) == (request.node.callspec.id in PAIRED)


# zero at every point, but no constructor folds it
NOUGHT = parse_expr("log(x1*x2) - log(x1) - log(x2)")


@pytest.mark.parametrize("pairs, expected", [
    ([], None),
    ([("x1", "0"), ("x1*x2", "0"), ("2*x1", "0")], 0),  # rank 1, every c2 = 0
    ([(NOUGHT, "0"), ("x2", "x1"), ("x2^2", "x1*x2")], 1),  # rank 1, leading c2 = 0
    ([("x2", "x1"), ("x2^2", "x1*x2"), ("x2", "0")], None),  # rank 2
    ([("x1", "x2"), ("x2", "x1")], None),  # rank 2
    ([(NOUGHT, NOUGHT), ("x1", "1"), ("1", "x1")], None),  # rank 2 and a zero pair
    ([(NOUGHT, NOUGHT)], None),  # zero numerically, not structurally
    ([(NOUGHT, NOUGHT), ("x1", "x1^2")], 1),
], ids=["empty", "rank1-no-c2", "rank1-leading-c2-zero", "rank2-three", "rank2-two",
        "rank2-zero-pair", "zero-pair-only", "zero-pair-then-rank1"])
def test_pair_choice_on_synthetic_pairs(pairs, expected):
    pairs = [tuple(parse_expr(c) if isinstance(c, str) else c for c in p) for p in pairs]
    assert NOUGHT != ZERO and is_zero_generic(NOUGHT, SP)
    want = None if expected is None else pairs[expected]
    assert _consistent_pair(pairs, SP) == pairwise_direction(pairs, SP) == want


def test_quadratic_root_filter_normalizes_no_residual(monkeypatch):
    # the residuals only feed a sampled zero test; normal forms of them took
    # most of this case's time
    inst = triangular_template(0, 0, 5, 1, seed=3)
    system, _inverse = disguise(inst.system, 3, seed=3)
    chain = compute_bracket_chain(system, SP)
    roots, normalized, simplify_ = (direction_search._projective_roots,
                                    direction_search._normalized_candidate,
                                    direction_search.simplify)
    filtering, calls = [], []

    def roots_then_filter(*args):
        out = roots(*args)
        filtering.append(True)
        return out

    def normalize(*args):
        filtering.clear()
        return normalized(*args)

    def counted(e):
        if filtering:
            calls.append(e)
        return simplify_(e)

    monkeypatch.setattr(direction_search, "_projective_roots", roots_then_filter)
    monkeypatch.setattr(direction_search, "_normalized_candidate", normalize)
    monkeypatch.setattr(direction_search, "simplify", counted)
    assert candidates_via_quadratic(system, chain, SP)
    assert calls == []
