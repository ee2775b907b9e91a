"""Distinguished-direction search: chains, the H condition, the quadratic."""

import contextlib
import io
import os
import signal
from dataclasses import replace

import numpy as np
import pytest

from triflat import diffgeo, direction_search, elimination
from triflat.cli import main
from triflat.diffgeo import ad_iter, contains_generic, extend, generic_rank
from triflat.direction_search import (
    _best_triple,
    _fixing_pair,
    candidate_via_h,
    candidates_via_quadratic,
    compute_bracket_chain,
    h_distribution,
)
from triflat.errors import NotApplicable
from triflat.expr import ONE, Rat, Sym, ZERO, add, mul, sub, to_str
from triflat.generator import triangular_template
from triflat.parser import parse_expr
from triflat.fields import VectorField
from triflat.sampling import MatrixSampler, Sampler, is_zero_generic, ranks
from triflat.simplify import simplify
from triflat.sysfile import load_sysfile
from triflat.systems import AffineSystem, vector_field

from reference import (
    counting,
    criterion5_combos,
    disguise,
    double_integrator_pair,
    field_sum,
    h_direction_from_forms,
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


# the cases whose H leaves both iterated brackets out, so a pair is chosen:
# off a column that every field of H leaves empty, or else off the solved
# forms of ann(H)
EMPTY_COLUMN = {"academic10", "2-0-3-1-seed4-k1", "2-2-4-3-seed5-k1", "1-2-3-1-seed9-k1"}
FALLBACK = {"1-0-5-1-seed6-k3"}
NO_DIRECTION = "no direction satisfies the containment condition"


def _h_outcome(system, sp, chain=None):
    """candidate_via_h's alpha strings, or its NotApplicable text."""
    try:
        c = candidate_via_h(system, chain or compute_bracket_chain(system, sp), sp)
    except NotApplicable as e:
        return str(e)
    return to_str(c.alpha1), to_str(c.alpha2)


@pytest.mark.parametrize("build", _h_systems())
def test_h_pair_choice_matches_the_pairwise_loop(build, request):
    system, sp = build()
    chain = compute_bracket_chain(system, sp)
    with counting(direction_search, "_fixing_pair") as fixing, \
            counting(diffgeo, "annihilator") as solved:
        got = _h_outcome(system, sp, chain)
    assert got == h_direction_from_forms(system, sp)
    case = request.node.callspec.id
    assert bool(fixing) == (case in EMPTY_COLUMN | FALLBACK)
    assert bool(solved) == (case in FALLBACK)


@pytest.mark.parametrize("name, solves", [
    ("academic10", 0), ("sqrt", 1), ("sin", 1), ("template", 1), ("product", 1), ("vtol", 0),
])
def test_check_eliminates_only_for_the_quadratic(name, solves):
    # academic10 reads its pair off the empty column x1 of H; the quadratic
    # still solves annihilator(D_{depth+1}) once
    with counting(elimination, "nullspace") as nullspaces, \
            counting(elimination, "row_reduce") as reductions, \
            contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", os.path.join(CORPUS, name + ".sys")]) == 0
    assert (len(nullspaces), len(reductions)) == (solves, solves)


@pytest.mark.parametrize("seed", range(8))
def test_academic10_direction_at_every_seed(seed):
    definition = load_sysfile(os.path.join(CORPUS, "academic10.sys"))
    assert _h_outcome(definition.system(), definition.sampler(seed=seed)) == ("x8", "1")


# zero at every point, but no constructor folds it
NOUGHT = parse_expr("log(x1*x2) - log(x1) - log(x2)")


def _pair_system(pairs):
    """s3' = s1, s4' = s2, s5' = s1 s2 and e_j' = c1_j s3 + c2_j s4, with
    inputs on s1 and s2 and the pairs read in the passive states x1, x2.

    D_2 is not involutive, H = span{d/ds1, ..., d/ds5} and ad_a^2 b_p is
    sum_j c_pj d/de_j, so column e_j of H is empty and pairs to (c1_j, c2_j).
    """
    frame = ("s1", "s2", "s3", "s4", "s5", "x1", "x2") + tuple(f"e{j}" for j in range(len(pairs)))
    drift = {"s3": Sym("s1"), "s4": Sym("s2"), "s5": mul(Sym("s1"), Sym("s2"))}
    for j, (c1, c2) in enumerate(pairs):
        drift[f"e{j}"] = mul(c1, Sym("s3")) + mul(c2, Sym("s4"))
    return AffineSystem(frame, vector_field(frame, drift), vector_field(frame, {"s1": ONE}),
                        vector_field(frame, {"s2": ONE}), ("u1", "u2"))


@pytest.mark.parametrize("pairs, rank, expected", [
    ([], 0, None),
    ([("x1", "0"), ("x1*x2", "0"), ("2*x1", "0")], 1, 0),  # every c2 = 0
    ([(NOUGHT, "0"), ("x2", "x1"), ("x2^2", "x1*x2")], 1, 1),  # leading c2 = 0
    ([("x2", "x1"), ("x2^2", "x1*x2"), ("x2", "0")], 2, None),
    ([("x1", "x2"), ("x2", "x1")], 2, None),
    ([(NOUGHT, NOUGHT), ("x1", "1"), ("1", "x1")], 2, None),  # and a zero pair
    ([(NOUGHT, NOUGHT)], 0, None),  # zero numerically, not structurally
    ([(NOUGHT, NOUGHT), ("x1", "x1^2")], 1, 1),
], ids=["empty", "rank1-no-c2", "rank1-leading-c2-zero", "rank2-three", "rank2-two",
        "rank2-zero-pair", "zero-pair-only", "zero-pair-then-rank1"])
def test_pair_choice_on_synthetic_pairs(pairs, rank, expected):
    pairs = [tuple(parse_expr(c) if isinstance(c, str) else c for c in p) for p in pairs]
    assert NOUGHT != ZERO and is_zero_generic(NOUGHT, SP)
    want = None if expected is None else pairs[expected]
    assert pairwise_direction(pairs, SP) == want
    system = _pair_system(pairs)
    chain = compute_bracket_chain(system, SP)
    H = h_distribution(chain, SP)
    w = [ad_iter(system.drift, 2, b) for b in (system.b1, system.b2)]
    assert chain.depth == 1 and generic_rank(extend(H, w), SP) == generic_rank(H, SP) + rank
    got = _h_outcome(system, SP, chain)
    assert got == h_direction_from_forms(system, SP)
    if rank == 2:  # w1 and w2 add two dimensions to H
        assert got == NO_DIRECTION
    else:
        assert _fixing_pair(pairs, SP) == want


def test_h_method_solves_the_forms_when_no_empty_column_fixes_the_direction():
    # H = span{d/ds1, ..., d/ds5, d/ds6 + d/ds8} leaves column s7 alone empty,
    # and w1 = w2 = d/ds6 + N d/ds7 pair to N there, zero at every point: the
    # direction comes from the form ds6 - ds8, which the annihilator solves
    frame = tuple(f"s{i}" for i in range(1, 9))
    nought = parse_expr("log(p*q) - log(p) - log(q)")
    drift = {name: parse_expr(text) for name, text in (
        ("s3", "s1"), ("s4", "s2"), ("s5", "s1*s2"), ("s6", "s1^2/2 + s3 + s4"), ("s8", "s1^2/2"))}
    drift["s7"] = mul(nought, parse_expr("s3 + s4"))
    system = AffineSystem(frame, vector_field(frame, drift), vector_field(frame, {"s1": ONE}),
                          vector_field(frame, {"s2": ONE}), ("u1", "u2"), params=("p", "q"))
    chain = compute_bracket_chain(system, SP)
    H = h_distribution(chain, SP)
    assert [x for j, x in enumerate(frame) if all(f.components[j] == ZERO for f in H.fields)] \
        == ["s7"]
    w1 = ad_iter(system.drift, 2, system.b1)
    assert w1.components[6] != ZERO and is_zero_generic(w1.components[6], SP)
    with counting(diffgeo, "annihilator") as solved:
        got = _h_outcome(system, SP, chain)
    assert len(solved) == 1
    assert got == h_direction_from_forms(system, SP) == ("-1", "1")


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


# --- the h-method's failure branches, reached by perturbing one row -----------


def _perturbed(system, sym, part, delta):
    """system with delta added to sym's row of the drift, b1 or b2."""
    comps = list(getattr(system, part).components)
    i = system.frame.index(sym)
    comps[i] = simplify(add(comps[i], parse_expr(delta)))
    return replace(system, **{part: VectorField(system.frame, tuple(comps))})


def _corpus_system(name):
    definition = load_sysfile(os.path.join(CORPUS, name + ".sys"))
    return definition.system(), definition.sampler()


def test_h_method_finds_no_direction_when_both_brackets_add_rank():
    # x1' = x2 + x1*x10 on academic10: neither w1 nor w2 lies in H, and
    # together they add two ranks to it.  The second "no direction" branch,
    # after the fixing pairs, is not reached by any input: when w1 is not in
    # H, some form of ann(H) pairs to a nonzero with it.
    system, sp = _corpus_system("academic10")
    system = _perturbed(system, "x1", "drift", "x1*x10")
    chain = compute_bracket_chain(system, sp)
    H = h_distribution(chain, sp)
    w1, w2 = (ad_iter(system.drift, chain.depth + 1, b) for b in (system.b1, system.b2))
    assert generic_rank(extend(H, [w1, w2]), sp) == len(H.fields) + 2
    assert _h_outcome(system, sp, chain) == "no direction satisfies the containment condition"
    assert h_direction_from_forms(system, sp) == _h_outcome(system, sp, chain)


def test_h_method_inconsistency_comes_from_one_sample_point(monkeypatch):
    # vx' gains x*u1 on vtol.  H has corank 1, so the combination the one
    # form of ann(H) fixes lies in H, as the symbolic reference finds; the
    # sampled [H; combination] has rank r + 1 at one point only, where the
    # combination nearly vanishes, and the generic-point rule takes that
    # point's rank (a near-cutoff decision, ROADMAP item 12)
    system, sp = _corpus_system("vtol")
    system = _perturbed(system, "vx", "b1", "x")
    asked, real = [], direction_search.contains_generic

    def spy(D, v, sp_):
        asked.append((D, v))
        return real(D, v, sp_)

    monkeypatch.setattr(direction_search, "contains_generic", spy)
    assert _h_outcome(system, sp) == "containment condition is inconsistent across directions"
    assert isinstance(h_direction_from_forms(system, sp), tuple)
    ((H, combo),) = asked
    assert len(H.fields) == len(H.frame) - 1
    stack = MatrixSampler(H.matrix_rows() + [list(combo.components)], H.frame, sp).stack()[1]
    assert np.count_nonzero(ranks(stack, sp.tol) > len(H.fields)) == 1
