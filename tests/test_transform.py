"""Constructive pipeline: staged transformations and numeric verification."""

import math
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from triflat import transform

from triflat.cli import _analyze
from triflat.direction_search import (
    _normalized_candidate,
    candidate_via_h,
    compute_bracket_chain,
)
from triflat.errors import EvalError, PipelineError, SamplerExhausted
from triflat.expr import ONE, Rat, Sym, ZERO, add, evaluate, mul, neg
from triflat.fields import VectorField
from triflat.flatout import flat_output_for_report
from triflat.generator import triangular_template
from triflat.parser import parse_expr
from triflat.sampling import MatrixSampler, Sampler, is_zero_generic, point_set
from triflat.simplify import simplify
from triflat.systems import AffineSystem, make_affine, prolong, vector_field
from triflat.transform import (
    CoordinateChange,
    _isolate,
    _stage_verified,
    apply_state_change,
    initial_stage,
    solve_map,
    transform_to_triangular,
    verify_transformation,
)
from triflat.triform import triangular_form_check

from reference import (
    generated_instances,
    instance_digest,
    instance_key,
    instance_outputs,
    recorded_instance_digests,
)

SP = Sampler()


# --- pattern inversion -------------------------------------------------------

def test_isolate_patterns():
    V = Sym("V")
    cases = [
        ("2*x + y", "x", "(V - y)/2"),
        ("y*sin(x)", "x", "arcsin(V/y)"),
        ("tan(x)*c", "x", "arctan(V/c)"),
        ("exp(x) + 1", "x", "log(V - 1)"),
        ("(1+y^2)*x", "x", "V/(1+y^2)"),
        ("-cos(x)/sin(x)", "x", None),  # solvable, via the quotient pattern
        ("sqrt(q*r^2)/2/r", "q", None),  # solvable, via the power pattern
        # x only inside one kernel repeated across the expanded terms
        ("(1+y)*exp(x)", "x", "log(V/(1+y))"),
        ("sqrt(x)*(a+b)", "x", "(V/(a+b))^2"),
        ("sin(x)*(1+y)", "x", "arcsin(V/(1+y))"),
    ]
    for text, x, expected in cases:
        sol = _isolate(simplify(parse_expr(text)), x, V)
        assert sol is not None, text
        if expected is not None:
            assert is_zero_generic(
                simplify(sol - parse_expr(expected)), SP
            ), (text, str(sol))
        # substitute back: f(sol) == V on a positive box
        from triflat.expr import substitute

        back = simplify(substitute(simplify(parse_expr(text)), {x: sol}))
        assert is_zero_generic(simplify(back - V), Sampler(default_domain=(0.3, 0.9)))


def test_solve_map_cascaded():
    defs = [
        ("a", parse_expr("x + y")),
        ("b", parse_expr("y")),
        ("c", parse_expr("tan(z)")),
    ]
    sol = solve_map(("x", "y", "z"), defs)
    assert sol is not None
    assert is_zero_generic(simplify(sol["y"] - Sym("b")), SP)
    assert is_zero_generic(simplify(sol["x"] - parse_expr("a - b")), SP)
    assert is_zero_generic(simplify(sol["z"] - parse_expr("arctan(c)")), SP)


def test_solve_map_reports_implicit():
    defs = [("a", parse_expr("x + cos(x)"))]
    assert solve_map(("x",), defs) is None


# --- verification ------------------------------------------------------------

def test_verify_identity_change(sin_analysis):
    s = sin_analysis.system
    change = CoordinateChange(
        state_map={x: Sym(x) for x in s.frame},
        input_map={u: Sym(u) for u in s.input_syms},
    )
    assert verify_transformation(s, change, s, sin_analysis.sp)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-7])
def test_verify_rejects_a_tolerance_that_is_not_finite_and_positive(sin_analysis, tol):
    # a nan tolerance made every comparison false, so every map passed
    s = sin_analysis.system
    change = CoordinateChange(
        state_map={x: neg(Sym(x)) for x in s.frame},
        input_map={u: Sym(u) for u in s.input_syms},
    )
    with pytest.raises(ValueError, match="finite and positive"):
        verify_transformation(s, change, s, sin_analysis.sp, tol=tol)


def test_verify_rejects_corrupted_map(vtol_analysis):
    res = vtol_analysis.transform
    change = res.change
    bad_state = dict(change.state_map)
    key = sorted(bad_state)[0]
    bad_state[key] = neg(bad_state[key])
    corrupted = CoordinateChange(bad_state, dict(change.input_map))
    assert not verify_transformation(
        vtol_analysis.system, corrupted, res.final.system, vtol_analysis.sp
    )


def test_verification_counts_both_failures_against_one_budget():
    # the state map is undefined where x1 < 0.84 and the result where
    # x2 < 0.84, so about 36% of the base points compare; 20 of them must lie
    # within the first max_resamples + 20, whichever side failed at the others
    gap = "log({0} - 21/25) - log({0} - 21/25)"  # zero where defined
    s = _plane().sys
    change = CoordinateChange(
        state_map={"s0": parse_expr("x1 + " + gap.format("x1")), "s1": Sym("x2")},
        input_map={u: Sym(u) for u in s.input_syms},
    )
    frame = ("s0", "s1")
    result = AffineSystem(
        frame,
        vector_field(frame, {"s0": parse_expr("s1 + " + gap.format("s1"))}),
        vector_field(frame, {"s1": ONE}),
        vector_field(frame, {"s0": ONE}),
        s.input_syms,
    )
    with pytest.raises(PipelineError, match="could not sample"):
        verify_transformation(s, change, result, Sampler(max_resamples=24))
    assert verify_transformation(s, change, result, Sampler(max_resamples=28))


# --- full pipelines ----------------------------------------------------------

def test_vtol_pipeline(vtol_analysis):
    res = vtol_analysis.transform
    assert res.verified
    fin = res.final
    assert fin.structure_ok, fin.structure_failures
    assert [len(c) for c in fin.chains] == [1, 1]
    assert len(fin.core) == 3
    assert len(fin.rear_long) == 1 and not fin.rear_short
    assert [name for name, _ in res.stages] == [
        "straighten",
        "normalize-first",
        "core-couplings",
        "rear-chains",
    ]


def test_sin_pipeline_matches_form(sin_analysis):
    res = sin_analysis.transform
    fin = res.final
    assert res.verified and fin.structure_ok
    # neither feed's equation is a bare symbol, so the chain keeps feeding q1
    assert not any(transform._reads_w(sin_analysis.system, simplify(f))
                   for f in sin_analysis.flat.feeds)
    assert [len(c) for c in fin.chains] == [1, 0]
    # cross-coupling factor in the last core equation is present and state-only
    g = fin.couplings["g"]
    assert g != ZERO
    from triflat.expr import free_symbols

    assert free_symbols(g) <= set(fin.system.frame) | set(fin.system.params)


def test_academic10_pipeline_regression(academic10_analysis):
    res = academic10_analysis.transform
    fin = res.final
    assert res.verified and fin.structure_ok
    # cautious long-chain top: the bounded choice keeps the input span straight
    maps = res.change.state_map
    assert str(maps[fin.rear_long[0]]) == "sin(x8)"
    sysm = fin.system
    for i, x in enumerate(sysm.frame):
        touches_inputs = (
            sysm.b1.components[i] != ZERO or sysm.b2.components[i] != ZERO
        )
        if touches_inputs:
            assert x in (fin.rear_long[-1], fin.rear_short[-1] if fin.rear_short else None)


def test_template_pipeline_is_renaming():
    inst = triangular_template(1, 1, 3, 2, seed=17)
    s = inst.system
    chain = compute_bracket_chain(s, SP)
    cand = _normalized_candidate(s, ONE, ZERO, "h")
    rep = triangular_form_check(s, cand, SP, chain)
    flat = flat_output_for_report(rep, SP)
    res = transform_to_triangular(s, rep, flat, SP)
    assert res.verified and res.final.structure_ok
    for new, expr in res.change.state_map.items():
        assert isinstance(expr, Sym), f"{new} -> {expr} is not a renaming"


@pytest.mark.parametrize("combo, seed", [
    pytest.param(combo, seed, id=f"{'-'.join(map(str, combo))}-seed{seed}")
    for combo, seed in generated_instances()])
def test_generated_instance_transforms_by_a_renaming(combo, seed):
    s = triangular_template(*combo, seed=seed).system
    rep, flat, res = instance_outputs(s, Sym("y1"), SP)
    assert res.verified and res.final.structure_ok
    assert verify_transformation(s, res.change, res.final.system, SP)
    for new, expr in res.change.state_map.items():
        assert isinstance(expr, Sym), f"{new} -> {expr} is not a renaming"
    assert sorted(map(str, res.change.input_map.values())) == sorted(s.input_syms)
    key = instance_key(combo, seed)
    assert instance_digest(rep, flat, res) == recorded_instance_digests().get(key), key


@pytest.mark.parametrize("combo, seed, chains", [
    ((1, 0, 5, 1), 6, ["p1_1"]),  # the chain feeds y1, whose equation reads y1' = u2
    ((0, 2, 3, 1), 1, ["p2_1", "p2_2"]),  # the chain feeds y2: y1 becomes q1
])
def test_the_feed_that_already_reads_w_becomes_q1(combo, seed, chains):
    s = triangular_template(*combo, seed=seed).system
    rep = _analyze(s, SP)[3][0]
    flat = flat_output_for_report(rep, SP)
    defs = dict(transform.build_ladder_change(rep, flat, SP))
    assert [n for n in defs if n.startswith("p")] == chains
    assert (defs["q1"], defs["q2"]) == (Sym("y1"), Sym("y2"))
    assert [defs[n] for n in chains] == [Sym(n.replace("p", "w")) for n in chains]


def test_recorded_stages_are_never_rewritten(template_analysis):
    # the stage a step was given stays as it was recorded: no step returns it
    # unchanged, adds blocks to it, or can assign to its fields
    s = triangular_template(0, 0, 5, 1, seed=3).system  # criterion 5's fourth instance
    rep = triangular_form_check(s, _normalized_candidate(s, ONE, ZERO, "h-method"), SP,
                                compute_bracket_chain(s, SP))
    flat = flat_output_for_report(rep, SP, phi1=Sym("y1"))  # no terminal chains
    generated = transform_to_triangular(s, rep, flat, SP)
    for res in (template_analysis.transform, generated):
        stages = [stage for _name, stage in res.stages]
        assert len({id(stage) for stage in stages}) == len(stages)
        first = dict(res.stages)["normalize-first"]
        assert not {"z1", "z2"} & set(first.blocks)
        with pytest.raises(FrozenInstanceError):
            first.blocks = {}


def test_slow_template_transform_completes():
    """template(1, 2, 5, 1, seed=11), whose transform was slow enough for the
    benchmark to stop it, runs through and recovers the generating blocks."""
    inst = triangular_template(1, 2, 5, 1, seed=11)
    s = inst.system
    l1, l2, n2, n3 = inst.dims
    chain = compute_bracket_chain(s, SP)
    rep = triangular_form_check(s, candidate_via_h(s, chain, SP), SP, chain)
    assert rep.verdict and rep.case == inst.case
    assert (rep.n2, rep.depth) == (n2, n3)
    assert sorted(rep.chain_lengths) == sorted((l1, l2))
    flat = flat_output_for_report(rep, SP)
    res = transform_to_triangular(s, rep, flat, SP)
    fin = res.final
    assert res.verified and fin.structure_ok
    assert sorted(len(c) for c in fin.chains) == sorted((l1, l2))
    assert len(fin.core) == n2
    assert (len(fin.rear_long), len(fin.rear_short)) == (n3, n3 - 1)
    assert verify_transformation(s, res.change, fin.system, SP)

def test_prolong_identity_and_names(sin_analysis):
    s = sin_analysis.system
    assert prolong(s, 0, 0) is s
    pro = prolong(s, 1, 2)
    assert pro.frame == s.frame + (s.input_syms[1], s.input_syms[1] + "_1")
    assert pro.input_syms[1].endswith("_2")
    assert pro.input_syms[0] == s.input_syms[0]


def test_make_affine_shape():
    s = make_affine(("x1",), [parse_expr("sin(u1)*u2")], ("u1", "u2"))
    assert s.frame == ("x1", "u1", "u2")
    assert s.input_syms == ("u1_1", "u2_1")
    assert s.b1.components[s.frame.index("u1")] == Rat(1)
    assert s.b2.components[s.frame.index("u2")] == Rat(1)


def test_stage_logs_recorded(vtol_analysis):
    res = vtol_analysis.transform
    final_stage = res.stages[-1][1]
    assert any("closing feedback" in line for line in final_stage.log)


# --- the image of the original sampling box -----------------------------------

def _direct_image(stage, sp, count):
    """The first count image points, each map evaluated at each base point."""
    orig = stage.blocks["original"]
    maps = {**stage.forward, **stage.input_map}
    out = []
    for base in sp.point_stream(set(orig.frame) | set(orig.input_syms) | set(orig.params)):
        try:
            point = {name: evaluate(e, base) for name, e in maps.items()}
        except EvalError:
            continue
        point.update((p, base[p]) for p in orig.params)
        out.append(point)
        if len(out) == count:
            return out


def _image_of(forward, domains=None):
    """The image sampler of the plane under the given forward maps."""
    stage = replace(_plane(), forward={name: parse_expr(e) for name, e in forward.items()})
    return stage, transform._image(stage, SP.with_domains(domains or {}))


def test_image_stream_maps_the_base_points_in_order(vtol_analysis):
    a = vtol_analysis
    stage = a.transform.stages[-1][1]
    assert stage.blocks["original"].params  # copied from the base points
    ps = point_set(transform._image(stage, a.sp), ())
    assert [ps.point(i) for i in range(a.sp.samples)] == _direct_image(stage, a.sp, a.sp.samples)


def test_image_stream_skips_base_points_where_a_map_is_undefined():
    # exp overflows for x1 > 709.78, so about 29% of the base points have no image
    stage, img = _image_of({"s0": "exp(x1)", "s1": "x2"}, {"x1": (0.0, 1000.0)})
    ps = point_set(img, ())
    assert [ps.point(i) for i in range(40)] == _direct_image(stage, img.base, 40)
    # more than max_resamples undefined base points end the stream, at every read
    _stage, nowhere = _image_of({"s0": "log(x1)", "s1": "x2"}, {"x1": (-2.0, -1.0)})
    for _read in range(2):
        with pytest.raises(SamplerExhausted, match="resampling budget"):
            point_set(nowhere, ()).point(0)


def test_zero_test_on_the_image_skips_nan_inf_and_undefined_values():
    # s0^2 overflows to inf where x1 > 354.9: there s0*s0*(s1 - s1) is nan and
    # s0*s0 - s0*s0 is undefined (inf - inf), which a zero test must not read
    _stage, img = _image_of({"s0": "exp(x1)", "s1": "x2"}, {"x1": (0.0, 700.0)})
    ps = point_set(img, ())
    assert any(ps.point(i)["s0"] * ps.point(i)["s0"] == math.inf for i in range(img.samples))
    for zero in ("s0*s0*(s1 - s1)", "s0*s0 - s0*s0"):
        assert is_zero_generic(parse_expr(zero), img)
    assert not is_zero_generic(parse_expr("s0*s0*(s1 - 1)"), img)
    # x*y + 1 is inf at every image point: undefined there, not zero
    _stage, big = _image_of({"s0": "exp(x1)", "s1": "exp(x2)"},
                            {"x1": (400.0, 700.0), "x2": (400.0, 700.0)})
    with pytest.raises(SamplerExhausted):
        is_zero_generic(parse_expr("s0*s1 + 1"), big)


def test_rank_test_on_the_image_skips_inadmissible_values():
    # entries past 1e12 (x1 > 13.8) are skipped, not ranked
    _stage, img = _image_of({"s0": "exp(x1)", "s1": "x2"}, {"x1": (0.0, 40.0)})

    def rank(*rows):
        return MatrixSampler([[parse_expr(e) for e in r] for r in rows], (), img).generic()[1]

    assert rank(["s0*s0", "s1"], ["2*s0*s0", "2*s1"]) == 1
    assert rank(["s0*s0", "1"], ["0", "1"]) == 2


def test_an_expression_undefined_on_the_whole_image_raises():
    _stage, img = _image_of({"s0": "x1", "s1": "x2"})
    undefined = parse_expr("log(s1 - 5)")  # s1 < 1.8 on the image
    with pytest.raises(SamplerExhausted):
        is_zero_generic(undefined, img)
    with pytest.raises(SamplerExhausted):
        MatrixSampler([[undefined, ONE]], (), img).generic()


def test_input_change_tests_its_determinant_on_the_stage_image():
    # z = -x1 < 0 on the image, while the default box has every z > 0, where
    # log(-z) is undefined
    stage = apply_state_change(_plane(), [("z", parse_expr("-x1")), ("x2", Sym("x2"))], SP)
    det = parse_expr("log(-z) + 2")
    out = transform.apply_input_change(
        stage, (ZERO, ZERO), [[det, ZERO], [ZERO, ONE]], ("v1", "v2"), SP
    )
    assert out.sys.input_syms == ("v1", "v2")


def test_images_under_different_resampling_budgets_get_their_own_point_sets():
    # log(x1) is undefined at about half of the base points
    _stage, img = _image_of({"s0": "log(x1)", "s1": "x2"}, {"x1": (-1.0, 1.0)})
    with pytest.raises(SamplerExhausted):
        point_set(replace(img, max_resamples=0), ()).point(20)
    assert point_set(img, ()).point(20)


def test_stages_with_the_same_frame_names_get_their_own_point_sets():
    _stage, a = _image_of({"s0": "x1 + x2", "s1": "x2"})
    _stage, b = _image_of({"s0": "x1 - x2", "s1": "x2"})
    _stage, a_again = _image_of({"s0": "x1 + x2", "s1": "x2"})
    assert point_set(a, ()) is not point_set(b, ())
    assert point_set(a, ()).point(0)["s0"] != point_set(b, ()).point(0)["s0"]
    # one point set per image, whatever symbols a test asks for
    assert point_set(a_again, ("s1",)) is point_set(a, ())


# --- step inverse check ------------------------------------------------------

def _plane():
    """A two-state system on which coordinate changes are applied directly."""
    frame = ("x1", "x2")
    s = AffineSystem(
        frame,
        vector_field(frame, {"x1": parse_expr("x2")}),
        vector_field(frame, {"x2": ONE}),
        vector_field(frame, {"x1": ONE}),
        ("u1", "u2"),
    )
    return initial_stage(s, blocks={"original": s})


def _shear(stage, new, expr):
    """Replace the state that `new` pairs with by `expr`, keeping the other."""
    old = {"s0": "x1", "s1": "x2", "s2": "s0"}[new]
    defs = [(new if x == old else x, parse_expr(expr) if x == old else Sym(x))
            for x in stage.sys.frame]
    return apply_state_change(stage, defs, SP, note=f"shear {new}")


def test_alternating_shears_pass_their_step_inverses():
    # the inverse composed back to x1, x2 has degree 8; its float round trip
    # missed the 1e-8 bound at the third step, though every step is exact
    stage = _plane()
    stage = _shear(stage, "s0", "x1 + x2^2")
    stage = _shear(stage, "s1", "x2 + s0^2")
    stage = _shear(stage, "s2", "s0 + s1^2")
    assert stage.sys.frame == ("s2", "s1")
    assert _stage_verified(stage, SP)


def test_step_undefined_on_most_of_the_image_is_rejected():
    # log(x1 - 3/2) is defined at fewer than 10 of the first 20 image points
    step = [("a", parse_expr("log(x1 - 3/2)")), ("x2", Sym("x2"))]
    with pytest.raises(PipelineError, match=r"cannot sample the coordinate change \(log\)"):
        apply_state_change(_plane(), step, SP, note="log")


def test_perturbed_step_inverse_is_rejected(vtol_analysis, monkeypatch):
    def perturbed(old_syms, defs):
        sol = solve_map(old_syms, defs)
        x = sorted(sol)[0]
        sol[x] = add(sol[x], Rat(Fraction(1, 10**6)))
        return sol

    monkeypatch.setattr(transform, "solve_map", perturbed)
    a = vtol_analysis
    with pytest.raises(PipelineError, match=r"fails to reproduce .*\(straighten ladder\)"):
        transform_to_triangular(a.system, a.report, a.flat, a.sp)


def test_functionally_dependent_step_is_rejected(monkeypatch):
    # b = 2a: no inverse exists, and the pattern solver finds none
    dependent = [("a", parse_expr("x1 + x2")), ("b", parse_expr("2*x1 + 2*x2"))]
    with pytest.raises(PipelineError, match="not invertible over the pattern set"):
        apply_state_change(_plane(), dependent, SP, note="dependent")
    # nor does the inverse of the map it was mutated from pass at the points
    valid = [("a", parse_expr("x1 + x2")), ("b", parse_expr("x2"))]
    monkeypatch.setattr(transform, "solve_map", lambda old, _defs: solve_map(old, valid))
    with pytest.raises(PipelineError, match=r"fails to reproduce x1 .*\(dependent\)"):
        apply_state_change(_plane(), dependent, SP, note="dependent")


def test_wrong_forward_map_fails_the_stage_check(vtol_analysis, monkeypatch):
    def wrong_forward(*args, **kwargs):
        out = apply_state_change(*args, **kwargs)
        x = sorted(out.forward)[0]
        out.forward[x] = mul(Rat(Fraction(1001, 1000)), out.forward[x])
        return out

    monkeypatch.setattr(transform, "apply_state_change", wrong_forward)
    a = vtol_analysis
    with pytest.raises(PipelineError, match="straightening stage fails numeric verification"):
        transform_to_triangular(a.system, a.report, a.flat, a.sp)


# --- the structure checks name the row they find broken ------------------------


@pytest.fixture(scope="module")
def finished_stages():
    """(report, stages by name) of generated (2,2,4,3) seed 5: two terminal
    chains of length 2, four core rows and rear chains of lengths 3 and 2,
    with w = z2_1 a state."""
    system = triangular_template(2, 2, 4, 3, seed=5).system
    rep, _flat, res = instance_outputs(system, Sym("y1"), SP)
    return rep, dict(res.stages)


def _perturbed(stage, sym, part, delta):
    """The stage with delta added to sym's row of the drift, b1 or b2."""
    sysm = stage.sys
    comps = list(getattr(sysm, part).components)
    i = sysm.frame.index(sym)
    comps[i] = simplify(add(comps[i], parse_expr(delta)))
    return replace(stage, sys=replace(sysm, **{part: VectorField(sysm.frame, tuple(comps))}))


@pytest.mark.parametrize("sym, part, delta, failure", [
    ("p1_1", "drift", "1", "terminal chain row p1_1"),
    ("p1_2", "b1", "1", "terminal chain row p1_2 input 1"),
    ("p2_2", "b2", "q1", "terminal chain row p2_2 input 2"),
    ("q1", "drift", "1", "first core equation"),
    ("q2", "drift", "z2_1^2", "core equation q2 shape"),
    ("q2", "drift", "q4", "drift coupling q2 vs q4"),
    ("q3", "drift", "z1_2", "drift coupling q3 vs rear z1_2"),
    ("q4", "drift", "z2_1^2", "last core equation shape"),
    ("r1", "drift", "1", "rear chain row r1"),
    ("z1_3", "drift", "1", "rear chain bottom z1_3"),
    ("z2_2", "b1", "1", "rear chain bottom z2_2"),
])
def test_assembly_names_the_broken_row(finished_stages, sym, part, delta, failure):
    rep, stages = finished_stages
    last = stages["rear-chains"]
    assert transform._assemble_decomposition(last, rep, SP).structure_ok
    out = transform._assemble_decomposition(_perturbed(last, sym, part, delta), rep, SP)
    assert not out.structure_ok and out.structure_failures == [failure]


@pytest.mark.parametrize("sym, part, delta, message", [
    ("p1_1", "b1", "1", "block structure violated: terminal row p1_1 touches the inputs"),
    ("p1_1", "drift", "r1", "block structure violated: terminal row p1_1 depends on r1"),
    ("q2", "b2", "1", "block structure violated: core row q2 touches the inputs"),
    ("q2", "drift", "r4", "block structure violated: core row q2 depends on deep rear state r4"),
    ("p1_1", "drift", "q3", "terminal block has more than two effective inputs"),
    ("q1", "drift", "r2", "core block does not have exactly two effective inputs"),
    ("q4", "drift", "r2", "core block short-direction rank is not one"),
])
def test_block_structure_check_names_the_broken_row(finished_stages, sym, part, delta, message):
    rep, stages = finished_stages
    straight = stages["straighten"]
    transform._verify_block_structure(straight, rep, SP)
    with pytest.raises(PipelineError) as err:
        transform._verify_block_structure(_perturbed(straight, sym, part, delta), rep, SP)
    assert str(err.value) == message


# the stage each ladder step receives
STEP_INPUT = {
    "normalize_first_core_equation": "straighten",
    "introduce_core_couplings": "normalize-first",
    "rear_chains_to_integrators": "core-couplings",
}


# Not reached by perturbing one row: "rear coordinates left over", "no rear
# coordinate available for the long-chain top" and "long-chain top
# missing", which need other blocks, and the branches of an input w
# ("depends on the long-chain input"), which this instance does not have.
@pytest.mark.parametrize("step, sym, part, delta, message", [
    ("normalize_first_core_equation", "q1", "b1", "1",
     "first core equation touches the inputs directly"),
    ("normalize_first_core_equation", "q1", "drift", "r1 - r3",  # _introduce's missing
     "first core equation does not depend on the rear pair; upstream checks must be "
     "inconsistent"),
    ("introduce_core_couplings", "q2", "drift", "z2_1^2",
     "core equation q2 is not affine in the chain input"),
    ("introduce_core_couplings", "q2", "drift", "(q4 - q3)*z2_1",  # _introduce's missing
     "coupling coefficient of q2 does not depend on q3; upstream checks must be "
     "inconsistent"),
    ("introduce_core_couplings", "q4", "b2", "1",
     "last core equation touches the inputs directly"),
    ("introduce_core_couplings", "q4", "drift", "z2_1^2",
     "last core equation is not affine in the chain input"),
    ("introduce_core_couplings", "q4", "drift", "r1*z2_1",
     "coupling factor of the last core equation reaches the rear top"),
    ("introduce_core_couplings", "q4", "drift", "r2 - r1",
     "state part of the last core equation does not depend on the rear top; upstream "
     "checks must be inconsistent"),
    ("rear_chains_to_integrators", "r1", "b1", "1",
     "rear chain state r1 reaches the inputs too early; the input span is no longer "
     "straightened"),
    ("rear_chains_to_integrators", "r1", "drift", "q1 - r2",  # _introduce's missing
     "derivative of r1 does not reach a free rear coordinate"),
])
def test_ladder_step_names_the_broken_row(finished_stages, step, sym, part, delta, message):
    rep, stages = finished_stages
    stage = stages[STEP_INPUT[step]]
    run = getattr(transform, step)
    run(stage, rep, SP)
    with pytest.raises(PipelineError) as err:
        run(_perturbed(stage, sym, part, delta), rep, SP)
    assert str(err.value) == message
