"""Constructive pipeline: staged transformations and numeric verification."""

from fractions import Fraction

import pytest

from triflat import transform

from triflat.direction_search import (
    _normalized_candidate,
    candidate_via_h,
    compute_bracket_chain,
)
from triflat.errors import PipelineError
from triflat.expr import ONE, Rat, Sym, ZERO, add, mul, neg
from triflat.flatout import flat_output_for_report
from triflat.generator import triangular_template
from triflat.parser import parse_expr
from triflat.sampling import Sampler, is_zero_generic
from triflat.simplify import simplify
from triflat.systems import AffineSystem, make_affine, prolong, vector_field
from triflat.transform import (
    CoordinateChange,
    _isolate,
    _rank_at,
    _stage_verified,
    _zero_at,
    apply_state_change,
    initial_stage,
    solve_map,
    transform_to_triangular,
    verify_transformation,
)
from triflat.triform import triangular_form_check

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
        ("sqrt(q*r^2)/2/r", "q", None),  # solvable, via the kernel route
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


def test_rank_at_raises_when_no_point_evaluates():
    points = [{"x": -1.0 - i, "y": 0.5} for i in range(4)]
    good = [[parse_expr("x"), parse_expr("y")], [parse_expr("2*x"), parse_expr("2*y")]]
    assert _rank_at(good, points, SP.tol) == 1
    # log of a negative value fails at every point: no rank was measured
    bad = good + [[parse_expr("log(x)"), ONE]]
    with pytest.raises(PipelineError, match="cannot be evaluated"):
        _rank_at(bad, points, SP.tol)


def test_rank_at_needs_admissible_values_at_half_the_image_points():
    rows = [[parse_expr("x"), ONE], [ZERO, ONE]]
    assert _rank_at(rows, [{"x": x} for x in (2.0, 3.0, float("inf"), 1.0)], SP.tol) == 2
    # an infinite or NaN entry measures no rank: not 0, and not numpy's LinAlgError
    for bad in (float("inf"), float("nan"), 1e13):
        with pytest.raises(PipelineError, match="cannot be evaluated"):
            _rank_at(rows, [{"x": bad}] * 4, SP.tol)
    # one admissible point, or fewer than half of them, gives no verdict
    for good in ([2.0], [2.0, 3.0]):
        points = [{"x": x} for x in good + [float("inf")] * 3]
        with pytest.raises(PipelineError, match="cannot be evaluated"):
            _rank_at(rows, points, SP.tol)


def test_zero_at_needs_half_the_image_points():
    # log(x) - log(x) is zero wherever it evaluates, which is only at x > 0
    e = parse_expr("log(x) - log(x)")
    assert e != ZERO
    points = [{"x": x} for x in (2.0, 3.0, -1.0, -2.0)]
    assert _zero_at(e, points, SP.tol)
    # one evaluable point, or fewer than half of them, gives no verdict
    for pts in (points[1:], points + [{"x": -3.0}]):
        with pytest.raises(PipelineError, match="evaluates at only"):
            _zero_at(e, pts, SP.tol)


def test_zero_at_counts_nan_as_nonzero():
    assert not _zero_at(Sym("x"), [{"x": 0.0}, {"x": float("nan")}], SP.tol)


def test_zero_at_counts_an_infinite_value_as_nonzero():
    # x*y + 1 overflows to inf at these points, and so does its scale
    points = [{"x": 1e200, "y": 1e200}] * 4
    assert not _zero_at(parse_expr("x*y + 1"), points, SP.tol)


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
