"""Acceptance criteria, one test per criterion, with a pass/fail line each.

Tolerances are fixed here: span comparisons at 1e-9, transformation
verification at 1e-7, all sampling through seeded samplers.
"""

import random
from dataclasses import replace

from triflat.diffgeo import (
    ad_iter,
    cauchy_characteristics,
    contains_generic,
    derived_step,
    differential,
    drift_compatible,
    extend,
    form_in_span,
    generic_rank,
    lie_bracket,
    lie_derivative,
    pruned,
)
from triflat.direction_search import (
    _normalized_candidate,
    check_static_feedback_linearizable,
    compute_bracket_chain,
    h_distribution,
)
from triflat.expr import ONE, Rat, Sym, ZERO, mul, neg, sub
from triflat.fields import Distribution, VectorField, coordinate_field
from triflat.generator import triangular_template
from triflat.parser import parse_expr
from triflat.sampling import MatrixSampler, Sampler, all_zero_generic, is_zero_generic, numeric_rank
from triflat.simplify import simplify
from triflat.systems import prolong
from triflat.transform import (
    CoordinateChange,
    prolonged_linearizability,
    verify_transformation,
)
from triflat.triform import equal_length_variant_check, triangular_form_check

from reference import (
    chained_form,
    contains_distribution,
    extended_chained,
    feedback_transform,
    field_sum,
    involutive_closure,
    scale,
    span_equal,
)

SP = Sampler()
SPAN_TOL = 1e-9
VERIFY_TOL = 1e-7


def announce(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def spans_equal_forms(frame, exprs_a, exprs_b, sp, points=20):
    """Span equality of two differential collections at sampled points."""
    rows_a = [list(differential(e, frame).coefficients) for e in exprs_a]
    rows_b = [list(differential(e, frame).coefficients) for e in exprs_b]
    both = rows_a + rows_b
    _points, stack = MatrixSampler(both, frame, replace(sp, samples=points)).stack()
    seen = 0
    for m in stack:
        ra = numeric_rank(m[: len(rows_a)], SPAN_TOL)
        rb = numeric_rank(m[len(rows_a):], SPAN_TOL)
        rc = numeric_rank(m, SPAN_TOL)
        if not ra == rb == rc:
            return False
        seen += 1
    return seen > 0


def test_criterion_1_vtol_end_to_end(vtol_analysis):
    a = vtol_analysis
    s, sp = a.system, a.sp
    ok = a.chain.depth == 1 and a.chain.ranks == [2, 4]
    H = h_distribution(a.chain, sp)
    ok = ok and contains_generic(H, ad_iter(s.drift, 2, s.b2), sp)
    ok = ok and not contains_generic(H, ad_iter(s.drift, 2, s.b1), sp)
    cand = a.h_candidate
    ok = ok and cand is not None and cand.alpha1 == ZERO and cand.alpha2 == ONE
    rep = a.report
    ok = ok and rep.verdict and rep.n2 == 3 and rep.case == "TwoChains"
    flat = a.flat
    ok = ok and spans_equal_forms(
        s.frame,
        [flat.phi1, flat.phi2],
        [parse_expr("eps*cos(theta)+z"), parse_expr("eps*sin(theta)-x")],
        sp,
    )
    res = a.transform
    fin = res.final
    structural = (
        fin.structure_ok
        and [len(c) for c in fin.chains] == [1, 1]
        and len(fin.core) == 3
        and len(fin.rear_long) == 1
        and not fin.rear_short
    )
    ok = ok and structural
    ok = ok and verify_transformation(s, res.change, fin.system, sp, tol=VERIFY_TOL)
    announce(1, ok, "(vtol end to end)")


def test_criterion_2_sin_drift(sin_analysis):
    a = sin_analysis
    s, sp = a.system, a.sp
    ok = a.chain.depth == 1
    ok = ok and a.h_candidate is None  # containment method inapplicable: H full
    ok = ok and generic_rank(h_distribution(a.chain, sp), sp) == s.n
    cands = a.candidates
    ok = ok and len(cands) == 2

    def ratio_match(c, t1, t2):
        cross = simplify(
            sub(mul(c.alpha1, parse_expr(t2)), mul(c.alpha2, parse_expr(t1)))
        )
        return is_zero_generic(cross, sp)

    ok = ok and ratio_match(cands[0], "u1", "u2")
    ok = ok and ratio_match(cands[1], "u1*tan(u1/u2)-2*u2", "u2*tan(u1/u2)")
    ok = ok and a.reports[0].verdict and a.reports[0].candidate is cands[0]
    flat = a.flat
    ok = ok and flat.phi1 == Sym("x3")
    ok = ok and is_zero_generic(simplify(flat.phi2 - parse_expr("x1-x2*u1/u2")), sp)
    for phi in (Sym("x3"), parse_expr("x1-x2*u1/u2")):
        ok = ok and form_in_span(differential(phi, s.frame), flat.l_perp, sp)
    res = a.transform
    ok = ok and res.verified and res.final.structure_ok
    ok = ok and [len(c) for c in res.final.chains] == [1, 0]
    ok = ok and res.final.couplings["g"] != ZERO
    announce(2, ok, "(sin-drift example)")


def test_criterion_3_ten_state(academic10_analysis):
    a = academic10_analysis
    s, sp = a.system, a.sp
    ok = a.chain.depth == 2 and a.chain.ranks == [2, 4, 6]
    cand = a.h_candidate
    ok = ok and cand is not None and cand.source == "h-method"
    ok = ok and is_zero_generic(
        simplify(sub(mul(cand.alpha1, Rat(1)), mul(cand.alpha2, Sym("x8")))), sp
    )
    rep = a.report
    ok = ok and rep.verdict and rep.n2 == 4
    ok = ok and generic_rank(rep.g_chain[1], sp) == 9
    ok = ok and generic_rank(rep.g_chain[2], sp) == 10
    ok = ok and sorted(rep.chain_lengths) == [1, 2]
    flat = a.flat
    ok = ok and flat.phi1 == Sym("x1") and flat.phi2 == Sym("x3")
    res = a.transform
    fin = res.final
    ok = ok and res.verified and fin.structure_ok
    ok = ok and str(res.change.state_map[fin.rear_long[0]]) == "sin(x8)"
    # input span stays straightened: only the two deepest rear rows touch u
    sysm = fin.system
    input_rows = [
        x
        for i, x in enumerate(sysm.frame)
        if sysm.b1.components[i] != ZERO or sysm.b2.components[i] != ZERO
    ]
    ok = ok and set(input_rows) == {fin.rear_long[-1], fin.rear_short[-1]}
    announce(3, ok, "(ten-state example)")


def _random_field(rng, frame, degree=2):
    parts = {}
    for x in frame:
        if rng.random() < 0.7:
            e = Rat(rng.randint(-2, 2))
            for _ in range(rng.randint(1, 2)):
                term = Rat(rng.randint(-1, 1)) * Sym(rng.choice(frame))
                if degree >= 2:
                    term = term * Sym(rng.choice(frame))
                e = e + term
            parts[x] = simplify(e)
    return VectorField.from_dict(frame, parts)


def test_criterion_4_property_suites(vtol_analysis):
    rng = random.Random(20)
    frame = ("x", "y", "z")
    bracket_ok = True
    checked = 0
    while checked < 50:
        u = _random_field(rng, frame)
        v = _random_field(rng, frame)
        w = _random_field(rng, frame)
        if u.is_zero() or v.is_zero() or w.is_zero():
            continue
        checked += 1
        anti = field_sum(lie_bracket(u, v), lie_bracket(v, u))
        jacobi = field_sum(
            lie_bracket(u, lie_bracket(v, w)),
            lie_bracket(v, lie_bracket(w, u)),
            lie_bracket(w, lie_bracket(u, v)),
        )
        f = simplify(parse_expr("x*y - 2*z"))
        fw = VectorField(frame, tuple(simplify(mul(f, c)) for c in w.components))
        leibniz = field_sum(
            lie_bracket(u, fw),
            scale(scale(w, lie_derivative(u, f)), Rat(-1)),
            scale(scale(lie_bracket(u, w), f), Rat(-1)),
        )
        residuals = list(anti.components) + list(jacobi.components) + list(leibniz.components)
        if not all_zero_generic([simplify(r) for r in residuals], SP):
            bracket_ok = False
            break

    # characteristic inclusion into the derived flag on random plane fields
    inclusion_ok = True
    frame5 = ("x1", "x2", "x3", "x4", "x5")
    built = 0
    while built < 20:
        v = _random_field(rng, frame5, degree=1)
        w = _random_field(rng, frame5, degree=1)
        D = Distribution(frame5, [v, w])
        if generic_rank(D, SP) != 2:
            continue
        built += 1
        C = cauchy_characteristics(D, SP)
        C1 = cauchy_characteristics(derived_step(D, SP), SP)
        if not contains_distribution(C, C1, SP):
            inclusion_ok = False
            break

    # rank ladder on a chained-plus-plane distribution
    c5 = chained_form(5)
    frame_ext = c5.frame + ("y1", "y2")
    lift = lambda f: VectorField(frame_ext, tuple(f.components) + (ZERO, ZERO))
    D = Distribution(
        frame_ext,
        [lift(c5.b1), lift(c5.b2),
         coordinate_field(frame_ext, "y1"), coordinate_field(frame_ext, "y2")],
    )
    d = 4
    ladder_ok = generic_rank(cauchy_characteristics(D, SP), SP) == d - 2
    flags = [D]
    for _ in range(3):
        flags.append(derived_step(flags[-1], SP))
    closure_rank = generic_rank(involutive_closure(D, SP), SP)
    l = next(i for i, f in enumerate(flags) if generic_rank(f, SP) == closure_rank)
    for i in range(1, l):
        Ci = cauchy_characteristics(flags[i], SP)
        ladder_ok = ladder_ok and generic_rank(Ci, SP) == d - 2 + i
        ladder_ok = ladder_ok and contains_distribution(Ci, flags[i - 1], SP)

    # feedback invariance of the chain and the ladder distributions
    a = vtol_analysis
    s, sp = a.system, a.sp
    feedback_ok = True
    bp_field = a.report.candidate.field
    for k in range(10):
        beta = [
            [Rat(rng.randint(1, 2)), parse_expr(f"{rng.randint(0, 1)}*theta")],
            [parse_expr(f"{rng.randint(0, 1)}*z"), Rat(rng.randint(1, 2))],
        ]
        gamma = (
            parse_expr(f"{rng.randint(0, 2)}*vx"),
            parse_expr(f"{rng.randint(0, 2)}"),
        )
        fb = feedback_transform(s, beta, gamma, sp)
        chain_fb = compute_bracket_chain(fb, sp)
        feedback_ok = feedback_ok and chain_fb.depth == a.chain.depth
        for i in range(1, chain_fb.depth + 2):
            feedback_ok = feedback_ok and span_equal(
                chain_fb.d(i), a.chain.d(i), sp
            )
        v_low = ad_iter(fb.drift, chain_fb.depth - 1, bp_field)
        delta0_fb = pruned(extend(chain_fb.d(chain_fb.depth - 1), [v_low]), sp)
        delta1_fb = pruned(
            extend(chain_fb.d(chain_fb.depth), [lie_bracket(fb.drift, v_low)]), sp
        )
        feedback_ok = feedback_ok and span_equal(delta0_fb, a.report.delta0, sp)
        feedback_ok = feedback_ok and span_equal(delta1_fb, a.report.delta1, sp)
        if not feedback_ok:
            break

    # scaling invariance of the ladder in the chosen direction
    scale_ok = True
    for k in range(5):
        lam = simplify(parse_expr(f"1 + {rng.randint(1, 3)}*theta^2"))
        scaled = scale(bp_field, lam)
        v_low = ad_iter(s.drift, a.chain.depth - 1, scaled)
        delta0_s = pruned(extend(a.chain.d(a.chain.depth - 1), [v_low]), sp)
        delta1_s = pruned(
            extend(a.chain.d(a.chain.depth), [lie_bracket(s.drift, v_low)]), sp
        )
        scale_ok = scale_ok and span_equal(delta0_s, a.report.delta0, sp)
        scale_ok = scale_ok and span_equal(delta1_s, a.report.delta1, sp)

    ok = bracket_ok and inclusion_ok and ladder_ok and feedback_ok and scale_ok
    announce(
        4,
        ok,
        f"(bracket={bracket_ok} inclusion={inclusion_ok} ladder={ladder_ok} "
        f"feedback={feedback_ok} scaling={scale_ok})",
    )


def test_criterion_5_generator_round_trip():
    rng = random.Random(31)
    combos = []
    while len(combos) < 10:
        l1 = rng.choice([0, 1, 2])
        l2 = rng.choice([0, 1, 2])
        n2 = rng.choice([3, 4, 5])
        n3 = rng.choice([1, 2, 3])
        if n2 == 3 and l1 == 0 and l2 == 0:
            continue
        combos.append((l1, l2, n2, n3))
    ok = True
    for seed, combo in enumerate(combos):
        inst = triangular_template(*combo, seed=seed)
        s = inst.system
        chain = compute_bracket_chain(s, SP)
        cand = _normalized_candidate(s, ONE, ZERO, "h-method")
        rep = triangular_form_check(s, cand, SP, chain)
        l1, l2, n2, n3 = combo
        match = (
            rep.verdict
            and rep.n2 == n2
            and rep.depth == n3
            and rep.chain_lengths == (max(l1, l2), min(l1, l2))
            and rep.case == inst.case
        )
        if not match:
            ok = False
            print(f"  template {combo} mismatch: verdict={rep.verdict} case={rep.case} "
                  f"dims={rep.dims} items={rep.items}")
            break
    announce(5, ok, f"({len(combos)} random template instances)")


def test_criterion_6_prolongation_linearizability(
    vtol_analysis, sin_analysis, academic10_analysis, sqrt_analysis, product_analysis
):
    ok = True
    details = []
    for a in (vtol_analysis, sin_analysis, academic10_analysis, sqrt_analysis, product_analysis):
        out = prolonged_linearizability(a.transform, a.sp)
        details.append(f"{a.system.name}={out.verdict}")
        ok = ok and out.verdict
    for n in (4, 5, 6):
        pro = prolong(chained_form(n), 1, n - 2)
        res = check_static_feedback_linearizable(pro, SP)
        details.append(f"chained{n}={res.verdict}")
        ok = ok and res.verdict
    announce(6, ok, "(" + " ".join(details) + ")")


def test_criterion_7_negative_controls(vtol_analysis):
    a = vtol_analysis
    variant = equal_length_variant_check(a.system, a.chain, a.sp)
    ok = not variant.verdict

    # drift compatibility along the derived flag of the extended chained form:
    # a_2 = x1*x5 depends on the deepest state and breaks it, the default keeps it
    def drift_compatible_flag(sysm):
        flag = pruned(sysm.input_distribution(), SP)
        levels = []
        for _ in range(1, sysm.n - 2):
            flag = derived_step(flag, SP)
            levels.append(drift_compatible(flag, sysm.drift, SP))
        return all(levels)

    ok = ok and drift_compatible_flag(extended_chained(5))
    ok = ok and not drift_compatible_flag(extended_chained(5, {2: mul(Sym("x1"), Sym("x5"))}))

    res = a.transform
    bad_map = dict(res.change.state_map)
    key = sorted(bad_map)[0]
    bad_map[key] = neg(bad_map[key])
    corrupted = CoordinateChange(bad_map, dict(res.change.input_map))
    ok = ok and not verify_transformation(
        a.system, corrupted, res.final.system, a.sp, tol=VERIFY_TOL
    )
    announce(7, ok, "(equal-variant, incompatible drift, corrupted map)")
