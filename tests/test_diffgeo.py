"""Vector field calculus: brackets, flags, characteristics, annihilators."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from triflat import sampling
from triflat.diffgeo import (
    ad_iter,
    annihilator,
    basis,
    basis_rows,
    bracket_values,
    cauchy_characteristics,
    characteristics_span,
    contains_generic,
    derived_step,
    drift_compatible,
    drift_step,
    flag,
    form_in_span,
    generic_rank,
    is_involutive,
    lie_bracket,
    lie_derivative,
    pruned,
)
from triflat.expr import Rat, Sym, ZERO, evaluate, mul, sub
from triflat.fields import Distribution, VectorField, coordinate_field
from triflat.parser import parse_expr
from triflat.sampling import Sampler, is_zero_generic
from triflat.simplify import simplify

from reference import (
    chained_form,
    dense_bracket_values,
    double_integrator_pair,
    extended_chained,
    feedback_transform,
    field_sum,
    greedy_basis_rows,
    involutive_closure,
    one_form,
    scale,
    span_equal,
)

SP = Sampler()


def fd_bracket(v, w, point, h=1e-6):
    """Finite-difference Lie bracket oracle: Jw(x) v(x) - Jv(x) w(x)."""
    frame = v.frame
    n = len(frame)

    def val(f, pt):
        return np.array([evaluate(c, pt) for c in f.components])

    def jac(f, pt):
        out = np.zeros((n, n))
        for j, x in enumerate(frame):
            up = dict(pt)
            dn = dict(pt)
            up[x] += h
            dn[x] -= h
            out[:, j] = (val(f, up) - val(f, dn)) / (2 * h)
        return out

    return jac(w, point) @ val(v, point) - jac(v, point) @ val(w, point)


def _random_poly_field(rng, frame, terms=2):
    parts = {}
    for x in frame:
        if rng.random() < 0.6:
            e = Rat(rng.randint(-2, 2))
            for _ in range(rng.randint(0, terms)):
                e = e + Rat(rng.randint(-2, 2)) * Sym(rng.choice(frame)) * Sym(rng.choice(frame))
            parts[x] = simplify(e)
    return VectorField.from_dict(frame, parts)


def test_coordinate_fields_commute():
    frame = ("x", "z")
    bx = coordinate_field(frame, "x")
    bz = coordinate_field(frame, "z")
    assert lie_bracket(bx, bz).is_zero()


def test_bracket_chained_fields_matches_hand_expansion():
    c = chained_form(4)
    br = lie_bracket(c.b1, c.b2)
    assert br.components == (ZERO, ZERO, Rat(1), ZERO)
    # independent finite-difference oracle at random points
    rng = random.Random(5)
    for _ in range(5):
        pt = {x: rng.uniform(0.3, 1.5) for x in c.frame}
        num = fd_bracket(c.b1, c.b2, pt)
        sym = np.array([evaluate(e, pt) for e in br.components])
        assert np.allclose(num, sym, atol=1e-5)


def test_bracket_matches_finite_differences_random():
    """The symbolic bracket against finite differences at a random point, and
    the sampled bracket values against the symbolic bracket at the sample
    points, sampled in the same stack."""
    rng = random.Random(9)
    frame = ("x", "y", "z")
    pairs = [(_random_poly_field(rng, frame), _random_poly_field(rng, frame)) for _ in range(5)]
    root = VectorField.from_dict(frame, {"x": parse_expr("sqrt(x*y + 1)"), "y": Sym("z")})
    trig = VectorField.from_dict(
        frame, {"x": parse_expr("sin(y)"), "y": parse_expr("x*cos(z)"), "z": Rat(1)})
    pairs += [(root, trig), (trig, pairs[0][0]), (pairs[1][1], root)]
    for v, w in pairs:
        br = lie_bracket(v, w)
        pt = {x: rng.uniform(0.4, 1.2) for x in frame}
        assert np.allclose(
            fd_bracket(v, w, pt),
            [evaluate(e, pt) for e in br.components],
            atol=1e-4,
        )
        got = bracket_values(frame, [v, w], [(0, 1)], SP, [br.components])
        _F, sampled, symbolic, _at = got
        assert sampled.shape == symbolic.shape == (SP.samples, 1, 3)
        scale = np.abs(symbolic).max()
        np.testing.assert_allclose(sampled, symbolic, rtol=1e-9, atol=1e-9 * scale)
        dense = dense_bracket_values(frame, [v, w], [(0, 1)], SP, [br.components])
        assert all(np.array_equal(a, b) for a, b in zip(got, dense))


def test_jacobi_identity_random_fields():
    rng = random.Random(2)
    frame = ("x", "y", "z")
    for _ in range(3):
        u = _random_poly_field(rng, frame)
        v = _random_poly_field(rng, frame)
        w = _random_poly_field(rng, frame)
        total = field_sum(
            lie_bracket(u, lie_bracket(v, w)),
            lie_bracket(v, lie_bracket(w, u)),
            lie_bracket(w, lie_bracket(u, v)),
        )
        for c in total.components:
            assert is_zero_generic(simplify(c), SP)


def test_ad_iter_zero_is_identity(vtol_analysis):
    a = vtol_analysis.system
    assert ad_iter(a.drift, 0, a.b2) == a.b2


def test_ad_iter_vtol_spans_second_chain_member(vtol_analysis):
    s = vtol_analysis.system
    sp = vtol_analysis.sp
    d1 = pruned(s.input_distribution(), sp)
    ad1 = ad_iter(s.drift, 1, s.b2)
    d2 = vtol_analysis.chain.top
    assert contains_generic(d2, ad1, sp)
    assert not contains_generic(d1, ad1, sp)


def test_lie_derivative_vtol_output(vtol_analysis):
    s = vtol_analysis.system
    phi = parse_expr("eps*cos(theta)+z")
    out = lie_derivative(s.drift, phi)
    assert is_zero_generic(out - parse_expr("-eps*omega*sin(theta)+vz"), vtol_analysis.sp)


def test_lie_derivative_constant_and_iteration(vtol_analysis):
    s = vtol_analysis.system
    assert lie_derivative(s.drift, Rat(7)) == ZERO
    phi = parse_expr("x*z")
    twice = lie_derivative(s.drift, phi, 2)
    once_twice = lie_derivative(s.drift, lie_derivative(s.drift, phi))
    assert is_zero_generic(twice - once_twice, SP)


def test_generic_rank_collinear():
    frame = ("x", "z")
    v = coordinate_field(frame, "x")
    w = scale(v, Rat(2))
    assert generic_rank(Distribution(frame, [v, w]), SP) == 1


def _fields(frame, *rows):
    return Distribution(frame, [VectorField(frame, tuple(map(parse_expr, r))) for r in rows])


def test_generic_rank_of_rows_whose_scales_differ_by_1e7():
    # rank 2 everywhere, but the small row's distance from the big row's line
    # is below a cutoff scaled by the big row (about 1e-3 against 2e-2)
    D = _fields(("x", "y"), ["10000000*x", "0"], ["x", "x/1000"])
    assert generic_rank(D, SP) == 2


def test_a_noise_level_row_is_not_counted():
    # sin(x)^2 + cos(x)^2 - 1, left unsimplified, evaluates to rounding noise;
    # equilibrating rows must zero it, not scale it up to a unit row
    D = _fields(("x", "y", "z"), ["10000000*x", "0", "0"], ["x", "x/1000", "0"],
                ["0", "0", "sin(x)^2 + cos(x)^2 - 1"])
    assert generic_rank(D, SP) == 2


def test_a_basis_field_may_drop_rank_at_a_minority_of_points():
    # x - c vanishes at stream point 2 and y - d at stream point 5: every
    # field but the first drops rank at one point, the spanning set nowhere
    frame = ("x", "y")
    points = sampling.point_set(SP, frame)
    c, d = Rat(Fraction(points.point(2)["x"])), Rat(Fraction(points.point(5)["y"]))
    fields = [coordinate_field(frame, "x"), VectorField(frame, (ZERO, sub(Sym("x"), c))),
              VectorField(frame, (ZERO, sub(Sym("y"), d)))]
    assert basis(Distribution(frame, fields), SP) == fields[:2]


def test_generic_rank_does_not_follow_the_units_of_a_coordinate():
    # x12 in units 1e8 times too large: the last field's x12 component is
    # 1e-8 of its row, below a cutoff that grows with the 12 columns
    frame = tuple(f"x{i}" for i in range(1, 13))
    last = VectorField(frame, (Rat(1),) * 11 + (parse_expr("1/100000000"),))
    D = Distribution(frame, [coordinate_field(frame, x) for x in frame[:11]] + [last])
    assert generic_rank(D, SP) == 12


def test_the_span_tests_read_rows_whose_scales_differ_by_1e7():
    # {(1e7*x, 0, 0), (x, x/1000, 0)} spans {d/dx, d/dy}: involutive, its own
    # characteristics, and the drift z d/dx + d/dz keeps them
    frame = ("x", "y", "z")
    D = _fields(frame, ["10000000*x", "0", "0"], ["x", "x/1000", "0"])
    assert len(basis(D, SP)) == 2 and is_involutive(D, SP)
    assert is_involutive(_fields(frame[:2], ["10000000*x", "0"], ["x", "x/1000"]), SP)
    assert generic_rank(cauchy_characteristics(D, SP), SP) == 2
    assert characteristics_span(D, D, SP)
    assert drift_compatible(D, VectorField(frame, (Sym("z"), ZERO, Rat(1))), SP)


def test_a_field_of_full_rank_everywhere_beats_an_earlier_one_that_drops_rank():
    # x - c vanishes at stream point 2; (0, 1) is a basis field at every point
    frame = ("x", "y")
    c = Rat(Fraction(sampling.point_set(SP, frame).point(2)["x"]))
    fields = [coordinate_field(frame, "x"), VectorField(frame, (ZERO, sub(Sym("x"), c))),
              coordinate_field(frame, "y")]
    assert basis(Distribution(frame, fields), SP) == [fields[0], fields[2]]


ROW_KINDS = ("new", "dependent", "zero", "copy", "drops", "rises")


def _generic_stack(samples, n, kinds, seed):
    """A random (samples, len(kinds), n) stack, scaled and cut to the points
    of its maximal rank as MatrixSampler.generic does, with the rank.  Row
    kinds: new (random), dependent (a combination of the new rows before at
    each point), zero, copy (a multiple of an earlier row: a tie), drops
    (random but dependent at a few points) and rises (dependent but random
    at a few points)."""
    rng = np.random.default_rng(seed)
    rows, new = [], []
    for kind in kinds:
        row = rng.standard_normal((samples, n))
        if kind == "zero":
            row = np.zeros((samples, n))
        elif kind != "new" and new:
            earlier = np.stack(new, axis=1)
            combo = np.einsum("kr,krn->kn", rng.standard_normal((samples, len(new))), earlier)
            few = rng.choice(samples, size=rng.integers(1, samples // 3 + 1), replace=False)
            if kind == "dependent":
                row = combo
            elif kind == "copy":
                row = rng.choice([-2.0, 0.5, 1.0]) * rows[rng.integers(len(rows))]
            elif kind == "drops":
                row[few] = combo[few]
            else:
                combo[few] = row[few]
                row = combo
        rows.append(row)
        if kind == "new" or not new:
            new.append(row)
    stack = sampling._scaled(np.stack(rows, axis=1), SP.tol)
    r = sampling._svd_ranks(stack, SP.tol)
    return stack[r == r.max()], int(r.max())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(8, 16), st.integers(1, 6),
       st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
@example(16, 4, ["new"] * 4, 0)  # full rank
@example(16, 5, ["new"] * 3 + ["dependent"] * 3 + ["new"], 1)  # a run, a tail, a late row
@example(16, 2, ["new", "drops", "drops"], 0)  # the row after the run, kept at a lower level
@example(16, 3, ["new", "drops", "new", "drops"], 1)
@example(12, 4, ["zero", "new", "zero", "new"], 3)
@example(16, 4, ["new", "copy", "drops", "drops", "copy"], 4)  # ties
def test_basis_rows_equal_the_level_by_level_greedy(samples, n, kinds, seed):
    stack, top = _generic_stack(samples, n, kinds, seed)
    assert basis_rows(stack, top, SP.tol) == greedy_basis_rows(stack, top, SP.tol)


def _count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_a_full_rank_stack_is_its_own_basis_without_an_svd(monkeypatch):
    stack, top = _generic_stack(16, 5, ["new"] * 4, 0)
    calls = _count_svds(monkeypatch)
    assert top == 4 and basis_rows(stack, top, SP.tol) == [0, 1, 2, 3] and not calls


@pytest.mark.parametrize("run, tail", [(1, 1), (2, 3), (4, 1), (6, 4)])
def test_a_leading_full_rank_run_costs_a_bisection(monkeypatch, run, tail):
    # run independent rows, tail rows dependent on them, one more independent
    stack, top = _generic_stack(16, run + 2, ["new"] * run + ["dependent"] * tail + ["new"], run)
    calls = _count_svds(monkeypatch)
    assert basis_rows(stack, top, SP.tol) == list(range(run)) + [run + tail]
    assert len(calls) <= math.ceil(math.log2(top)) + 1 + tail, calls


def test_generic_rank_vtol_and_ten_state(vtol_analysis, academic10_analysis):
    assert vtol_analysis.chain.ranks == [2, 4]
    assert academic10_analysis.chain.ranks == [2, 4, 6]


def test_contains_trivial():
    frame = ("x", "y", "z")
    v = coordinate_field(frame, "x")
    w = coordinate_field(frame, "y")
    D = Distribution(frame, [v, w])
    assert contains_generic(D, v, SP)
    assert not contains_generic(D, coordinate_field(frame, "z"), SP)


def test_derived_flag_involutive_fixed_point():
    frame = ("x", "y", "z")
    D = Distribution(frame, [coordinate_field(frame, "x"), coordinate_field(frame, "y")])
    assert generic_rank(derived_step(D, SP), SP) == 2


def test_derived_flag_chained_ranks():
    c = chained_form(5)
    D = pruned(c.input_distribution(), SP)
    for i in range(4):
        assert generic_rank(D, SP) == 2 + i
        D = derived_step(D, SP)


def test_derived_step_matches_brute_force():
    # each derived step equals the span of all pairwise brackets of the
    # previous step's generators, enumerated without any pruning
    # (seed 3 gives a flag that grows 2, 3, 4, so neither step is trivial)
    rng = random.Random(3)
    frame = ("x", "y", "z", "w")
    v1 = _random_poly_field(rng, frame)
    v2 = _random_poly_field(rng, frame)
    D = Distribution(frame, [v1, v2])
    words = [v1, v2]
    for step in (1, 2):
        words = words + [
            lie_bracket(a, b) for i, a in enumerate(words) for b in words[i + 1 :]
        ]
        D = derived_step(D, SP)
        brute = Distribution(frame, words)
        assert generic_rank(D, SP) == generic_rank(brute, SP) == 2 + step
        assert span_equal(D, brute, SP)


def test_derived_flag_ranks_survive_feedback():
    # the growth 2, 3, 4 of the chained form's derived flag is a feedback
    # invariant: input recombination and drift changes leave it alone
    rng = random.Random(6)
    s = chained_form(4)
    for _ in range(3):
        beta = [
            [Rat(rng.randint(1, 3)), parse_expr(f"{rng.randint(0, 2)}*x1")],
            [parse_expr(f"{rng.randint(0, 2)}*x2"), Rat(rng.randint(1, 3))],
        ]
        gamma = (parse_expr(f"{rng.randint(0, 2)}*x3"), Rat(rng.randint(0, 2)))
        D = pruned(feedback_transform(s, beta, gamma, SP).input_distribution(), SP)
        for i in range(3):
            assert generic_rank(D, SP) == 2 + i
            D = derived_step(D, SP)


def test_input_fields_lie_in_input_span(vtol_analysis):
    sp = vtol_analysis.sp
    s = vtol_analysis.system
    D = pruned(s.input_distribution(), sp)
    assert contains_generic(D, s.b1, sp)
    assert contains_generic(D, s.b2, sp)
    combo = field_sum(scale(s.b1, parse_expr("sin(theta)")), scale(s.b2, Sym("x")))
    assert contains_generic(D, combo, sp)
    assert not contains_generic(D, lie_bracket(s.drift, s.b1), sp)


def test_involutive_closure_vtol_display(vtol_analysis):
    s = vtol_analysis.system
    sp = vtol_analysis.sp
    closure = vtol_analysis.report.closure
    expected = Distribution(
        s.frame,
        [
            VectorField.from_dict(
                s.frame,
                {"x": parse_expr("eps*cos(theta)"), "z": parse_expr("eps*sin(theta)"),
                 "theta": parse_expr("1")},
            ),
            coordinate_field(s.frame, "vx"),
            coordinate_field(s.frame, "vz"),
            coordinate_field(s.frame, "omega"),
        ],
    )
    assert span_equal(closure, expected, sp)


def test_involutive_closure_sin_display(sin_analysis):
    s = sin_analysis.system
    closure = sin_analysis.report.closure
    expected = Distribution(
        s.frame, [coordinate_field(s.frame, x) for x in ("u1", "u2", "x1", "x2")]
    )
    assert span_equal(closure, expected, sin_analysis.sp)


def test_is_involutive_examples(vtol_analysis):
    sp = vtol_analysis.sp
    assert is_involutive(vtol_analysis.chain.d(1), sp)
    assert not is_involutive(vtol_analysis.chain.top, sp)
    frame = ("x", "y", "z")
    D = Distribution(frame, [coordinate_field(frame, "x"), coordinate_field(frame, "z")])
    assert is_involutive(D, SP)


def test_cauchy_of_full_space():
    frame = ("x", "y")
    D = Distribution(frame, [coordinate_field(frame, "x"), coordinate_field(frame, "y")])
    C = cauchy_characteristics(D, SP)
    assert span_equal(C, D, SP)


def test_cauchy_generic_rank2_in_r3_is_zero():
    # D = span{d/dx, d/dy + x d/dz} is the canonical non-involutive example
    frame = ("x", "y", "z")
    v = coordinate_field(frame, "x")
    w = VectorField.from_dict(frame, {"y": Rat(1), "z": Sym("x")})
    D = Distribution(frame, [v, w])
    C = cauchy_characteristics(D, SP)
    assert generic_rank(C, SP) == 0
    # brute-force oracle: the linear conditions at sample points have no kernel
    rng = random.Random(11)
    br = lie_bracket(v, w)
    for _ in range(5):
        pt = {s: rng.uniform(0.3, 1.5) for s in frame}
        m = np.array(
            [
                [evaluate(c, pt) for c in f.components]
                for f in (v, w, br)
            ]
        )
        # rank of [v, w, [v,w]] is 3: no combination of v, w brackets into D
        assert np.linalg.matrix_rank(m) == 3


def test_annihilator_coordinate_plane():
    frame = ("x", "z")
    D = Distribution(frame, [coordinate_field(frame, "x")])
    ann = annihilator(D, SP)
    assert len(ann.forms) == 1
    assert ann.forms[0].coefficients == (ZERO, Rat(1))


def test_annihilator_vtol_display(vtol_analysis):
    s = vtol_analysis.system
    sp = vtol_analysis.sp
    ann = annihilator(vtol_analysis.report.closure, sp)
    classical = [
        one_form(s.frame, {"theta": parse_expr("eps*sin(theta)"), "z": parse_expr("-1")}),
        one_form(s.frame, {"theta": parse_expr("eps*cos(theta)"), "x": parse_expr("-1")}),
    ]
    for w in classical:
        assert form_in_span(w, ann, sp)
    rows = ann.matrix_rows() + [list(w.coefficients) for w in classical]
    from triflat.sampling import MatrixSampler, ranks

    _points, stack = MatrixSampler(rows, s.frame, sp).stack()
    assert ranks(stack, sp.tol).max() == 2


def test_annihilator_sin_l_perp_membership(sin_analysis):
    s = sin_analysis.system
    sp = sin_analysis.sp
    lperp = sin_analysis.flat.l_perp
    expected_forms = [
        one_form(s.frame, {"x1": Sym("u2"), "x2": -Sym("u1")}),
        one_form(s.frame, {"u1": Sym("u2"), "u2": -Sym("u1")}),
        one_form(s.frame, {"x3": Rat(1)}),
    ]
    for w in expected_forms:
        assert form_in_span(w, lperp, sp)


def test_annihilator_orthogonal_to_distribution(vtol_analysis):
    sp = vtol_analysis.sp
    D = vtol_analysis.report.delta1
    ann = annihilator(D, sp)
    for w in ann.forms:
        for f in D.fields:
            assert is_zero_generic(simplify(w.pair(f)), sp)


def test_derived_flag_monotone_stabilizes_at_closure(sin_analysis):
    sp = sin_analysis.sp
    D = sin_analysis.report.delta1
    prev = generic_rank(D, sp)
    cur = D
    closure = involutive_closure(D, sp)
    for _ in range(4):
        nxt = derived_step(cur, sp)
        r = generic_rank(nxt, sp)
        assert r >= prev
        if r == prev:
            break
        prev, cur = r, nxt
    assert span_equal(cur, closure, sp)


# --- flag -----------------------------------------------------------------------

FLAGS = [  # system, step, expected ranks: full rank reached or a stall after the last
    (chained_form(5), "derived", [2, 3, 4, 5]),
    (chained_form(5), "drift", [2]),
    (extended_chained(5), "derived", [2, 3, 4, 5]),
    (extended_chained(5), "drift", [2, 4, 5]),
    (double_integrator_pair(), "derived", [2]),
    (double_integrator_pair(), "drift", [2, 4]),
]


def _counted_step(sysm, kind, made):
    def step(D):
        out = derived_step(D, SP) if kind == "derived" else drift_step(D, sysm.drift, SP)
        made.append(out)
        return out

    return step


@pytest.mark.parametrize("sysm, kind, expected", FLAGS,
                         ids=lambda v: getattr(v, "name", str(v)))
def test_flag_grows_until_full_rank_or_a_stall(sysm, kind, expected):
    start = pruned(sysm.input_distribution(), SP)
    made = []
    members = list(flag(start, _counted_step(sysm, kind, made), SP))
    ranks = [r for _, r in members]
    assert ranks == expected
    assert all(a < b for a, b in zip(ranks, ranks[1:]))
    assert all(r == generic_rank(D, SP) for D, r in members)
    assert members[0][0] is start
    assert all(D is nxt for (D, _), nxt in zip(members[1:], made))
    if ranks[-1] == sysm.n:
        assert len(made) == len(members) - 1  # no step past the full space
    else:
        assert len(made) == len(members)
        stalled = made[-1]
        assert generic_rank(stalled, SP) == ranks[-1]
        assert all(D is not stalled for D, _ in members)


@pytest.mark.parametrize("stop", [0, 1, 2])
def test_flag_takes_no_step_past_the_member_a_consumer_stops_at(stop):
    sysm = extended_chained(5)
    made = []
    for i, _member in enumerate(flag(pruned(sysm.input_distribution(), SP),
                                     _counted_step(sysm, "derived", made), SP)):
        if i == stop:
            break
    assert len(made) == stop


def test_leibniz_rule():
    rng = random.Random(8)
    frame = ("x", "y", "z")
    for _ in range(3):
        v = _random_poly_field(rng, frame)
        w = _random_poly_field(rng, frame)
        f = simplify(parse_expr("x*y + 2*z"))
        left = lie_bracket(v, VectorField(frame, tuple(simplify(mul(f, c)) for c in w.components)))
        right = field_sum(scale(w, lie_derivative(v, f)), scale(lie_bracket(v, w), f))
        for a, b in zip(left.components, right.components):
            assert is_zero_generic(simplify(a - b), SP)
