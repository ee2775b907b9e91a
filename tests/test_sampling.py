"""The cached point-set layer against the per-point reference paths."""

import json
import math
import os
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from triflat import expr, sampling
from triflat.cli import main
from triflat.errors import EvalError, SamplerExhausted
from triflat.expr import (
    FUNCTIONS, Add, Call, Mul, Pow, Rat, Sym, add, evaluate, evaluate_column, free_symbols, mul,
)
from triflat.parser import parse_expr
from triflat.sampling import (
    MatrixSampler,
    Sampler,
    all_zero_generic,
    generic,
    generic_nullspaces,
    is_zero_generic,
    numeric_rank,
    ranks,
)

from reference import counting, magnitude

CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "triflat", "corpus")

# log(x - 1) fails on about half of the default domain (0.2, 1.8)
PARTIAL = [["x", "log(x - 1)", "1"], ["y*z", "sqrt(y - 0.9)", "x + z"]]


def matrix(rows):
    return [[parse_expr(e) for e in r] for r in rows]


def entry_value(e, point):
    """One matrix entry at one point, uncached; EvalError when not admissible."""
    v = evaluate(e, point)
    if not math.isfinite(v) or abs(v) > sampling._HUGE:
        raise EvalError("domain", "near-singular value")
    return v


def per_point_samples(ms, count=None):
    """Reference: the sampler's stream walked point by point, with no cache.

    A point is kept when every entry evaluates admissibly, within the budget
    of ``max_resamples`` rejected points.
    """
    sp = ms.sp
    want = sp.samples if count is None else count
    out = []
    budget = sp.max_resamples + want
    for point in sp.point_stream(ms.syms):
        if budget <= 0:
            raise SamplerExhausted(
                f"no {want} admissible points within {sp.max_resamples} resamples"
            )
        budget -= 1
        try:
            m = np.array([[entry_value(e, point) for e in r] for r in ms.rows], dtype=float)
        except EvalError:
            continue
        out.append((point, m))
        if len(out) == want:
            return out


def outcome(fn):
    try:
        return "ok", fn()
    except SamplerExhausted as e:
        return "exhausted", str(e)


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_samples_equal_per_point_path(seed):
    sampling.clear_caches()
    sp = Sampler(seed=seed)
    ms = MatrixSampler(matrix(PARTIAL), ["w"], sp)
    ref = per_point_samples(ms)
    got = list(zip(*ms.stack()))
    assert len(got) == len(ref) == sp.samples
    for (p, m), (rp, rm) in zip(got, ref):
        assert p == rp
        assert m.shape == rm.shape == (2, 3)
        assert m.tobytes() == rm.tobytes()
    points, stack = ms.stack()
    assert stack.shape == (sp.samples, 2, 3)
    assert points == [p for p, _m in ref]


def test_budget_and_exhaustion_match_per_point_path():
    # admissible on about 3% of the domain: the budget decides
    rows = matrix([["x", "log(x - 1.75)"]])
    verdicts = set()
    for resamples in range(0, 300):
        sampling.clear_caches()
        sp = Sampler(seed=3, samples=8, max_resamples=resamples)
        ms = MatrixSampler(rows, [], sp)
        ref = outcome(lambda: [p for p, _m in per_point_samples(ms)])
        got = outcome(lambda: ms.stack()[0])
        assert got == ref
        verdicts.add(got[0])
    assert verdicts == {"ok", "exhausted"}


def test_empty_and_constant_matrices():
    sp = Sampler()
    ms = MatrixSampler(matrix([["2", "3"]]), ["x"], sp)
    _points, stack = ms.stack()
    assert stack.shape == (sp.samples, 1, 2)
    assert list(ranks(stack, sp.tol)) == [1] * sp.samples
    _points, empty = MatrixSampler([], ["x"], sp).stack()
    assert empty.shape == (sp.samples, 0, 0)
    assert list(ranks(empty, sp.tol)) == [0] * sp.samples


def reference_rank(m, tol):
    if m.size == 0:
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    cutoff = tol * max(1.0, float(sv[0])) * max(m.shape)
    return int(np.sum(sv > cutoff))


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4), (1, 6), (0, 4)])
def test_stacked_ranks_equal_per_matrix_rank(shape):
    rng = np.random.default_rng(7)
    r, c = shape
    mats = []
    for k in range(12):
        rank = k % (min(r, c) + 1)
        m = rng.standard_normal((r, rank)) @ rng.standard_normal((rank, c))
        if k % 3 == 0:
            m = m * 1e6
        if k % 4 == 1 and r:
            m[0] += 1e-12  # below the cutoff
        mats.append(m)
    stack = np.array(mats).reshape(len(mats), r, c)
    for tol in (1e-9, 1e-6):
        got = ranks(stack, tol)
        assert [int(v) for v in got] == [reference_rank(m, tol) for m in mats]
        assert [int(v) for v in got] == [numeric_rank(m, tol) for m in mats]
        top, kept, null = generic_nullspaces(stack, tol)
        assert top == max(got) and list(kept) == [k for k, v in enumerate(got) if v == top]
        assert null.shape == (len(kept), c - top, c)
        for k, basis in zip(kept, null):
            m = mats[k]
            assert np.allclose(basis @ basis.T, np.eye(c - top))
            assert np.allclose(m @ basis.T, 0.0, atol=1e-6 * max(1.0, np.abs(m).max(initial=0.0)))


@given(st.lists(st.integers(0, 4), min_size=1, max_size=20))
def test_generic_keeps_every_point_of_the_largest_rank(rk):
    top, kept = generic(np.array(rk))
    assert top == max(rk) and type(top) is int
    assert list(kept) == [k for k, v in enumerate(rk) if v == max(rk)]


@pytest.mark.parametrize("shape", [(4, 0, 3), (4, 2, 0), (4, 0, 0)])
def test_generic_nullspaces_of_empty_matrices(shape):
    # no rows or no columns: rank 0 at every point, each null space the whole space
    top, kept, null = generic_nullspaces(np.zeros(shape), 1e-9)
    c = shape[2]
    assert top == 0 and list(kept) == [0, 1, 2, 3]
    assert null.shape == (4, c, c) and (null == np.eye(c)).all()


# signed magnitudes from 1e-6 to 1e6
ENTRIES = st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-6, 6), st.sampled_from([1, -1]))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_a_repeated_row_never_ranks_full(data):
    # integration counts a differential it already holds as dependent
    # without ranking [diffs; dphi], on this fact
    k, r, c = (data.draw(st.integers(1, top)) for top in (4, 5, 6))
    stack = np.array(data.draw(st.lists(ENTRIES, min_size=k * r * c, max_size=k * r * c)))
    stack = stack.reshape(k, r, c)
    j = data.draw(st.integers(0, r - 1))
    tol = 10.0 ** data.draw(st.floats(-11, -7))
    repeated = np.concatenate([stack, stack[:, j:j + 1]], axis=1)
    assert (ranks(repeated, tol) < r + 1).all()


@pytest.mark.parametrize("idx", [[0, 1, 2, 3, 4, 5, 6, 7], [3, 4, 5, 6, 7, 8, 9, 10], [5],
                                 [0, 2, 3, 4, 5, 6, 7, 9], [1, 4, 5, 11]])
def test_values_at_equals_the_per_index_gather(idx):
    # a contiguous run of indices is read as a slice of each column
    sampling.clear_caches()
    sp = Sampler(seed=3)
    ms = MatrixSampler(matrix([["x", "x*y", "1"], ["y^2 - x", "0", "x"]]), [], sp)
    ps, _idx = ms.admissible()
    got = ms.values_at(ps, idx)
    cols = dict(zip(ms.entries, ps.columns(ms.entries, idx[-1] + 1)))
    want = np.array([[[cols[e][i] for e in row] for row in ms.rows] for i in idx], dtype=float)
    assert got.shape == want.shape and np.array_equal(got, want)


def reference_all_zero(exprs, sp):
    """The per-point zero test, with no cache."""
    syms = set()
    for e in exprs:
        syms |= free_symbols(e)
    budget = sp.max_resamples + sp.samples
    count = 0
    for point in sp.point_stream(syms):
        if budget <= 0:
            raise SamplerExhausted("undefined")
        budget -= 1
        try:
            for e in exprs:
                v = evaluate(e, point)
                if not math.isfinite(v) or abs(v) > sampling._HUGE:
                    raise EvalError("domain", "near-singular value")
                if abs(v) > sp.tol * (1.0 + magnitude(e, point)):
                    return False
        except EvalError:
            continue
        count += 1
        if count == sp.samples:
            return True


ZERO_CASES = [
    ["sin(t)^2 + cos(t)^2 - 1"],
    ["log(x - 1) - log(x - 1)", "sqrt(y - 0.9)^2 - y + 0.9"],
    ["log(x - 1)*0 + x - x", "x - 1.0000001"],
    ["1/(x - 1) - 1/(x - 1)", "exp(x)*exp(-x) - 1"],
    ["x*y - y*x", "log(x - 1.75)"],
]


@pytest.mark.parametrize("case", ZERO_CASES)
def test_zero_tests_match_per_point_path(case):
    exprs = [parse_expr(e) for e in case]
    for seed in (0, 5):
        sampling.clear_caches()
        sp = Sampler(seed=seed, samples=8, max_resamples=60)
        ref = outcome(lambda: reference_all_zero(exprs, sp))
        got = outcome(lambda: all_zero_generic(exprs, sp))
        assert got[0] == ref[0] and (got[0] != "ok" or got[1] == ref[1])
        ref = outcome(lambda: reference_all_zero(exprs[:1], sp))
        got = outcome(lambda: is_zero_generic(exprs[0], sp))
        assert got[0] == ref[0] and (got[0] != "ok" or got[1] == ref[1])


def check_report(*argv, capsys):
    code = main(["check", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_report_independent_of_cache_state(capsys, monkeypatch):
    target = [os.path.join(CORPUS, "template.sys"), "--seed", "7", "--samples", "16"]
    sampling.clear_caches()
    cold = check_report(*target, capsys=capsys)
    # warm the point sets with other systems, the same seed at another
    # sample count, and other seeds
    sampling.clear_caches()
    for argv in (
        [os.path.join(CORPUS, "vtol.sys"), "--seed", "7"],
        [os.path.join(CORPUS, "template.sys"), "--seed", "7", "--samples", "8"],
        [os.path.join(CORPUS, "template.sys"), "--seed", "3"],
        [os.path.join(CORPUS, "product.sys")],
    ):
        check_report(*argv, capsys=capsys)
    assert sampling._POINT_SETS
    assert check_report(*target, capsys=capsys) == cold
    # a bound small enough to clear the caches many times over
    clears = []
    clear = sampling.clear_caches
    monkeypatch.setattr(sampling, "_VALUE_LIMIT", 50)
    monkeypatch.setattr(sampling, "clear_caches", lambda: (clears.append(1), clear()))
    assert check_report(*target, capsys=capsys) == cold
    assert len(clears) > 1


def test_constant_beyond_float_range_is_a_domain_failure():
    big = Rat(10**400)
    for fn in (evaluate, magnitude):
        with pytest.raises(EvalError):
            fn(big, {})
    with pytest.raises(SamplerExhausted):
        is_zero_generic(add(mul(big, Sym("x")), Sym("y")), Sampler())


@pytest.mark.parametrize("text", ["log(0)", "sqrt(-1)", "arcsin(2)"])
def test_undefined_constant_exhausts_both_zero_tests(text):
    e = parse_expr(text)
    assert not free_symbols(e)
    for zero_test in (
        lambda: is_zero_generic(e, Sampler()),
        lambda: all_zero_generic([e], Sampler()),
        lambda: all_zero_generic([Rat(0), e], Sampler()),
    ):
        with pytest.raises(SamplerExhausted, match="constant expression undefined"):
            zero_test()


@pytest.mark.parametrize("kwargs", [
    {"domains": {"x": (0.2, math.inf)}},
    {"domains": {"x": (-math.inf, 1.0)}},
    {"domains": {"x": (math.nan, 1.0)}},
    {"domains": {"x": (1.0, 1.0)}},
    {"default_domain": (0.2, math.inf)},
    {"default_domain": (1.0, 0.5)},
], ids=["inf", "minus-inf", "nan", "empty", "default-inf", "default-reversed"])
def test_sampler_domains_are_finite_intervals(kwargs):
    with pytest.raises(ValueError):
        Sampler(**kwargs)


# --- column evaluation against the per-point oracles ----------------------------

def per_point(fn, e, points):
    """fn(e, p) at each point, the EvalError it raises standing as the value."""
    out = []
    for p in points:
        try:
            out.append(fn(e, p))
        except EvalError as err:
            out.append(err)
    return out


def assert_same_values(got, ref):
    """Floats equal bit for bit, EvalErrors of the same kind and message."""
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        if isinstance(r, EvalError):
            assert isinstance(g, EvalError) and (g.kind, str(g)) == (r.kind, str(r))
        else:
            assert type(g) is float and struct.pack("<d", g) == struct.pack("<d", r)


# x, y and z are bound at every point, q never; 1e308 overflows powers, sums
# and products (inf, then 0 * inf = nan), 0.0 divides and negative values
# leave the domains of roots, log and arcsin
POINTS = [dict(zip("xyz", values)) for values in [
    (0.0, 1.5, -2.0), (-1.5, 0.5, 1e308), (1e308, 1e308, 0.0), (0.25, -0.5, 3.0),
    (-1e308, 2.0, 0.75), (1.0, 0.0, -0.0),
]]
TREE_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[HealthCheck.too_slow])
tree_leaves = st.one_of(
    st.sampled_from([Sym(n) for n in "xyzq"]),
    st.sampled_from([0, 1, -1, 2, Fraction(-3, 4), Fraction(1, 3), 10**400]).map(Rat),
)


def _tree_nodes(children):
    pair = st.lists(children, min_size=2, max_size=3)
    exponents = st.sampled_from([-2, -1, 2, 3, 1000, Fraction(1, 2), Fraction(-1, 2),
                                 Fraction(2, 3), Fraction(-5, 3)])
    return st.one_of(
        pair.map(Add), pair.map(Mul),
        st.builds(Pow, children, exponents),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), children),
    )


trees = st.recursive(tree_leaves, _tree_nodes, max_leaves=10)


@TREE_SETTINGS
@given(st.lists(trees, min_size=1, max_size=3))
def test_columns_equal_per_point_evaluation(exprs):
    # one memo across the expressions, as a point set shares it
    values, mags = {}, {}
    for e in exprs:
        assert_same_values(evaluate_column(e, POINTS, values), per_point(evaluate, e, POINTS))
        assert_same_values(sampling.magnitude_column(e, POINTS, mags, values),
                           per_point(magnitude, e, POINTS))


@pytest.mark.parametrize("text, kind", [
    ("1/x", "division"), ("sqrt(x - 1)", "domain"), ("log(y - 1)", "domain"),
    ("arcsin(z)", "domain"), ("z^1000", "domain"), ("x + y", "domain"),
    ("10^400*x", "domain"), ("x + q", "domain"),
])
def test_each_failure_is_a_column_value(text, kind):
    e = parse_expr(text)
    got, ref = evaluate_column(e, POINTS, {}), per_point(evaluate, e, POINTS)
    assert_same_values(got, ref)
    assert any(isinstance(v, EvalError) and v.kind == kind for v in got)


def test_zero_times_infinity_is_nan_in_a_column():
    e = Mul((Sym("x"), Sym("y"), Sym("z")))  # 1e308 * 1e308 * 0.0 at point 2
    got = evaluate_column(e, POINTS, {})
    assert_same_values(got, per_point(evaluate, e, POINTS))
    assert math.isnan(got[2])


@pytest.mark.parametrize("name", ["sqrt.sys", "academic10.sys"])
def test_corpus_columns_equal_per_point_evaluation(capsys, monkeypatch, tmp_path, name):
    # every column check and transform compute, kept by a limit they never reach
    sampling.clear_caches()
    monkeypatch.setattr(sampling, "_VALUE_LIMIT", math.inf)
    path = os.path.join(CORPUS, name)
    assert main(["check", path]) == 0
    assert main(["transform", path, "--save", str(tmp_path / "map.json")]) == 0
    capsys.readouterr()
    compared = 0
    for ps in sampling._POINT_SETS.values():
        for table, fn in ((ps.values, evaluate), (ps.magnitudes, magnitude)):
            for e, col in table.items():
                assert_same_values(col, per_point(fn, e, ps.points[:len(col)]))
                compared += len(col)
    assert compared > 1000


def test_check_and_verify_read_values_by_column_alone(capsys, monkeypatch, tmp_path):
    # per-point evaluate is left to the constant expressions of all_zero_generic
    callers = []
    original = sampling.evaluate

    def traced(e, point):
        frame = sys._getframe(1)
        while frame.f_code.co_name == "<genexpr>":
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return original(e, point)

    path, saved = os.path.join(CORPUS, "vtol.sys"), str(tmp_path / "map.json")
    assert main(["transform", path, "--save", saved]) == 0
    sampling.clear_caches()
    monkeypatch.setattr(sampling, "evaluate", traced)
    with counting(expr, "evaluate_column") as columns:
        assert main(["check", path]) == 0
        sampling.clear_caches()
        assert main(["verify", path, "--transform", saved]) == 0
    capsys.readouterr()
    assert set(callers) <= {"all_zero_generic"}
    assert columns
