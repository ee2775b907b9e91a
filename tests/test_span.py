"""The span tests and the sampled involutivity test against their
references.

``sampling._spanned`` is the one membership rule: whether the rows of one
sampled stack lie in the span of another, over the points where both
together reach their largest rank.  ``diffgeo._in_span`` answers "does row e
lie in the span of these rows" by sampling [rows; e] at its own admissible
points and asking ``_spanned``; rows that move the admissible points of the
base must get the per-row answers of ``reference.in_span_per_row``.  The
h-method samples one stack [H; w1; w2] for both memberships and the joint
rank; over the corpus and the criterion-5 instances, its answers must be
the per-row ones too.  No question that ``check`` and
``flat-output`` ask there has a [base; extra] that ranks below its base at
a point, the one case where ``_spanned`` and a test of the base's rank at
every point could differ; a strict xfail pins the smallest such question, a
row in the span so large that the base's rows fall under the row-noise
rule.  Every involutivity question ``check`` asks,
decided from sampled bracket values, must get the answer of the symbolic
brackets and, on rational systems, of the exact rank over GF(p); the
bracket values sampled from the nonzero partials alone must equal, bit for
bit, those of the dense Jacobians.
``check`` samples each matrix once, builds only the brackets that become
flag members or are eliminated, and runs no SVD whose answer it already
has: academic10 needs at most 25 sampled stacks, 105 SVD calls and 110
``lie_bracket`` calls (104 stacks and 409 SVDs when every bracket test
sampled its own stack, 255 brackets when involutivity and the
characteristics read symbolic ones, 28 stacks and 135 SVDs when the basis
took one SVD per candidate field and a pruned member was sampled again
for its rank).
"""

import contextlib
import io
import itertools
import os
import sys

import numpy as np
import pytest

from triflat import cli, diffgeo, direction_search, sampling
from triflat.cli import _analyze, main
from triflat.diffgeo import ad_iter
from triflat.generator import triangular_template
from triflat.parser import parse_expr
from triflat.sampling import MatrixSampler, Sampler

from reference import (
    counting,
    criterion5_combos,
    dense_bracket_values,
    exact_rank,
    in_span_per_row,
    is_involutive_symbolic,
)

CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "triflat", "corpus")
SYSTEMS = sorted(f for f in os.listdir(CORPUS) if f.endswith(".sys"))


@pytest.fixture(scope="module")
def h_questions():
    """Each h-method membership question of ``check`` over the corpus and
    the criterion-5 instances: (H's rows, the rows of the nonzero iterated
    brackets w1, w2, frame, sampler, the answers of ``_spanned`` inside
    ``candidate_via_h``, and each (kind, rows) sampled there that holds a w
    row, kind "stack" or "generic")."""
    real_h, real_spanned = direction_search.candidate_via_h, direction_search._spanned
    real_stack, real_generic = MatrixSampler.stack, MatrixSampler.generic
    questions, current = [], None

    def spanned(base, extra, tol):
        got = real_spanned(base, extra, tol)
        current["answers"].append(got)
        return got

    def sampled(kind, real):
        def spy(self):
            if current is not None:
                current["sampled"].append((kind, self.rows))
            return real(self)
        return spy

    def via_h(sys, chain, sp):
        nonlocal current
        current = {"answers": [], "sampled": []}
        try:
            return real_h(sys, chain, sp)
        finally:
            found, current = current, None
            if chain.depth >= 1:
                H = direction_search.h_distribution(chain, sp).matrix_rows()
                ws = [w for w in (ad_iter(sys.drift, chain.depth + 1, b) for b in (sys.b1, sys.b2))
                      if not w.is_zero()]
                ws = [list(w.components) for w in ws]
                sampled_ws = [(k, rows) for k, rows in found["sampled"]
                              if any(w in rows for w in ws)]
                questions.append((H, ws, sys.frame, sp, found["answers"], sampled_ws))

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(direction_search, "_spanned", spanned)
        mp.setattr(MatrixSampler, "stack", sampled("stack", real_stack))
        mp.setattr(MatrixSampler, "generic", sampled("generic", real_generic))
        for module in (direction_search, cli):
            mp.setattr(module, "candidate_via_h", via_h)
        for name in SYSTEMS:
            main(["check", os.path.join(CORPUS, name)])
        for index, combo in enumerate(criterion5_combos()):
            _analyze(triangular_template(*combo, seed=index).system, Sampler())
    return questions


def test_batched_answers_equal_per_row_answers(h_questions):
    # the h-method asks whether w1 and w2 lie in H from one stack [H; w1; w2]
    rows = 0
    for H, ws, frame, sp, answers, _sampled in h_questions:
        assert answers == [in_span_per_row(H, w, frame, sp) for w in ws]
        rows += len(ws)
    assert rows >= 20, rows


def test_h_method_samples_one_stack_for_memberships_and_rank(h_questions):
    # the memberships of w1 and w2 and, when neither lies in H, the joint
    # rank all read the one sampled stack [H; w1; w2]
    ranked = 0
    for H, ws, _frame, _sp, answers, sampled in h_questions:
        assert sampled == ([("stack", H + ws)] if ws else []), (len(ws), answers, sampled)
        ranked += len(ws) == 2 and not any(answers)
    assert len(h_questions) >= 10 and ranked >= 1, (len(h_questions), ranked)


RATIONAL = {"chained4.sys", "extchained5.sys", "product.sys", "template.sys"}


def test_sampled_involutivity_equals_symbolic_and_exact_answers(capsys):
    questions = []  # (D, sp, rational)
    with counting(diffgeo, "is_involutive") as calls:
        for name in SYSTEMS:
            main(["check", os.path.join(CORPUS, name)])
            questions += [(*args, name in RATIONAL) for args in calls[len(questions):]]
        capsys.readouterr()
        for index, combo in enumerate(criterion5_combos()):
            _analyze(triangular_template(*combo, seed=index).system, Sampler())
            questions += [(*args, True) for args in calls[len(questions):]]
    brackets = exact = 0
    for D, sp, rational in questions:
        answer = diffgeo.is_involutive(D, sp)
        assert answer == is_involutive_symbolic(D, sp)
        b = diffgeo.basis(D, sp)
        rows = [list(f.components) for f in b]
        pairs = itertools.combinations(b, 2)
        extra = [list(diffgeo.lie_bracket(v, w).components) for v, w in pairs]
        brackets += len(extra)
        if rational:
            assert exact_rank(rows) == len(b)
            assert answer == (exact_rank(rows + extra) == len(b))
            exact += 1
    assert brackets >= 200 and exact >= 20, (brackets, exact)


def test_sparse_partials_give_the_dense_bracket_values(capsys):
    with counting(diffgeo, "is_involutive") as calls:
        for name in SYSTEMS:
            main(["check", os.path.join(CORPUS, name)])
    capsys.readouterr()
    questions = [(diffgeo.basis(D, sp), sp) for D, sp in calls]
    assert len(questions) >= 20
    for b, sp in questions:
        pairs = list(itertools.combinations(range(len(b)), 2))
        got = diffgeo.bracket_values(b[0].frame, b, pairs, sp)
        want = dense_bracket_values(b[0].frame, b, pairs, sp)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))


def test_a_row_that_moves_the_base_points_is_answered_alone():
    frame = ("x1", "x2", "x3")
    rows = [[parse_expr(e) for e in r] for r in (["1", "0", "0"], ["0", "x2", "0"])]
    extras = [
        [parse_expr(e) for e in r]
        for r in (
            ["0", "0", "1"],
            ["x1", "x1*x2", "0"],
            ["sqrt(x1 - 1)", "0", "0"],  # undefined at about half the base points
            ["0", "0", "p"],  # adds a symbol, so a different point stream
        )
    ]
    sp = Sampler()
    got = diffgeo._in_span(rows, extras, frame, sp)
    assert got == [False, True, True, False]
    assert got == [in_span_per_row(rows, e, frame, sp) for e in extras]


def test_no_membership_question_ranks_below_its_base(monkeypatch, capsys):
    """``_spanned`` asks whether the base reaches the largest rank of
    [base; extra] over the points; a test of the base's rank at every point
    would ask that [base; extra] have it everywhere.  The two differ only
    where [base; extra] ranks below base at some point, which no question
    of the corpus or the criterion-5 instances meets."""
    questions = []
    real = sampling._spanned

    def spy(base, extra, tol):
        grown = sampling.ranks(np.concatenate([base, extra], axis=1), tol)
        questions.append(bool((grown >= sampling.ranks(base, tol)).all()))
        return real(base, extra, tol)

    for name, module in list(sys.modules.items()):  # every binding of the rule
        if name.startswith("triflat") and getattr(module, "_spanned", None) is real:
            monkeypatch.setattr(module, "_spanned", spy)
    for name in SYSTEMS:
        for command in ("check", "flat-output"):
            main([command, os.path.join(CORPUS, name)])
    capsys.readouterr()
    for index, combo in enumerate(criterion5_combos()):
        _analyze(triangular_template(*combo, seed=index).system, Sampler())
    assert len(questions) >= 180 and all(questions), (len(questions), questions.count(False))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the row-noise rule of sampling._scaled zeroes base rows more than 1e9 times smaller "
    "than the largest row, so [base; extra] ranks below the base and _spanned answers "
    "False; exact ranks (ROADMAP item 19) or undecided points (item 12) mend it"))
def test_a_large_row_in_the_span_does_not_lower_the_rank():
    # the small form of a falling rank on the ladder, where bracket values
    # reach 1e21: e2 scaled by 1e12 lies in span{e1, e2} at every point
    base = np.tile(np.eye(3)[:2], (4, 1, 1))
    extra = np.tile(1e12 * np.eye(3)[1:2], (4, 1, 1))
    assert diffgeo._spanned(base, extra, Sampler().tol)


def test_check_samples_each_matrix_once(monkeypatch, capsys):
    sampling.clear_caches()
    diffgeo._BRACKET_MEMO.clear()
    counts = {"stack": 0, "svd": 0}
    stack, svd = MatrixSampler.stack, np.linalg.svd

    def counted_stack(self):
        counts["stack"] += 1
        return stack(self)

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(MatrixSampler, "stack", counted_stack)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    with counting(diffgeo, "lie_bracket") as brackets:
        assert main(["check", os.path.join(CORPUS, "academic10.sys")]) == 0
    capsys.readouterr()
    counts["lie_bracket"] = len(brackets)
    assert counts["stack"] <= 25 and counts["svd"] <= 105 and len(brackets) <= 110, counts


@pytest.mark.parametrize("max_resamples", [0, 200])
def test_generic_stack_is_kept_read_only_until_the_caches_clear(max_resamples):
    sampling.clear_caches()
    rows = [[parse_expr(e) for e in r] for r in (["x", "y", "1"], ["x*y", "y", "x"])]
    sp = Sampler(max_resamples=max_resamples)
    before = sampling._CACHED_VALUES
    stack, top = MatrixSampler(rows, (), sp).generic()
    assert top == 2 and stack.shape == (sp.samples, 2, 3)
    assert sampling._CACHED_VALUES - before >= stack.size
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1.0
    assert MatrixSampler(rows, ("x",), sp).generic()[0] is stack
    # a sampler that differs only in its resample budget keeps its own entry
    other = Sampler(max_resamples=max_resamples + 1)
    assert MatrixSampler(rows, (), other).generic()[0] is not stack
    assert len(sampling.point_set(sp, ("x", "y")).stacks) == 2
    sampling.clear_caches()
    assert sampling.point_set(sp, ("x", "y")).stacks == {}
    assert MatrixSampler(rows, (), sp).generic()[0] is not stack
