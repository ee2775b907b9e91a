"""The span tests and the sampled involutivity test against their
references.

``diffgeo._spanned`` is the one membership rule: whether the rows of one
sampled stack lie in the span of another, over the points where both
together reach their largest rank.  ``diffgeo._in_span`` answers "does row e
lie in the span of these rows" by sampling [rows; e] at its own admissible
points and asking ``_spanned``.  Every call with several rows that
``check`` makes, over the corpus and the criterion-5 instances, must give
the per-row answers of ``reference.in_span_per_row``, and so must rows that
move the admissible points of the base.  No question that ``check`` and
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

import itertools
import os

import numpy as np
import pytest

from triflat import diffgeo, sampling
from triflat.cli import _analyze, main
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


def record_span_calls(monkeypatch):
    """Every (rows, extras, frame, sp, answers) that reaches _in_span."""
    calls = []
    real = diffgeo._in_span

    def spy(rows, extras, frame, sp):
        out = real(rows, extras, frame, sp)
        calls.append((rows, extras, frame, sp, out))
        return out

    monkeypatch.setattr(diffgeo, "_in_span", spy)
    return calls


def test_batched_answers_equal_per_row_answers(monkeypatch, capsys):
    calls = record_span_calls(monkeypatch)
    for name in SYSTEMS:
        main(["check", os.path.join(CORPUS, name)])
    capsys.readouterr()
    for index, combo in enumerate(criterion5_combos()):
        _analyze(triangular_template(*combo, seed=index).system, Sampler())
    # the calls about several rows: candidate_via_h's [w1, w2] against H
    batches = [call for call in calls if len(call[1]) > 1]
    assert sum(len(extras) for _rows, extras, *_rest in batches) >= 20
    for rows, extras, frame, sp, out in batches:
        assert out == [in_span_per_row(rows, e, frame, sp) for e in extras]


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
    real = diffgeo._spanned

    def spy(base, extra, tol):
        grown = sampling.ranks(np.concatenate([base, extra], axis=1), tol)
        questions.append(bool((grown >= sampling.ranks(base, tol)).all()))
        return real(base, extra, tol)

    monkeypatch.setattr(diffgeo, "_spanned", spy)
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
