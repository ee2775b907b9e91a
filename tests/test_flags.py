"""The flag steps bracket only the fields they add.

A flag member grown by ``derived_step``, ``drift_step`` or
``h_distribution`` records the member it grew from, the step and how many
of its leading fields it inherited.  A derived step on a member grown by a
derived step skips the pairs of inherited fields (their brackets were the
last step's candidates); a drift step by a skips [a, f] for an inherited f
(the last drift step's candidates); ``h_distribution`` skips [v, w] with w
in the basis of the involutive D_depth; ``is_involutive`` skips the pairs of
inherited fields when the member grew from an involutive one, and a derived
step that adds no rank records its input, the closure, as involutive.  Each
skipped bracket already lies in the member, so over ``check --variant`` on
the corpus at seeds 0-7 and over the generated workload's instances at
sampler seeds 42 and 0-2 every grown member must equal the all-pairs
reference member field for field and in order, and every shortened
involutivity question must answer as the full one.  ``check --variant``
walks the drift flag once, so each question comes from a distinct walk.  The trace counters pin the brackets built and kept and the pairs
asked; the all-pairs steps built 103/52/64 derived/drift/h brackets over the
8 corpus checks and 588/215/312 over the 13 generated ones, and asked 956
involutivity pairs there in 870 SVDs; skipping inherited pairs asked 587,
and recording the closure 364, both in 612 SVDs.
"""

import contextlib
import io
import os
from dataclasses import replace

import numpy as np
import pytest

from triflat import diffgeo, direction_search, sampling, trace
from triflat.cli import _analyze, main
from triflat.fields import Distribution, VectorField
from triflat.generator import triangular_template
from triflat.parser import parse_expr
from triflat.sampling import Sampler
from triflat.transform import _mapped

from reference import (
    counting,
    derived_step_all_pairs,
    drift_step_all_fields,
    generated_instances,
    h_distribution_all_pairs,
    is_involutive_all_pairs,
)

CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "triflat", "corpus")
SYSTEMS = sorted(f for f in os.listdir(CORPUS) if f.endswith(".sys"))


@pytest.fixture(scope="module")
def steps():
    """The arguments of every flag step and involutivity question of the
    sweep, and the sweep's trace counts."""
    with contextlib.ExitStack() as stack:
        calls = {name: stack.enter_context(counting(module, name)) for module, name in (
            (diffgeo, "derived_step"), (diffgeo, "drift_step"),
            (direction_search, "h_distribution"), (diffgeo, "is_involutive"))}
        c = stack.enter_context(trace.collect())
        with contextlib.redirect_stdout(io.StringIO()):
            for seed in range(8):
                for name in SYSTEMS:
                    main(["check", os.path.join(CORPUS, name), "--seed", str(seed), "--variant"])
        for sampler_seed in (42, 0, 1, 2):
            for combo, seed in generated_instances():
                _analyze(triangular_template(*combo, seed=seed).system, Sampler(seed=sampler_seed))
    return calls, c.counts


def test_grown_members_equal_the_all_pairs_members(steps):
    calls, counts = steps
    assert len(calls["derived_step"]) >= 200 and len(calls["drift_step"]) >= 200
    for D, sp in calls["derived_step"]:
        assert diffgeo.derived_step(D, sp).fields == derived_step_all_pairs(D, sp).fields
    for D, a, sp in calls["drift_step"]:
        assert diffgeo.drift_step(D, a, sp).fields == drift_step_all_fields(D, a, sp).fields
    for chain, sp in calls["h_distribution"]:
        assert direction_search.h_distribution(chain, sp).fields == \
            h_distribution_all_pairs(chain, sp).fields
    skipped = sum(diffgeo._inherited(D, sp, "derived") > 1 for D, sp in calls["derived_step"])
    skipped += sum(diffgeo._inherited(D, sp, a) > 0 for D, a, sp in calls["drift_step"])
    assert skipped >= 140, skipped


def test_shortened_involutivity_questions_answer_as_the_full_ones(steps):
    calls, counts = steps
    questions = calls["is_involutive"]
    every_pair = sum(len(diffgeo.basis(D, sp)) * (len(diffgeo.basis(D, sp)) - 1) // 2
                     for D, sp in questions)
    assert len(questions) >= 300 and counts["diffgeo.is_involutive.pairs"] < 0.75 * every_pair
    for D, sp in questions:
        assert diffgeo.is_involutive(D, sp) == is_involutive_all_pairs(D, sp)


def test_a_closure_recorded_involutive_is_involutive(steps):
    # a derived step that adds no rank records its input involutive, so the
    # first drift extension of that closure asks only its added fields' pairs
    calls, _counts = steps
    closures = {id(D) for D, sp in calls["derived_step"]
                if len(diffgeo.derived_step(D, sp).fields) == len(diffgeo.basis(D, sp))}
    for D, sp in calls["derived_step"]:
        if id(D) in closures:
            assert D._involutive[diffgeo._sampler_key(sp)] and is_involutive_all_pairs(D, sp)
    shortened = [(D, sp) for D, sp in calls["is_involutive"]
                 if D._grown and id(D._grown[0]) in closures and diffgeo._inherited(D, sp)]
    assert len(closures) >= 60 and len(shortened) >= 50, (len(closures), len(shortened))
    for D, sp in shortened:
        assert diffgeo.is_involutive(D, sp) == is_involutive_all_pairs(D, sp)


def _counted(run, monkeypatch):
    """The trace counts and SVD calls of run() over cold caches per call."""
    svd, svds = np.linalg.svd, []

    def counted_svd(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    with trace.collect() as c:
        run()
    return c.counts, len(svds)


def _cold():
    sampling.clear_caches()
    diffgeo._BRACKET_MEMO.clear()
    diffgeo._PARTIALS_MEMO.clear()


def test_corpus_checks_build_only_the_added_brackets(monkeypatch, capsys):
    def run():
        for name in SYSTEMS:
            _cold()
            main(["check", os.path.join(CORPUS, name)])

    counts, svds = _counted(run, monkeypatch)
    capsys.readouterr()
    built = [counts[f"{step}.built"] for step in (
        "diffgeo.derived_step", "diffgeo.drift_step", "direction_search.h_distribution")]
    kept = [counts[f"{step}.kept"] for step in (
        "diffgeo.derived_step", "diffgeo.drift_step", "direction_search.h_distribution")]
    assert built[0] <= 60 and built[1] <= 43 and built[2] <= 28, built
    assert kept == [11, 24, 8], kept
    assert counts["diffgeo.is_involutive.pairs"] <= 160 and svds <= 260, (counts, svds)


def test_generated_checks_build_only_the_added_brackets(monkeypatch):
    def run():
        for combo, seed in generated_instances():
            _cold()
            _analyze(triangular_template(*combo, seed=seed).system, Sampler())

    counts, svds = _counted(run, monkeypatch)
    built = [counts[f"{step}.built"] for step in (
        "diffgeo.derived_step", "diffgeo.drift_step", "direction_search.h_distribution")]
    assert built[0] <= 290 and built[1] <= 138 and built[2] <= 100, built
    assert counts["diffgeo.is_involutive.pairs"] <= 364 and svds <= 612, (counts, svds)


def test_images_under_different_maps_have_different_sampler_keys():
    sp = Sampler()
    x, xx = parse_expr("x"), parse_expr("x*x")
    image = _mapped(sp, {"x"}, [("s", x)])
    assert diffgeo._sampler_key(image) == diffgeo._sampler_key(_mapped(sp, {"x"}, [("s", x)]))
    others = [_mapped(sp, {"x"}, [("s", xx)]), replace(image, base_points=40),
              _mapped(sp.with_domains({"x": (1.0, 2.0)}), {"x"}, [("s", x)])]
    keys = {diffgeo._sampler_key(img) for img in [image, *others]}
    assert len(keys) == 4
    D = Distribution(("s",), [VectorField(("s",), (parse_expr("s"),))])
    for img in [image, *others]:
        diffgeo.basis(D, img)
        diffgeo.is_involutive(D, img)
    assert len(D._basis) == len(D._involutive) == 4


FRAME = ("x1", "x2", "x3", "x4")


def _field(*components):
    return VectorField(FRAME, tuple(parse_expr(c) for c in components))


def _pairs_asked(D, sp):
    with trace.collect() as c:
        answer = diffgeo.is_involutive(D, sp)
    return answer, c.counts["diffgeo.is_involutive.pairs"]


def test_a_member_grown_from_a_non_involutive_member_asks_every_pair():
    # [d1, d2 + x1 d3] = d3 lies in neither D nor D + [x1 d4, D] = D + span{d4}
    sp, a = Sampler(), _field("0", "0", "0", "x1")
    for ask_the_parent_first in (False, True):
        D = diffgeo.pruned(Distribution(FRAME, [_field("1", "0", "0", "0"),
                                                _field("0", "1", "x1", "0")]), sp)
        if ask_the_parent_first:
            assert _pairs_asked(D, sp) == (False, 1)
        E = diffgeo.drift_step(D, a, sp)
        assert len(E.fields) == 3 and diffgeo._inherited(E, sp, a) == 2
        assert _pairs_asked(E, sp) == (False, 3)


def test_steps_skip_only_what_the_same_step_built():
    sp, a, c = Sampler(), _field("0", "0", "x1", "x2"), _field("x3", "0", "0", "0")
    D = diffgeo.pruned(Distribution(FRAME, [_field("1", "0", "0", "0"),
                                            _field("0", "1", "0", "0")]), sp)
    assert _pairs_asked(D, sp) == (True, 1)
    E = diffgeo.drift_step(D, a, sp)  # D + span{d3, d4}
    assert _pairs_asked(E, sp) == (True, 5)  # [d1, d2] lies in the involutive D
    F = diffgeo.derived_step(E, sp)
    built = []
    for name, step in (("diffgeo.drift_step", lambda: diffgeo.drift_step(E, a, sp)),
                       ("diffgeo.drift_step", lambda: diffgeo.drift_step(E, c, sp)),
                       ("diffgeo.derived_step", lambda: diffgeo.derived_step(E, sp)),
                       ("diffgeo.derived_step", lambda: diffgeo.derived_step(F, sp))):
        with trace.collect() as counts:
            step()
        built.append(counts.counts[name + ".built"])
    # by a: only the two added fields; by another field or a first derived
    # step: all of them; a derived step after a derived step: none of E's
    assert built == [2, 4, 6, 0]
