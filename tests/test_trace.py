"""The trace collector and the gcd bail-out counters it reads."""

import importlib
import json
import os

import pytest

from triflat import trace
from triflat.cli import main
from triflat.direction_search import candidate_via_h, compute_bracket_chain
from triflat.flatout import flat_output_for_report
from triflat.generator import triangular_template
from triflat.parser import parse_expr
from triflat.sampling import Sampler
from triflat.simplify import as_fraction
from triflat.transform import transform_to_triangular, verify_transformation
from triflat.triform import triangular_form_check

CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "triflat", "corpus")


def test_count_and_span_are_no_ops_without_a_collector():
    # the name predates the removal of spans; only counters remain
    trace.count("anything")
    with trace.collect() as c:
        pass
    assert c.counts == {}


def test_collector_gathers_counts_and_spans():
    # the name predates the removal of spans; only counters remain
    with trace.collect() as c:
        trace.count("a")
        trace.count("a", 2)
        with trace.collect() as inner:
            trace.count("b")
        trace.count("c", 0)
    trace.count("a")  # after the block: not collected
    assert c.counts == {"a": 3, "c": 0} and inner.counts == {"b": 1}


def test_wide_coefficient_gcd_bail_out_counts_under_bits():
    # neither side divides the other, so the gcd runs and gives up on the
    # 301-bit constant
    e = parse_expr(f"(x*y + {2**300})/(x*y + 1)")
    with trace.collect() as c:
        as_fraction(e)
    assert c.counts == {"simplify.gcd_bailout.bits": 1}


def test_ordinary_gcd_counts_no_bail_out():
    e = parse_expr("(x^2*y - y)/(x*y^2 + y^2)")
    with trace.collect() as c:
        num, den = as_fraction(e)
    assert c.counts == {}
    assert (num, den) == as_fraction(parse_expr("(x - 1)/y"))


@pytest.fixture
def cold_memos(monkeypatch):
    """Empty normal-form, derivative, fraction and bracket memos for the
    test, so every normalization runs again; the warm ones come back
    afterwards."""
    simplify_module = importlib.import_module("triflat.simplify")
    diffgeo = importlib.import_module("triflat.diffgeo")
    monkeypatch.setattr(simplify_module, "_CACHE", {})
    monkeypatch.setattr(simplify_module, "_DERIVATIVES", {})
    monkeypatch.setattr(simplify_module, "_FRACTIONS", {})
    monkeypatch.setattr(diffgeo, "_BRACKET_MEMO", {})


def test_tail_and_sqrt_transforms_give_up_no_gcd(cold_memos, capsys):
    """A single-term side skips the gcd, so the transforms that gave up most
    often (2,377 times on this template, 6 on sqrt) now never give up."""
    sp = Sampler()
    s = triangular_template(1, 2, 5, 1, seed=11).system
    with trace.collect() as c:
        chain = compute_bracket_chain(s, sp)
        rep = triangular_form_check(s, candidate_via_h(s, chain, sp), sp, chain)
        res = transform_to_triangular(s, rep, flat_output_for_report(rep, sp), sp)
    assert res.verified and verify_transformation(s, res.change, res.final.system, sp)
    assert not [k for k in c.counts if k.startswith("simplify.gcd_bailout.")], c.counts

    with trace.collect() as c:
        code = main(["transform", os.path.join(CORPUS, "sqrt.sys")])
    assert code == 0 and json.loads(capsys.readouterr().out)["verified"]
    assert not [k for k in c.counts if k.startswith("simplify.gcd_bailout.")], c.counts
