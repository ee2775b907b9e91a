"""Exact constants are stored as ints when integral, Fractions otherwise.

An int hashes and compares equal to the Fraction it replaces, so a tree
built from either form has the same ``key()``, hash and printed text; these
tests pin that, the one place where an int is not a drop-in Fraction
(``int ** negative int`` is a float), and the stored form of every constant
the corpus pipeline produces.
"""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triflat.cli import _analyze
from triflat.errors import NotApplicable, TriflatError
from triflat.expr import Add, Call, Mul, Pow, Rat, Sym, pow_, to_str
from triflat.flatout import flat_output_for_report
from triflat.parser import parse_expr
from triflat.sysfile import load_sysfile
from triflat.transform import transform_to_triangular

CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "triflat", "corpus")
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

integers = st.integers(-(10**30), 10**30)
fractions = st.fractions(max_denominator=10**6)


@SETTINGS
@given(integers)
def test_an_integral_constant_is_an_int_either_way(n):
    x = Sym("x")
    for from_int, from_fraction in ((Rat(n), Rat(Fraction(n))),
                                    (Pow(x, n), Pow(x, Fraction(n)))):
        assert from_int.key() == from_fraction.key()
        assert hash(from_int) == hash(from_fraction)
        assert to_str(from_int) == to_str(from_fraction)
    assert type(Rat(Fraction(n)).value) is int
    assert type(Pow(x, Fraction(n)).exponent) is int
    # the key an all-Fraction tree had, and its hash
    assert Rat(n).key() == ("rat", Fraction(n))
    assert hash(Pow(x, n)) == hash(("pow", x.key(), Fraction(n)))


@SETTINGS
@given(fractions)
def test_a_constant_keeps_its_value_and_is_an_int_only_when_integral(q):
    r, p = Rat(q), Pow(Sym("x"), q)
    assert r.value == q and p.exponent == q
    assert isinstance(r.value, int) == (q.denominator == 1)
    assert isinstance(p.exponent, int) == (q.denominator == 1)


@SETTINGS
@given(integers.filter(bool) | fractions.filter(bool), st.integers(1, 12))
def test_a_constant_to_a_negative_power_folds_exactly(a, k):
    out = pow_(Rat(a), -k)
    assert isinstance(out, Rat)
    assert out.value == Fraction(a) ** -k
    assert not isinstance(out.value, float)


def test_an_int_to_a_negative_int_power_is_a_float():
    # the reason pow_ folds a constant base in Fractions
    assert type(2 ** -2) is float
    assert pow_(Rat(2), -2) == Rat(Fraction(1, 4)) == parse_expr("2^(-2)")
    assert type(pow_(Rat(2), -2).value) is Fraction
    assert type(pow_(Rat(Fraction(1, 2)), -2).value) is int


def constants(root):
    """Every Rat value and Pow exponent reachable from root through triflat
    objects, dataclass fields and containers."""
    out, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Rat):
            out.append(obj.value)
        elif isinstance(obj, Pow):
            out.append(obj.exponent)
            stack.append(obj.base)
        elif isinstance(obj, Add):
            stack.extend(obj.terms)
        elif isinstance(obj, Mul):
            stack.extend(obj.factors)
        elif isinstance(obj, Call):
            stack.append(obj.arg)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("triflat.") and hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return out


def corpus_results(name):
    """What check, flat-output and transform compute for one corpus file."""
    definition = load_sysfile(os.path.join(CORPUS, name + ".sys"))
    sysm, sp = definition.system(), definition.sampler()
    try:
        analysis = _analyze(sysm, sp)
    except NotApplicable:
        return []
    results = [analysis]
    passing = [r for r in analysis[3] if r.verdict]
    if not passing:
        return results
    try:
        flat = flat_output_for_report(passing[0], sp, phi1=definition.phi1,
                                      hints=definition.hints)
        results.append(flat)
        results.append(transform_to_triangular(sysm, passing[0], flat, sp,
                                               hints=definition.hints))
    except TriflatError:
        pass
    return results


@pytest.mark.parametrize("name", sorted(f[:-4] for f in os.listdir(CORPUS) if f.endswith(".sys")))
def test_no_corpus_result_stores_an_integral_fraction(name):
    values = constants(corpus_results(name))
    integral_fractions = [v for v in values if isinstance(v, Fraction) and v.denominator == 1]
    assert not integral_fractions, f"{len(integral_fractions)} of {len(values)} constants"
    if values:
        assert any(type(v) is int for v in values)
