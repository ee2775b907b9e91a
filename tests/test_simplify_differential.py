"""Differential tests of the simplifier on random expressions.

Random rational and trig expressions in x, y, z, with square roots of
polynomials, are checked three ways: the normal form takes the value of the
input at sample points, normalizing the normal form again changes nothing,
and on the rational subset the normal form agrees with sympy's
``cancel(together(e))`` (skipped when sympy is missing).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from triflat.errors import EvalError
from triflat.expr import Add, Call, Mul, Pow, Rat, Sym, add, call, div, evaluate, mul, pow_, sub
from triflat.simplify import ZeroDenominator, as_fraction, simplify

from reference import magnitude

SYMS = [Sym("x"), Sym("y"), Sym("z")]
RNG = random.Random(7)
POINTS = [{s.name: RNG.uniform(0.3, 1.7) for s in SYMS} for _ in range(4)]
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

constants = st.sampled_from([Fraction(n) for n in (-3, -2, -1, 1, 2, 5)]
                            + [Fraction(1, 2), Fraction(-2, 3)]).map(Rat)
leaves = st.one_of(st.sampled_from(SYMS), constants)


def polynomials(children):
    return st.one_of(
        st.builds(add, children, children),
        st.builds(sub, children, children),
        st.builds(mul, children, children),
        st.builds(pow_, children, st.integers(2, 3)),
    )


def inverse_or_self(fn):
    """fn(a, b), or a where folded constants make it a division by zero."""
    def build(a, b):
        try:
            return fn(a, b)
        except ZeroDivisionError:
            return a
    return build


def rationals(children):
    return st.one_of(polynomials(children), st.builds(inverse_or_self(div), children, children),
                     st.builds(inverse_or_self(pow_), children, st.integers(-2, -1)))


def with_functions(children):
    poly = st.recursive(leaves, polynomials, max_leaves=4)
    return st.one_of(
        rationals(children),
        st.builds(call, st.sampled_from(["sin", "cos"]), children),
        st.builds(pow_, poly, st.just(Fraction(1, 2))),
    )


rational_exprs = st.recursive(leaves, rationals, max_leaves=10)
mixed_exprs = st.recursive(leaves, with_functions, max_leaves=10)


def normal_form(e):
    try:
        return simplify(e)
    except (ZeroDenominator, ZeroDivisionError):
        assume(False)


def agree_at_points(e, s):
    checked = 0
    for pt in POINTS:
        try:
            a, b = evaluate(e, pt), evaluate(s, pt)
            scale = 1.0 + abs(a) + abs(b) + magnitude(e, pt) + magnitude(s, pt)
        except EvalError:
            continue
        assert abs(a - b) <= 1e-9 * scale, (pt, a, b)
        checked += 1
    return checked


@SETTINGS
@given(mixed_exprs)
def test_normal_form_keeps_values(e):
    s = normal_form(e)
    agree_at_points(e, s)


@SETTINGS
@given(mixed_exprs)
def test_normal_form_is_idempotent(e):
    s = normal_form(e)
    assert simplify(s) == s
    # the cache maps an output to itself; as_fraction normalizes afresh
    assert as_fraction(s) == as_fraction(e)


def to_sympy(e, sympy):
    if isinstance(e, Rat):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Sym):
        return sympy.Symbol(e.name)
    if isinstance(e, Add):
        return sympy.Add(*(to_sympy(t, sympy) for t in e.terms))
    if isinstance(e, Mul):
        return sympy.Mul(*(to_sympy(f, sympy) for f in e.factors))
    if isinstance(e, Pow):
        q = e.exponent
        return sympy.Pow(to_sympy(e.base, sympy), sympy.Rational(q.numerator, q.denominator))
    if isinstance(e, Call):
        return getattr(sympy, e.fn)(to_sympy(e.arg, sympy))
    raise TypeError(type(e))


@SETTINGS
@given(rational_exprs)
def test_rational_normal_form_matches_sympy(e):
    sympy = pytest.importorskip("sympy")
    s = normal_form(e)
    expected = sympy.cancel(sympy.together(to_sympy(e, sympy)))
    assert sympy.cancel(sympy.together(to_sympy(s, sympy) - expected)) == 0
