"""Cancellation leaves a single-term side alone: it is coprime to the other.

Once ``_cancel`` has divided out the monomial content shared by numerator
and denominator, and neither divides the other, a side with one term has no
factor in common with the other side, so the gcd is not run.  These tests
check that the gcd would have found nothing there either: random
polynomials over a symbol, a function call and a root kernel, with one side
a single term, have a constant ``_poly_gcd`` (also by sympy where it is
installed), and ``as_fraction`` returns the pair only made monic, as it did
when the gcd ran.
"""

import importlib
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from triflat import trace
from triflat.expr import div
from triflat.parser import parse_expr
from triflat.simplify import as_fraction

S = importlib.import_module("triflat.simplify")

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
KERNELS = ("x", "cos(y)", "sqrt(x + 1)")

coefficients = st.sampled_from([-6, -3, -2, -1, 1, 2, 5, Fraction(1, 2), Fraction(-2, 3)])
# exponents of x, cos(y) and sqrt(x + 1); the root stays below the power that folds
terms = st.tuples(coefficients, st.integers(0, 3), st.integers(0, 2), st.integers(0, 1))
many_terms = st.lists(terms, min_size=2, max_size=5)


def kernel_ids():
    """The interned id of each kernel in KERNELS."""
    ids = []
    for text in KERNELS:
        (mono,) = S._nf(parse_expr(text))[0]
        ((k, _e),) = mono
        ids.append(k)
    return ids


def poly(term_list):
    """The Poly of (coefficient, exponents...) terms, monomials in rank order."""
    ids = kernel_ids()
    p = {}
    for c, *exps in term_list:
        m = tuple(sorted(((k, e) for k, e in zip(ids, exps) if e), key=lambda ke: S._RANK[ke[0]]))
        p = S._poly_add(p, {m: c})
    return p


def without_shared_content(num, den):
    """num and den divided by the largest monomial dividing all their terms."""
    monos = [dict(m) for p in (num, den) for m in p]
    shared = {k: min(d.get(k, 0) for d in monos) for k in monos[0]}
    content = tuple((k, e) for k, e in shared.items() if e)
    return ({S._mono_div(m, content): c for m, c in num.items()},
            {S._mono_div(m, content): c for m, c in den.items()})


def monic(num, den):
    inv = S._quotient(1, S._leading(den)[1])
    return S._poly_scale(num, inv), S._poly_scale(den, inv)


def coprime_pair(single, others, single_is_den):
    """(num, den) as _cancel meets them at its gcd step, or a failed assume."""
    one, rest = poly([single]), poly(others)
    assume(one and len(rest) > 1)
    num, den = (rest, one) if single_is_den else (one, rest)
    num, den = S._rationalize(num, den)  # a root kernel leaves a single-term denominator
    num, den = without_shared_content(num, den)
    assume(len(num) == 1 or len(den) == 1)
    assume(S._poly_div_exact(num, den) is None and S._poly_div_exact(den, num) is None)
    return num, den


def to_sympy(p, sympy):
    syms = sympy.symbols("x c r")
    by_id = dict(zip(kernel_ids(), syms))
    total = sympy.Integer(0)
    for m, c in p.items():
        term = sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
        for k, e in m:
            term *= by_id[k] ** e
        total += term
    return total, syms


@SETTINGS
@given(terms, many_terms, st.booleans())
def test_single_term_side_has_a_constant_gcd(single, others, single_is_den):
    num, den = coprime_pair(single, others, single_is_den)
    with trace.collect() as c:
        g = S._poly_gcd(num, den)
    assert c.counts == {}  # the gcd ran to its end
    assert set(g) <= {()}, g
    # as_fraction gives the pair made monic, what dividing by g gave before
    want = monic(num, den)
    assert S._cancel(num, den) == want
    e = div(S._poly_to_expr(num), S._poly_to_expr(den))
    assert as_fraction(e) == (S._poly_to_expr(want[0]), S._poly_to_expr(want[1]))


@SETTINGS
@given(terms, many_terms, st.booleans())
def test_single_term_side_is_coprime_for_sympy(single, others, single_is_den):
    sympy = pytest.importorskip("sympy")
    num, den = coprime_pair(single, others, single_is_den)
    (n, syms), (d, _syms) = to_sympy(num, sympy), to_sympy(den, sympy)
    assert sympy.Poly(sympy.gcd(n, d), *syms).is_ground
    _n, cancelled_den = sympy.fraction(sympy.cancel(n / d))
    assert sympy.cancel(cancelled_den / d).is_number  # sympy cancels nothing either
