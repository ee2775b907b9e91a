"""The simplifier's kernel table: ranks, renumbering and when it is cleared."""

import importlib

import pytest

from triflat.errors import EvalError
from triflat.expr import Sym, evaluate, to_str
from triflat.parser import parse_expr
from triflat.simplify import simplify

S = importlib.import_module("triflat.simplify")


@pytest.fixture
def dense_ranks(monkeypatch):
    """Ranks without gaps: every kernel interned between two renumbers all."""
    monkeypatch.setattr(S, "_RANK_GAP", 1)
    S._clear_kernels()
    yield
    S._clear_kernels()


def test_ranks_follow_key_order_through_renumbering(dense_ranks):
    version = S._VERSION
    names = ["a", "z", "m", "f", "t", "c", "x", "b", "y"]
    ids = {n: S._kid(Sym(n)) for n in names}
    assert S._VERSION > version  # the gaps ran out
    assert sorted(names, key=lambda n: S._RANK[ids[n]]) == sorted(names)
    assert S._kid(Sym("m")) == ids["m"]


def test_division_survives_renumbering_midway(dense_ranks, monkeypatch):
    """A kernel interned while a division runs moves every rank; the sorted
    remainder must be rebuilt, not mixed from old and new sort keys."""
    S._kid(Sym("x"))
    S._kid(Sym("z"))
    a, _ = S._nf(parse_expr("(z^3 + z + x)*(z^2 + 1)"))
    b, _ = S._nf(parse_expr("z^2 + 1"))
    want, _ = S._nf(parse_expr("z^3 + z + x"))
    real_mul = S._poly_mul

    def mul_interning(p1, p2):
        S._kid(Sym("y"))  # sorts between x and z
        return real_mul(p1, p2)

    monkeypatch.setattr(S, "_poly_mul", mul_interning)
    version = S._VERSION
    assert S._poly_div_exact(a, b) == want
    assert S._VERSION > version


def test_table_cleared_only_after_the_outermost_normalization(monkeypatch):
    exprs = [
        parse_expr("x^2 + x*sin(y + z) + cos(x + y)*y"),
        parse_expr("sin(x + y)^2/(x*sin(x + y) + sqrt(x^2*y + sin(x + y)*y))"),
    ]
    want = [to_str(simplify(e)) for e in exprs]
    # every new normal form now overflows the cache, nested ones included
    monkeypatch.setattr(S, "_CACHE_LIMIT", 0)
    for e, w in zip(exprs, want):
        S._CACHE.clear()
        assert to_str(simplify(e)) == w
        assert S._KERNELS == [] and S._BASE_NUM == {}


def test_vector_product_gives_the_merge_loops_dict(monkeypatch):
    """Products over exponent vectors return the same dict, in the same
    order, as merging monomials; exponents up to 127 fit a vector's bytes,
    larger ones stay on the merge."""
    polys = [
        S._nf(parse_expr(s))[0]
        for s in (
            "(x + 2*y - z)^3",
            "(x*y - 3*z + 1)^2*(y + 1)",
            "x^2*z - 4*y*z + 7",
            "5*x^3*y",
            "x^127 + y^3 - z + 1",
            "x^100*y + 2*y - z^2 + 3",
            "x^200 - y + z^7 + 2",
        )
    ]

    def run():
        return [list(S._poly_mul(a, b).items()) for a in polys for b in polys]

    fast = run()
    monkeypatch.setattr(S, "_VECTOR_PRODUCT", float("inf"))
    assert run() == fast


def _textbook_division(a, b):
    """Rescan the remainder for its leading term and subtract the whole
    product with b at each step; None where that does not end, as the
    division loop's step guard gives."""
    q, rem = {}, dict(a)
    lb, cb = S._leading(b)
    for _ in range(200):
        if not rem:
            return q
        la, ca = S._leading(rem)
        mq = S._mono_quotient(la, dict(lb))
        if mq is None:
            return None
        cq = S._quotient(ca, cb)
        q[mq] = S.exact(q.get(mq, 0) + cq)
        rem = S._poly_add(rem, S._poly_scale(S._poly_mul({mq: cq}, b), -1))
    return None


def test_division_gives_the_textbook_quotient():
    """Dropping the leading term outright and keeping the remainder sorted
    give the same quotient dict, in the same order, for single-term and
    longer divisors, with and without root kernels that fold."""
    polys = [
        S._nf(parse_expr(s))[0]
        for s in (
            "(x + 2*y - z)^3",
            "(x*y - 3*z + 1)^2*(y + 1)",
            "x^2*z - 4*y*z + 7",
            "5*x^3*y",
            "sqrt(x)*y + x - 2*sqrt(x + y)",
        )
    ]
    divisors = polys[2:] + [
        S._nf(parse_expr(s))[0] for s in ("3*x^2*y", "-2*z", "7", "1", "x*y*z^2", "sqrt(x) + y")
    ]
    cases = [(S._poly_mul(a, t), t) for a in polys for t in divisors]
    cases += [(a, t) for a in polys for t in divisors]  # mostly inexact
    unfolded = S._nf(parse_expr("x^(3/2)"))[0]  # sqrt(x)^3, not yet folded
    cases += [(unfolded, S._nf(parse_expr(s))[0]) for s in ("sqrt(x)", "x", "2", "1")]
    for a, b in cases:
        want = _textbook_division(a, b)
        got = S._poly_div_exact(a, b)
        assert (got and list(got.items())) == (want and list(want.items()))
    root_free = polys[:4]
    assert all(S._poly_div_exact(S._poly_mul(a, t), t) == a for a in root_free for t in root_free)


def _factors(e):
    """Every node of the tree e."""
    out, stack = [], [e]
    while stack:
        cur = stack.pop()
        out.append(cur)
        stack.extend(getattr(cur, "terms", ()) + getattr(cur, "factors", ()))
    return out


def test_normal_forms_share_their_printed_powers():
    a = simplify(parse_expr("atom_p^2 + atom_q"))
    b = simplify(parse_expr("atom_p^2*atom_r - 1"))
    (pa,) = [f for f in _factors(a) if f == parse_expr("atom_p^2")]
    (pb,) = [f for f in _factors(b) if f == parse_expr("atom_p^2")]
    assert pa is pb


def test_atoms_and_derivatives_cleared_with_the_tables(monkeypatch):
    from triflat.simplify import as_fraction, differentiate

    S._clear_kernels()
    e = parse_expr("memo_a^2*memo_b^3 + sin(memo_b)/memo_a")
    form, slope = simplify(e), differentiate(e, "memo_a")  # memo_a is id 0, memo_b id 1
    assert differentiate(e, "memo_a") is slope  # memoized
    fraction = as_fraction(e)
    assert as_fraction(e) is fraction  # memoized
    assert S._ATOMS and S._DERIVATIVES and S._FRACTIONS
    monkeypatch.setattr(S, "_CACHE_LIMIT", 0)  # the next new normal form overflows
    simplify(parse_expr("memo_c + 1"))
    assert S._KERNELS == [] and S._ATOMS == {} and S._DERIVATIVES == {}
    assert S._FRACTIONS == {}
    assert not S._TABLE_STALE
    monkeypatch.undo()
    # ids 0 and 1 now name other kernels: stale atoms would print memo_a, memo_b
    assert to_str(simplify(parse_expr("memo_z^2*memo_y^3 + memo_y"))) == (
        "memo_y^3*memo_z^2 + memo_y")
    S._CACHE.clear()
    assert simplify(e) == form and differentiate(e, "memo_a") == slope
    assert as_fraction(e) == fraction


@pytest.mark.xfail(raises=EvalError, strict=True, reason=(
    "the normal form splits sqrt((-2/q - r)/2) into sqrt(-q*r/2 - 1)*sqrt(q)/q, real "
    "only for q > 0 (radical branch defect, ROADMAP item 13)"))
def test_a_root_of_a_quotient_keeps_its_domain():
    root = simplify(parse_expr("sqrt((-2/q - r)/2)"))
    assert evaluate(root, {"q": -3.0, "r": 0.3}) == pytest.approx(((2 / 3 - 0.3) / 2) ** 0.5)
