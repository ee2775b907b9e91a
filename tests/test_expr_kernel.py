"""Expression kernel: parsing, differentiation, simplification, evaluation."""

import math
import random
from fractions import Fraction

import pytest

from triflat.errors import EvalError, ExprSyntaxError
from triflat.expr import Pow, Rat, Sym, evaluate, free_symbols, pow_, to_str
from triflat.parser import parse_expr
from triflat.sampling import Sampler, is_zero_generic
from triflat.simplify import differentiate, simplify, sqrt_of_square

SP = Sampler()


def X(name):
    return Sym(name)


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * (1.0 + abs(a) + abs(b))


# --- parsing ---------------------------------------------------------------

def test_parse_function_of_quotient():
    e = parse_expr("sin(u1/u2)")
    assert close(evaluate(e, {"u1": math.pi, "u2": 2.0}), 1.0)


def test_parse_sum_of_products():
    e = parse_expr("eps*cos(theta)+z")
    assert close(evaluate(e, {"eps": 1.0, "theta": 0.0, "z": 2.0}), 3.0)


def test_parse_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x^2*(")
    assert err.value.offset == 5


def test_parse_unknown_function():
    with pytest.raises(ExprSyntaxError):
        parse_expr("sinh(x)")


def test_precedence_and_associativity():
    assert close(evaluate(parse_expr("2^3^2"), {}), 512.0)
    assert close(evaluate(parse_expr("-2^2"), {}), -4.0)
    assert close(evaluate(parse_expr("6/3/2"), {}), 1.0)
    assert close(evaluate(parse_expr("1-2-3"), {}), -4.0)
    assert close(evaluate(parse_expr("2*x^-2"), {"x": 2.0}), 0.5)


def test_decimal_literals_exact():
    e = parse_expr("0.125")
    assert isinstance(e, Rat) and e.value == 1 / 8 == 0.125


def test_symbolic_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x^y")


@pytest.mark.parametrize("text, offset", [("1/0", 1), ("x/(2-2)", 1), ("x^(1/0)", 4)])
def test_division_by_constant_zero_is_a_syntax_error(text, offset):
    with pytest.raises(ExprSyntaxError, match="division by zero") as err:
        parse_expr(text)
    assert err.value.offset == offset


# --- printing round trip ---------------------------------------------------

def _random_expr(rng, depth=0):
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        return rng.choice([X("x"), X("y"), X("z"), Rat(rng.randint(-4, 4))])
    if roll < 0.5:
        return _random_expr(rng, depth + 1) + _random_expr(rng, depth + 1)
    if roll < 0.65:
        return _random_expr(rng, depth + 1) - _random_expr(rng, depth + 1)
    if roll < 0.8:
        return _random_expr(rng, depth + 1) * _random_expr(rng, depth + 1)
    if roll < 0.88:
        return _random_expr(rng, depth + 1) / (X("w") + Rat(rng.randint(2, 5)))
    if roll < 0.96:
        from triflat.expr import call

        return call(rng.choice(["sin", "cos", "exp"]), _random_expr(rng, depth + 2))
    return rng.choice([X("x"), X("y"), X("z") + Rat(1)]) ** rng.randint(2, 3)


def test_print_parse_round_trip():
    rng = random.Random(7)
    for _ in range(40):
        e = _random_expr(rng)
        back = parse_expr(to_str(e))
        for k in range(20):
            pt = {n: rng.uniform(0.3, 1.6) for n in ("x", "y", "z", "w")}
            try:
                v1 = evaluate(e, pt)
            except EvalError:
                continue
            v2 = evaluate(back, pt)
            assert close(v1, v2, 1e-9)


# --- differentiation -------------------------------------------------------

def test_derivative_of_vtol_output():
    e = parse_expr("eps*cos(theta)+z")
    d = differentiate(e, "theta")
    assert d == simplify(parse_expr("-eps*sin(theta)"))


def test_derivative_constant():
    assert differentiate(parse_expr("5/3"), "x") == Rat(0)


def test_derivative_chain_rule_quotient():
    d = differentiate(parse_expr("sin(u1/u2)"), "u1")
    expected = parse_expr("cos(u1/u2)/u2")
    assert is_zero_generic(d - expected, SP)


def test_derivative_linearity():
    rng = random.Random(3)
    for _ in range(10):
        e1 = _random_expr(rng)
        e2 = _random_expr(rng)
        lhs = differentiate(Rat(3) * e1 + Rat(-2) * e2, "x")
        rhs = Rat(3) * differentiate(e1, "x") + Rat(-2) * differentiate(e2, "x")
        assert is_zero_generic(lhs - rhs, SP)


def test_derivative_sqrt_and_log():
    d = differentiate(parse_expr("sqrt(x)"), "x")
    assert is_zero_generic(d - parse_expr("1/(2*sqrt(x))"), SP)
    d2 = differentiate(parse_expr("log(x^2)"), "x")
    assert is_zero_generic(d2 - parse_expr("2/x"), SP)


def test_derivative_arcsin_arctan_tan():
    assert is_zero_generic(
        differentiate(parse_expr("arcsin(x)"), "x") - parse_expr("1/sqrt(1-x^2)"),
        Sampler(domains={"x": (0.1, 0.9)}),
    )
    assert is_zero_generic(
        differentiate(parse_expr("arctan(x)"), "x") - parse_expr("1/(1+x^2)"), SP
    )
    assert is_zero_generic(
        differentiate(parse_expr("tan(x)"), "x") - parse_expr("1/cos(x)^2"), SP
    )


# --- simplification --------------------------------------------------------

def test_pythagorean_identity():
    assert simplify(parse_expr("sin(t)^2+cos(t)^2")) == Rat(1)


def test_commutator_cancellation():
    assert simplify(parse_expr("x*y-y*x")) == Rat(0)


def test_generic_quotient_cancellation():
    assert simplify(parse_expr("x/x")) == Rat(1)
    assert simplify(parse_expr("(x^2-y^2)/(x-y)")) == simplify(parse_expr("x+y"))


def test_tan_rewrite():
    assert is_zero_generic(
        simplify(parse_expr("tan(t)*cos(t)")) - parse_expr("sin(t)"), SP
    )


def test_sqrt_square_folds():
    assert simplify(parse_expr("sqrt(x)*sqrt(x)")) == Sym("x")


def test_exact_roots_of_large_integers():
    # beyond float range and beyond float precision
    assert pow_(Rat(10**400), Fraction(1, 2)) == Rat(10**200)
    assert pow_(Rat((3**40 + 1) ** 2), Fraction(1, 2)) == Rat(3**40 + 1)
    assert pow_(Rat(Fraction(7**90, 2**300)), Fraction(2, 3)) == Rat(Fraction(7**60, 2**200))
    assert isinstance(pow_(Rat((3**40 + 1) ** 2 - 1), Fraction(1, 2)), Pow)
    assert isinstance(pow_(Rat(7**90 + 1), Fraction(1, 3)), Pow)


def test_simplify_idempotent_random():
    rng = random.Random(11)
    for _ in range(100):
        e = _random_expr(rng)
        s = simplify(e)
        assert simplify(s) == s


def test_simplify_preserves_value_random():
    rng = random.Random(13)
    checked = 0
    for _ in range(100):
        e = _random_expr(rng)
        s = simplify(e)
        for _k in range(5):
            pt = {n: rng.uniform(0.3, 1.6) for n in ("x", "y", "z", "w")}
            try:
                v1 = evaluate(e, pt)
                v2 = evaluate(s, pt)
            except EvalError:
                continue
            assert close(v1, v2, 1e-9)
            checked += 1
    assert checked > 100


def test_sqrt_of_square_detection():
    e = parse_expr("cos(w)^2*u^4")
    r = sqrt_of_square(e)
    assert r is not None
    assert is_zero_generic(r - parse_expr("cos(w)*u^2"), SP)
    assert sqrt_of_square(parse_expr("x^3")) is None


def _rationals(e):
    if isinstance(e, Rat):
        return [e.value]
    children = getattr(e, "terms", getattr(e, "factors", ()))
    return [v for child in children for v in _rationals(child)]


@pytest.mark.parametrize("square, root", [
    ("9*x^2 + 12*x*y + 4*y^2", "3*x + 2*y"),
    ("4/9*x^2", "2/3*x"),
    ("2*x^2", None),  # the coefficient 2 has no rational root
    ("-x^2", None),
])
def test_sqrt_of_square_exact_coefficients(square, root):
    r = sqrt_of_square(parse_expr(square))
    if root is None:
        assert r is None
        return
    assert is_zero_generic(r - parse_expr(root), SP)
    assert all(type(v) is int or v.denominator > 1 for v in _rationals(r)), to_str(r)


# --- evaluation ------------------------------------------------------------

def test_eval_division_by_zero():
    with pytest.raises(EvalError) as err:
        evaluate(parse_expr("1/u2"), {"u2": 0.0})
    assert err.value.kind == "division"


def test_eval_domain_errors():
    with pytest.raises(EvalError):
        evaluate(parse_expr("sqrt(x)"), {"x": -1.0})
    with pytest.raises(EvalError):
        evaluate(parse_expr("log(x)"), {"x": -2.0})
    with pytest.raises(EvalError):
        evaluate(parse_expr("arcsin(x)"), {"x": 2.0})


@pytest.mark.parametrize("text, value", [
    ("x*y - z*w", 1e200),  # inf - inf: ValueError in math.fsum
    ("x + y", 1e308),  # a finite sum past the float range: OverflowError
])
def test_eval_sum_past_the_float_range_is_a_domain_error(text, value):
    # an EvalError makes a sampler resample; any other error ends the run
    with pytest.raises(EvalError) as err:
        evaluate(parse_expr(text), dict.fromkeys("xyzw", value))
    assert err.value.kind == "domain"


def test_eval_trig():
    assert close(evaluate(parse_expr("sin(u1/u2)"), {"u1": math.pi, "u2": 2.0}), 1.0)


def test_eval_unbound_symbol():
    with pytest.raises(EvalError):
        evaluate(parse_expr("x+q"), {"x": 1.0})


# --- zero test -------------------------------------------------------------

def test_is_zero_generic_true_and_false():
    assert is_zero_generic(parse_expr("sin(t)^2+cos(t)^2-1"), SP)
    assert not is_zero_generic(
        parse_expr("x-y"), Sampler(domains={"x": (1.0, 2.0), "y": (1.0, 2.0)})
    )


def test_free_symbols():
    assert free_symbols(parse_expr("eps*cos(theta)+z")) == {"eps", "theta", "z"}
