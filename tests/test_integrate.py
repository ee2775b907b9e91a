"""Codistribution integration heuristics."""

import pytest

from triflat.diffgeo import annihilator, differential, form_in_span
from triflat.errors import IntegrationError
from triflat.expr import Rat, Sym
from triflat.fields import Codistribution, coordinate_field
from triflat.integrate import integrate_codistribution, integrate_sym, is_closed, potential
from triflat.parser import parse_expr
from triflat.sampling import Sampler, is_zero_generic
from triflat.simplify import differentiate, simplify

from reference import one_form

SP = Sampler()


def check_antiderivative(text, x):
    e = parse_expr(text)
    F = integrate_sym(e, x)
    assert is_zero_generic(simplify(differentiate(F, x) - e), SP)


def test_single_variable_patterns():
    check_antiderivative("3", "x")
    check_antiderivative("x^2", "x")
    check_antiderivative("1/x", "x")
    check_antiderivative("sin(2*x+1)", "x")
    check_antiderivative("cos(a*x)", "x")
    check_antiderivative("exp(x)", "x")
    check_antiderivative("y*x + sin(x)", "x")
    check_antiderivative("1/(2*x+3)", "x")
    check_antiderivative("1/cos(x)^2", "x")
    check_antiderivative("(x+1)^3", "x")


def test_integrate_sym_failure():
    with pytest.raises(IntegrationError):
        integrate_sym(parse_expr("sin(x^2)"), "x")


def test_closed_form_potential():
    frame = ("theta", "z")
    w = one_form(
        frame, {"theta": parse_expr("eps*sin(theta)"), "z": parse_expr("-1")}
    )
    assert is_closed(w, SP)
    phi = potential(w, SP)
    d = differential(phi, frame)
    for a, b in zip(d.coefficients, w.coefficients):
        assert is_zero_generic(simplify(a - b), SP)


def test_non_closed_detected():
    frame = ("x1", "x2", "u1", "u2")
    w = one_form(frame, {"x1": Sym("u2"), "x2": -Sym("u1")})
    assert not is_closed(w, SP)


def test_coordinate_plane_integration():
    frame = ("x", "z")
    W = Codistribution(frame, [one_form(frame, {"z": Rat(1)})])
    out = integrate_codistribution(W, SP)
    assert len(out) == 1
    assert out[0].expr == Sym("z")
    assert out[0].source == "coordinate"


def test_vtol_closure_annihilator_integration(vtol_analysis):
    sp = vtol_analysis.sp
    ann = annihilator(vtol_analysis.report.closure, sp)
    out = integrate_codistribution(ann, sp)
    produced = {str(fi.expr) for fi in out}
    assert len(out) == 2
    # spans the same codistribution as the classical pair
    for text in ("eps*cos(theta)+z", "eps*sin(theta)-x"):
        w = differential(parse_expr(text), vtol_analysis.system.frame)
        assert form_in_span(w, ann, sp)


def test_sin_l_perp_integration_finds_ratio_combination(sin_analysis):
    sp = sin_analysis.sp
    flat = sin_analysis.flat
    assert str(flat.phi1) == "x3"
    diff = simplify(flat.phi2 - parse_expr("x1 - x2*u1/u2"))
    assert is_zero_generic(diff, sp)


def test_not_integrable_rejected():
    # annihilator of a non-involutive distribution is not integrable
    frame = ("x", "y", "z")
    v = coordinate_field(frame, "x")
    w = one_form(frame, {"y": Rat(1), "z": -Sym("x")})
    W = Codistribution(frame, [w])
    with pytest.raises(IntegrationError):
        integrate_codistribution(W, SP)


def test_heuristic_exhaustion_reports_residual():
    # dz - y^2 sin(x y) dx style form: integrable but outside the pattern set
    frame = ("x", "y")
    w = one_form(
        frame, {"x": parse_expr("exp(x)*sin(exp(x))*cos(x*y)"), "y": Rat(1)}
    )
    W = Codistribution(frame, [w])
    try:
        out = integrate_codistribution(W, SP)
    except IntegrationError as err:
        assert err.residual is not None
    else:
        # if a hint-free integral was found it must be genuine
        d = differential(out[0].expr, frame)
        assert form_in_span(d, W, SP)


def test_hints_accepted():
    frame = ("x1", "x2", "u1", "u2")
    forms = [
        one_form(frame, {"x1": Sym("u2"), "x2": -Sym("u1")}),
        one_form(frame, {"u1": Sym("u2"), "u2": -Sym("u1")}),
    ]
    W = Codistribution(frame, forms)
    hint = parse_expr("x1 - x2*u1/u2")
    out = integrate_codistribution(W, SP, hints=[hint])
    assert any(fi.source == "hint" and fi.expr == simplify(hint) for fi in out)
