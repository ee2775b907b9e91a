"""Codistribution integration heuristics."""

import importlib
import os
import sys

import pytest

from triflat import diffgeo, elimination, integrate, sampling
from triflat.cli import _analyze, main
from triflat.diffgeo import annihilator, differential, form_in_span
from triflat.errors import IntegrationError
from triflat.expr import ONE, Rat, Sym, ZERO, free_symbols, pow_
from triflat.flatout import flat_output_for_report
from triflat.fields import Codistribution, OneForm, coordinate_field
from triflat.generator import triangular_template
from triflat.integrate import closing_factors, integrate_codistribution, integrate_sym, potential
from triflat.parser import parse_expr
from triflat.sampling import MatrixSampler, Sampler, is_zero_generic
from triflat.simplify import differentiate, simplify
from triflat.transform import transform_to_triangular

from reference import is_closed, one_form

SIMPLIFY = importlib.import_module("triflat.simplify")  # the package exports simplify()
SP = Sampler()
CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "triflat", "corpus")


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
    assert is_closed(w, SP) and next(closing_factors(w, SP)) == ONE
    phi = potential(w, SP)
    d = differential(phi, frame)
    for a, b in zip(d.coefficients, w.coefficients):
        assert is_zero_generic(simplify(a - b), SP)


def test_non_closed_detected():
    frame = ("x1", "x2", "u1", "u2")
    w = one_form(frame, {"x1": Sym("u2"), "x2": -Sym("u1")})
    assert not is_closed(w, SP)
    assert list(closing_factors(w, SP)) == []  # w ^ dw != 0: no factor closes it


def test_closing_factors_agree_with_the_symbolic_closure_test(capsys, monkeypatch):
    """closing_factors yields, in order, exactly the factors f of the table
    with f*w closed by the symbolic oracle, on every echelon form that the
    corpus transforms (and the flat outputs they start from) integrate at
    sampler seeds 0-3."""
    forms = {}
    echelon = integrate._echelon_forms

    def recorded(W, sp):
        out = echelon(W, sp)
        for w in out:
            forms.setdefault((w, repr(sp)), (w, sp))
        return out

    monkeypatch.setattr(integrate, "_echelon_forms", recorded)
    for name in sorted(os.listdir(CORPUS)):
        for seed in range(4):
            main(["transform", os.path.join(CORPUS, name), "--seed", str(seed)])
    capsys.readouterr()
    assert len(forms) >= 50
    for w, sp in forms.values():
        syms = sorted(set().union(*map(free_symbols, w.coefficients)))
        table = [ONE] + [pow_(Sym(s), k) for s in syms for k in integrate._FACTOR_EXPONENTS]
        closed = [f for f in table
                  if is_closed(OneForm(w.frame, tuple(f * c for c in w.coefficients)), sp)]
        assert list(closing_factors(w, sp)) == closed, str(w)


def test_coordinate_plane_integration():
    frame = ("x", "z")
    W = Codistribution(frame, [one_form(frame, {"z": Rat(1)})])
    out = integrate_codistribution(W, SP)
    assert len(out) == 1
    assert out[0].expr == Sym("z")
    assert out[0].source == "coordinate"


def test_a_fault_in_a_candidate_test_propagates(monkeypatch):
    # only a TriflatError rejects a candidate; a bug must not read as
    # "could not complete the span"
    def broken(*_args):
        raise TypeError("broken span test")

    monkeypatch.setattr(integrate, "form_in_span", broken)
    frame = ("x", "z")
    W = Codistribution(frame, [one_form(frame, {"z": Rat(1)})])
    with pytest.raises(TypeError, match="broken span test"):
        integrate_codistribution(W, SP)


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


def _counted(monkeypatch, module, name):
    """A list that grows by one on each call of module.name, counted through
    every triflat module that binds the function."""
    fn = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for mod in [m for n, m in sys.modules.items() if n.startswith("triflat")]:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize(
    "system, command, module, name, most",
    [
        # the annihilators integrated here yield plain coordinates: their
        # forms are never solved (6 and 16 eliminations when they were)
        ("academic10", "flat-output", elimination, "nullspace", 2),
        ("academic10", "transform", elimination, "nullspace", 4),
        # combination constants are fitted from sampled values (791
        # differentials when every candidate was differentiated)
        ("sqrt", "flat-output", diffgeo, "differential", 40),
        # integrability is certified by the integrals found, not tested on a
        # solved kernel (3 eliminations when it was)
        ("sqrt", "flat-output", elimination, "nullspace", 2),
        # closure is decided on one sampled stack of raw partials per form
        # (1,407 differentiations when every factor's curl was normalized)
        ("sqrt", "transform", SIMPLIFY, "differentiate", 350),
    ],
)
def test_integration_solves_and_differentiates_only_what_it_reads(
    monkeypatch, capsys, system, command, module, name, most
):
    calls = _counted(monkeypatch, module, name)
    assert main([command, os.path.join(CORPUS, system + ".sys")]) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= most


def test_transform_asks_each_integration_question_once(monkeypatch):
    # a repeated differential is dependent without a test, and a later
    # level's re-test of the integrals found reads the kept generic stack
    # (73 stacks and 70 membership questions when each was asked again)
    sampling.clear_caches()
    diffgeo._BRACKET_MEMO.clear()
    system = triangular_template(2, 2, 4, 3, seed=5).system
    rep = _analyze(system, SP)[3][0]
    flat = flat_output_for_report(rep, SP, phi1=Sym("y1") if rep.case == "NoX1" else None)
    stack, in_span = MatrixSampler.stack, integrate.form_in_span
    counts = {"stack": 0, "in_span": 0}

    def counted_stack(self):
        counts["stack"] += 1
        return stack(self)

    def counted_in_span(*args):
        counts["in_span"] += 1
        return in_span(*args)

    monkeypatch.setattr(MatrixSampler, "stack", counted_stack)
    monkeypatch.setattr(integrate, "form_in_span", counted_in_span)
    assert transform_to_triangular(system, rep, flat, SP).verified
    assert counts["stack"] <= 20 and counts["in_span"] <= 45, counts


def test_combination_fit_recovers_every_candidate_in_the_span(
    monkeypatch, product_analysis, sin_analysis, sqrt_analysis
):
    """Each combination xi - xj*g that the exact span test accepts, over every
    pool the corpus flat outputs build, is fitted with c = -1, unless d(xj*g)
    lies in the span on its own: then the kernel sees no xj*g to fit, and xi
    and xj*g are integrals apart (x2 and u2 in one pool)."""
    pools = []
    fit = integrate._fitted_combinations

    def recorded(W, sp, pool, consider, done):
        pools.append((W, sp, list(pool)))
        fit(W, sp, pool, consider, done)

    monkeypatch.setattr(integrate, "_fitted_combinations", recorded)
    for a in (product_analysis, sin_analysis, sqrt_analysis):
        flat_output_for_report(a.report, a.sp, phi1=a.flat.phi1)
    assert len(pools) == 3
    fitted_pairs, missed = 0, set()
    for W, sp, pool in pools:
        fitted = set()

        def consider(phi, _source):
            fitted.add(simplify(phi))
            return False

        fit(W, sp, pool, consider, lambda: False)
        for g in pool:
            for xi in W.frame:
                for xj in W.frame:
                    phi = simplify(Sym(xi) - Sym(xj) * g)
                    if xi == xj or phi == ZERO:
                        continue
                    if not form_in_span(differential(phi, W.frame), W, sp):
                        continue
                    if phi in fitted:
                        fitted_pairs += 1
                    else:
                        assert form_in_span(differential(Sym(xj) * g, W.frame), W, sp)
                        missed.add((xi, xj))
    assert fitted_pairs and missed == {("x2", "u2"), ("u2", "x2")}
