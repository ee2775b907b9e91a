"""Heuristic integration of integrable codistributions.

Finds functions whose differentials span a given codistribution.  The
strategy ladder: caller-supplied functions (hints and already-known
integrals), plain coordinates, spanning forms that are exact or made exact
by a single-symbol integrating factor from a fixed pattern table (potential
by successive single-variable integration), and finally combination
candidates xi + c*xj*g, with g among the potentials found, the coefficient
ratios of the spanning forms and the caller's extras.  Which factor closes
a form and which constant c fits are decided on sampled values; a candidate
integral is accepted only by the exact span and independence tests, and
rank W independent differentials in W certify that W is integrable.  A
candidate whose differential was already found is dependent without a
test; independence reads the kept generic stack of the rows
(:meth:`~triflat.sampling.MatrixSampler.generic`), so a row set re-tested
by a later call is ranked once.
Failures surface with a diagnostic; nothing is ever approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from .diffgeo import codistribution_rank, differential, form_in_span
from .elimination import row_reduce
from .errors import IntegrationError, TriflatError
from .expr import (
    ONE,
    Add,
    Call,
    Expr,
    Mul,
    Pow,
    Rat,
    Sym,
    ZERO,
    add,
    call,
    derivative,
    div,
    free_symbols,
    mul,
    neg,
    pow_,
    sub,
)
from .fields import Codistribution, OneForm
from .sampling import MatrixSampler, Sampler, _admissible, all_zero_generic, generic_nullspaces
from .simplify import differentiate, simplify


@dataclass(frozen=True)
class FirstIntegral:
    expr: Expr
    source: str  # 'hint' | 'known' | 'coordinate' | 'exact' | 'factor' | 'combination'


def integrate_sym(e: Expr, x: str) -> Expr:
    """Antiderivative of e with respect to x over the pattern table."""
    e = simplify(e)
    if x not in free_symbols(e):
        return mul(e, Sym(x))
    if isinstance(e, Add):
        return add(*(integrate_sym(t, x) for t in e.terms))
    if isinstance(e, Mul):
        dep = [f for f in e.factors if x in free_symbols(f)]
        indep = [f for f in e.factors if x not in free_symbols(f)]
        if len(dep) == 1:
            return mul(*indep, integrate_sym(dep[0], x))
        raise IntegrationError(f"product with several {x}-dependent factors: {e}")
    if isinstance(e, Sym):
        return div(pow_(e, 2), 2)
    if isinstance(e, Pow):
        lin = _linear_in(e.base, x)
        if lin is not None:
            a, _b = lin
            q = e.exponent
            if q == -1:
                return div(call("log", e.base), a)
            return div(pow_(e.base, q + 1), mul(a, Rat(q + 1)))
        if isinstance(e.base, Call) and e.base.fn == "cos" and e.exponent == -2:
            inner = _linear_in(e.base.arg, x)
            if inner is not None:
                ai, _ = inner
                return div(div(call("sin", e.base.arg), call("cos", e.base.arg)), ai)
        raise IntegrationError(f"cannot integrate {e} in {x}")
    if isinstance(e, Call):
        lin = _linear_in(e.arg, x)
        if lin is None:
            raise IntegrationError(f"cannot integrate {e} in {x}")
        a, _b = lin
        table = {
            "sin": lambda u: neg(call("cos", u)),
            "cos": lambda u: call("sin", u),
            "exp": lambda u: call("exp", u),
        }
        if e.fn not in table:
            raise IntegrationError(f"no antiderivative pattern for {e.fn}")
        return div(table[e.fn](e.arg), a)
    raise IntegrationError(f"cannot integrate {e} in {x}")


def _linear_in(e: Expr, x: str):
    """(a, b) with e = a*x + b and a, b free of x; None otherwise."""
    d = differentiate(e, x)
    if d == ZERO:
        return None
    if x in free_symbols(d):
        return None
    return d, simplify(sub(e, mul(d, Sym(x))))


def potential(w: OneForm, sp: Sampler) -> Expr:
    """Potential function of a closed one-form by successive integration."""
    phi = ZERO
    for i, x in enumerate(w.frame):
        residue = simplify(sub(w.coefficients[i], differentiate(phi, x)))
        if residue == ZERO:
            continue
        phi = simplify(add(phi, integrate_sym(residue, x)))
    check = [sub(differentiate(phi, x), w.coefficients[i]) for i, x in enumerate(w.frame)]
    if not all_zero_generic(check, sp, extra_syms=w.frame):
        raise IntegrationError("potential reconstruction failed to match the form")
    return phi


_FACTOR_EXPONENTS = (-1, -2, -3, 1, 2)


def closing_factors(w: OneForm, sp: Sampler):
    """The factors f with f*w closed, in the order tried: 1, then x^k over
    the symbols x of w's coefficients by name and k in _FACTOR_EXPONENTS.

    One sampled stack [c; d_1 c; ...; d_n c] of w's coefficients and their
    raw partials decides them all: with J_ij = d_i c_j, x^k w is closed iff
    (J - J^T) + (k/x)(e_x c^T - c e_x^T) vanishes relative to its terms.
    """
    frame, c = w.frame, w.coefficients
    rows = [list(c)] + [[derivative(cj, x) for cj in c] for x in frame]
    points, stack = MatrixSampler(rows, frame, sp).stack()
    vals, jac = stack[:, 0], stack[:, 1:]
    curl, size = jac - jac.transpose(0, 2, 1), abs(jac) + abs(jac).transpose(0, 2, 1)

    def closed(term):
        return bool((abs(curl + term) <= sp.tol * (1.0 + size + abs(term))).all())

    if closed(0.0):
        yield ONE
    for s in sorted(set().union(*map(free_symbols, c))):
        wedge = np.zeros_like(jac)
        if s in frame:
            i = frame.index(s)
            inv = np.array([1.0 / p[s] for p in points])[:, None]
            wedge[:, i, :] += inv * vals
            wedge[:, :, i] -= inv * vals
        for k in _FACTOR_EXPONENTS:
            if closed(k * wedge):
                yield pow_(Sym(s), k)


def integrate_codistribution(
    W: Codistribution,
    sp: Sampler,
    hints: Sequence[Expr] = (),
    knowns: Sequence[Expr] = (),
    extra_candidates: Sequence[Expr] = (),
    preferred_coordinates: Sequence[str] = (),
) -> List[FirstIntegral]:
    """Functions whose differentials span W; raises IntegrationError if the
    heuristic ladder cannot complete the span.

    ``knowns`` are trusted integrals from the caller (counted, not
    re-derived); ``hints`` are user-supplied candidates that are validated
    and used when they help.  Integrability is not tested apart: a W that
    is not integrable has no rank W independent differentials in it, so the
    ladder cannot complete its span.
    """
    frame = W.frame
    rank = codistribution_rank(W, sp)
    if rank == 0:
        return []

    found: List[FirstIntegral] = []
    diffs: List[OneForm] = []
    pool: List[Expr] = []

    def independent(candidate_form):
        rows = [list(f.coefficients) for f in diffs] + [list(candidate_form.coefficients)]
        try:
            return MatrixSampler(rows, frame, sp).generic()[1] == len(rows)
        except TriflatError:
            return False

    def consider(phi, source):
        """Accept phi if dphi is in W and independent of the found ones; an
        exact, factor or hint candidate joins the pool either way."""
        if len(found) == rank:
            return False
        phi = simplify(phi)
        if phi == ZERO or not (free_symbols(phi) & set(frame)):
            return False
        dphi = differential(phi, frame)
        if all(c == ZERO for c in dphi.coefficients):
            return False
        try:
            # a repeated differential is dependent: [diffs; dphi] repeats a row
            ok = dphi not in diffs and form_in_span(dphi, W, sp) and independent(dphi)
        except TriflatError:
            return False
        if source in ("exact", "factor", "hint") and phi not in pool:
            pool.append(phi)
        if not ok:
            return False
        found.append(FirstIntegral(phi, source))
        diffs.append(dphi)
        return True

    for phi in knowns:
        consider(phi, "known")
    for phi in hints:
        consider(phi, "hint")
    if len(found) < rank:
        ordered = [x for x in preferred_coordinates if x in frame]
        ordered += [x for x in frame if x not in ordered]
        for x in ordered:
            consider(Sym(x), "coordinate")

    echelon = _echelon_forms(W, sp) if len(found) < rank else []
    for w in echelon:
        if len(found) == rank:
            break
        for factor in closing_factors(w, sp):
            scaled = w if factor == ONE else OneForm(
                frame, tuple(simplify(mul(factor, c)) for c in w.coefficients))
            try:
                phi = potential(scaled, sp)
            except IntegrationError:
                continue
            # a dependent potential still joins the pool; the table is tried
            # only when the form is not exact or its potential is not found
            if consider(phi, "exact" if factor == ONE else "factor") or factor == ONE:
                break

    if len(found) < rank:
        # first occurrences in pool order, so the order never follows hashes
        candidates = list(dict.fromkeys(
            [ONE] + pool + _coefficient_ratios(echelon) + [simplify(c) for c in extra_candidates]))
        _fitted_combinations(W, sp, candidates, consider, lambda: len(found) == rank)

    if len(found) < rank:
        missing = rank - len(found)
        raise IntegrationError(
            f"could not complete the span: {missing} of {rank} integrals missing "
            f"for {W}",
            residual=W,
        )
    return found


def _echelon_forms(W: Codistribution, sp: Sampler) -> List[OneForm]:
    rows = W.matrix_rows()
    red = row_reduce(rows, sp, extra_syms=W.frame)
    forms = []
    for r, c in red.pivots:
        piv = red.rows[r][c]
        coeffs = [simplify(div(e, piv)) for e in red.rows[r]]
        if any(e != ZERO for e in coeffs):
            forms.append(OneForm(W.frame, tuple(coeffs)))
    return forms


def _coefficient_ratios(forms) -> List[Expr]:
    out = []
    for w in forms:
        nz = [(i, c) for i, c in enumerate(w.coefficients) if c != ZERO]
        if len(nz) == 2:
            (_, c1), (_, c2) = nz
            out.append(simplify(div(c2, c1)))
            out.append(simplify(neg(div(c2, c1))))
        elif len(nz) <= 5:
            for _i, ci in nz:
                for _j, cj in nz:
                    if ci is cj:
                        continue
                    out.append(simplify(div(ci, cj)))
    return out


def _fitted_combinations(W: Codistribution, sp: Sampler, pool, consider, done):
    """Candidates xi + c*xj*g, for g in the pool, with the rational constant c
    fitted at the first 8 sampled points and then verified symbolically.

    At W's generic sample points, orthonormal rows span the fields W
    annihilates; a form lies in W(p) exactly when it has no component along
    them, so c is fitted from the values of g and its partials alone.
    """
    frame, n = W.frame, len(W.frame)
    ms = MatrixSampler(W.matrix_rows(), set(frame).union(*map(free_symbols, pool)), sp)
    ps, idx = ms.admissible()
    _top, kept, dirs = generic_nullspaces(ms.values_at(ps, idx), sp.tol)
    idx = [idx[k] for k in kept]
    kernel = dirs.transpose(0, 2, 1)  # (P, n, m)
    coords = np.array([[ps.point(i)[x] for x in frame] for i in idx])
    for g in pool:
        exprs = [g] + [differentiate(g, x) for x in frame]
        rows = list(ps.scan(exprs, idx))
        keep = [k for k, vals in enumerate(rows) if all(map(_admissible, vals))]
        vals = np.array([rows[k] for k in keep], dtype=float).reshape(len(keep), n + 1)
        # the kernel components of each dxi and of each d(xj g) = g dxj + xj dg
        dpart = vals[:, :1, None] * np.eye(n) + coords[keep][:, :, None] * vals[:, None, 1:]
        unit, along = kernel[keep], dpart @ kernel[keep]
        for i, xi in enumerate(frame):
            for j, xj in enumerate(frame):
                if i == j:
                    continue
                if done():
                    return
                r0, r1 = unit[:8, i], along[:8, j]
                n1 = (r1 * r1).sum(axis=1)
                if len(n1) < 3 or (n1 < sp.tol).any():
                    continue
                fits = (-(r0 * r1).sum(axis=1) / n1).tolist()
                c = Fraction(fits[0]).limit_denominator(12)
                if c != 0 and all(abs(v - c) <= 1e-6 * (1 + abs(v)) for v in fits):
                    part = simplify(mul(Sym(xj), g))
                    consider(add(Sym(xi), mul(Rat(c), part)), "combination")
