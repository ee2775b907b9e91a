"""Heuristic integration of integrable codistributions.

Finds functions whose differentials span a given codistribution.  The
strategy ladder: caller-supplied functions (hints and already-known
integrals), plain coordinates, exact spanning forms (potential by successive
single-variable integration), forms made exact by a single-symbol
integrating factor from a fixed pattern table, and finally combination
candidates assembled from coordinates and previously found integrals.
Failures surface with a diagnostic; nothing is ever approximated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from .diffgeo import (
    annihilated_distribution,
    codistribution_rank,
    differential,
    form_in_span,
    is_involutive,
)
from .elimination import row_reduce
from .errors import IntegrationError, TriflatError
from .expr import (
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
    div,
    free_symbols,
    mul,
    neg,
    pow_,
    sub,
)
from .fields import Codistribution, OneForm
from .sampling import MatrixSampler, Sampler, _admissible, all_zero_generic, nullspaces, ranks
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


def is_closed(w: OneForm, sp: Sampler) -> bool:
    residuals = [
        sub(differentiate(cj, xi), differentiate(ci, xj))
        for (xi, ci), (xj, cj) in itertools.combinations(zip(w.frame, w.coefficients), 2)
    ]
    return all_zero_generic(residuals, sp, extra_syms=w.frame)


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


def _factor_candidates(w: OneForm):
    syms = set()
    for c in w.coefficients:
        syms |= free_symbols(c)
    for s in sorted(syms):
        for k in _FACTOR_EXPONENTS:
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
    and used when they help.  Integrability is checked up front: the
    annihilated distribution must be involutive.
    """
    frame = W.frame
    rank = codistribution_rank(W, sp)
    if rank == 0:
        return []
    if not is_involutive(annihilated_distribution(W, sp), sp):
        raise IntegrationError("codistribution is not integrable")

    found: List[FirstIntegral] = []
    diffs: List[OneForm] = []
    pool: List[Expr] = []

    def spans(candidate_form):
        return form_in_span(candidate_form, W, sp)

    def independent(candidate_form):
        rows = [list(f.coefficients) for f in diffs] + [list(candidate_form.coefficients)]
        try:
            _points, stack = MatrixSampler(rows, frame, sp).stack()
        except TriflatError:
            return False
        return bool(ranks(stack, sp.tol).max() == len(rows))

    def consider(phi, source):
        if len(found) == rank:
            return False
        phi = simplify(phi)
        if phi == ZERO or not (free_symbols(phi) & set(frame)):
            return False
        dphi = differential(phi, frame)
        if all(c == ZERO for c in dphi.coefficients):
            return False
        try:
            ok = spans(dphi) and independent(dphi)
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
        try:
            if is_closed(w, sp):
                consider(potential(w, sp), "exact")
                continue
        except IntegrationError:
            pass
        for factor in _factor_candidates(w):
            scaled = OneForm(frame, tuple(mul(factor, c) for c in w.coefficients))
            try:
                if is_closed(scaled, sp):
                    scaled = OneForm(frame, tuple(map(simplify, scaled.coefficients)))
                    if consider(potential(scaled, sp), "factor"):
                        break
                    # keep valid potentials in the pool even when dependent
            except IntegrationError:
                continue

    if len(found) < rank:
        ratio_pool = _coefficient_ratios(echelon)
        full_pool = pool + ratio_pool + [simplify(c) for c in extra_candidates]
        # first occurrences in pool order: the fitted pass below keeps only a
        # prefix, so the order must not follow string hashes
        candidates = list(dict.fromkeys(full_pool))
        kernel = _SampledKernel(W, sp, candidates)
        for g in candidates:
            for xi, xj in kernel.screened(g):
                consider(sub(Sym(xi), mul(Sym(xj), g)), "combination")
                if len(found) == rank:
                    break
            if len(found) == rank:
                break
        if len(found) < rank:
            _fitted_combinations(
                kernel, [add(1)] + candidates[:12], consider, lambda: len(found) == rank
            )

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


class _SampledKernel:
    """Orthonormal rows spanning the fields W annihilates, at W's generic
    sample points, and the combination forms d(xi - c xj g) measured there.

    A form lies in W(p) exactly when it has no component along these rows,
    so candidates are screened and constants fitted from numbers alone.
    """

    MARGIN = 1e-6  # screening margin, well above the decision tolerance

    def __init__(self, W: Codistribution, sp: Sampler, pool):
        self.frame, self.tol = W.frame, sp.tol
        ms = MatrixSampler(W.matrix_rows(), set(W.frame).union(*map(free_symbols, pool)), sp)
        self.ps, idx = ms.admissible()
        rk, dirs = nullspaces(ms.stack()[1], sp.tol)
        kept = np.flatnonzero(rk == rk.max())
        self.idx = [idx[k] for k in kept]
        self.dirs = np.stack([dirs[k] for k in kept])  # (P, m, n)
        self.coords = np.array([[self.ps.point(i)[x] for x in W.frame] for i in self.idx])

    def parts(self, g):
        """At the points where g and its partials are admissible: the kernel
        components of each dxi, (P, n, m), and of each d(xj g), (P, n, m),
        and the forms d(xj g) themselves, (P, n, n)."""
        exprs = [g] + [differentiate(g, x) for x in self.frame]
        keep, rows = [], []
        for k, vals in enumerate(zip(*(self.ps.scan(e, self.idx) for e in exprs))):
            if all(map(_admissible, vals)):
                keep.append(k)
                rows.append(vals)
        n = len(self.frame)
        vals = np.array(rows, dtype=float).reshape(len(keep), n + 1)
        dirs, coords = self.dirs[keep], self.coords[keep]
        # d(xj g) = g dxj + xj dg
        dpart = vals[:, :1, None] * np.eye(n) + coords[:, :, None] * vals[:, None, 1:]
        return dirs.transpose(0, 2, 1), dpart @ dirs.transpose(0, 2, 1), dpart

    def screened(self, g):
        """The pairs (xi, xj), in frame order, for which d(xi - xj g) has no
        component along the kernel beyond the margin at any point."""
        unit, along, dpart = self.parts(g)
        comp = np.linalg.norm(unit[:, :, None] - along[:, None], axis=-1)
        size = np.linalg.norm(np.eye(len(self.frame))[:, None] - dpart[:, None], axis=-1)
        ok = (comp <= self.MARGIN * (1.0 + size)).all(axis=0)
        return [
            (xi, xj)
            for i, xi in enumerate(self.frame)
            for j, xj in enumerate(self.frame)
            if i != j and ok[i, j]
        ]


def _fitted_combinations(kernel: _SampledKernel, pool, consider, done):
    """Candidates xi + c * xj * g with the rational constant c fitted at the
    first 8 sampled points and then verified symbolically."""
    frame = kernel.frame
    for g in pool:
        unit, along, _dpart = kernel.parts(g)
        for i, xi in enumerate(frame):
            for j, xj in enumerate(frame):
                if i == j:
                    continue
                if done():
                    return
                r0, r1 = unit[:8, i], along[:8, j]
                n1 = (r1 * r1).sum(axis=1)
                if len(n1) < 3 or (n1 < kernel.tol).any():
                    continue
                vals = (-(r0 * r1).sum(axis=1) / n1).tolist()
                c = Fraction(vals[0]).limit_denominator(12)
                if c != 0 and all(abs(v - c) <= 1e-6 * (1 + abs(v)) for v in vals):
                    part = simplify(mul(Sym(xj), g))
                    consider(add(Sym(xi), mul(Rat(c), part)), "combination")
