"""Lie brackets, flags, Cauchy characteristics, annihilators.

Rank and membership questions are decided numerically at generic sample
points, and every membership question (is a bracket, a characteristic
direction, a drift image or a kernel field inside a span?) by one rule,
:func:`_spanned`.  A bracket that only feeds such a question is never built
symbolically: :func:`bracket_values` samples the fields and their nonzero
first partials in one stack and takes the value of [v, w] = Dw v - Dv w at
each point.  Involutivity and whether the Cauchy characteristics span a
given distribution or stay in theirs under the drift
(:func:`is_involutive`, :func:`characteristics_span`,
:func:`drift_compatible`) come from sampled values of a basis and its
brackets, with no symbolic elimination, and so do the rank and memberships
of the forms annihilating the characteristics
(:func:`characteristic_annihilator`, asked through :func:`form_in_span` by
the transform's Cauchy ladder and the flat output's choice of phi1) unless
the points leave one open.
:func:`lie_bracket` builds a bracket only as a flag step's candidate or to be
eliminated symbolically, and never one its input is known to span: a member
from :func:`grow` records the member it grew from and the fields it
inherited, whose brackets the last step of its kind built, and which
:func:`is_involutive` skips when the member they came from is involutive.
Symbolic elimination (:func:`annihilator`, :func:`cauchy_characteristics`)
runs only where the symbolic forms and fields are read, and each symbolic
result is re-checked numerically.
Its float rank rules, :func:`_spanned` too, are :mod:`~triflat.sampling`'s.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from . import trace
from .elimination import clear_denominators, nullspace
from .errors import EliminationError, FrameMismatch
from .expr import Expr, ONE, ZERO, add, derivative, mul, neg
from .fields import Codistribution, Distribution, OneForm, VectorField
from .sampling import MatrixSampler, Sampler, all_zero_generic, basis_rows, generic, ranks
from .sampling import _free_symbols, _in_sampled, _spanned, generic_nullspaces
from .simplify import simplify

_BRACKET_MEMO: dict = {}  # (frame, v, w) -> [v, w], for the brackets lie_bracket builds
_PARTIALS_MEMO: dict = {}  # (frame, components) -> rows of raw first partials
_MEMO_LIMIT = 50_000


def _remember(memo, key, value):
    """memo[key] = value; both memos are dropped together once they hold
    more than _MEMO_LIMIT entries."""
    if len(_BRACKET_MEMO) + len(_PARTIALS_MEMO) > _MEMO_LIMIT:
        _BRACKET_MEMO.clear()
        _PARTIALS_MEMO.clear()
    memo[key] = value
    return value


def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    """[v, w]^i = v^j d_j w^i - w^j d_j v^i, simplified componentwise.

    d_j c is taken only where x_j is a symbol of c; the others vanish, so
    the terms, and the normal form, are those of the full sum."""
    if v.frame != w.frame:
        raise FrameMismatch("bracket of fields on different frames")
    memo_key = (v.frame, v.components, w.components)
    hit = _BRACKET_MEMO.get(memo_key)
    if hit is not None:
        return hit
    frame = v.frame
    v_on = [c != ZERO for c in v.components]
    w_on = [c != ZERO for c in w.components]
    comps = []
    for vi, wi in zip(v.components, w.components):
        v_syms, w_syms = _free_symbols(vi), _free_symbols(wi)
        terms = []
        for j, xj in enumerate(frame):
            if v_on[j] and xj in w_syms:
                dw = derivative(wi, xj)
                if dw != ZERO:
                    terms.append(mul(v.components[j], dw))
            if w_on[j] and xj in v_syms:
                dv = derivative(vi, xj)
                if dv != ZERO:
                    terms.append(mul(neg(w.components[j]), dv))
        comps.append(simplify(add(*terms)) if terms else ZERO)
    return _remember(_BRACKET_MEMO, memo_key, VectorField(frame, tuple(comps)))


def _partials(f: VectorField) -> list:
    """The nonzero raw partials (no normalization) of f, as (i, j, d_j f^i);
    f^i is differentiated only by the symbols it holds."""
    key = (f.frame, f.components)
    hit = _PARTIALS_MEMO.get(key)
    if hit is None:
        hit = _remember(_PARTIALS_MEMO, key, [
            (i, j, d) for i, c in enumerate(f.components) for j, x in enumerate(f.frame)
            if x in _free_symbols(c) and (d := derivative(c, x)) != ZERO
        ])
    return hit


def bracket_values(frame, fields, pairs, sp: Sampler, extra_rows=()):
    """Values at generic points of the fields, of [fields[i], fields[j]] for
    each (i, j) of pairs, and of extra_rows (rows of expressions).

    One stack of the fields, their nonzero first partials (packed n to a
    row) and extra_rows is sampled; the partials are scattered into the
    Jacobians, and one einsum gives every product D f_a(p) f_b(p), with
    [v, w] = Dw v - Dv w.  Returns (F, brackets, X, at): the (K, m, n) values
    of the m fields, the (K, len(pairs), n) bracket values, the (K, e, n)
    values of extra_rows at the K admissible points, and at = (the point
    set, the indices of those points in it).
    """
    m, n = len(fields), len(frame)
    parts = [(a, i, j, d) for a, f in enumerate(fields) for i, j, d in _partials(f)]
    flat = [d for *_aij, d in parts] + [ZERO] * (-len(parts) % n)
    packed = [flat[q : q + n] for q in range(0, len(flat), n)]
    rows = [list(f.components) for f in fields] + packed + list(extra_rows)
    ms = MatrixSampler(rows, frame, sp)
    ps, idx = ms.admissible()
    stack = ms.values_at(ps, idx)
    p = m + len(packed)
    J = np.zeros((len(stack), m, n, n))  # J[k, a, i, j] = d_j f_a^i (p_k)
    if parts:
        a, i, j, _d = zip(*parts)
        J[:, a, i, j] = stack[:, m:p].reshape(len(stack), -1)[:, : len(parts)]
    F = stack[:, :m]
    JF = np.einsum("kaij,kbj->kabi", J, F)
    v = [i for i, _j in pairs]
    w = [j for _i, j in pairs]
    return F, JF[:, w, v] - JF[:, v, w], stack[:, p:], (ps, idx)


def ad_iter(a: VectorField, k: int, w: VectorField) -> VectorField:
    """k-fold iterated bracket [a, [a, ... [a, w]]]; k = 0 gives w."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = w
    for _ in range(k):
        out = lie_bracket(a, out)
    return out


def lie_derivative(v: VectorField, f: Expr, k: int = 1) -> Expr:
    """k-fold derivative of the function f along v."""
    out = f
    for _ in range(k):
        out = simplify(
            add(*(mul(v.components[j], derivative(out, xj)) for j, xj in enumerate(v.frame)))
        )
    return out


def differential(f: Expr, frame) -> OneForm:
    frame = tuple(frame)
    return OneForm(frame, tuple(simplify(derivative(f, x)) for x in frame))


# --- numeric span machinery --------------------------------------------------


def _in_span(rows, extras, frame, sp: Sampler) -> list:
    """For each extra row e, whether it lies in the row span of rows at the
    generic points: [rows; e] is sampled at its own admissible points (values
    are kept per point set, so the base is evaluated once) and asked
    :func:`_spanned`."""
    r = len(rows)
    stacks = (MatrixSampler(rows + [e], frame, sp).stack()[1] for e in extras)
    return [_spanned(stack[:, :r], stack[:, r:], sp.tol) for stack in stacks]


def generic_rank(D: Distribution, sp: Sampler) -> int:
    """Maximal numeric rank of the component matrix over sample points: the
    size of D's generic basis once that is known for the sampler (a pruned
    member starts with it), else the top of the generic stack."""
    if not D.fields:
        return 0
    if D._basis and _sampler_key(sp) in D._basis:
        return len(D._basis[_sampler_key(sp)])
    return MatrixSampler(D.matrix_rows(), D.frame, sp).generic()[1]


def _sampler_key(sp: Sampler):  # stream_key: an image's base stream, maps and base_points
    return (sp.seed, sp.samples, sp.tol, sp.max_resamples, tuple(sorted(sp.domains.items())),
            sp.default_domain, sp.stream_key(()))


def basis(D: Distribution, sp: Sampler):
    """Generic basis, in D's order: the fields of :func:`basis_rows` on the
    generic stack, so every field when the stack has full rank."""
    if not D.fields:
        return []
    key = _sampler_key(sp)
    D._basis = D._basis or {}
    if key in D._basis:
        return D._basis[key]
    stack, top = MatrixSampler(D.matrix_rows(), D.frame, sp).generic()
    kept = basis_rows(stack, top, sp.tol)
    if len(kept) != top:
        raise EliminationError("could not extract a generic basis")
    kept = [D.fields[i] for i in kept]
    D._basis[key] = kept
    return kept


def contains_generic(D: Distribution, v: VectorField, sp: Sampler) -> bool:
    """Membership of v in the span of D at generic points."""
    if v.is_zero() or not D.fields:
        return v.is_zero()
    return _in_span(D.matrix_rows(), [list(v.components)], D.frame, sp)[0]


def extend(D: Distribution, fields) -> Distribution:
    return Distribution(D.frame, list(D.fields) + list(fields))


def pruned(D: Distribution, sp: Sampler) -> Distribution:
    """D spanned by its generic basis, which is the copy's own basis too."""
    out = Distribution(D.frame, basis(D, sp))
    out._basis = {_sampler_key(sp): list(out.fields)}
    return out


# --- flags and involutivity ----------------------------------------------------


def grow(D: Distribution, base, new, sp: Sampler, step, name) -> Distribution:
    """base (D's fields or basis) and the brackets new, pruned: a member grown
    from D by step that inherited the fields it keeps of base, which lead.
    Counts the brackets built and kept under name."""
    out = pruned(Distribution(D.frame, list(base) + new), sp)
    old = {id(f) for f in base}
    inherited = sum(id(f) in old for f in out.fields)
    out._grown = (D, _sampler_key(sp), step, inherited)
    trace.count(name + ".built", len(new))
    trace.count(name + ".kept", len(out.fields) - inherited)
    return out


def _inherited(D: Distribution, sp: Sampler, step=None) -> int:
    """D's inherited count if it grew under sp (by step, if given), else 0."""
    g = D._grown
    if g is None or g[1] != _sampler_key(sp) or (step is not None and g[2] != step):
        return 0
    return g[3]


def derived_step(D: Distribution, sp: Sampler) -> Distribution:
    """D + [D, D], pruned; after a derived step, the inherited fields' pairs
    were that step's candidates, so only pairs with a later field are built.
    A step that adds no rank records that D is involutive."""
    b = basis(D, sp)
    k = _inherited(D, sp, "derived")
    new = [lie_bracket(b[i], b[j]) for i, j in combinations(range(len(b)), 2) if j >= k]
    out = grow(D, b, new, sp, "derived", "diffgeo.derived_step")
    if len(out.fields) == len(b):
        D._involutive = {**(D._involutive or {}), _sampler_key(sp): True}
    return out


def drift_step(D: Distribution, a: VectorField, sp: Sampler) -> Distribution:
    """D + [a, D], pruned; after a drift step by a, [a, f] for an inherited f
    was that step's candidate, so only the added fields are bracketed."""
    b = basis(D, sp)
    new = [lie_bracket(a, f) for f in b[_inherited(D, sp, a):]]
    return grow(D, b, new, sp, a, "diffgeo.drift_step")


def flag(D: Distribution, step, sp: Sampler):
    """Yield (member, generic rank) of D, step(D), step(step(D)), ...

    Stops once a step leaves the rank unchanged (that member is not
    yielded) or a member spans the full space.  Lazy: no step is taken
    until the consumer asks for the next member.
    """
    rank = generic_rank(D, sp)
    while True:
        yield D, rank
        if rank == len(D.frame):
            return
        nxt = step(D)
        nxt_rank = generic_rank(nxt, sp)
        if nxt_rank == rank:
            return
        D, rank = nxt, nxt_rank


def is_involutive(D: Distribution, sp: Sampler) -> bool:
    """Whether the brackets of D's generic basis lie in its span, from one
    rank test per point of [basis; brackets] against the basis.  When D grew
    from an involutive member, the brackets of its inherited fields lie in
    that member, so only the pairs with a later field are asked.  The
    answer is kept on D per sampler."""
    key = _sampler_key(sp)
    D._involutive = D._involutive or {}
    if key not in D._involutive:
        b = basis(D, sp)
        parent = D._grown and D._grown[0]._involutive
        k = _inherited(D, sp) if parent and parent.get(key) else 0
        pairs = [(i, j) for i, j in combinations(range(len(b)), 2) if j >= k]
        trace.count("diffgeo.is_involutive.pairs", len(pairs))
        D._involutive[key] = not pairs or _spanned(*bracket_values(D.frame, b, pairs, sp)[:2],
                                                   sp.tol)
    return D._involutive[key]


def drift_extension_rank(D: Distribution, fields, a: VectorField, sp: Sampler) -> int:
    """Generic rank of D + [a, fields], from sampled bracket values."""
    pairs = [(len(fields), j) for j in range(len(fields))]
    _F, brackets, rows, _at = bracket_values(D.frame, list(fields) + [a], pairs, sp,
                                             D.matrix_rows())
    return generic(ranks(np.concatenate([rows, brackets], axis=1), sp.tol))[0]


# --- annihilators and characteristics ----------------------------------------


def annihilator(D: Distribution, sp: Sampler) -> Codistribution:
    """One-forms spanning the generic null space of the component matrix.

    The forms are solved on first read; rank and membership questions are
    answered from the kernel D alone.
    """
    frame = D.frame
    n = len(frame)
    b = basis(D, sp)
    if not b:
        return Codistribution(frame, [_coordinate_form(frame, i) for i in range(n)], D)

    def solve():
        vecs = nullspace([list(f.components) for f in b], sp)
        return [OneForm(frame, tuple(clear_denominators(vec))) for vec in vecs]

    return Codistribution(frame, solve, D)


def _coordinate_form(frame, i):
    coeffs = [ZERO] * len(frame)
    coeffs[i] = ONE
    return OneForm(tuple(frame), tuple(coeffs))


def codistribution_rank(W: Codistribution, sp: Sampler) -> int:
    if W.sampled is not None:
        return W.sampled[2].shape[1]
    if W.kernel is not None:
        return len(W.frame) - generic_rank(W.kernel, sp)
    if not W.forms:
        return 0
    return MatrixSampler(W.matrix_rows(), W.frame, sp).generic()[1]


def form_in_span(w: OneForm, W: Codistribution, sp: Sampler) -> bool:
    """Membership of w in W at generic points: from W's sampled values when
    they decide it (:func:`_in_sampled`), else with W's kernel known, w must
    annihilate its basis fields."""
    if W.sampled is not None:
        inside = _in_sampled(w, *W.sampled, sp.tol)
        if inside is not None:
            return inside
    if W.kernel is not None:
        pairings = [w.pair(v) for v in basis(W.kernel, sp)]
        return all_zero_generic(pairings, sp, extra_syms=W.frame)
    return _in_span(W.matrix_rows(), [list(w.coefficients)], W.frame, sp)[0]


def characteristic_annihilator(D: Distribution, sp: Sampler) -> Codistribution:
    """The forms annihilating the Cauchy characteristics of D, sampled as the
    annihilator of the directions lam @ B at the points of
    :func:`_characteristics_at` when every sample point agrees on the ranks
    of B, M and lam @ B (else one point off the others, by noise, could set
    the level).  The symbolic characteristics, its kernel, are solved on
    first read, once: for the forms (those of their :func:`annihilator`), for
    a membership the sampled values leave open, or for every question when
    the points disagree."""
    B, lam, _X, (ps, idx) = _characteristics_at(D, sp)
    W = Codistribution(D.frame, lambda: annihilator(W.kernel, sp).forms,
                       lambda: cauchy_characteristics(D, sp))
    top, kept, ann = generic_nullspaces(lam @ B, sp.tol)
    if len(kept) == sp.samples and top == lam.shape[1]:
        W.sampled = ps, idx, ann
    return W


def cauchy_characteristics(D: Distribution, sp: Sampler) -> Distribution:
    """Fields c in D with [c, D] inside D, solved over the function field."""
    frame = D.frame
    b = basis(D, sp)
    if not b:
        return Distribution(frame, [])
    ann = annihilator(D, sp)
    if not ann.forms:
        return Distribution(frame, b)
    rows = []
    brackets = [[lie_bracket(vj, vi) for vj in b] for vi in b]
    for i in range(len(b)):
        for w in ann.forms:
            rows.append([w.pair(br) for br in brackets[i]])
    lam_vectors = nullspace(rows, sp)
    fields = []
    for lam in lam_vectors:
        lam = clear_denominators(lam)
        comps = []
        for k in range(len(frame)):
            comps.append(
                simplify(add(*(mul(l, v.components[k]) for l, v in zip(lam, b))))
            )
        fields.append(VectorField(frame, tuple(comps)))
    C = pruned(Distribution(frame, fields), sp)
    if C.fields:
        k, r = len(C.fields), len(b)
        pairs = [(i, k + j) for i in range(k) for j in range(r)]
        F, brackets, *_ = bracket_values(frame, list(C.fields) + b, pairs, sp)
        if not _spanned(F[:, k:], F[:, :k], sp.tol):
            raise EliminationError("characteristic field escapes the distribution")
        if not _spanned(F[:, k:], brackets, sp.tol):
            raise EliminationError("characteristic condition fails numerically")
    return C


def _characteristics_at(D: Distribution, sp: Sampler, extra_rows=(), drift=None):
    """Cauchy characteristics of D at generic points, with no elimination.

    Take a generic basis b_1..b_r of D and the annihilator W_p of
    B_p = (b_j(p)).  The field c = sum_j lam_j b_j is characteristic exactly
    when lam lies in the null space of M_p[(i, w), j] = w . [b_j, b_i](p):
    the terms b_i(lam_j) b_j of [c, b_i] drop out because w(b_j) = 0.  The
    basis, its pairwise brackets and extra_rows come from one
    :func:`bracket_values` stack, and points where B_p or M_p falls below
    its largest rank over the points are dropped.

    Returns (B, lam, X, at) at the kept points: the (K, r, n) basis values,
    the (K, k, r) orthonormal rows spanning the null space of each M_p, the
    (K, m, n) values of extra_rows, or with a drift a, of [a, b_j] from the
    same stack, and at = (the stack's point set, the kept points' indices).
    """
    b = basis(D, sp)
    r, n = len(b), len(D.frame)
    pairs = list(combinations(range(r), 2))
    if drift is None:
        B, brackets, X, (ps, idx) = bracket_values(D.frame, b, pairs, sp, extra_rows)
    else:  # X holds [a, b_j]
        both = pairs + [(r, j) for j in range(r)]
        F, brackets, _X, (ps, idx) = bracket_values(D.frame, b + [drift], both, sp)
        B, brackets, X = F[:, :r], brackets[:, : len(pairs)], brackets[:, len(pairs) :]
    top, kept, W = generic_nullspaces(B, sp.tol)  # W: (K, n - r, n)
    if top != r:
        raise EliminationError("the generic basis is dependent at every sample point")
    B, brackets, X, idx = B[kept], brackets[kept], X[kept], [idx[i] for i in kept]
    paired = W @ brackets.transpose(0, 2, 1)  # w . [b_i, b_j]
    M = np.zeros((len(kept), r, n - r, r))
    for q, (i, j) in enumerate(pairs):
        M[:, i, :, j] = -paired[:, :, q]
        M[:, j, :, i] = paired[:, :, q]
    _top, kept, lam = generic_nullspaces(M.reshape(len(kept), r * (n - r), r), sp.tol)
    return B[kept], lam, X[kept], (ps, [idx[i] for i in kept])


def characteristics_span(D: Distribution, E: Distribution, sp: Sampler) -> bool:
    """Whether the Cauchy characteristics of D span the same as E, generically:
    E has their rank and lies in their span (:func:`_spanned`), skipping the
    points where E drops below its largest rank over the points."""
    B, lam, X, _at = _characteristics_at(D, sp, E.matrix_rows())
    top, kept = generic(ranks(X, sp.tol))
    return top == lam.shape[1] and _spanned((lam @ B)[kept], X[kept], sp.tol)


def kernel_within(W: Codistribution, D: Distribution, sp: Sampler) -> bool:
    """Whether the fields annihilated by W lie in D, generically.

    ker W(p) must lie in the span of D(p) (:func:`_spanned`) at the generic
    points of D, and among them at those of W.
    """
    rows = D.matrix_rows()
    _points, stack = MatrixSampler(rows + W.matrix_rows(), D.frame, sp).stack()
    _top, on_d = generic(ranks(stack[:, : len(rows)], sp.tol))
    _top, on_w, kernels = generic_nullspaces(stack[on_d, len(rows) :], sp.tol)
    return _spanned(stack[on_d[on_w], : len(rows)], kernels, sp.tol)


def drift_compatible(D: Distribution, a: VectorField, sp: Sampler) -> bool:
    """Whether [a, c] lies in D for every Cauchy characteristic c of D.

    [a, sum_j lam_j b_j] = sum_j lam_j [a, b_j] modulo D, so the test is
    pointwise too.
    """
    B, lam, X, _at = _characteristics_at(D, sp, drift=a)
    return _spanned(B, lam @ X, sp.tol)
