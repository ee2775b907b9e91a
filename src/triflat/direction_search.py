"""The drift flag, static feedback linearizability, and the search for the
input direction attached to the longer terminal chain.

One walk of the drift flag up to its first non-involutive member decides
linearizability and, when some member is not involutive, is the bracket
chain.  The direction alpha1*b1 + alpha2*b2 is determined either by a linear
containment condition involving the bracket-extended distribution H (unique
when applicable) or as a projective root of a homogeneous quadratic; the
quadratic admits at most two non-collinear solutions, and for a system that
is equivalent to the triangular form at least one of them passes the full
decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .diffgeo import (
    ad_iter,
    annihilator,
    basis,
    characteristics_span,
    contains_generic,
    drift_step,
    flag,
    grow,
    is_involutive,
    lie_bracket,
    pruned,
)
from .elimination import clear_denominators
from .errors import NotApplicable, SamplerExhausted, TriflatError
from .expr import Expr, ONE, Rat, ZERO, add, div, mul, neg, pow_, sub
from .fields import Distribution, VectorField
from .sampling import MatrixSampler, Sampler, _spanned, generic, is_zero_generic, ranks
from .simplify import as_fraction, simplify, sqrt_of_square
from .systems import AffineSystem


@dataclass
class CheckOutcome:
    """A verdict plus the first failing condition, so callers can report it."""

    verdict: bool
    failing: Optional[str] = None


def drift_flag(sys: AffineSystem, sp: Sampler):
    """D_1 = span{b1, b2}, D_{i+1} = D_i + [a, D_i], as a lazy :func:`flag`."""
    return flag(pruned(sys.input_distribution(), sp), lambda D: drift_step(D, sys.drift, sp), sp)


def _walk(sys: AffineSystem, sp: Sampler):
    """(members, ranks, outcome): the drift flag up to and including its first
    non-involutive member, and whether the system is static feedback
    linearizable: all D_i involutive and D_{n-1} the full tangent space."""
    steps, ranks = [], []
    for i, (D, r) in enumerate(drift_flag(sys, sp), start=1):
        steps.append(D)
        ranks.append(r)
        if not is_involutive(D, sp):
            return steps, ranks, CheckOutcome(False, f"D{i} is not involutive")
    if ranks[-1] != sys.n:
        return steps, ranks, CheckOutcome(False, "chain stalls below the full tangent space")
    if len(steps) > max(1, sys.n - 1):
        return steps, ranks, CheckOutcome(False, "chain reaches full rank too late")
    return steps, ranks, CheckOutcome(True)


def check_static_feedback_linearizable(sys: AffineSystem, sp: Sampler) -> CheckOutcome:
    return _walk(sys, sp)[2]


class StaticFeedbackLinearizable(NotApplicable):
    """The drift flag is involutive up to the full space; ``outcome`` is
    the linearizability check of its walk."""

    def __init__(self, outcome: CheckOutcome):
        super().__init__("chain of involutive distributions reaches the full tangent space; "
                         "the system is static feedback linearizable")
        self.outcome = outcome


@dataclass
class BracketChain:
    """D_1 = span{b1, b2}, D_{i+1} = D_i + [a, D_i] up to the first
    non-involutive member; depth is the count of involutive members."""

    steps: List[Distribution]  # steps[i] is D_{i+1}
    depth: int
    ranks: List[int]
    rank_ok: bool
    cauchy_ok: bool

    def d(self, i: int) -> Distribution:
        """D_i with D_0 the zero distribution."""
        if i == 0:
            return Distribution(self.steps[0].frame, [])
        return self.steps[i - 1]

    @property
    def top(self) -> Distribution:
        """The first non-involutive member D_{depth+1}."""
        return self.steps[self.depth]


def compute_bracket_chain(sys: AffineSystem, sp: Sampler) -> BracketChain:
    """Build the chain; errors out if the flag is involutive throughout."""
    steps, ranks, outcome = _walk(sys, sp)
    if is_involutive(steps[-1], sp):  # kept from the walk
        if ranks[-1] == sys.n:
            raise StaticFeedbackLinearizable(outcome)
        raise NotApplicable("chain of involutive distributions stalls below the full space")
    depth = len(steps) - 1
    rank_ok = ranks == [2 * (i + 1) for i in range(len(steps))] and depth >= 1
    cauchy_ok = depth >= 1 and not characteristics_span(steps[depth], steps[depth - 1], sp)
    return BracketChain(steps, depth, ranks, rank_ok, cauchy_ok)


def h_distribution(chain: BracketChain, sp: Sampler) -> Distribution:
    """H = D_{depth+1} + [D_depth, D_{depth+1}], pruned to a generic basis.
    D_depth is involutive, so its brackets with the fields of its own basis
    lie in it and are not built."""
    dn = chain.d(chain.depth)
    dn1 = chain.top
    low = basis(dn, sp)
    new = [lie_bracket(v, w) for v in low for w in basis(dn1, sp) if w not in low]
    return grow(dn1, dn1.fields, new, sp, "h", "direction_search.h_distribution")


@dataclass
class DirectionCandidate:
    alpha1: Expr
    alpha2: Expr
    field: VectorField
    source: str  # 'h-method' | 'quadratic-root-1' | 'quadratic-root-2'

    def collinear_with(self, other, sp: Sampler) -> bool:
        cross = sub(mul(self.alpha1, other.alpha2), mul(self.alpha2, other.alpha1))
        return is_zero_generic(cross, sp)


def _normalized_candidate(sys, alpha1, alpha2, source) -> DirectionCandidate:
    a1, a2 = clear_denominators([simplify(alpha1), simplify(alpha2)])
    if a1 == ZERO and a2 == ZERO:
        raise TriflatError("degenerate direction candidate")
    if a2 == ZERO:
        a1, a2 = ONE, ZERO
    elif a1 == ZERO:
        a1, a2 = ZERO, ONE
    else:
        # cancel the common content through the ratio's normal form
        a1, a2 = as_fraction(div(a1, a2))
        if isinstance(a2, Rat) and a2.value != 0:
            a1, a2 = simplify(div(a1, a2)), ONE
    field = VectorField(
        sys.frame,
        tuple(
            simplify(add(mul(a1, p), mul(a2, q)))
            for p, q in zip(sys.b1.components, sys.b2.components)
        ),
    )
    if field.is_zero():
        raise TriflatError("degenerate direction candidate")
    return DirectionCandidate(a1, a2, field, source)


def _fixing_pair(pairs, sp: Sampler):
    """The equation c1 a1 + c2 a2 = 0 that fixes the direction: the first
    pair with c2 nonzero, else the first with c1 nonzero; None if all vanish."""
    return next((p for i in (1, 0) for p in pairs if not is_zero_generic(p[i], sp)), None)


def candidate_via_h(sys: AffineSystem, chain: BracketChain, sp: Sampler) -> DirectionCandidate:
    """Unique direction with ad_a^{depth+1} b_p inside H, when one exists."""
    if chain.depth < 1:
        raise NotApplicable("the input span itself is non-involutive")
    H = h_distribution(chain, sp)
    k = chain.depth + 1
    w1 = ad_iter(sys.drift, k, sys.b1)
    w2 = ad_iter(sys.drift, k, sys.b2)
    # one stack [H; w1; w2] answers both memberships and the joint rank; a
    # zero w_p is a member and is not sampled
    r = len(H.fields)
    rows = [list(w.components) for w in (w1, w2) if not w.is_zero()]
    stack = MatrixSampler(H.matrix_rows() + rows, H.frame, sp).stack()[1] if rows else None
    inside = (_spanned(stack[:, :r], stack[:, q : q + 1], sp.tol) for q in range(r, r + len(rows)))
    in1, in2 = (w.is_zero() or next(inside) for w in (w1, w2))
    if in1 and in2:
        raise NotApplicable(
            "both iterated brackets lie in H; the containment condition does not "
            "single out a direction"
        )
    if in1:
        return _normalized_candidate(sys, ONE, ZERO, "h-method")
    if in2:
        return _normalized_candidate(sys, ZERO, ONE, "h-method")
    # w1 and w2 add one rank to H's pruned basis exactly when a direction lands in H
    if generic(ranks(stack, sp.tol))[0] != r + 1:
        raise NotApplicable("no direction satisfies the containment condition")
    # dx_j annihilates H where every field of H leaves column j empty; the
    # annihilator's forms are solved only when no such column fixes the direction
    empty = [j for j in range(sys.n) if all(f.components[j] == ZERO for f in H.fields)]
    best = (_fixing_pair([(w1.components[j], w2.components[j]) for j in empty], sp)
            or _fixing_pair([(simplify(form.pair(w1)), simplify(form.pair(w2)))
                             for form in annihilator(H, sp).forms], sp))
    if best is None:
        raise NotApplicable("no direction satisfies the containment condition")
    cand = _normalized_candidate(sys, best[1], neg(best[0]), "h-method")
    combo = VectorField(
        sys.frame,
        tuple(
            add(mul(cand.alpha1, a), mul(cand.alpha2, b))
            for a, b in zip(w1.components, w2.components)
        ),
    )
    if not contains_generic(H, combo, sp):
        raise NotApplicable("containment condition is inconsistent across directions")
    return cand


def _quadratic_coefficients(sys, chain, sp):
    """Quadratic forms, one per annihilator direction of D_{depth+1}."""
    a = sys.drift
    n3 = chain.depth
    v1 = ad_iter(a, n3 - 1, sys.b1)
    v2 = ad_iter(a, n3 - 1, sys.b2)
    w11 = lie_bracket(v1, lie_bracket(a, v1))
    w12 = lie_bracket(v1, lie_bracket(a, v2))
    w22 = lie_bracket(v2, lie_bracket(a, v2))
    return [tuple(simplify(form.pair(w)) for w in (w11, w12, w22))
            for form in annihilator(chain.top, sp).forms]


def candidates_via_quadratic(
    sys: AffineSystem, chain: BracketChain, sp: Sampler
) -> List[DirectionCandidate]:
    """Projective roots of the homogeneous quadratic containment condition.

    The discriminant is kept exact when it reduces to a perfect square;
    otherwise the root carries an explicit square root.  Roots are filtered
    for generic consistency against the remaining component equations and at
    most two non-collinear candidates are returned.
    """
    if chain.depth < 1:
        raise NotApplicable("the input span itself is non-involutive")
    triples = [
        t
        for t in _quadratic_coefficients(sys, chain, sp)
        if not all(is_zero_generic(c, sp) for c in t)
    ]
    if not triples:
        raise NotApplicable(
            "the quadratic condition is vacuous; the characteristic condition on "
            "the first non-involutive member must have failed"
        )
    roots = [
        (a1, a2)
        for a1, a2 in _projective_roots(_best_triple(triples, sp), sp)
        if all(
            is_zero_generic(add(mul(A, a1, a1), mul(Rat(2), B, a1, a2), mul(C, a2, a2)), sp)
            for A, B, C in triples
        )
    ]
    out: List[DirectionCandidate] = []
    for a1, a2 in roots:
        cand = _normalized_candidate(
            sys, a1, a2, f"quadratic-root-{len(out) + 1}"
        )
        if not any(cand.collinear_with(c, sp) for c in out):
            out.append(cand)
    if not out:
        raise NotApplicable(
            "no non-trivial direction satisfies the quadratic condition; the "
            "system is not equivalent to the triangular form"
        )
    return out[:2]


def _best_triple(triples, sp: Sampler):
    """Pick the quadratic with the best-conditioned coefficients."""
    best = None
    for t in triples:
        try:
            ps, idx = MatrixSampler([t], (), sp).admissible()
        except SamplerExhausted:
            continue  # too few admissible points within the resample budget
        score = min(max(map(abs, vals)) for vals in ps.scan(t, idx))
        if best is None or score > best[0]:
            best = (score, t)
    if best is None:
        raise NotApplicable("quadratic coefficients cannot be evaluated")
    return best[1]


def _projective_roots(triple, sp: Sampler):
    """Roots (alpha1 : alpha2) of A a1^2 + 2 B a1 a2 + C a2^2 = 0."""
    A, B, C = triple
    a_zero = is_zero_generic(A, sp)
    c_zero = is_zero_generic(C, sp)
    if a_zero and c_zero:
        # 2 B a1 a2 = 0 with B generically nonzero
        return [(ONE, ZERO), (ZERO, ONE)]
    if a_zero:
        # a2 * (2 B a1 + C a2) = 0
        return [(ONE, ZERO), (neg(C), mul(Rat(2), B))]
    if c_zero:
        return [(ZERO, ONE), (mul(Rat(2), B), neg(A))]
    disc = simplify(sub(mul(B, B), mul(A, C)))
    if is_zero_generic(disc, sp):
        return [(neg(B), A)]
    root = sqrt_of_square(disc)
    if root is None:
        root = pow_(disc, Fraction(1, 2))
    return [
        (simplify(add(neg(B), root)), A),
        (simplify(sub(neg(B), root)), A),
    ]
