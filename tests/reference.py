"""Reference builders and span helpers that only the tests use.

The parametric systems (chained forms at any size, the double integrator
pair, the equal-chain template, disguised generated instances), the
feedback and span helpers, the symbolic h-method pairing, the symbolic
annihilated distribution, closure and involutivity tests and the flag
steps on every pair of a basis serve as known inputs and oracles,
:func:`instance_digest` fingerprints an instance's outputs, and
:func:`counting` counts calls into the package and
:func:`magnitude` is the per-point scale reference of the zero tests; the
bundled systems themselves are loaded from ``src/triflat/corpus/*.sys``
(see ``conftest.py``).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from triflat.cli import _analyze
from triflat.diffgeo import (
    _spanned,
    ad_iter,
    annihilator,
    basis,
    bracket_values,
    cauchy_characteristics,
    contains_generic,
    derived_step,
    differential,
    generic_rank,
    lie_bracket,
    pruned,
)
from triflat.direction_search import _normalized_candidate, compute_bracket_chain, h_distribution
from triflat.errors import EvalError, TriflatError
from triflat.expr import (
    ONE, ZERO, Add, Call, Mul, Pow, Rat, Sym, add, derivative, evaluate, free_symbols, mul, neg,
    sub, substitute, to_str,
)
from triflat.elimination import clear_denominators, nullspace
from triflat.fields import Codistribution, Distribution, OneForm, VectorField, coordinate_field
from triflat.flatout import flat_output_for_report
from triflat.generator import TemplateInstance, _random_poly
from triflat.parser import parse_expr as pe
from triflat.sampling import MatrixSampler, Sampler, all_zero_generic, is_zero_generic, ranks
from triflat.sampling import _svd_ranks
from triflat.simplify import differentiate, simplify
from triflat.systems import AffineSystem, vector_field
from triflat.transform import transform_to_triangular


def chained_form(n: int) -> AffineSystem:
    """Driftless chained form on n states."""
    frame = tuple(f"x{i}" for i in range(1, n + 1))
    b1 = vector_field(frame, {f"x{n}": pe("1")})
    parts = {"x1": pe("1")}
    for i in range(2, n):
        parts[f"x{i}"] = Sym(f"x{i + 1}")
    b2 = vector_field(frame, parts)
    drift = vector_field(frame, {})
    return AffineSystem(frame, drift, b1, b2, ("u1", "u2"), name=f"chained{n}")


def extended_chained(n: int, drift_terms=None) -> AffineSystem:
    """Drift-augmented chained form; drift_terms maps i -> Expr for dx_i.

    The default drift a_i = x1 * x_{i+1} (i = 2..n-1) respects the required
    triangular dependence.
    """
    sysd = chained_form(n)
    frame = sysd.frame
    if drift_terms is None:
        drift_terms = {i: mul(Sym("x1"), Sym(f"x{i + 1}")) for i in range(2, n)}
    drift = vector_field(frame, {f"x{i}": e for i, e in drift_terms.items()})
    return AffineSystem(
        frame, drift, sysd.b1, sysd.b2, ("u1", "u2"), name=f"extchained{n}"
    )


def double_integrator_pair() -> AffineSystem:
    """Two decoupled double integrators; static feedback linearizable."""
    frame = ("x1", "x2", "x3", "x4")
    drift = vector_field(frame, {"x1": Sym("x2"), "x3": Sym("x4")})
    b1 = vector_field(frame, {"x2": pe("1")})
    b2 = vector_field(frame, {"x4": pe("1")})
    return AffineSystem(frame, drift, b1, b2, ("u1", "u2"), name="double-integrators")


def equal_chain_template(n2: int, n3: int, seed: int = 0) -> TemplateInstance:
    """Variant with equally long input-side chains and no g-coupling.

    This is the prior normal form the equal-length check recognizes; built
    from the standard template by one extra integrator on the short chain
    and g = 0, i.e. both terminal inputs sit at depth n3.
    """
    if n3 < 1 or n2 < 3:
        raise ValueError("n3 >= 1 and n2 >= 3 required")
    rng = random.Random(seed)
    core = [f"y{i}" for i in range(1, n2 + 1)]
    long3 = [f"z1_{j}" for j in range(1, n3 + 1)]
    short3 = [f"z2_{j}" for j in range(1, n3 + 1)]
    frame = tuple(core + long3 + short3)
    drift_parts = {core[0]: Sym(short3[0])}
    for i in range(2, n2):
        a_i = _random_poly(rng, core[: i + 1]) if rng.random() < 0.8 else ZERO
        drift_parts[core[i - 1]] = add(mul(Sym(core[i]), Sym(short3[0])), a_i)
    drift_parts[core[-1]] = Sym(long3[0])
    for chain in (long3, short3):
        for j, s in enumerate(chain[:-1]):
            drift_parts[s] = Sym(chain[j + 1])
    system = AffineSystem(
        frame=frame,
        drift=vector_field(frame, drift_parts),
        b1=vector_field(frame, {long3[-1]: add(1)}),
        b2=vector_field(frame, {short3[-1]: add(1)}),
        input_syms=("u1", "u2"),
        name=f"equal-template(n2={n2},n3={n3},seed={seed})",
    )
    return TemplateInstance(system=system, dims=(0, 0, n2, n3), long_input_index=0)


def criterion5_combos():
    """The template dimensions of acceptance criterion 5, in its order."""
    rng = random.Random(31)
    combos = []
    while len(combos) < 10:
        combo = tuple(rng.choice(c) for c in ([0, 1, 2], [0, 1, 2], [3, 4, 5], [1, 2, 3]))
        if not (combo[2] == 3 and combo[0] == 0 and combo[1] == 0):
            combos.append(combo)
    return combos


# the three slow instances of the benchmark's generated workload
TAILS = [((1, 2, 5, 1), 11), ((0, 2, 4, 3), 19), ((0, 2, 5, 3), 12)]


def generated_instances():
    """(combo, seed) of the criterion-5 instances, then the tails."""
    return [*((c, i) for i, c in enumerate(criterion5_combos())), *TAILS]


def feedback_transform(sys: AffineSystem, beta, gamma, sp: Sampler = None) -> AffineSystem:
    """Invertible static feedback given directly by the field recombination.

    New input fields are beta[i][0]*b1 + beta[i][1]*b2 and the new drift is
    a + gamma[0]*b1 + gamma[1]*b2; det(beta) must be generically nonzero.
    """
    det = simplify(sub(mul(beta[0][0], beta[1][1]), mul(beta[0][1], beta[1][0])))
    if det == ZERO:
        raise TriflatError("feedback matrix is singular")
    if sp is not None and is_zero_generic(det, sp):
        raise TriflatError("feedback matrix is generically singular")

    def combo(c1, c2):
        return VectorField(
            sys.frame,
            tuple(
                simplify(add(mul(c1, a), mul(c2, b)))
                for a, b in zip(sys.b1.components, sys.b2.components)
            ),
        )

    drift = VectorField(
        sys.frame,
        tuple(
            simplify(add(a, mul(gamma[0], p), mul(gamma[1], q)))
            for a, p, q in zip(
                sys.drift.components, sys.b1.components, sys.b2.components
            )
        ),
    )
    return replace(
        sys,
        drift=drift,
        b1=combo(beta[0][0], beta[0][1]),
        b2=combo(beta[1][0], beta[1][1]),
        name=f"{sys.name}+feedback",
    )


# constant unimodular feedback matrices the disguise draws from
UNIMODULAR = (((1, 1), (0, 1)), ((1, 0), (-1, 1)), ((2, 1), (1, 1)), ((0, 1), (1, 0)))


def disguise(sys: AffineSystem, k: int, seed: int = 0):
    """sys in other coordinates and under another static feedback.

    k rows x_i, chosen at random, move by x_i -> x_i + p_i(x_{>i}) with a
    random nonzero polynomial p_i of the later coordinates; the new
    coordinates keep the old names.  The fields are pushed through this
    triangular automorphism, whose inverse is exact by back substitution,
    and then recombined by a constant unimodular beta and a polynomial
    gamma (:func:`feedback_transform`).  Returns the disguised system and
    the inverse map, old name -> expression in the new coordinates, which
    pulls functions of the old coordinates back (a known phi1, say).
    """
    rng = random.Random(seed)
    frame = sys.frame
    n = len(frame)
    moved = {}
    for i in sorted(rng.sample(range(n - 1), k)):
        p = ZERO
        while p == ZERO:
            p = simplify(_random_poly(rng, list(frame[i + 1:])))
        moved[frame[i]] = p
    forward = {x: add(Sym(x), moved[x]) if x in moved else Sym(x) for x in frame}
    inverse = {}
    for x in reversed(frame):
        inverse[x] = simplify(sub(Sym(x), substitute(moved[x], inverse))) if x in moved else Sym(x)

    def push(field: VectorField) -> VectorField:
        return VectorField(frame, tuple(
            simplify(substitute(simplify(add(*(
                mul(differentiate(forward[y], x), c) for x, c in zip(frame, field.components)
            ))), inverse))
            for y in frame
        ))

    moved_sys = replace(sys, drift=push(sys.drift), b1=push(sys.b1), b2=push(sys.b2))
    beta = [[Rat(c) for c in row] for row in rng.choice(UNIMODULAR)]
    gamma = [simplify(_random_poly(rng, list(frame))) for _ in range(2)]
    out = feedback_transform(moved_sys, beta, gamma)
    return replace(out, name=f"{sys.name}+disguise(k={k},seed={seed})"), inverse


# --- byte identity of instance outputs -------------------------------------------

INSTANCE_DIGESTS = Path(__file__).parent / "data" / "instance_digests.json"


def instance_key(combo, seed, k=None) -> str:
    """The digest table's key: a generated instance, or disguised on k rows."""
    name = f"{'-'.join(map(str, combo))} seed{seed}"
    return f"generated {name}" if k is None else f"disguised {name} k{k}"


def instance_outputs(system: AffineSystem, phi1, sp: Sampler):
    """(report, flat output, transform) of the best candidate; phi1 is passed
    on in the NoX1 case only."""
    rep = _analyze(system, sp)[3][0]
    flat = flat_output_for_report(rep, sp, phi1=phi1 if rep.case == "NoX1" else None)
    return rep, flat, transform_to_triangular(system, rep, flat, sp)


def instance_digest(rep, flat, res) -> str:
    """sha256 of the verdict, case, dims, flat output and its provenance, the
    composed state and input maps and every stage log, in report order."""
    out = {
        "verdict": rep.verdict,
        "case": rep.case,
        "dims": rep.dims,
        "phi1": to_str(flat.phi1),
        "phi2": to_str(flat.phi2),
        "provenance": list(flat.provenance),
        "state_map": {x: to_str(e) for x, e in res.change.state_map.items()},
        "input_map": {u: to_str(e) for u, e in res.change.input_map.items()},
        "logs": [[name, list(stage.log)] for name, stage in res.stages],
    }
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def recorded_instance_digests() -> dict:
    return json.loads(INSTANCE_DIGESTS.read_text(encoding="utf-8"))


def involutive_closure(D: Distribution, sp: Sampler) -> Distribution:
    """The derived flag of D followed until its rank stops growing."""
    out = pruned(D, sp)
    r = generic_rank(out, sp)
    for _ in range(len(D.frame) + 1):
        nxt = derived_step(out, sp)
        rn = generic_rank(nxt, sp)
        if rn == r:
            return out
        out, r = nxt, rn
    return out


def annihilated_distribution(W: Codistribution, sp: Sampler) -> Distribution:
    """Vector fields annihilated by all forms of the codistribution, solved
    symbolically; W's kernel when it has one."""
    if W.kernel is not None:
        return W.kernel
    frame = W.frame
    if not W.forms:
        return Distribution(frame, [coordinate_field(frame, x) for x in frame])
    vecs = nullspace([list(w.coefficients) for w in W.forms], sp)
    return Distribution(frame, [VectorField(frame, tuple(clear_denominators(v))) for v in vecs])


def is_closed(w: OneForm, sp: Sampler) -> bool:
    """Whether dw = 0, from the normalized symbolic curl residuals."""
    residuals = [
        sub(differentiate(cj, xi), differentiate(ci, xj))
        for (xi, ci), (xj, cj) in itertools.combinations(zip(w.frame, w.coefficients), 2)
    ]
    return all_zero_generic(residuals, sp, extra_syms=w.frame)


def is_involutive_symbolic(D: Distribution, sp: Sampler) -> bool:
    """Involutivity from symbolic brackets: each pairwise lie_bracket of D's
    generic basis must lie in its span (the rule before brackets were
    sampled)."""
    b = basis(D, sp)
    brackets = [lie_bracket(v, w) for v, w in itertools.combinations(b, 2)]
    return all(contains_generic(Distribution(D.frame, b), br, sp) for br in brackets)


def derived_step_all_pairs(D: Distribution, sp: Sampler) -> Distribution:
    """D + [D, D] from every pair of D's generic basis, pruned: the member
    ``derived_step`` must build with the pairs it skips."""
    b = basis(D, sp)
    brackets = [lie_bracket(v, w) for v, w in itertools.combinations(b, 2)]
    return pruned(Distribution(D.frame, b + brackets), sp)


def drift_step_all_fields(D: Distribution, a: VectorField, sp: Sampler) -> Distribution:
    """D + [a, D] from every field of D's generic basis, pruned."""
    b = basis(D, sp)
    return pruned(Distribution(D.frame, b + [lie_bracket(a, f) for f in b]), sp)


def h_distribution_all_pairs(chain, sp: Sampler) -> Distribution:
    """H = D_{depth+1} + [D_depth, D_{depth+1}] from every pair of the two
    generic bases, pruned."""
    low, top = chain.d(chain.depth), chain.top
    brackets = [lie_bracket(v, w) for v in basis(low, sp) for w in basis(top, sp)]
    return pruned(Distribution(top.frame, list(top.fields) + brackets), sp)


def is_involutive_all_pairs(D: Distribution, sp: Sampler) -> bool:
    """The sampled involutivity test on every pair of D's generic basis."""
    b = basis(D, sp)
    pairs = list(itertools.combinations(range(len(b)), 2))
    return not pairs or _spanned(*bracket_values(D.frame, b, pairs, sp)[:2], sp.tol)


def contains_distribution(inner: Distribution, outer: Distribution, sp: Sampler) -> bool:
    """Whether every field of inner lies in the span of outer, generically."""
    if not inner.fields:
        return True
    if not outer.fields:
        return False
    rows = outer.matrix_rows()
    return all(in_span_per_row(rows, row, outer.frame, sp) for row in inner.matrix_rows())


def in_span_per_row(rows, row, frame, sp: Sampler) -> bool:
    """Whether row lies in the row span of rows, one row at a time: the
    sampled [rows; row] is cut to the points of its maximal rank, and there
    the base rows must reach that rank wherever they attain their own
    maximal rank."""
    _points, stack = MatrixSampler(rows + [row], frame, sp).stack()
    full = ranks(stack, sp.tol)
    stack = stack[full == full.max()]
    base = ranks(stack[:, : len(rows)], sp.tol)
    top = base.max()
    return bool((ranks(stack[base == top], sp.tol) == top).all())


def greedy_basis_rows(stack, top, tol) -> list:
    """Indices, ascending, of the generic basis rows of a scaled (K, m, n)
    stack of rank top at every point, one SVD per candidate row: at each
    level need = K, K - 1, ... down to just over K / 2, every row in order
    that with the kept ones has full rank at need or more points is kept
    (the selection before ``diffgeo.basis_rows`` kept full-rank runs at
    once)."""
    kept = []
    for need in range(len(stack), len(stack) // 2, -1):
        for i in range(stack.shape[1]):
            if len(kept) == top:
                break
            idx = kept + [i]
            if i not in kept and need <= np.count_nonzero(
                    _svd_ranks(stack[:, idx, :], tol) == len(idx)):
                kept.append(i)
    return sorted(kept)


def dense_bracket_values(frame, fields, pairs, sp: Sampler, extra_rows=()):
    """``diffgeo.bracket_values`` from every first partial, zero or not, each
    sampled as an entry of the field's n x n Jacobian rows (the formula
    before only nonzero partials were sampled)."""
    m, n = len(fields), len(frame)
    rows = [list(f.components) for f in fields]
    for f in fields:
        rows += [[derivative(c, x) if x in free_symbols(c) else ZERO for x in frame]
                 for c in f.components]
    _points, stack = MatrixSampler(rows + list(extra_rows), frame, sp).stack()
    F = stack[:, :m]
    J = stack[:, m : m + m * n].reshape(len(stack), m, n, n)
    JF = np.einsum("kaij,kbj->kabi", J, F)
    v = [i for i, _j in pairs]
    w = [j for _i, j in pairs]
    return F, JF[:, w, v] - JF[:, v, w], stack[:, m + m * n :]


def span_equal(D1: Distribution, D2: Distribution, sp: Sampler) -> bool:
    return contains_distribution(D1, D2, sp) and contains_distribution(D2, D1, sp)


def cauchy_flags(report, sp: Sampler):
    """The Cauchy characteristics of the flag levels 1 .. n2-3, the interior
    rungs of the transform's ladder, solved symbolically: the fields whose
    annihilators the ladder integrated before its levels were decided from
    sampled values."""
    return [cauchy_characteristics(report.delta1_flags[i], sp) for i in range(1, report.n2 - 2)]


def annihilates_characteristics_symbolic(report, sp: Sampler, functions):
    """For each function, whether its differential pairs to zero with every
    field of the symbolically solved Cauchy characteristics of the report's
    last non-involutive flag member (the rule the flat output used before it
    was decided pointwise)."""
    C = cauchy_characteristics(report.delta1_flags[report.n2 - 3], sp)
    frame = report.system.frame
    return [
        all(is_zero_generic(simplify(differential(f, frame).pair(c)), sp) for c in basis(C, sp))
        for f in functions
    ]


def pairwise_direction(pairs, sp: Sampler):
    """The h-method's pair choice as a loop over simplified pairwise crosses:
    the first pair collinear with every other one and with c2 nonzero, else
    the first such pair with c1 nonzero; None if there is none."""
    best = None
    for i, (c1, c2) in enumerate(pairs):
        cross_ok = True
        for j, (d1, d2) in enumerate(pairs):
            if j == i:
                continue
            cross = simplify(sub(mul(c1, d2), mul(c2, d1)))
            if not is_zero_generic(cross, sp):
                cross_ok = False
                break
        if cross_ok and not is_zero_generic(c2, sp):
            best = (c1, c2)
            break
        if cross_ok and best is None and not is_zero_generic(c1, sp):
            best = (c1, c2)
    return best


def h_direction_from_forms(system: AffineSystem, sp: Sampler):
    """The h-method's outcome read off every symbolic form of ann(H): the
    alpha strings, or the NotApplicable text.  An iterated bracket lies in H
    when every form pairs it to zero; otherwise each form gives an equation
    c1 a1 + c2 a2 = 0, and :func:`pairwise_direction` picks one."""
    chain = compute_bracket_chain(system, sp)
    w1, w2 = (ad_iter(system.drift, chain.depth + 1, b) for b in (system.b1, system.b2))
    pairs = [(simplify(form.pair(w1)), simplify(form.pair(w2)))
             for form in annihilator(h_distribution(chain, sp), sp).forms]
    in1, in2 = (all(is_zero_generic(p[i], sp) for p in pairs) for i in (0, 1))
    if in1 and in2:
        return ("both iterated brackets lie in H; the containment condition does not "
                "single out a direction")
    if in1 or in2:
        alpha = (ONE, ZERO) if in1 else (ZERO, ONE)
    else:
        best = pairwise_direction(pairs, sp)
        if best is None:
            return "no direction satisfies the containment condition"
        alpha = (best[1], neg(best[0]))
    c = _normalized_candidate(system, *alpha, "h-method")
    return to_str(c.alpha1), to_str(c.alpha2)


@contextlib.contextmanager
def counting(module, name):
    """Count the calls of ``module.name`` through every triflat module that
    binds it; yields the list of their positional arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    bound = [m for n, m in sys.modules.items()
             if n.startswith("triflat") and getattr(m, name, None) is original]
    for m in bound:
        setattr(m, name, counted)
    try:
        yield calls
    finally:
        for m in bound:
            setattr(m, name, original)


def magnitude(e, point) -> float:
    """Evaluation with all cancellations disabled, point by point: the
    oracle of the zero tests' scale reference (``sampling.magnitude_column``)."""
    if isinstance(e, (Rat, Sym)):
        return abs(evaluate(e, point))
    if isinstance(e, Add):
        return sum(magnitude(t, point) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= magnitude(f, point)
        return out
    if isinstance(e, Pow):
        b = magnitude(e.base, point)
        if b == 0.0 and e.exponent < 0:
            raise EvalError("division", "division by zero")
        try:
            return b ** float(e.exponent)
        except OverflowError:
            raise EvalError("domain", "overflow") from None
    if isinstance(e, Call):
        return abs(evaluate(e, point)) + 1.0
    raise TypeError(type(e))


def scale(field: VectorField, factor) -> VectorField:
    """The field times a scalar function (unsimplified)."""
    return VectorField(field.frame, tuple(mul(factor, c) for c in field.components))


def field_sum(*fields: VectorField) -> VectorField:
    """Componentwise sum of fields on one frame (unsimplified)."""
    frame = fields[0].frame
    assert all(f.frame == frame for f in fields)
    return VectorField(frame, tuple(add(*cs) for cs in zip(*(f.components for f in fields))))


def one_form(frame, parts) -> OneForm:
    """One-form from a {coordinate: Expr} mapping; absent coordinates are 0."""
    frame = tuple(frame)
    return OneForm(frame, tuple(parts.get(x, ZERO) for x in frame))


# --- exact ranks over GF(p) ------------------------------------------------------

# A nonzero rational function of degree d vanishes at a uniformly random point
# of GF(p)^n with probability at most d/p (Schwartz 1980, Zippel 1979), so the
# rank over Q(x) of a rational matrix is its rank at a random point mod p,
# except with negligible probability.
P = 2**61 - 1


def eval_mod_p(e, point, memo=None):
    """The rational expression e at a point of GF(P)^n ({name: residue}).

    Raises TypeError on a function call or a fractional power, and
    ValueError at a pole.
    """
    memo = {} if memo is None else memo
    hit = memo.get(e)
    if hit is not None:
        return hit
    if isinstance(e, Rat):
        v = Fraction(e.value)
        out = v.numerator * pow(v.denominator, -1, P) % P
    elif isinstance(e, Sym):
        out = point[e.name]
    elif isinstance(e, Add):
        out = sum(eval_mod_p(t, point, memo) for t in e.terms) % P
    elif isinstance(e, Mul):
        out = 1
        for f in e.factors:
            out = out * eval_mod_p(f, point, memo) % P
    elif isinstance(e, Pow) and Fraction(e.exponent).denominator == 1:
        out = pow(eval_mod_p(e.base, point, memo), int(e.exponent), P)  # ValueError at a pole
    else:
        kind = "function call" if isinstance(e, Call) else "fractional power"
        raise TypeError(f"{kind} has no value mod p: {e}")
    memo[e] = out
    return out


def rank_mod_p(rows) -> int:
    """Rank of a matrix of residues mod P, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, P)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % P
            if f:
                rows[i] = [(a - f * b) % P for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def exact_rank(rows, seed=0) -> int:
    """Generic rank over Q(x) of a matrix of rational expressions, from its
    rank at a random point mod P (one that is not a pole of any entry)."""
    names = sorted(set().union(*(free_symbols(e) for r in rows for e in r)))
    rng = random.Random(seed)
    for _ in range(5):
        point = {n: rng.randrange(P) for n in names}
        memo = {}
        try:
            return rank_mod_p([[eval_mod_p(e, point, memo) for e in r] for r in rows])
        except ValueError:  # a pole
            continue
    raise ValueError("five random points are poles")
