"""Constructive transformation into the triangular normal form.

The pipeline straightens the nested involutive distribution ladder (with the
terminal chains introduced directly through drift derivatives of the flat
output), normalizes the first core equation, introduces the core coupling
functions as states from top to bottom, splits the last core equation, and
finally brings the rear chains into integrator form with a closing static
feedback.  Every step is verified numerically against the original dynamics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .diffgeo import annihilator, characteristic_annihilator, differential, lie_derivative
from .direction_search import check_static_feedback_linearizable
from .elimination import _score
from .errors import EvalError, IntegrationError, PipelineError, SamplerExhausted
from .expr import (
    Add,
    Call,
    Expr,
    Mul,
    ONE,
    Pow,
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
    substitute,
    subterms,
)
from .fields import VectorField
from .flatout import FlatOutput
from .integrate import integrate_codistribution
from .sampling import (
    MatrixSampler,
    Sampler,
    all_zero_generic,
    is_zero_generic,
    point_set,
    ranks,
)
from .simplify import differentiate, simplify
from .systems import AffineSystem, prolong
from .triform import TriangularReport


@dataclass
class CoordinateChange:
    """Composite state/input transformation from the original system."""

    state_map: Dict[str, Expr]  # result state symbol -> expr(original states)
    input_map: Dict[str, Expr]  # result input symbol -> expr(original states+inputs)


@dataclass(frozen=True)
class Stage:
    """One recorded step of the pipeline; steps derive new stages, never
    rewrite a recorded one."""

    sys: AffineSystem
    forward: Dict[str, Expr]
    input_map: Dict[str, Expr]
    blocks: dict
    log: Tuple[str, ...] = ()

    def change(self) -> CoordinateChange:
        return CoordinateChange(dict(self.forward), dict(self.input_map))


@dataclass
class TriangularDecomposition:
    system: AffineSystem
    chains: Tuple[List[str], List[str]]  # terminal chains (may be empty)
    core: List[str]
    rear_long: List[str]
    rear_short: List[str]
    w_symbol: str  # short-chain top state, or the second input
    couplings: dict  # 'a_i' drift terms and 'g' of the last core equation
    structure_ok: bool
    structure_failures: List[str]


@dataclass
class TransformResult:
    stages: List[Tuple[str, Stage]]
    final: TriangularDecomposition
    change: CoordinateChange
    verified: bool


# --- pattern inversion --------------------------------------------------------


def _isolate(f: Expr, x: str, v: Expr) -> Optional[Expr]:
    """Solve f(..., x, ...) = v for x by unwrapping elementary operations."""
    out = _isolate_structural(f, x, v)
    if out is not None:
        return out
    return _isolate_through_kernel(f, x, v)


def _isolate_structural(f: Expr, x: str, v: Expr) -> Optional[Expr]:
    if isinstance(f, Sym):
        return v if f.name == x else None
    d = differentiate(f, x)
    if d != ZERO and x not in free_symbols(d):
        offset = simplify(sub(f, mul(d, Sym(x))))
        if x not in free_symbols(offset):
            return div(sub(v, offset), d)
    if isinstance(f, Add):
        dep = [t for t in f.terms if x in free_symbols(t)]
        if len(dep) != 1:
            return None
        rest = [t for t in f.terms if x not in free_symbols(t)]
        return _isolate(dep[0], x, sub(v, add(*rest) if rest else ZERO))
    if isinstance(f, Mul):
        dep = [g for g in f.factors if x in free_symbols(g)]
        rest = [g for g in f.factors if x not in free_symbols(g)]
        if len(dep) == 1:
            return _isolate(dep[0], x, div(v, mul(*rest) if rest else ONE))
        ratio = _trig_ratio(dep)
        if ratio is not None:
            kind, u = ratio
            target = div(v, mul(*rest) if rest else ONE)
            if kind == "cot":
                target = pow_(target, -1)
            return _isolate(u, x, call("arctan", target))
        return None
    if isinstance(f, Pow):
        if x not in free_symbols(f.base):
            return None
        return _isolate(f.base, x, pow_(v, Fraction(1) / f.exponent))
    if isinstance(f, Call):
        inverse_fn = {
            "sin": "arcsin",
            "tan": "arctan",
            "exp": "log",
            "arcsin": "sin",
            "arctan": "tan",
            "log": "exp",
        }.get(f.fn)
        if inverse_fn is None:
            return None
        return _isolate(f.arg, x, call(inverse_fn, v))
    return None


def _replace_subtree(e: Expr, target: Expr, repl: Expr) -> Expr:
    if e == target:
        return repl
    if isinstance(e, Add):
        return add(*(_replace_subtree(t, target, repl) for t in e.terms))
    if isinstance(e, Mul):
        return mul(*(_replace_subtree(g, target, repl) for g in e.factors))
    if isinstance(e, Pow):
        return pow_(_replace_subtree(e.base, target, repl), e.exponent)
    if isinstance(e, Call):
        return call(e.fn, _replace_subtree(e.arg, target, repl))
    return e


def _isolate_through_kernel(f: Expr, x: str, v: Expr) -> Optional[Expr]:
    """When every occurrence of x sits inside one repeated kernel, solve the
    rational outer problem first and then invert the kernel."""
    kernels = dict.fromkeys(
        e for e in subterms(f)
        if (isinstance(e, Call) or (isinstance(e, Pow) and e.exponent.denominator > 1))
        and x in free_symbols(e))
    placeholder = Sym("_ker")
    for K in kernels:
        outer = simplify(_replace_subtree(f, K, placeholder))
        if x in free_symbols(outer) or "_ker" not in free_symbols(outer):
            continue
        k_value = _isolate_structural(outer, "_ker", v)
        if k_value is None:
            continue
        return _isolate_structural(K, x, k_value)
    return None


def _trig_ratio(dep_factors):
    """Recognize {sin(u)^±1, cos(u)^∓1} pairs: tan or cot of a common u."""
    if len(dep_factors) != 2:
        return None

    def classify(g):
        if isinstance(g, Call) and g.fn in ("sin", "cos"):
            return g.fn, g.arg, 1
        if (
            isinstance(g, Pow)
            and g.exponent == -1
            and isinstance(g.base, Call)
            and g.base.fn in ("sin", "cos")
        ):
            return g.base.fn, g.base.arg, -1
        return None

    c1 = classify(dep_factors[0])
    c2 = classify(dep_factors[1])
    if c1 is None or c2 is None:
        return None
    (f1, u1, e1), (f2, u2, e2) = c1, c2
    if u1 != u2 or {f1, f2} != {"sin", "cos"} or e1 * e2 != -1:
        return None
    sin_exp = e1 if f1 == "sin" else e2
    return ("tan" if sin_exp == 1 else "cot"), u1


def solve_map(old_syms: Sequence[str], defs: Sequence[Tuple[str, Expr]]):
    """Invert new = F(old) by successive single-unknown isolation.

    Returns old symbol -> expr(new symbols), or None when some equation is
    only implicitly invertible over the pattern set.
    """
    unsolved = set(old_syms)
    solved: Dict[str, Expr] = {}
    pending = [(new, f) for new, f in defs]
    progress = True
    while unsolved and progress:
        progress = False
        for new, f in pending:
            f_sub = simplify(substitute(f, solved)) if solved else f
            deps = free_symbols(f_sub) & unsolved
            if len(deps) != 1:
                continue
            x = next(iter(deps))
            sol = _isolate(f_sub, x, Sym(new))
            if sol is None:
                continue
            solved[x] = simplify(sol)
            unsolved.discard(x)
            progress = True
    if unsolved:
        return None
    return solved


# --- stage machinery ------------------------------------------------------------


def initial_stage(sys: AffineSystem, blocks=None) -> Stage:
    return Stage(
        sys=sys,
        forward={x: Sym(x) for x in sys.frame},
        input_map={u: Sym(u) for u in sys.input_syms},
        blocks=blocks or {},
    )


def apply_state_change(stage: Stage, defs: Sequence[Tuple[str, Expr]], sp: Sampler,
                       note="") -> Stage:
    """Apply a full coordinate change given as new symbol -> expr(current)."""
    sysm = stage.sys
    old_frame = sysm.frame
    new_frame = tuple(new for new, _f in defs)
    inverse = solve_map(old_frame, defs)
    if inverse is None:
        raise PipelineError(
            f"coordinate change is not invertible over the pattern set ({note})"
        )
    _check_step_inverse(stage, defs, inverse, sp, note)
    jac = [
        [differentiate(f, x) for x in old_frame]
        for _new, f in defs
    ]

    def push(fieldv: VectorField) -> VectorField:
        comps = []
        for i in range(len(new_frame)):
            term = add(
                *(mul(jac[i][j], fieldv.components[j]) for j in range(len(old_frame)))
            )
            comps.append(simplify(substitute(simplify(term), inverse)))
        return VectorField(new_frame, tuple(comps))

    new_sys = replace(sysm, frame=new_frame, drift=push(sysm.drift), b1=push(sysm.b1),
                      b2=push(sysm.b2))
    forward = {
        new: simplify(substitute(f, stage.forward)) for new, f in defs
    }
    return replace(stage, sys=new_sys, forward=forward,
                   log=(*stage.log, note) if note else stage.log)


def apply_input_change(stage: Stage, g, M, new_names, sp: Sampler, note="") -> Stage:
    """New inputs v = g(x) + M(x) u; fields and drift follow u = M^-1 (v - g)."""
    sysm = stage.sys
    det = simplify(sub(mul(M[0][0], M[1][1]), mul(M[0][1], M[1][0])))
    if is_zero_generic(det, _image(stage, sp)):
        raise PipelineError(f"input transformation is generically singular ({note})")
    minv = [
        [simplify(div(M[1][1], det)), simplify(neg(div(M[0][1], det)))],
        [simplify(neg(div(M[1][0], det))), simplify(div(M[0][0], det))],
    ]
    b = (sysm.b1, sysm.b2)

    def combo(c1, c2):
        return VectorField(
            sysm.frame,
            tuple(
                simplify(add(mul(c1, p), mul(c2, q)))
                for p, q in zip(b[0].components, b[1].components)
            ),
        )

    new_b = [combo(minv[0][j], minv[1][j]) for j in (0, 1)]
    mg = [
        simplify(add(mul(minv[k][0], g[0]), mul(minv[k][1], g[1]))) for k in (0, 1)
    ]
    drift = VectorField(
        sysm.frame,
        tuple(
            simplify(sub(a, add(mul(p, mg[0]), mul(q, mg[1]))))
            for a, p, q in zip(
                sysm.drift.components, b[0].components, b[1].components
            )
        ),
    )
    subs_map = dict(stage.forward)
    subs_map.update(stage.input_map)
    new_input_map = {}
    for name, gi, row in zip(new_names, g, M):
        expr = add(
            gi,
            mul(row[0], Sym(sysm.input_syms[0])),
            mul(row[1], Sym(sysm.input_syms[1])),
        )
        new_input_map[name] = simplify(substitute(expr, subs_map))
    new_sys = replace(sysm, drift=drift, b1=new_b[0], b2=new_b[1], input_syms=tuple(new_names))
    return replace(stage, sys=new_sys, input_map=new_input_map,
                   log=(*stage.log, note) if note else stage.log)


def _check_step_inverse(stage: Stage, defs, inverse, sp: Sampler, note=""):
    """The step's inverse undoes the step at the first 20 image points of the
    stage, read as ``inverse[x]`` with the step substituted.

    Where this holds at every stage, the composed maps round trip at the
    original points, and DG.DF = I makes the forward map a local
    diffeomorphism there.  At least half of the points must evaluate both
    the step and its inverse.
    """
    frame = stage.sys.frame
    exprs = [*(substitute(inverse[x], dict(defs)) for x in frame), *(f for _new, f in defs)]
    ps = point_set(_image(stage, sp), ())
    seen = 0
    for k, vals in enumerate(ps.scan(exprs, range(20))):
        if any(isinstance(v, EvalError) for v in vals):
            continue
        pt = ps.point(k)
        for x, v in zip(frame, vals):
            if not abs(v - pt[x]) <= 1e-8 * (1 + abs(pt[x])):
                raise PipelineError(
                    f"inverse map fails to reproduce {x} at a sample point ({note})"
                )
        seen += 1
    if seen < 10:
        raise PipelineError(f"cannot sample the coordinate change ({note})")


def _original_of(stage: Stage) -> AffineSystem:
    return stage.blocks["original"]


# --- numeric verification -------------------------------------------------------


def verify_transformation(
    original: AffineSystem,
    change: CoordinateChange,
    result: AffineSystem,
    sp: Sampler,
    tol: float = 1e-7,
) -> bool:
    """Pushforward consistency at sampled states and inputs, and a state map
    of full rank.

    The time derivative of the forward map along the original dynamics must
    match the transformed dynamics at the mapped point, at 20 of the first
    max_resamples + 20 base points, read as one image stream that carries the
    original side under names no expression can hold; nan is a mismatch.  The
    state map's n x n Jacobian must have rank n at each of the first samples
    base points where it is admissible: its generic stack
    (:meth:`MatrixSampler.generic`), which the point set keeps, holds them all.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"the verification tolerance must be finite and positive, got {tol}")
    frame = original.frame
    fkeys = [(f"drift {x}", f"b1 {x}", f"b2 {x}") for x in frame]
    jkeys = [[f"d{new} / d{x}" for x in frame] for new in result.frame]
    ukeys = [f"input {u}" for u in original.input_syms]
    comps = zip(original.drift.components, original.b1.components, original.b2.components)
    maps = [(v, change.input_map[v]) for v in result.input_syms]
    maps += [(new, change.state_map[new]) for new in result.frame]
    maps += [(p, Sym(p)) for p in original.params]
    maps += [pair for keys, cs in zip(fkeys, comps) for pair in zip(keys, cs)]
    jacobian = [[differentiate(change.state_map[new], x) for x in frame] for new in result.frame]
    maps += [pair for keys, row in zip(jkeys, jacobian) for pair in zip(keys, row)]
    maps += zip(ukeys, map(Sym, original.input_syms))
    base = {*frame, *original.input_syms, *original.params}
    img = _mapped(sp, base, maps)
    ps = point_set(replace(img, base_points=sp.max_resamples + 20), ())
    rows = zip(result.drift.components, result.b1.components, result.b2.components)
    exprs = [e for row in rows for e in row]
    checked = k = 0
    try:
        while True:  # blocks of as many points as are still wanted
            for vals in ps.scan(exprs, range(k, k + 20 - checked)):
                pt = ps.point(k)
                k += 1
                u1, u2 = (pt[key] for key in ukeys)
                xdot = [pt[a] + pt[b] * u1 + pt[c] * u2 for a, b, c in fkeys]
                v1, v2 = (pt[v] for v in result.input_syms)
                for i, row in enumerate(jkeys):
                    dr, b1, b2 = vals[3 * i:3 * i + 3]
                    if EvalError in map(type, (dr, b1, b2)):
                        break
                    lhs = sum(pt[key] * xdot[j] for j, key in enumerate(row))
                    rhs = dr + b1 * v1 + b2 * v2
                    if not abs(lhs - rhs) <= tol * (1.0 + abs(lhs) + abs(rhs)):
                        return False
                else:
                    checked += 1
                    if checked == 20:
                        stack, top = MatrixSampler(jacobian, base, sp).generic()
                        return top == len(frame) == len(jacobian) and len(stack) == sp.samples
    except SamplerExhausted:
        pass
    raise PipelineError("verification could not sample admissible points")


def _stage_verified(stage: Stage, sp: Sampler) -> bool:
    return verify_transformation(_original_of(stage), stage.change(), stage.sys, sp)


@dataclass(frozen=True)
class _Image(Sampler):
    """The base sampler's points mapped by named expressions.

    Structural identities are only claimed on the image of the original
    sampling box, so every test of a stage samples the image under the
    stage's forward and input maps (:func:`_image`), and every check of a
    printed map reads an image too.  Point i is the image of the i-th base
    point at which every map evaluates.  The stream ends after ``base_points``
    base points if set, or once more than ``max_resamples`` have failed; a
    read past its end raises SamplerExhausted.  The maps are evaluated a
    block of base points at a time, as many as a map check reads.
    """

    base: Sampler = None
    base_syms: tuple = ()
    maps: tuple = ()  # (name, expression in the base symbols) pairs
    base_points: Optional[int] = None

    def stream_key(self, names):
        return (self.base.stream_key(self.base_syms), self.maps, self.max_resamples,
                self.base_points)

    def point_stream(self, syms):
        ps = point_set(self.base, self.base_syms)
        names, exprs = zip(*self.maps)
        block, stop = max(self.samples, 20), self.base_points
        failed = 0
        for start in itertools.count(0, block):
            end = start + block if stop is None else min(start + block, stop)
            for vals in ps.scan(exprs, range(start, end)):
                if EvalError not in map(type, vals):
                    yield dict(zip(names, vals))
                    continue
                failed += 1
                if failed > self.max_resamples:
                    return
            if end == stop:
                return


def _mapped(sp: Sampler, syms, maps) -> _Image:
    """sp's points for syms, mapped by the (name, expression) pairs."""
    return _Image(**{f.name: getattr(sp, f.name) for f in fields(Sampler)}, base=sp,
                  base_syms=tuple(sorted(set(syms))), maps=tuple(maps))


def _image(stage: Stage, sp: Sampler) -> _Image:
    """The sampler of the stage's frame on the image of sp's points."""
    orig = _original_of(stage)
    maps = {**stage.forward, **stage.input_map, **{p: Sym(p) for p in orig.params}}
    return _mapped(sp, {*orig.frame, *orig.input_syms, *orig.params}, maps.items())


def _depends_at(e: Expr, x: str, img: Sampler) -> bool:
    return not is_zero_generic(differentiate(e, x), img)


# --- step 1-3: ladder coordinates ------------------------------------------------


def _ladder_levels(report: TriangularReport, sp: Sampler):
    """Annihilators of the nested involutive distributions below the drift-
    extension members, outermost (largest) first, each built when reached;
    terminal-chain levels are covered by the drift derivatives of the flat
    output and are not integrated."""
    yield "closure", annihilator(report.closure, sp)
    for i in range(report.n2 - 3, 0, -1):
        yield f"cauchy{i}", characteristic_annihilator(report.delta1_flags[i], sp)
    yield "delta0", annihilator(report.delta0, sp)
    for k in range(report.chain.depth - 1, 0, -1):
        yield f"d{k}", annihilator(report.chain.d(k), sp)


def _completion_coordinates(found_funcs, frame, sp, count):
    """Original coordinates completing the map, by maximal numeric pivots."""
    rows = [list(differential(f, frame).coefficients) for f in found_funcs]
    if rows:
        _points, stack = MatrixSampler(rows, frame, sp).stack()
    else:
        stack = np.zeros((1, 0, len(frame)))
    chosen = []
    for _ in range(count):
        best = None
        for x in frame:
            if x in chosen:
                continue
            unit = np.zeros((len(chosen) + 1, len(frame)))
            for r, name in enumerate(chosen + [x]):
                unit[r, frame.index(name)] = 1.0
            units = np.broadcast_to(unit, (len(stack),) + unit.shape)
            full = np.concatenate([stack, units], axis=1)
            if not (ranks(full, sp.tol) == full.shape[1]).all():
                continue
            score = float(np.linalg.svd(full, compute_uv=False)[:, -1].min())
            if best is None or score > best[0]:
                best = (score, x)
        if best is None:
            raise PipelineError("no coordinate completion found")
        chosen.append(best[1])
    return chosen


def build_ladder_change(
    report: TriangularReport, flat: FlatOutput, sp: Sampler, hints=()
) -> List[Tuple[str, Expr]]:
    """Coordinate functions straightening the whole ladder at once.

    Terminal chains come from drift derivatives of the flat output, the core
    tops are the chain feeds, and the interior coordinates are integrals of
    the successive level annihilators.  The form does not fix which feed
    becomes q1: the second does only when its equation alone already reads
    q1' = w (:func:`_reads_w`).  The chain feeding q1 is p1.
    """
    sysm = report.system
    a = sysm.drift
    frame = sysm.frame
    defs: List[Tuple[str, Expr]] = []
    knowns: List[Expr] = []

    chains = list(zip((flat.phi1, flat.phi2), report.chain_lengths))
    feeds = [simplify(f) for f in flat.feeds]
    if _reads_w(sysm, feeds[1]) and not _reads_w(sysm, feeds[0]):
        chains.reverse()
        feeds.reverse()
    for j, (phi, length) in enumerate(chains, start=1):
        cur = phi
        for k in range(1, length + 1):
            defs.append((f"p{j}_{k}", simplify(cur)))
            knowns.append(simplify(cur))
            cur = lie_derivative(a, cur)
    q_names = [f"q{i}" for i in range(1, report.n2 + 1)]
    defs.append((q_names[0], feeds[0]))
    defs.append((q_names[1], feeds[1]))
    knowns += feeds
    next_q = 2  # index into q_names
    rear_names = [f"r{i}" for i in range(1, 2 * report.chain.depth)]
    next_r = 0

    preferred = _call_argument_coordinates(sysm)
    for label, ann in _ladder_levels(report, sp):
        try:
            integrals = integrate_codistribution(
                ann, sp, hints=hints, knowns=knowns,
                extra_candidates=sysm.call_arguments(),
                preferred_coordinates=preferred,
            )
        except IntegrationError as err:
            raise PipelineError(
                f"straightening stalled at level {label}: {err}; supply a hint "
                f"function whose differential lies in {ann}"
            ) from err
        for fi in integrals:
            if fi.expr in knowns:
                continue
            knowns.append(fi.expr)
            if next_q < report.n2:
                defs.append((q_names[next_q], fi.expr))
                next_q += 1
            elif next_r < len(rear_names):
                defs.append((rear_names[next_r], fi.expr))
                next_r += 1
            else:
                raise PipelineError(f"too many integrals at level {label}")
    if next_q != report.n2:
        raise PipelineError("core block coordinates incomplete after straightening")
    remaining = 2 * report.chain.depth - 1 - next_r
    for x in _completion_coordinates(knowns, frame, sp, remaining):
        defs.append((rear_names[next_r], Sym(x)))
        knowns.append(Sym(x))
        next_r += 1
    return defs


def _reads_w(sysm: AffineSystem, f: Expr) -> bool:
    """Whether f' is a bare state or input symbol, that is, whether the full
    right-hand side L_a f + (L_b1 f) u1 + (L_b2 f) u2 normalizes to one.  It
    reads symbols only, never sampled values, so it does not follow the seed."""
    rhs = simplify(add(lie_derivative(sysm.drift, f),
                       *(mul(lie_derivative(b, f), Sym(u))
                         for b, u in zip((sysm.b1, sysm.b2), sysm.input_syms))))
    return isinstance(rhs, Sym) and rhs.name in (*sysm.frame, *sysm.input_syms)


def _call_argument_coordinates(sysm: AffineSystem):
    """State symbols appearing inside elementary functions of the dynamics.

    Keeping these as coordinates makes the introduced states compositions of
    invertible elementary patterns instead of algebraic root expressions.
    """
    calls = [e for f in (sysm.drift, sysm.b1, sysm.b2) for c in f.components
             for e in subterms(c) if isinstance(e, Call)]
    return list(dict.fromkeys(x for e in calls for x in sysm.frame if x in free_symbols(e.arg)))


def decompose(sys_original: AffineSystem, report: TriangularReport,
              flat: FlatOutput, sp: Sampler, hints=()) -> Stage:
    """Steps 1-3: straighten the ladder and verify the block structure."""
    defs = build_ladder_change(report, flat, sp, hints)
    blocks = {
        "original": sys_original,
        "p1": [n for n, _ in defs if n.startswith("p1_")],
        "p2": [n for n, _ in defs if n.startswith("p2_")],
        "q": [n for n, _ in defs if n.startswith("q")],
        "rear": [n for n, _ in defs if n.startswith("r")],
    }
    stage0 = initial_stage(sys_original, blocks)
    stage = apply_state_change(stage0, defs, sp, note="straighten ladder")
    _verify_block_structure(stage, report, sp)
    if not _stage_verified(stage, sp):
        raise PipelineError("straightening stage fails numeric verification")
    return stage


def _rhs_of(stage: Stage, sym: str):
    sysm = stage.sys
    i = sysm.frame.index(sym)
    return (
        sysm.drift.components[i],
        sysm.b1.components[i],
        sysm.b2.components[i],
    )


def _full_rhs(stage: Stage, sym: str) -> Expr:
    """The whole right-hand side drift + b1*u1 + b2*u2 of sym's equation."""
    dr, b1c, b2c = _rhs_of(stage, sym)
    u1, u2 = stage.sys.input_syms
    return add(dr, mul(b1c, Sym(u1)), mul(b2c, Sym(u2)))


def _verify_block_structure(stage: Stage, report, sp: Sampler):
    """Prop-style block checks: dependencies and input-block ranks.

    All identities are tested on image points of the original domain."""
    sysm = stage.sys
    blocks = stage.blocks
    n3 = report.chain.depth
    p_syms = blocks["p1"] + blocks["p2"]
    q_syms = blocks["q"]
    r_syms = blocks["rear"]
    img = _image(stage, sp)

    failures = []
    for s in p_syms:
        dr, b1c, b2c = _rhs_of(stage, s)
        if not all_zero_generic((b1c, b2c), img):
            failures.append(f"terminal row {s} touches the inputs")
        for x in q_syms[3:] + r_syms:
            if not is_zero_generic(differentiate(dr, x), img):
                failures.append(f"terminal row {s} depends on {x}")
    deep = r_syms[3:] if n3 >= 2 else []
    for s in q_syms:
        dr, b1c, b2c = _rhs_of(stage, s)
        if n3 >= 2 and not all_zero_generic((b1c, b2c), img):
            failures.append(f"core row {s} touches the inputs")
        for x in deep:
            if not is_zero_generic(differentiate(dr, x), img):
                failures.append(f"core row {s} depends on deep rear state {x}")
    if failures:
        raise PipelineError("block structure violated: " + "; ".join(failures))

    p_rhs = [_rhs_of(stage, s)[0] for s in p_syms]
    if p_syms:
        rows = [[differentiate(e, x) for x in q_syms[:3]] for e in p_rhs]
        if MatrixSampler(rows, (), img).generic()[1] > 2:
            raise PipelineError("terminal block has more than two effective inputs")
    q_rhs_full = [_full_rhs(stage, s) for s in q_syms]
    if n3 >= 2:
        wrt_all = r_syms[:3]
        wrt_pair = r_syms[1:3]
    else:
        wrt_all = r_syms[:1] + list(sysm.input_syms)
        wrt_pair = list(sysm.input_syms)
    rows_all = [[differentiate(e, x) for x in wrt_all] for e in q_rhs_full]
    rows_pair = [[differentiate(e, x) for x in wrt_pair] for e in q_rhs_full]
    if MatrixSampler(rows_all, (), img).generic()[1] != 2:
        raise PipelineError("core block does not have exactly two effective inputs")
    if MatrixSampler(rows_pair, (), img).generic()[1] != 1:
        raise PipelineError("core block short-direction rank is not one")


# --- steps 4-6 -------------------------------------------------------------------


def _introduce(stage: Stage, sp: Sampler, new: str, rhs: Expr, candidates, note: str,
               missing: str, scored=False, **updates) -> Stage:
    """Make rhs the state new, in place of a candidate coordinate it depends on.

    The replaced coordinate is the first candidate that rhs depends on at the
    stage image, or with ``scored`` the one whose partial derivative scores
    best there; PipelineError(missing) when there is none.  It leaves the rear
    block, or is renamed in the core block, and ``updates`` set further blocks.
    """
    img = _image(stage, sp)
    kept = [x for x in candidates if _depends_at(rhs, x, img)]
    if not kept:
        raise PipelineError(missing)
    target = kept[0]
    if scored:
        ps = point_set(img, ())
        target = max(kept, key=lambda x: _score(
            vals[0] for vals in ps.scan([differentiate(rhs, x)], range(img.samples))))
    blocks = {**stage.blocks, **updates,
              "q": [new if s == target else s for s in stage.blocks["q"]],
              "rear": [x for x in stage.blocks["rear"] if x != target]}
    defs = [(new, simplify(rhs)) if x == target else (x, Sym(x)) for x in stage.sys.frame]
    return apply_state_change(replace(stage, blocks=blocks), defs, sp, note=note)


def normalize_first_core_equation(stage: Stage, report, sp: Sampler) -> Stage:
    """Step 4: make the first core equation read q1' = w."""
    n3 = report.chain.depth
    dr, b1c, b2c = _rhs_of(stage, stage.blocks["q"][0])
    img = _image(stage, sp)
    if n3 >= 2:
        if not all_zero_generic((b1c, b2c), img):
            raise PipelineError("first core equation touches the inputs directly")
        return _introduce(
            stage, sp, "z2_1", dr, stage.blocks["rear"][1:3], "normalize first core equation",
            "first core equation does not depend on the rear pair; upstream checks must "
            "be inconsistent", w="z2_1",
        )
    # n3 == 1: input transformation instead of a state change
    if not is_zero_generic(b2c, img):
        m = [[ONE, ZERO], [b1c, b2c]]
    elif not is_zero_generic(b1c, img):
        m = [[ZERO, ONE], [b1c, b2c]]
    else:
        raise PipelineError(
            "first core equation does not depend on the inputs; upstream checks "
            "must be inconsistent"
        )
    stage = apply_input_change(
        stage, (ZERO, dr), m, ("v1", "v2"), sp, note="normalize first core equation (input)"
    )
    return replace(stage, blocks={**stage.blocks, "w": "v2"})


def _w_value(stage: Stage):
    w = stage.blocks["w"]
    if w in stage.sys.frame:
        return Sym(w), "state"
    return Sym(w), "input"


def introduce_core_couplings(stage: Stage, report, sp: Sampler) -> Stage:
    """Step 5: bring the core block into chained shape, then split the last
    equation and introduce the long-chain top."""
    w_sym, w_kind = _w_value(stage)
    for i in range(2, report.n2):
        img = _image(stage, sp)
        q_syms = stage.blocks["q"]
        qi = q_syms[i - 1]
        dr, b1c, b2c = _rhs_of(stage, qi)
        if w_kind == "state":
            coeff = differentiate(dr, stage.blocks["w"])
            if not is_zero_generic(differentiate(coeff, stage.blocks["w"]), img):
                raise PipelineError(f"core equation {qi} is not affine in the chain input")
        else:
            coeff = b2c if stage.blocks["w"] == stage.sys.input_syms[1] else b1c
        target = q_syms[i]
        if simplify(sub(coeff, Sym(target))) == ZERO:
            continue  # already in chained shape at this level
        stage = _introduce(
            stage, sp, f"{target}n", coeff, [target], f"introduce coupling state level {i}",
            f"coupling coefficient of {qi} does not depend on {target}; "
            "upstream checks must be inconsistent",
        )
    # split the last core equation
    img = _image(stage, sp)
    dr, b1c, b2c = _rhs_of(stage, stage.blocks["q"][-1])
    if w_kind == "state":
        g2 = differentiate(dr, stage.blocks["w"])
        if not all_zero_generic((b1c, b2c), img):
            raise PipelineError("last core equation touches the inputs directly")
        if not is_zero_generic(differentiate(g2, stage.blocks["w"]), img):
            raise PipelineError("last core equation is not affine in the chain input")
        g1 = simplify(sub(dr, mul(g2, w_sym)))
    else:
        which = 1 if stage.blocks["w"] == stage.sys.input_syms[1] else 0
        g2 = (b1c, b2c)[which]
        other = (b1c, b2c)[1 - which]
        if not is_zero_generic(other, img):
            raise PipelineError("last core equation depends on the long-chain input")
        g1 = dr
    rear = stage.blocks["rear"]
    if not rear:
        raise PipelineError("no rear coordinate available for the long-chain top")
    r1 = rear[0]
    missing = ("state part of the last core equation does not depend on the rear "
               "top; upstream checks must be inconsistent")
    # the state part's test comes first, as in _introduce, which repeats it on
    # cached values once the coupling factor has passed
    if not _depends_at(g1, r1, img):
        raise PipelineError(missing)
    if _depends_at(g2, r1, img):
        raise PipelineError("coupling factor of the last core equation reaches the rear top")
    if simplify(sub(g1, Sym(r1))) == ZERO:
        return replace(stage, blocks={**stage.blocks, "z1": [r1], "rear": rear[1:]})
    return _introduce(stage, sp, "z1_1", g1, [r1], "introduce long-chain top", missing,
                      z1=["z1_1"])


def rear_chains_to_integrators(stage: Stage, report, sp: Sampler) -> Stage:
    """Step 6: integrator form for both rear chains plus the final feedback."""
    n3 = report.chain.depth

    def grow_chain(stage, chain_key, length):
        while len(stage.blocks[chain_key]) < length:
            chain = stage.blocks[chain_key]
            top = chain[-1]
            dr, b1c, b2c = _rhs_of(stage, top)
            if not all_zero_generic((b1c, b2c), _image(stage, sp)):
                raise PipelineError(
                    f"rear chain state {top} reaches the inputs too early; the "
                    "input span is no longer straightened"
                )
            new_name = f"{chain_key}_{len(chain) + 1}"
            stage = _introduce(
                stage, sp, new_name, dr, stage.blocks["rear"], f"rear chain state {new_name}",
                f"derivative of {top} does not reach a free rear coordinate",
                scored=True, **{chain_key: chain + [new_name]},
            )
        return stage

    if "z1" not in stage.blocks:
        raise PipelineError("long-chain top missing; run the previous step first")
    if n3 >= 2:
        stage = replace(stage, blocks={"z2": [stage.blocks["w"]], **stage.blocks})
        stage = grow_chain(stage, "z1", n3)
        stage = grow_chain(stage, "z2", n3 - 1)
    else:
        stage = replace(stage, blocks={**stage.blocks, "z2": []})
    if stage.blocks["rear"]:
        raise PipelineError("rear coordinates left over after chain construction")

    # closing static feedback
    sysm = stage.sys
    long_bottom = stage.blocks["z1"][-1]
    dr1, b11, b12 = _rhs_of(stage, long_bottom)
    if n3 >= 2:
        short_bottom = stage.blocks["z2"][-1]
        dr2, b21, b22 = _rhs_of(stage, short_bottom)
        g = (dr1, dr2)
        M = [[b11, b12], [b21, b22]]
        names = ("v1f", "v2f")
    else:
        g = (dr1, ZERO)
        M = [[b11, b12], [ZERO, ONE]]
        names = ("v1f", sysm.input_syms[1] + "f")
    was_input_w = stage.blocks.get("w") == sysm.input_syms[1]
    stage = apply_input_change(stage, g, M, names, sp, note="closing feedback")
    if was_input_w:
        stage = replace(stage, blocks={**stage.blocks, "w": names[1]})
    return stage


# --- final assembly ---------------------------------------------------------------


def transform_to_triangular(
    sys: AffineSystem,
    report: TriangularReport,
    flat: FlatOutput,
    sp: Sampler,
    hints=(),
) -> TransformResult:
    """Run the whole pipeline and verify every step against the original."""
    stages: List[Tuple[str, Stage]] = []
    stage = decompose(sys, report, flat, sp, hints)
    stages.append(("straighten", stage))
    stage = normalize_first_core_equation(stage, report, sp)
    stages.append(("normalize-first", stage))
    stage = introduce_core_couplings(stage, report, sp)
    stages.append(("core-couplings", stage))
    stage = rear_chains_to_integrators(stage, report, sp)
    stages.append(("rear-chains", stage))
    for name, st in stages[1:]:  # decompose has verified the straightening stage
        if not _stage_verified(st, sp):
            raise PipelineError(f"stage {name} fails numeric verification")
    final = _assemble_decomposition(stage, report, sp)
    return TransformResult(stages, final, stage.change(), verified=True)


def _assemble_decomposition(stage: Stage, report, sp: Sampler) -> TriangularDecomposition:
    sysm = stage.sys
    blocks = stage.blocks
    w = blocks.get("w", sysm.input_syms[1])
    q_syms = blocks["q"]
    failures = []
    couplings = {}
    img = _image(stage, replace(sp, samples=20))
    w_expr = Sym(w)

    def expect_zero(e, label):
        if not is_zero_generic(e, img):
            failures.append(label)

    for chain_key in ("p1", "p2"):
        chain = blocks.get(chain_key, [])
        feeds = chain[1:] + [q_syms[0] if chain_key == "p1" else q_syms[1]]
        for s, nxt in zip(chain, feeds):
            dr, b1c, b2c = _rhs_of(stage, s)
            expect_zero(sub(dr, Sym(nxt)), f"terminal chain row {s}")
            expect_zero(b1c, f"terminal chain row {s} input 1")
            expect_zero(b2c, f"terminal chain row {s} input 2")
    expect_zero(sub(_full_rhs(stage, q_syms[0]), w_expr), "first core equation")
    for i in range(2, report.n2):
        qi = q_syms[i - 1]
        rhs_full = _full_rhs(stage, qi)
        a_i = simplify(substitute(rhs_full, {w: ZERO}))
        expect_zero(
            sub(rhs_full, add(mul(Sym(q_syms[i]), w_expr), a_i)),
            f"core equation {qi} shape",
        )
        couplings[f"a{i}"] = a_i
        for deep in q_syms[i + 1:]:
            expect_zero(differentiate(a_i, deep), f"drift coupling {qi} vs {deep}")
        for z in blocks.get("z1", []) + blocks.get("z2", []):
            expect_zero(differentiate(a_i, z), f"drift coupling {qi} vs rear {z}")
    rhs_full = _full_rhs(stage, q_syms[-1])
    z1_top = blocks["z1"][0]
    g_expr = simplify(
        substitute(sub(rhs_full, Sym(z1_top)), {w: ONE})
    )
    g_expr = simplify(sub(g_expr, substitute(sub(rhs_full, Sym(z1_top)), {w: ZERO})))
    couplings["g"] = g_expr
    expect_zero(
        sub(rhs_full, add(Sym(z1_top), mul(g_expr, w_expr))),
        "last core equation shape",
    )
    for chain_key in ("z1", "z2"):
        chain = blocks.get(chain_key, [])
        for idx, s in enumerate(chain):
            rhs_full = _full_rhs(stage, s)
            if idx + 1 < len(chain):
                expect_zero(sub(rhs_full, Sym(chain[idx + 1])), f"rear chain row {s}")
            else:
                target = (
                    Sym(sysm.input_syms[0])
                    if chain_key == "z1"
                    else Sym(sysm.input_syms[1])
                )
                expect_zero(sub(rhs_full, target), f"rear chain bottom {s}")
    return TriangularDecomposition(
        system=sysm,
        chains=(blocks.get("p1", []), blocks.get("p2", [])),
        core=q_syms,
        rear_long=blocks.get("z1", []),
        rear_short=blocks.get("z2", []),
        w_symbol=w,
        couplings=couplings,
        structure_ok=not failures,
        structure_failures=failures,
    )


# --- prolongation evidence ----------------------------------------------------


def prolonged_linearizability(result: TransformResult, sp: Sampler):
    """Prolong the normal form's chain-side input and test static feedback
    linearizability of the extension.

    The right input to prolong is the one feeding the core chain of the
    transformed system; prolongation does not commute with static feedback,
    so the test runs on the normal form, on the final stage's image; the new
    chain states and input join it as identity maps.
    """
    extended = prolong(result.final.system, 1, len(result.final.core) - 1)
    img = _image(result.stages[-1][1], sp)
    chain = [x for x in (*extended.frame, *extended.input_syms) if x not in dict(img.maps)]
    img = _mapped(sp, {*img.base_syms, *chain}, img.maps + tuple((x, Sym(x)) for x in chain))
    return check_static_feedback_linearizable(extended, img)
