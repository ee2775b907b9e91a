"""Generic-point sampling, numeric evaluation helpers and rank computation.

All rank/membership/zero decisions in the package are made numerically at
randomly sampled points, with deterministic seeding.  Points at which an
expression fails to evaluate (division by zero, domain error) or produces
near-singular magnitudes are discarded and resampled, up to a bounded
budget; this operationalizes working at generic points only.

The stream of a sampler is fixed by its seed, the symbol names and their
domains, so the same expressions meet the same points again and again.  A
:class:`PointSet` per stream keeps the points drawn and every value
computed at them; zero tests, :class:`MatrixSampler` and the numeric pivot
scores of :mod:`triflat.elimination` read values through it, and the ranks
of a stack of sampled matrices come from one batched SVD (:func:`ranks`).
The generic stack of a matrix (:meth:`MatrixSampler.generic`) is kept on
the point set too, so each row set is sampled and ranked once.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import EvalError, SamplerExhausted
from .expr import Add, Call, Expr, Mul, Pow, Rat, Sym, evaluate, free_symbols

_HUGE = 1e12

Point = dict


@dataclass(frozen=True)
class Sampler:
    """Per-symbol interval domains plus the sampling configuration.

    seed/samples/tol fully determine every probabilistic verdict, so results
    are reproducible.  Symbols without an explicit domain use
    ``default_domain``; the default interval is positive and bounded away
    from zero, which keeps the common singular loci (vanishing denominators)
    out of the sample set.
    """

    seed: int = 42
    samples: int = 16
    tol: float = 1e-9
    max_resamples: int = 200
    domains: Mapping[str, tuple] = field(default_factory=dict)
    default_domain: tuple = (0.2, 1.8)

    def __post_init__(self):
        if self.samples < 8:
            raise ValueError("at least 8 sample points are required")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"the rank tolerance must be finite and positive, got {self.tol}")
        named = [(f"domain for {name!r}", d) for name, d in self.domains.items()]
        for what, (lo, hi) in named + [("the default domain", self.default_domain)]:
            if not -math.inf < lo < hi < math.inf:
                raise ValueError(f"{what} must be finite with positive length")

    def with_domains(self, domains) -> "Sampler":
        merged = dict(self.domains)
        merged.update(domains)
        return replace(self, domains=merged)

    def domain(self, name):
        return self.domains.get(name, self.default_domain)

    def stream_key(self, names) -> tuple:
        """What fixes the stream of the sorted symbol names: equal keys, equal
        points, so :func:`point_set` shares one point set per key."""
        return (self.seed, names, tuple(self.domain(n) for n in names))

    def point_stream(self, syms) -> Iterable[Point]:
        """Endless deterministic stream of sample points for the symbols."""
        names = sorted(set(syms))
        rng = random.Random(f"{self.seed}|{','.join(names)}")
        while True:
            yield {n: rng.uniform(*self.domain(n)) for n in names}

    def admissible_points(self, syms, probe: Callable[[Point], bool], count=None):
        """First ``count`` points accepted by ``probe`` (EvalError rejects)."""
        want = self.samples if count is None else count
        out = []
        budget = self.max_resamples + want
        for point in self.point_stream(syms):
            if budget <= 0:
                raise SamplerExhausted(
                    f"no {want} admissible points within {self.max_resamples} resamples"
                )
            budget -= 1
            try:
                ok = probe(point)
            except EvalError:
                continue
            if ok:
                out.append(point)
                if len(out) == want:
                    return out
        raise SamplerExhausted("point stream ended unexpectedly")


def magnitude(e: Expr, point) -> float:
    """Evaluation with all cancellations disabled; scale reference for zero tests."""
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


class PointSet:
    """The points one sampler draws for one symbol set, and values at them.

    Points come from the live ``Sampler.point_stream`` generator, drawn on
    first use and kept, so point ``i`` is the ``i``-th point of the stream;
    they are shared with every reader and must not be modified.
    A column holds, per point index, the raw result of :func:`evaluate` (or
    :func:`magnitude`) for one expression, or the ``EvalError`` it raised;
    ``None`` marks an index not computed yet.  Admissibility (finite, not
    near-singular) is judged by the consumer.
    """

    __slots__ = ("points", "values", "magnitudes", "stacks", "_stream")

    def __init__(self, stream):
        self.points = []
        self.values = {}  # expression -> column of evaluate results
        self.magnitudes = {}  # expression -> column of magnitude results
        self.stacks = {}  # see MatrixSampler.generic
        self._stream = stream

    def point(self, i) -> Point:
        while len(self.points) <= i:
            try:
                self.points.append(next(self._stream))
            except StopIteration:
                raise SamplerExhausted("no further point within the resampling budget") from None
        return self.points[i]

    def column(self, e: Expr, table=None) -> list:
        table = self.values if table is None else table
        col = table.get(e)
        if col is None:
            col = table[e] = []
        return col

    def fill(self, fn, e: Expr, col: list, i):
        """col[i] = fn(e, point i), or the EvalError it raised."""
        global _CACHED_VALUES
        if i >= len(col):
            col.extend([None] * (i + 1 - len(col)))
        try:
            v = fn(e, self.point(i))
        except EvalError as err:
            v = err.with_traceback(None)
            v.__context__ = None
        col[i] = v
        _CACHED_VALUES += 1
        return v

    def scan(self, e: Expr, idx):
        """The cached ``evaluate(e, point i)`` for i in idx, lazily."""
        col = self.column(e)
        for i in idx:
            yield _at(self, evaluate, e, col, i)


def _at(ps: PointSet, fn, e: Expr, col: list, i):
    """The cached col[i], computed by fn(e, point i) when missing."""
    v = col[i] if i < len(col) else None
    return ps.fill(fn, e, col, i) if v is None else v


# One point set per stream key: (seed, symbols, domains) for a plain sampler,
# the base key and the maps for the image of a transform stage.  Values are a
# pure function of (expression, point), so sharing them cannot change a
# verdict.  All point sets are dropped together once this many values are
# cached.
_POINT_SETS: dict = {}
_VALUE_LIMIT = 500_000
_CACHED_VALUES = 0


def point_set(sp: Sampler, syms) -> PointSet:
    """The shared point set of the sampler's stream for these symbols."""
    if _CACHED_VALUES > _VALUE_LIMIT:
        clear_caches()
    names = tuple(sorted(set(syms)))
    key = sp.stream_key(names)
    ps = _POINT_SETS.get(key)
    if ps is None:
        ps = _POINT_SETS[key] = PointSet(sp.point_stream(names))
    return ps


def clear_caches():
    """Drop every point set, the values cached with it and the symbol table."""
    global _CACHED_VALUES
    _POINT_SETS.clear()
    _FREE_SYMBOLS.clear()
    _CACHED_VALUES = 0


# expression -> frozenset of its symbol names, for the entries of sampled
# matrices, which meet the sampler again and again
_FREE_SYMBOLS: dict = {}


def _free_symbols(e: Expr) -> frozenset:
    syms = _FREE_SYMBOLS.get(e)
    if syms is None:
        syms = _FREE_SYMBOLS[e] = frozenset(free_symbols(e))
    return syms


def _admissible(v) -> bool:
    """A cached value usable at a generic point: evaluable, finite, not huge.

    Values are floats or EvalErrors; the bounds also reject nan and inf.
    """
    return type(v) is float and -_HUGE <= v <= _HUGE


def _vanish(exprs, sp: Sampler, syms) -> bool:
    """Joint relative zero test at the first ``sp.samples`` points where
    every expression is admissible (points are tried in stream order)."""
    ps = point_set(sp, syms)
    cols = [(e, ps.column(e), ps.column(e, ps.magnitudes)) for e in exprs]
    budget = sp.max_resamples + sp.samples
    count = 0
    for i in itertools.count():
        if budget <= 0:
            raise SamplerExhausted("expressions undefined on the sampling domain")
        budget -= 1
        for e, vals, mags in cols:
            v = _at(ps, evaluate, e, vals, i)
            if not _admissible(v):
                break
            m = _at(ps, magnitude, e, mags, i)
            if isinstance(m, EvalError):
                break
            if abs(v) > sp.tol * (1.0 + m):
                return False
        else:
            count += 1
            if count == sp.samples:
                return True


def is_zero_generic(e: Expr, sp: Sampler) -> bool:
    """True iff the expression vanishes at all sampled admissible points.

    The comparison is relative to the accumulated term magnitude, so exact
    cancellations are recognized even when individual terms are large.
    """
    return all_zero_generic([e], sp)


def all_zero_generic(exprs, sp: Sampler, extra_syms=()) -> bool:
    """Joint zero test sharing one point set across the expressions.

    Raises SamplerExhausted when the expressions cannot be evaluated: a
    constant that is undefined, or too few admissible points.
    """
    exprs = list(exprs)
    if not exprs:
        return True
    syms = set(extra_syms)
    for e in exprs:
        syms |= _free_symbols(e)
    if not syms:
        try:
            return all(abs(evaluate(e, {})) <= sp.tol for e in exprs)
        except EvalError:
            raise SamplerExhausted("constant expression undefined") from None
    return _vanish(exprs, sp, syms)


def _ranks_of(sv: np.ndarray, shape, tol: float) -> np.ndarray:
    """Ranks from the (K, min(r, c)) singular values of a (K, r, c) stack.

    The threshold is relative to each matrix's largest singular value.
    """
    cutoff = tol * np.fmax(1.0, sv[:, 0]) * max(shape[1:])
    return np.sum(sv > cutoff[:, None], axis=1)


def ranks(stack: np.ndarray, tol: float) -> np.ndarray:
    """SVD rank of each matrix of a (K, r, c) stack, from one batched SVD of
    the stack :func:`_scaled` (nonsingular diagonal scaling keeps ranks)."""
    return _svd_ranks(_scaled(stack, tol), tol)


def _svd_ranks(stack: np.ndarray, tol: float) -> np.ndarray:
    if 0 in stack.shape[1:]:
        return np.zeros(len(stack), dtype=int)
    return _ranks_of(np.linalg.svd(stack, compute_uv=False), stack.shape, tol)


def nullspaces(stack: np.ndarray, tol: float):
    """Ranks and right null spaces of each matrix of a (K, r, c) stack, from
    one batched SVD at unit rows (which keep null spaces) with the cutoff of
    :func:`ranks`; bases[k]'s orthonormal rows span matrix k's null space."""
    k, r, c = stack.shape
    if r == 0 or c == 0:
        return np.zeros(k, dtype=int), [np.eye(c) for _ in range(k)]
    _u, sv, vt = np.linalg.svd(_scaled(stack, tol, (2,)), full_matrices=True)
    rk = _ranks_of(sv, stack.shape, tol)
    return rk, [vt[i, rk[i]:] for i in range(k)]


def _scaled(stack: np.ndarray, tol: float, axes=(2, 1)) -> np.ndarray:
    """The (K, r, c) stack at unit rows (axis 2), then unit columns (axis 1):
    no small row or column falls under the cutoff (van der Sluis 1969); one
    of norm at most tol * max(1, largest such norm) is noise, set to zero."""
    for axis in axes:
        sq = (stack * stack).sum(axis=axis, keepdims=True)
        noise = tol * tol * np.fmax(1.0, sq.max(axis=(1, 2), keepdims=True, initial=0.0))
        stack = stack / np.sqrt(np.where(sq > noise, sq, np.inf))
    return stack


def numeric_rank(matrix: np.ndarray, tol: float) -> int:
    """SVD rank of one matrix (see :func:`ranks`)."""
    if matrix.size == 0:
        return 0
    return int(ranks(matrix[np.newaxis], tol)[0])


class MatrixSampler:
    """Evaluates a symbolic matrix at admissible sample points.

    Each distinct entry is scanned once and its values are scattered to
    every position it holds; sparse matrices repeat 0 and 1 many times.
    """

    def __init__(self, rows, syms, sp: Sampler):
        self.rows = [list(r) for r in rows]
        self.shape = (len(self.rows), len(self.rows[0]) if self.rows else 0)
        index = {}
        self.where = [index.setdefault(e, len(index)) for r in self.rows for e in r]
        self.entries = list(index)
        self.syms = set(syms).union(*map(_free_symbols, self.entries))
        self.sp = sp

    def at(self, point) -> np.ndarray:
        vals = []
        for r in self.rows:
            row = []
            for e in r:
                v = evaluate(e, point)
                if not math.isfinite(v) or abs(v) > _HUGE:
                    raise EvalError("domain", "near-singular value")
                row.append(v)
            vals.append(row)
        return np.array(vals, dtype=float)

    def admissible(self):
        """The point set and the indices of its first ``samples`` points at
        which every entry is admissible, within the resampling budget."""
        want = self.sp.samples
        ps = point_set(self.sp, self.syms)
        cols = [(e, ps.column(e)) for e in self.entries]
        out = []
        budget = self.sp.max_resamples + want
        for i in itertools.count():
            if budget <= 0:
                raise SamplerExhausted(
                    f"no {want} admissible points within {self.sp.max_resamples} resamples"
                )
            budget -= 1
            for e, col in cols:  # _at and _admissible, inlined: the hot loop
                v = col[i] if i < len(col) else None
                if v is None:
                    v = ps.fill(evaluate, e, col, i)
                if not (type(v) is float and -_HUGE <= v <= _HUGE):
                    break
            else:
                out.append(i)
                if len(out) == want:
                    return ps, out

    def stack(self):
        """(points, values): the admissible points and the (K, r, c) stack
        of the matrix evaluated at them."""
        ps, idx = self.admissible()
        by_entry = np.array([[col[i] for i in idx] for col in map(ps.column, self.entries)],
                            dtype=float)
        values = by_entry[self.where].T.reshape(len(idx), *self.shape)
        return [ps.point(i) for i in idx], values

    def generic(self):
        """(stack, top): the sampled matrices, :func:`_scaled`, of modal rank top.

        Kept on the point set, which fixes the seed and the domains, under
        the rows and the other sampler fields the result depends on.  The
        stack is read-only, and its values count against the value limit.
        """
        global _CACHED_VALUES
        sp = self.sp
        ps = point_set(sp, self.syms)
        key = (tuple(map(tuple, self.rows)), sp.samples, sp.max_resamples, sp.tol)
        hit = ps.stacks.get(key)
        if hit is None:
            _points, stack = self.stack()
            stack = _scaled(stack, sp.tol)
            r = _svd_ranks(stack, sp.tol)
            stack = stack[r == r.max()]
            stack.flags.writeable = False
            hit = ps.stacks[key] = stack, int(r.max())
            _CACHED_VALUES += stack.size
        return hit
