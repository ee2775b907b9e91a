"""Generic-point sampling, numeric evaluation helpers and rank computation.

All rank/membership/zero decisions in the package are made numerically at
randomly sampled points, with deterministic seeding.  Points at which an
expression fails to evaluate (division by zero, domain error) or produces
near-singular magnitudes are discarded and resampled, up to a bounded
budget; this operationalizes working at generic points only.

The stream of a sampler is fixed by its seed, the symbol names and their
domains, so the same expressions meet the same points again and again.  A
:class:`PointSet` per stream keeps the points drawn and, per expression, a
column of its values at them, computed a block of points at a time by
:func:`~triflat.expr.evaluate_column` (bit for bit what
:func:`~triflat.expr.evaluate` gives at each point); zero tests,
:class:`MatrixSampler` and every other reader take values from those
columns, and the ranks of a stack of sampled matrices come from one
batched SVD (:func:`ranks`).
The generic stack of a matrix (:meth:`MatrixSampler.generic`) is kept on
the point set too, so each row set is sampled and ranked once.  Every float
rank rule is this module's: the scaling and cutoff of :func:`ranks`, the
generic points (:func:`generic`), the majority rule :func:`basis_rows`, the
membership rule :func:`_spanned` and the margin rule :func:`_in_sampled`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import EvalError, SamplerExhausted
from .expr import (
    Add,
    Call,
    Expr,
    Mul,
    Pow,
    Rat,
    Sym,
    _combine,
    _pointwise,
    evaluate,
    evaluate_column,
    free_symbols,
)

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


def _power_magnitude(b, q):
    if b == 0.0 and q < 0:
        raise EvalError("division", "division by zero")
    try:
        return b ** float(q)
    except OverflowError:
        raise EvalError("domain", "overflow") from None


def magnitude_column(e: Expr, points, memo, values) -> list:
    """The magnitude of e at each of the points: its evaluation with all
    cancellations disabled, the scale reference of the zero tests; an
    EvalError stands as the value where one is raised.

    A post-order pass over the distinct subterms like :func:`evaluate_column`:
    ``memo`` maps subterms to magnitude columns, ``values`` to the value
    columns that sums of absolute values start from.
    """
    col = memo.get(e)
    if col is not None:
        return col
    if isinstance(e, (Rat, Sym, Call)):
        col = [abs(v) if type(v) is float else v for v in evaluate_column(e, points, values)]
        if isinstance(e, Call):
            col = [m + 1.0 if type(m) is float else m for m in col]
    elif isinstance(e, Add):
        col = _combine(sum, [magnitude_column(t, points, memo, values) for t in e.terms])
    elif isinstance(e, Mul):
        col = _combine(math.prod, [magnitude_column(f, points, memo, values) for f in e.factors])
    elif isinstance(e, Pow):
        col = _pointwise(_power_magnitude, magnitude_column(e.base, points, memo, values),
                         e.exponent)
    else:
        raise TypeError(type(e))
    memo[e] = col
    return col


class PointSet:
    """The points one sampler draws for one symbol set, and values at them.

    Points come from the live ``Sampler.point_stream`` generator, drawn on
    first use and kept, so point ``i`` is the ``i``-th point of the stream;
    they are shared with every reader and must not be modified.
    A column holds, for the first points in stream order, what
    :func:`evaluate` returns at each for one expression, or its magnitude
    (:func:`magnitude_column`), an ``EvalError`` standing as the value where
    one is raised.  :meth:`columns` computes the missing tail of each column
    asked for in one pass over the expression, for all points of the tail
    at once.  Admissibility (finite, not near-singular) is judged by the
    consumer.
    """

    __slots__ = ("points", "values", "magnitudes", "stacks", "_stream")

    def __init__(self, stream):
        self.points = []
        self.values = {}  # expression -> column of evaluate results
        self.magnitudes = {}  # expression -> column of magnitudes
        self.stacks = {}  # see MatrixSampler.generic
        self._stream = stream

    def _draw(self, n) -> int:
        """Draw points up to n; how many there are, fewer once the stream ends."""
        while len(self.points) < n:
            p = next(self._stream, None)
            if p is None:
                break
            self.points.append(p)
        return min(n, len(self.points))

    def point(self, i) -> Point:
        if self._draw(i + 1) <= i:
            raise SamplerExhausted("no further point within the resampling budget")
        return self.points[i]

    def columns(self, exprs, n, magnitudes=False) -> list:
        """The value columns of exprs, then with ``magnitudes`` their
        magnitude columns, each filled through point n - 1 or through the
        last point of a stream that ends first.

        Columns whose missing tails start at the same point share one memo,
        so a subterm common to the expressions is computed once per tail.
        """
        global _CACHED_VALUES
        n = self._draw(n)
        cols = [self.values.setdefault(e, []) for e in exprs]
        if magnitudes:
            cols += [self.magnitudes.setdefault(e, []) for e in exprs]
        memos = {}  # start of a tail -> (its points, value memo, magnitude memo)
        for k, col in enumerate(cols):
            start = len(col)
            if start < n:
                points, values, mags = memos.setdefault(start, (self.points[start:n], {}, {}))
                e = exprs[k % len(exprs)]
                col += (evaluate_column(e, points, values) if k < len(exprs)
                        else magnitude_column(e, points, mags, values))
                _CACHED_VALUES += n - start
        return cols

    def scan(self, exprs, idx):
        """The values of exprs at each point index of idx (ascending), a tuple
        per index, read from columns filled in one pass; reading an index
        past the end of the stream raises SamplerExhausted."""
        if not idx:
            return
        cols = self.columns(exprs, idx[-1] + 1)
        drawn = [i for i in idx if i < len(self.points)]
        yield from zip(*([col[i] for i in drawn] for col in cols)) if cols else [()] * len(drawn)
        if len(drawn) < len(idx):
            self.point(idx[len(drawn)])  # past the end of the stream: raises


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
    every expression is admissible (points are tried in stream order).

    The first block of columns is one point, so a nonzero expression costs
    one point; each later block is as long as the points still wanted."""
    ps = point_set(sp, syms)
    budget = sp.max_resamples + sp.samples
    count = i = 0
    end = 1
    while True:
        cols = ps.columns(exprs, end, magnitudes=True)
        pairs = list(zip(cols[:len(exprs)], cols[len(exprs):]))
        for k in range(i, min(end, len(ps.points))):
            for vals, mags in pairs:
                v = vals[k]
                if not _admissible(v):
                    break
                m = mags[k]
                if isinstance(m, EvalError):
                    break
                if abs(v) > sp.tol * (1.0 + m):
                    return False
            else:
                count += 1
                if count == sp.samples:
                    return True
        ps.point(end - 1)  # raises where the stream ended within the block
        if end == budget:
            raise SamplerExhausted("expressions undefined on the sampling domain")
        i, end = end, min(end + sp.samples - count, budget)


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
    """Ranks from the (K, min(r, c)) singular values of a (K, r, c) stack, at
    a cutoff relative to each matrix's largest singular value."""
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


def generic(rk: np.ndarray):
    """The generic-point rule: (top, kept), the largest of the pointwise ranks
    rk and the indices, ascending, of the points that reach it; off a thin set
    a rank only falls below its generic value."""
    top = int(rk.max())
    return top, np.flatnonzero(rk == top)


def generic_nullspaces(stack: np.ndarray, tol: float):
    """(top, kept, bases): :func:`generic` of the ranks of a (K, r, c) stack at
    unit rows (which keep null spaces), from one batched SVD, and orthonormal
    rows spanning each kept matrix's null space, (len(kept), c - top, c)."""
    k, r, c = stack.shape
    if r == 0 or c == 0:
        return 0, np.arange(k), np.tile(np.eye(c), (k, 1, 1))
    _u, sv, vt = np.linalg.svd(_scaled(stack, tol, (2,)), full_matrices=True)
    top, kept = generic(_ranks_of(sv, stack.shape, tol))
    return top, kept, vt[kept, top:]


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


def _spanned(base, extra, tol) -> bool:
    """The membership rule: whether the rows of the (K, e, n) stack extra lie
    in the span of the (K, r, n) stack base at generic points.  Over the
    points where [base; extra] attains its largest rank, the base must reach
    that rank; points where [base; extra] falls below it are skipped."""
    top, kept = generic(ranks(np.concatenate([base, extra], axis=1), tol))
    return generic(ranks(base[kept], tol))[0] == top


def basis_rows(stack, top, tol) -> list:
    """The majority rule: indices, ascending, of a generic basis among the
    rows of a scaled (K, m, n) stack whose matrices all have rank top:
    greedily, the row that with the kept ones reaches full rank at the most
    points, the earliest on a tie, while that is more than half of them.

    Singular values interlace under row deletion (Thompson 1972), so rows
    of full rank at a point keep it on every shorter leading run, and the
    greedy keeps the longest leading run that has full rank at every point:
    all rows when top == m.  That run is found by bisection, and the greedy
    goes on after it.
    """
    K, m = len(stack), stack.shape[1]
    if top == m:
        return list(range(m))

    def full_at(idx):
        return np.count_nonzero(_svd_ranks(stack[:, idx, :], tol) == len(idx))

    run, beyond, probe = 0, top + 1, top  # full rank everywhere on rows :run, not :beyond
    while beyond - run > 1:
        if full_at(list(range(probe))) == K:
            run = probe
        else:
            beyond = probe
        probe = (run + beyond) // 2
    kept = list(range(run))
    for need in range(K, K // 2, -1):  # a row's count only falls
        for i in range(run + 1 if need == K else 0, m):
            if len(kept) == top:
                break
            if i not in kept and need <= full_at(kept + [i]):
                kept.append(i)
    return sorted(kept)


_MARGIN = 10.0  # a point decides a membership only this far from the cutoff


def _in_sampled(w, ps, idx, forms, tol):
    """The margin rule: whether the one-form w lies in the span of the
    (K, m, n) stack of orthonormal forms sampled at the point indices idx of
    ps, read off the singular value that w's values there add to them
    (scaled as in :func:`ranks`): at most the cutoff at every point, True;
    above _MARGIN times it at every point, False; else, or where w cannot be
    evaluated at a point, None."""
    rows = list(ps.scan(list(w.coefficients), idx))
    if not all(_admissible(v) for row in rows for v in row):
        return None
    grown = np.concatenate([forms, np.array(rows)[:, None, :]], axis=1)
    sv = np.linalg.svd(_scaled(grown, tol), compute_uv=False)
    m = forms.shape[1]
    if (_ranks_of(sv, grown.shape, tol) == m).all():
        return True
    if (_ranks_of(sv, grown.shape, tol * _MARGIN) == m + 1).all():
        return False
    return None


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
        which every entry is admissible, within the resampling budget.

        Columns are filled a block at a time, each as long as the points
        still wanted."""
        want = self.sp.samples
        ps = point_set(self.sp, self.syms)
        if not self.entries:
            return ps, list(range(want))
        out = []
        budget = self.sp.max_resamples + want
        i = 0
        while True:
            end = min(i + want - len(out), budget)
            cols = ps.columns(self.entries, end)
            bad = {k for col in cols for k, v in enumerate(col[i:end], i)  # _admissible, inlined
                   if type(v) is not float or not -_HUGE <= v <= _HUGE}
            out += [k for k in range(i, min(end, len(ps.points))) if k not in bad]
            if len(out) == want:
                return ps, out
            ps.point(end - 1)  # raises where the stream ended within the block
            if end == budget:
                raise SamplerExhausted(
                    f"no {want} admissible points within {self.sp.max_resamples} resamples"
                )
            i = end

    def stack(self):
        """(points, values): the admissible points and the (K, r, c) stack
        of the matrix evaluated at them."""
        ps, idx = self.admissible()
        return [ps.point(i) for i in idx], self.values_at(ps, idx)

    def values_at(self, ps: PointSet, idx) -> np.ndarray:
        """The (K, r, c) stack of the matrix at the admissible point indices
        idx of ps."""
        cols = ps.columns(self.entries, idx[-1] + 1)
        if idx[-1] - idx[0] == len(idx) - 1:  # ascending, so one contiguous run
            by_entry = np.array([col[idx[0]:idx[-1] + 1] for col in cols], dtype=float)
        else:
            by_entry = np.array([[col[i] for i in idx] for col in cols], dtype=float)
        return by_entry[self.where].T.reshape(len(idx), *self.shape)

    def generic(self):
        """(stack, top): the sampled matrices, :func:`_scaled`, that reach the
        largest rank over the sample points, top.

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
            stack = _scaled(self.stack()[1], sp.tol)
            top, kept = generic(_svd_ranks(stack, sp.tol))
            stack = stack[kept]
            stack.flags.writeable = False
            hit = ps.stacks[key] = stack, top
            _CACHED_VALUES += stack.size
        return hit
