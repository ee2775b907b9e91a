"""Symbolic Gaussian elimination over the expression field.

Pivot entries are selected by their numeric magnitude at generic sample
points (an entry qualifies only if it is generically nonzero); every
symbolic result is cross-checked numerically before it is returned.
"""

from __future__ import annotations

from .errors import EliminationError, EvalError
from .expr import ZERO, Call, Pow, Rat, add, div, mul, neg, sub, subterms
from .sampling import MatrixSampler, Sampler, all_zero_generic, point_set
from .simplify import as_fraction, lcm_expr, simplify


def _sample_points(rows, sp: Sampler, extra_syms=()):
    """Point set and indices of the points where every entry is admissible."""
    ms = MatrixSampler(rows, extra_syms, sp)
    if not ms.syms:
        return point_set(sp, ()), [0]
    return ms.admissible()


def _scores(rows, ps, idx):
    """Minimum |value| across the points for each entry; 0 for failures."""
    entries = list(dict.fromkeys(e for r in rows for e in r if e != ZERO))
    score = dict(zip(entries, map(_score, zip(*ps.scan(entries, idx)))))
    return {(i, j): score.get(e, 0.0) for i, r in enumerate(rows) for j, e in enumerate(r)}


def _score(values):
    """Minimum |v| over the values, read lazily; 0 at the first failure."""
    vals = []
    for v in values:
        if isinstance(v, EvalError):
            return 0.0
        vals.append(abs(v))
    return min(vals)


def _complexity(e):
    """Rough size of an expression; cheap pivots keep elimination sparse."""
    return sum(2 if isinstance(s, (Pow, Call)) else 1 for s in subterms(e))


class RowReduction:
    """Result of a symbolic row reduction."""

    def __init__(self, rows, pivots, ncols):
        self.rows = rows
        self.pivots = pivots  # list of (row, col) in elimination order
        self.ncols = ncols


def row_reduce(rows, sp: Sampler, extra_syms=()) -> RowReduction:
    """Fraction-free Jordan elimination with numeric pivot selection.

    Rows are first scaled to polynomial entries; each update uses the
    Bareiss combination (pivot * row - entry * pivot_row) / previous_pivot,
    whose division is exact, so entries stay polynomial and small.  Pivot
    rows are not normalized; solution extraction divides by the pivot entry.
    """
    rows = [clear_denominators([simplify(e) for e in r]) if r else [] for r in rows]
    if not rows:
        return RowReduction(rows, [], 0)
    ncols = len(rows[0])
    ps, idx = _sample_points(rows, sp, extra_syms)
    pivots = []
    used_rows = set()
    prev_pivot = None
    while True:
        scores = _scores(rows, ps, idx)
        pivot_cols = {c for _r, c in pivots}
        best = None
        for i in range(len(rows)):
            if i in used_rows:
                continue
            for j in range(ncols):
                if j in pivot_cols:
                    continue
                s = scores[i, j]
                if s <= sp.tol:
                    continue
                # prefer structurally simple pivots, then well-conditioned ones
                key = (-_complexity(rows[i][j]), s)
                if best is None or key > best[0]:
                    best = (key, i, j)
        if best is None:
            break
        _key, pi, pj = best
        piv = rows[pi][pj]
        for i in range(len(rows)):
            if i == pi:
                continue
            factor = rows[i][pj]
            if factor == ZERO:
                continue
            updated = []
            for e, pe in zip(rows[i], rows[pi]):
                val = sub(mul(piv, e), mul(factor, pe))
                if prev_pivot is not None:
                    val = div(val, prev_pivot)
                updated.append(simplify(val))
            rows[i] = updated
        used_rows.add(pi)
        pivots.append((pi, pj))
        prev_pivot = piv
    return RowReduction(rows, pivots, ncols)


def nullspace(rows, sp: Sampler) -> list:
    """Basis of the right null space over the function field.

    Returns vectors of simplified expressions; each is verified numerically
    against the original matrix.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    red = row_reduce(rows, sp)
    pivot_cols = {c: r for r, c in red.pivots}
    free_cols = [j for j in range(ncols) if j not in pivot_cols]
    basis = []
    for j in free_cols:
        vec = [ZERO] * ncols
        vec[j] = add(1)
        for r, c in red.pivots:
            vec[c] = simplify(neg(div(red.rows[r][j], red.rows[r][c])))
        basis.append(vec)
    _verify_nullspace(rows, basis, sp)
    return basis


def _verify_nullspace(rows, basis, sp):
    residuals = []
    for vec in basis:
        for r in rows:
            residuals.append(add(*(mul(a, b) for a, b in zip(r, vec))))
    if residuals and not all_zero_generic(residuals, sp):
        raise EliminationError("null space verification failed at sample points")


def clear_denominators(exprs):
    """Scale a coefficient vector to polynomial form (direction preserved)."""
    pairs = [as_fraction(e) for e in exprs]
    common = add(1)
    for _n, d in pairs:
        if isinstance(d, Rat):
            continue
        common = lcm_expr(common, d)
    out = [simplify(div(mul(n, common), d)) for n, d in pairs]
    return out
