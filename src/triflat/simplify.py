"""Normalization of expressions to a rational normal form.

An expression is flattened to a pair of multivariate polynomials (numerator,
denominator) over *kernels*: symbols, elementary-function applications with
canonical arguments, and fractional powers of canonical polynomial bases.
tan is rewritten as sin/cos and even sin powers are eliminated through
sin^2 = 1 - cos^2, so Pythagorean combinations collapse.  Cancellation uses
joint monomial content plus exact polynomial division, and the denominator
is made monic under a fixed monomial order, which makes the map idempotent.

A polynomial is a dict from monomials to coefficients.  Each kernel is
interned in a process-wide table as a small int id, and a monomial is a
tuple of (id, exponent) pairs in ascending kernel ``key()`` order, so a
product merges two ordered tuples and compares and hashes only ints; a
coefficient is an ``int`` when it is integral and a ``Fraction`` only when
it is not.  The gcd may give up on large or deep inputs and return 1; each
such bail-out is counted by reason (``simplify.gcd_bailout.<reason>``) when
a :mod:`triflat.trace` collector is active.

Cancellations such as x/x -> 1 and sqrt(x)^2 -> x are valid at generic
points of the domain where the expression is defined, matching the standing
generic-point semantics of the package.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from functools import wraps
from itertools import compress

from . import trace
from .errors import TriflatError
from .expr import (
    HALF,
    ONE,
    Add,
    Call,
    Expr,
    Mul,
    Pow,
    Rat,
    Sym,
    ZERO,
    _exact_rational_root,
    add,
    call,
    derivative,
    exact,
    mul,
    neg,
    pow_,
    sub,
)

# Poly: dict monomial -> coefficient, an int when integral, else a Fraction.
# Monomial: tuple of (kernel id, exponent > 0), kernels ascending by key().
_EMPTY_MONO = ()
_POLY_ONE = {_EMPTY_MONO: 1}

_ODD_FUNCTIONS = ("sin", "tan", "arcsin", "arctan")
_SIGN_AWARE = ("sin", "cos", "tan", "arcsin", "arctan")


class ZeroDenominator(TriflatError):
    """The denominator normalizes to the zero polynomial."""


def _quotient(a, b):
    """a / b for coefficients, exact."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return exact(Fraction(a, b))


# --- kernel table ---------------------------------------------------------------
#
# Every kernel (symbol, function call, root power) gets a small int id when a
# normalization first creates it.  Its rank is an int in the kernels' key()
# order; ranks leave gaps, so interning a kernel keeps every other rank.  When
# a gap runs out all ranks are renumbered and _VERSION moves on, so a caller
# holding rank-derived sort keys knows to rebuild them.  Ids live until the
# outermost normalization ends: the table is cleared only there (see
# _normalization), once _CACHE has been cleared or the table and the atom
# table, which shares printed factors among normal forms, have outgrown the
# same bound.

_KERNELS = []  # id -> kernel Expr
_IDS = {}  # kernel Expr -> id
_RANK = []  # id -> rank, ascending with key()
_FOLD_AT = []  # id -> exponent at which a power of it folds into its base
_BY_KEY = []  # (key(), id) of every kernel, ascending
_BASE_NUM = {}  # root kernel id -> numerator Poly of its base
_ATOMS = {}  # (kernel id, exponent) or coefficient -> its printed factor
_RANK_GAP = 1 << 32
_NO_FOLD = 1 << 62  # the _FOLD_AT of a kernel that is not a root
_VERSION = 0
_DEPTH = 0
_TABLE_STALE = False


def _kid(k):
    """The id of kernel k, interning it on first sight."""
    i = _IDS.get(k)
    if i is None:
        i = _intern(k)
    return i


def _intern(k):
    global _VERSION
    key = k.key()
    pos = bisect_left(_BY_KEY, (key,))
    lo = _RANK[_BY_KEY[pos - 1][1]] if pos else None
    hi = _RANK[_BY_KEY[pos][1]] if pos < len(_BY_KEY) else None
    if lo is None:
        rank = 0 if hi is None else hi - _RANK_GAP
    elif hi is None:
        rank = lo + _RANK_GAP
    else:
        rank = (lo + hi) // 2  # == lo when the gap has run out
    i = len(_KERNELS)
    _KERNELS.append(k)
    _IDS[k] = i
    _RANK.append(rank)
    fold = _NO_FOLD
    if type(k) is Pow and k.exponent.denominator > 1:
        fold = k.exponent.denominator if k.exponent.numerator == 1 else 1
    _FOLD_AT.append(fold)
    _BY_KEY.insert(pos, (key, i))
    if rank == lo:
        for r, (_key, j) in enumerate(_BY_KEY):
            _RANK[j] = r * _RANK_GAP
        _VERSION += 1
    return i


def _clear_kernels():
    global _TABLE_STALE, _VERSION
    for table in (_KERNELS, _IDS, _RANK, _FOLD_AT, _BY_KEY, _BASE_NUM, _ATOMS):
        table.clear()
    _TABLE_STALE = False
    _VERSION += 1


def _normalization(fn):
    """Run fn as a normalization; kernel ids outlive it only when nested."""

    @wraps(fn)
    def run(*args):
        global _DEPTH
        _DEPTH += 1
        try:
            return fn(*args)
        finally:
            _DEPTH -= 1
            if not _DEPTH and (_TABLE_STALE or len(_KERNELS) + len(_ATOMS) > _CACHE_LIMIT):
                _clear_kernels()

    return run


def _is_root_kernel(k):
    return _FOLD_AT[k] < _NO_FOLD


def _mono_key(m):
    """Sort key of a monomial: the larger monomial has the larger key."""
    rank = _RANK
    return tuple([(-rank[k], e) for k, e in m])


def _base_num(k):
    """The numerator Poly of root kernel k's base, memoized per kernel."""
    num = _BASE_NUM.get(k)
    if num is None:
        num, den = _nf(_KERNELS[k].base)
        if den != _POLY_ONE:
            raise AssertionError("root kernel bases are polynomial by construction")
        _BASE_NUM[k] = num
    return num


def _mono_mul(m1, m2):
    """Multiply two monomials; root kernels fold back into their bases.

    Returns a Poly since folding sqrt(B)^2 -> B can expand into a sum.
    ``_poly_mul`` calls it only where a root kernel reaches a power that
    folds into its base.
    """
    acc = {}
    for k, e in m1:
        acc[k] = acc.get(k, 0) + e
    for k, e in m2:
        acc[k] = acc.get(k, 0) + e
    extra = None
    items = []
    for k, e in acc.items():
        if e == 0:
            continue
        if _is_root_kernel(k):
            q = _KERNELS[k].exponent
            whole, rem = divmod(e * q.numerator, q.denominator)
            if whole:
                part = _poly_pow(_base_num(k), whole)
                extra = part if extra is None else _poly_mul(extra, part)
            if rem:
                if q.numerator != 1:
                    k = _kid(Pow(_KERNELS[k].base, Fraction(1, q.denominator)))
                items.append((k, rem))
        else:
            items.append((k, e))
    rank = _RANK
    mono_poly = {tuple(sorted(items, key=lambda kv: rank[kv[0]])): 1}
    if extra is None:
        return mono_poly
    return _poly_mul(extra, mono_poly)


def _poly_add(p1, p2):
    out = dict(p1)
    for m, c in p2.items():
        nc = out.get(m, 0) + c
        if nc:
            out[m] = nc if type(nc) is int else exact(nc)
        else:
            out.pop(m, None)
    return out


def _poly_scale(p, c):
    if c == 0:
        return {}
    return {m: exact(v * c) for m, v in p.items()}


def _poly_mul(p1, p2):
    if len(p1) > 1 and len(p2) > 1 and len(p1) * len(p2) >= _VECTOR_PRODUCT:
        powers = {ke for p in (p1, p2) for m in p for ke in m}
        if max(e for _k, e in powers) < 128 and not any(_is_root_kernel(k) for k, _e in powers):
            order = sorted({k for k, _e in powers}, key=_RANK.__getitem__)
            return _poly_mul_vectors(p1, p2, order)
    out = {}
    rank, fold_at = _RANK, _FOLD_AT
    for m1, c1 in p1.items():
        n1 = len(m1)
        for m2, c2 in p2.items():
            # merge the two rank-ordered monomials
            if not m1:
                m = m2
            elif not m2:
                m = m1
            else:
                m = []
                i = j = 0
                n2 = len(m2)
                while i < n1 and j < n2:
                    t1, t2 = m1[i], m2[j]
                    k1, k2 = t1[0], t2[0]
                    if k1 == k2:
                        m.append((k1, t1[1] + t2[1]))
                        i += 1
                        j += 1
                    elif rank[k1] < rank[k2]:
                        m.append(t1)
                        i += 1
                    else:
                        m.append(t2)
                        j += 1
                m.extend(m1[i:])
                m.extend(m2[j:])
                m = tuple(m)
            for k, e in m:
                if e >= fold_at[k]:  # a root kernel folds into its base
                    break
            else:
                nc = out.get(m, 0) + c1 * c2
                if nc:
                    out[m] = nc if type(nc) is int else exact(nc)
                else:
                    out.pop(m, None)
                continue
            for m, c in _mono_mul(m1, m2).items():
                nc = out.get(m, 0) + c1 * c2 * c
                if nc:
                    out[m] = nc if type(nc) is int else exact(nc)
                else:
                    out.pop(m, None)
    return out


# term pairs from which a root-free product of two sums uses exponent vectors;
# with one single-term factor, converting costs more than merging
_VECTOR_PRODUCT = 16


def _poly_mul_vectors(p1, p2, order):
    """``_poly_mul`` of root-free polys over exponent vectors in ``order``.

    A vector is packed into an int, one byte per kernel, so multiplying two
    monomials is one int addition done in C, where merging them is a Python
    loop; the caller keeps every exponent below 128, so no byte carries
    into the next.  The products meet the same monomials in the same order,
    so the result is the same dict.
    """
    pos = {k: i for i, k in enumerate(order)}
    n = len(order)

    def packed(p):
        out = []
        for m, c in p.items():
            v = bytearray(n)
            for k, e in m:
                v[pos[k]] = e
            out.append((int.from_bytes(v, "little"), c))
        return out

    out = {}
    terms2 = packed(p2)
    for v1, c1 in packed(p1):
        for v2, c2 in terms2:
            v = v1 + v2
            nc = out.get(v, 0) + c1 * c2
            if nc:
                out[v] = nc if type(nc) is int else exact(nc)
            else:
                out.pop(v, None)
    result = {}
    for v, c in out.items():
        exps = v.to_bytes(n, "little")
        result[tuple(compress(zip(order, exps), exps))] = c
    return result


def _poly_pow(p, n):
    out = _POLY_ONE
    base = p
    while n:
        if n & 1:
            out = _poly_mul(out, base)
        n >>= 1
        if n:
            base = _poly_mul(base, base)
    return out


def _leading(p):
    """The largest monomial of p and its coefficient.

    Monomials compare lexicographically, kernels ascending by key and
    missing exponents 0 (``_mono_key``)."""
    best = max(p, key=_mono_key)
    return best, p[best]


def _mono_quotient(m, d):
    """m / d, or None unless d divides m; d maps kernel -> exponent and
    m's kernel order is kept."""
    out = []
    found = 0
    for k, e in m:
        f = d.get(k)
        if f is not None:
            if e < f:
                return None
            found += 1
            e -= f
            if not e:
                continue
        out.append((k, e))
    return tuple(out) if found == len(d) else None


def _mono_div(m2, m1):
    """m2 / m1 for a monomial m1 dividing m2; m2's kernel order is kept."""
    d1 = dict(m1)
    out = []
    for k, e in m2:
        e -= d1.get(k, 0)
        if e:
            out.append((k, e))
    return tuple(out)


def _sorted_terms(p):
    """(sort key, monomial) pairs of p, ascending: the leading one is last."""
    return sorted([(_mono_key(m), m) for m in p])


def _poly_div_exact(a, b):
    """a / b when the division is exact over the rationals, else None.

    The remainder's monomials are kept sorted, so each step takes the
    leading one from the end.  Its quotient term times b's leading term is
    that monomial itself, which is dropped outright; only the rest of b is
    multiplied out.  Where the leading monomial holds a power that folds,
    the whole of b is: a fold may add or cancel any monomial, and each is
    inserted or removed where it sorts.
    """
    if not b:
        return None
    fold_at = _FOLD_AT
    if b == _POLY_ONE and not any(e >= fold_at[k] for m in a for k, e in m):
        # a / 1 as the loop gives it: a's terms, leading one first
        return {m: a[m] for _k, m in reversed(_sorted_terms(a))}
    lb, cb = _leading(b)
    if a and _mono_quotient(_leading(a)[0], dict(lb)) is None:
        return None  # the loop's first step, taken before a is copied and sorted
    q = {}
    rem = dict(a)
    order = _sorted_terms(rem)
    version = _VERSION
    b_rest = dict(b)
    del b_rest[lb]
    lb = dict(lb)
    guard = 0
    while rem:
        guard += 1
        if guard > 20000:
            return None
        la = order[-1][1]
        mq = _mono_quotient(la, lb)
        if mq is None:
            return None
        cq = _quotient(rem[la], cb)
        q[mq] = exact(q.get(mq, 0) + cq)
        for k, e in la:
            if e >= fold_at[k]:
                prod = _poly_mul({mq: cq}, b)
                break
        else:
            del rem[la]
            order.pop()
            if not b_rest:
                continue
            prod = _poly_mul({mq: cq}, b_rest)
        if version != _VERSION:  # a fold interned a kernel; ranks moved
            version = _VERSION
            order = _sorted_terms(rem)
        for m, c in prod.items():
            old = rem.get(m)
            if old is None:
                rem[m] = -c
                insort(order, (_mono_key(m), m))
                continue
            nc = old - c
            if nc:
                rem[m] = nc if type(nc) is int else exact(nc)
            else:
                del rem[m]
                del order[bisect_left(order, (_mono_key(m), m))]
    return q


def _sin_reduce(p):
    """Eliminate even sin powers through sin^2 = 1 - cos^2."""
    kernels = _KERNELS
    while True:
        target = None
        for m in p:
            for k, e in m:
                if e >= 2 and type(kernels[k]) is Call and kernels[k].fn == "sin":
                    target = (m, k, e)
                    break
            if target:
                break
        if target is None:
            return p
        m, k, e = target
        c = p.pop(m)
        rest = tuple((kk, 1) if kk == k else (kk, ee) for kk, ee in m if kk != k or e % 2)
        cos2 = ((_kid(Call("cos", kernels[k].arg)), 2),)
        one_minus_cos2 = {_EMPTY_MONO: 1, cos2: -1}
        repl = _poly_mul({rest: c}, _poly_pow(one_minus_cos2, e // 2))
        p = _poly_add(p, repl)


def _root_part(b, p, r):
    """b**(p/r) as a (num Poly, den Poly) pair, b a canonical polynomial.

    No perfect-square folding happens here: sqrt(q^2) is |q|, not q, and the
    sign of q is not known statically.
    """
    k = pow_(b, Fraction(1, r))
    if isinstance(k, Rat):
        poly = {_EMPTY_MONO: k.value ** abs(p)}
        return (poly, _POLY_ONE) if p > 0 else (_POLY_ONE, poly)
    if not isinstance(k, Pow):
        # pow_ collapsed the root, e.g. nested roots merging
        return _nf(pow_(k, abs(p))) if p > 0 else _nf(pow_(k, -abs(p)))
    mono = {((_kid(k), abs(p)),): 1}
    return (mono, _POLY_ONE) if p > 0 else (_POLY_ONE, mono)


def _nf(e):
    """(numerator Poly, denominator Poly) of an expression."""
    if isinstance(e, Rat):
        return ({_EMPTY_MONO: e.value} if e.value else {}), _POLY_ONE
    if isinstance(e, Sym):
        return {((_kid(e), 1),): 1}, _POLY_ONE
    if isinstance(e, Add):
        num, den = {}, _POLY_ONE
        for t in e.terms:
            tn, td = _nf(t)
            if td == den:
                num = _poly_add(num, tn)
                continue
            q = _poly_div_exact(td, den)
            if q is not None:
                num = _poly_add(_poly_mul(num, q), tn)
                den = td
                continue
            q = _poly_div_exact(den, td)
            if q is not None:
                num = _poly_add(num, _poly_mul(tn, q))
                continue
            num = _poly_add(_poly_mul(num, td), _poly_mul(tn, den))
            den = _poly_mul(den, td)
        return num, den
    if isinstance(e, Mul):
        num, den = _POLY_ONE, _POLY_ONE
        for f in e.factors:
            fn_, fd = _nf(f)
            num = _poly_mul(num, fn_)
            den = _poly_mul(den, fd)
        return num, den
    if isinstance(e, Pow):
        q = e.exponent
        if q.denominator == 1:
            bn, bd = _nf(e.base)
            p = q.numerator
            if p >= 0:
                return _poly_pow(bn, p), _poly_pow(bd, p)
            if not bn:
                raise ZeroDenominator("negative power of an identically zero base")
            return _poly_pow(bd, -p), _poly_pow(bn, -p)
        base_num, base_den = as_fraction(e.base)
        num, den = _root_part(base_num, q.numerator, q.denominator)
        if not isinstance(base_den, Rat) or base_den.value != 1:
            dn, dd = _root_part(base_den, -q.numerator, q.denominator)
            num = _poly_mul(num, dn)
            den = _poly_mul(den, dd)
        return num, den
    if isinstance(e, Call):
        arg = simplify(e.arg)
        sign = 1
        if e.fn in _SIGN_AWARE and _leading_negative(arg):
            arg = simplify(neg(arg))
            sign = -1 if e.fn in _ODD_FUNCTIONS else 1
        comp = _inverse_composition(e.fn, arg)
        if comp is not None:
            num, den = _nf(comp)
            if sign == -1:
                num = _poly_scale(num, -1)
            return num, den
        if e.fn == "tan":
            s = {((_kid(Call("sin", arg)), 1),): sign}
            c = {((_kid(Call("cos", arg)), 1),): 1}
            return s, c
        folded = call(e.fn, arg)
        if isinstance(folded, Rat):
            return _nf(folded)
        return {((_kid(folded), 1),): sign}, _POLY_ONE
    raise TypeError(type(e))


def _inverse_composition(fn, arg):
    """Rewrite fn(inverse(t)) algebraically; valid on the principal branches."""
    if not isinstance(arg, Call):
        return None
    t = arg.arg
    if arg.fn == "arcsin":
        if fn == "sin":
            return t
        if fn == "cos":
            return pow_(sub(ONE, mul(t, t)), Fraction(1, 2))
        if fn == "tan":
            return mul(t, pow_(sub(ONE, mul(t, t)), Fraction(-1, 2)))
    if arg.fn == "arctan":
        if fn == "tan":
            return t
        if fn == "sin":
            return mul(t, pow_(add(ONE, mul(t, t)), Fraction(-1, 2)))
        if fn == "cos":
            return pow_(add(ONE, mul(t, t)), Fraction(-1, 2))
    if arg.fn == "log" and fn == "exp":
        return t
    if arg.fn == "exp" and fn == "log":
        return t
    return None


def _leading_negative(arg):
    if isinstance(arg, Rat):
        return arg.value < 0
    if isinstance(arg, Sym):
        return False
    num, _den = _nf(arg)
    if not num:
        return False
    _m, c = _leading(num)
    return c < 0


def _root_kernels_of(p):
    out = {}
    for m in p:
        for k, e in m:
            if _is_root_kernel(k):
                out.setdefault(k, []).append(e)
    return out


def _rationalize(num, den):
    """Clear root kernels from the denominator where a uniform or conjugate
    multiplier exists; multipliers are non-negative where defined, so values
    are preserved on the domain of definition."""
    for _ in range(8):
        roots = _root_kernels_of(den)
        if not roots:
            return num, den
        changed = False
        for k, exps in roots.items():
            d = _KERNELS[k].exponent.denominator
            in_all = all(any(kk == k for kk, _e in m) for m in den)
            if in_all:
                residues = {e % d for e in exps}
                if len(residues) == 1:
                    r = residues.pop()
                    if r:
                        mult = {((k, d - r),): 1}
                        num = _poly_mul(num, mult)
                        den = _poly_mul(den, mult)
                        changed = True
                        break
            if d == 2 and all(e <= 1 for e in exps):
                # conjugate: den = A*K + B  ->  multiply by A*K - B
                a_part, b_part = {}, {}
                for m, c in den.items():
                    if any(kk == k for kk, _e in m):
                        a_part[_mono_div(m, ((k, 1),))] = c
                    else:
                        b_part[m] = c
                if a_part and b_part:
                    conj = _poly_add(
                        _poly_mul(a_part, {((k, 1),): 1}),
                        _poly_scale(b_part, -1),
                    )
                    new_den = _poly_mul(den, conj)
                    if not _root_kernels_of(new_den).get(k):
                        num = _poly_mul(num, conj)
                        den = new_den
                        changed = True
                        break
        if not changed:
            return num, den
    return num, den


# --- polynomial gcd (primitive PRS; may under-approximate, never wrong) ------


def _kernels_of_poly(p):
    out = set()
    for m in p:
        for k, _e in m:
            out.add(k)
    return out


def _deg_in(p, z):
    d = 0
    for m in p:
        for k, e in m:
            if k == z:
                d = max(d, e)
    return d


def _coeffs_in(p, z):
    """{degree: coefficient poly with z removed}"""
    out = {}
    for m, c in p.items():
        for i, (k, e) in enumerate(m):
            if k == z:
                rest = m[:i] + m[i + 1:]
                break
        else:
            e, rest = 0, m
        bucket = out.setdefault(e, {})
        if c:  # distinct monomials never meet in a bucket
            bucket[rest] = c
    return out


_GCD_SIZE_LIMIT = 400
_GCD_COEFF_BITS = 256


def _too_big(p):
    """The bail-out reason a gcd operand triggers ("size" or "bits"), or None."""
    if len(p) > _GCD_SIZE_LIMIT:
        return "size"
    for c in p.values():
        if (
            c.numerator.bit_length() > _GCD_COEFF_BITS
            or c.denominator.bit_length() > _GCD_COEFF_BITS
        ):
            return "bits"
    return None


def _bail_out(reason):
    """Count a gcd that gives up (and so under-approximates) by its reason."""
    trace.count("simplify.gcd_bailout." + reason)


def _poly_gcd(a, b, depth=0):
    """gcd up to a rational factor; returns 1-poly when it bails out."""
    if not a or not b:
        return dict(_POLY_ONE)
    reason = _too_big(a) or _too_big(b) or ("depth" if depth > 6 else None)
    if reason:
        _bail_out(reason)
        return dict(_POLY_ONE)
    common = _kernels_of_poly(a) & _kernels_of_poly(b)
    if not common:
        return dict(_POLY_ONE)
    z = min(common, key=_RANK.__getitem__)

    def content_and_primitive(p):
        coeffs = _coeffs_in(p, z)
        polys = list(coeffs.values())
        cont = polys[0]
        for q in polys[1:]:
            cont = _poly_gcd(cont, q, depth + 1)
            if cont == _POLY_ONE:
                break
        prim = _poly_div_exact(p, cont)
        if prim is None:
            return dict(_POLY_ONE), p
        return cont, prim

    cont_a, prim_a = content_and_primitive(a)
    cont_b, prim_b = content_and_primitive(b)
    A, B = prim_a, prim_b
    if _deg_in(A, z) < _deg_in(B, z):
        A, B = B, A
    guard = 0
    while B and _deg_in(B, z) > 0:
        guard += 1
        reason = ("guard" if guard > 30 else None) or _too_big(A) or _too_big(B)
        if reason:
            _bail_out(reason)
            return _poly_gcd(cont_a, cont_b, depth + 1)
        R = _pseudo_rem(A, B, z)
        if R is None:
            _bail_out("pseudo_rem")
            return _poly_gcd(cont_a, cont_b, depth + 1)
        _c, R = content_and_primitive(R) if R else (dict(_POLY_ONE), R)
        A, B = B, R
    if B:  # gcd in z is trivial
        g = dict(_POLY_ONE)
    else:
        g = A
    cont_g = _poly_gcd(cont_a, cont_b, depth + 1)
    return _poly_mul(g, cont_g)


def _pseudo_rem(A, B, z):
    db = _deg_in(B, z)
    lb = _coeffs_in(B, z).get(db, {})
    R = dict(A)
    guard = 0
    while R:
        dr = _deg_in(R, z)
        if dr < db:
            break
        guard += 1
        if guard > 60 or _too_big(R):
            return None
        lr = _coeffs_in(R, z).get(dr, {})
        shifted = _poly_mul(B, lr)
        if dr > db:  # a product never holds a monomial that still folds
            shifted = _poly_mul(shifted, {((z, dr - db),): 1})
        R = _poly_add(_poly_mul(R, lb), _poly_scale(shifted, -1))
    return R


def _cancel(num, den):
    if not den:
        raise ZeroDenominator("identically zero denominator")
    if not num:
        return {}, _POLY_ONE
    num, den = _rationalize(num, den)
    shared = None
    for p in (num, den):
        for m in p:
            d = dict(m)
            if shared is None:
                shared = d
            else:
                shared = {k: min(e, d.get(k, 0)) for k, e in shared.items() if d.get(k, 0) > 0}
    if shared:
        content = tuple((k, e) for k, e in shared.items() if e > 0)
        if content:
            num = {_mono_div(m, content): c for m, c in num.items()}
            den = {_mono_div(m, content): c for m, c in den.items()}
    if den != _POLY_ONE:
        q = _poly_div_exact(num, den)
        if q is not None:
            return q, dict(_POLY_ONE)
        q = _poly_div_exact(den, num)
        if q is not None:
            num, den = dict(_POLY_ONE), q
        elif len(num) == 1 or len(den) == 1:
            pass  # the content is out, so a single term is coprime to the other side
        elif len(num) > _GCD_SIZE_LIMIT or len(den) > _GCD_SIZE_LIMIT:
            _bail_out("size")
        else:
            g = _poly_gcd(num, den)
            if g != _POLY_ONE and len(g) > 0 and g != {_EMPTY_MONO: g.get(_EMPTY_MONO)}:
                qn = _poly_div_exact(num, g)
                qd = _poly_div_exact(den, g)
                if qn is not None and qd is not None:
                    num, den = qn, qd
    _m, lc = _leading(den)
    if lc != 1:
        inv = _quotient(1, lc)
        num = _poly_scale(num, inv)
        den = _poly_scale(den, inv)
    return num, den


def _mono_to_expr(mono, coeff):
    """The printed monomial, its factors shared through the atom table."""
    atoms = _ATOMS
    factors = []
    if coeff != 1 or not mono:
        c = atoms.get(coeff)
        if c is None:
            c = atoms[coeff] = Rat(coeff)
        factors.append(c)
    plain = True
    for ke in mono:
        f = atoms.get(ke)
        if f is None:
            k, e = ke
            f = atoms[ke] = _KERNELS[k] if e == 1 else pow_(_KERNELS[k], e)
        if type(f) is Mul or type(f) is Rat:  # a root power folded into its base
            plain = False
        factors.append(f)
    if not plain:
        return mul(*factors)
    return factors[0] if len(factors) == 1 else Mul(factors)


def _poly_to_expr(p):
    if not p:
        return ZERO
    terms = sorted(p.items(), key=lambda t: _mono_key(t[0]), reverse=True)
    return add(*(_mono_to_expr(m, c) for m, c in terms))


def _pair_to_expr(num, den):
    ne = _poly_to_expr(num)
    if den == _POLY_ONE:
        return ne
    return mul(ne, pow_(_poly_to_expr(den), -1))


def _normalize(e):
    num, den = _nf(e)
    num = _sin_reduce(num)
    den = _sin_reduce(den)
    return _cancel(num, den)


_CACHE: dict = {}
_CACHE_LIMIT = 200_000
_DERIVATIVES: dict = {}  # (expr, symbol name) -> differentiate's value
_FRACTIONS: dict = {}  # expr -> as_fraction's value


def simplify(e: Expr) -> Expr:
    """Canonical-ish normal form; value-preserving at generic points."""
    hit = _CACHE.get(e)
    if hit is not None:
        return hit
    return _simplify_new(e)


@_normalization
def _simplify_new(e):
    global _TABLE_STALE
    out = _pair_to_expr(*_normalize(e))
    if len(_CACHE) > _CACHE_LIMIT:
        _CACHE.clear()
        _DERIVATIVES.clear()
        _FRACTIONS.clear()
        _TABLE_STALE = True
    _CACHE[e] = out
    _CACHE[out] = out
    return out


@_normalization
def as_fraction(e: Expr):
    """Simplified (numerator, denominator) expression pair."""
    hit = _FRACTIONS.get(e)
    if hit is None:
        num, den = _normalize(e)
        hit = _poly_to_expr(num), _poly_to_expr(den)
        if len(_FRACTIONS) > _CACHE_LIMIT:
            _FRACTIONS.clear()
        _FRACTIONS[e] = hit
    return hit


@_normalization
def sqrt_of_square(e: Expr):
    """sqrt(e) when e is a perfect-square polynomial fraction, else None.

    The returned root has a positive leading coefficient; at points where
    the true square root is the negative branch, both branches appear among
    projective quadratic roots anyway.
    """
    num, den = _normalize(e)
    if not num:
        return ZERO
    rn = _poly_sqrt(num)
    rd = _poly_sqrt(den)
    if rn is None or rd is None:
        return None
    return _pair_to_expr(*_cancel(rn, rd))


def _poly_sqrt(p):
    """Exact square root of a polynomial, or None."""
    if not p:
        return {}
    lm, lc = _leading(p)
    if lc < 0 or any(exp % 2 for _k, exp in lm):
        return None
    root_c = _exact_rational_root(lc, HALF)
    if root_c is None:
        return None
    half = tuple((k, exp // 2) for k, exp in lm)
    r = {half: root_c}
    half_d = dict(half)
    for _ in range(200):
        diff = _poly_add(p, _poly_scale(_poly_mul(r, r), -1))
        if not diff:
            return r
        dm, dc = _leading(diff)
        # next term: leading(diff) / (2 * leading(r))
        tm = _mono_quotient(dm, half_d)
        if tm is None:
            return None
        term = {tm: _quotient(dc, 2 * root_c)}
        if _mono_key(tm) >= _mono_key(half):
            return None
        r = _poly_add(r, term)
    return None


@_normalization
def lcm_expr(a: Expr, b: Expr) -> Expr:
    """Least common multiple of two polynomial expressions (up to scale)."""
    an, ad = _nf(a)
    bn, bd = _nf(b)
    if ad != _POLY_ONE or bd != _POLY_ONE:
        return simplify(mul(a, b))
    q = _poly_div_exact(an, bn)
    if q is not None:
        return simplify(a)
    q = _poly_div_exact(bn, an)
    if q is not None:
        return simplify(b)
    g = _poly_gcd(an, bn)
    if g != _POLY_ONE:
        q = _poly_div_exact(bn, g)
        if q is not None:
            return simplify(mul(a, _pair_to_expr(q, dict(_POLY_ONE))))
    return simplify(mul(a, b))


def differentiate(e: Expr, name: str) -> Expr:
    """Exact partial derivative, returned in normal form."""
    key = (e, name)
    hit = _DERIVATIVES.get(key)
    if hit is None:
        hit = simplify(derivative(e, name))
        if len(_DERIVATIVES) > _CACHE_LIMIT:
            _DERIVATIVES.clear()
        _DERIVATIVES[key] = hit
    return hit
