"""Normalization of expressions to a rational normal form.

An expression is flattened to a pair of multivariate polynomials (numerator,
denominator) over *kernels*: symbols, elementary-function applications with
canonical arguments, and fractional powers of canonical polynomial bases.
tan is rewritten as sin/cos and even sin powers are eliminated through
sin^2 = 1 - cos^2, so Pythagorean combinations collapse.  Cancellation uses
joint monomial content plus exact polynomial division, and the denominator
is made monic under a fixed monomial order, which makes the map idempotent.

A polynomial is a dict from monomials to coefficients.  A monomial is a
tuple of (kernel, exponent) pairs in ascending kernel ``key()`` order, so a
product merges two ordered tuples; a coefficient is an ``int`` when it is
integral and a ``Fraction`` only when it is not.  The gcd may give up on
large or deep inputs and return 1; each such bail-out is counted by reason
(``simplify.gcd_bailout.<reason>``) when a :mod:`triflat.trace` collector
is active.

Cancellations such as x/x -> 1 and sqrt(x)^2 -> x are valid at generic
points of the domain where the expression is defined, matching the standing
generic-point semantics of the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import isqrt

from . import trace
from .errors import TriflatError
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
    mul,
    neg,
    pow_,
)

# Poly: dict monomial -> coefficient, an int when integral, else a Fraction.
# Monomial: tuple of (kernel Expr, exponent > 0), kernels ascending by key().
_EMPTY_MONO = ()
_POLY_ONE = {_EMPTY_MONO: 1}

_ODD_FUNCTIONS = ("sin", "tan", "arcsin", "arctan")
_SIGN_AWARE = ("sin", "cos", "tan", "arcsin", "arctan")


class ZeroDenominator(TriflatError):
    """The denominator normalizes to the zero polynomial."""


def _coeff(c):
    """A coefficient in stored form: the int when c is integral."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _quotient(a, b):
    """a / b for coefficients, exact."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return _coeff(Fraction(a, b))


def _is_root_kernel(k):
    return type(k) is Pow and k.exponent.denominator > 1


def _mono_merge(m1, m2):
    """The product of two monomials as a key-ordered tuple, or None when a
    root kernel reaches a power that folds into its base."""
    if not m1:
        out = m2
    elif not m2:
        out = m1
    else:
        out = []
        i = j = 0
        n1, n2 = len(m1), len(m2)
        while i < n1 and j < n2:
            t1, t2 = m1[i], m2[j]
            k1, k2 = t1[0], t2[0]
            if k1 is k2 or k1.key() == k2.key():
                out.append((k1, t1[1] + t2[1]))
                i += 1
                j += 1
            elif k1.key() < k2.key():
                out.append(t1)
                i += 1
            else:
                out.append(t2)
                j += 1
        out.extend(m1[i:])
        out.extend(m2[j:])
        out = tuple(out)
    for k, e in out:
        if type(k) is Pow:
            q = k.exponent
            if q.denominator > 1 and (q.numerator != 1 or e >= q.denominator):
                return None
    return out


def _mono_mul(m1, m2):
    """Multiply two monomials; root kernels fold back into their bases.

    Returns a Poly since folding sqrt(B)^2 -> B can expand into a sum.
    ``_poly_mul`` calls it only where ``_mono_merge`` finds a fold.
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
            d = k.exponent.denominator
            whole, rem = divmod(e * k.exponent.numerator, d)
            if whole:
                base_num, base_den = _nf(k.base)
                if base_den != _POLY_ONE:
                    raise AssertionError("root kernel bases are polynomial by construction")
                part = _poly_pow(base_num, whole)
                extra = part if extra is None else _poly_mul(extra, part)
            if rem:
                items.append((Pow(k.base, Fraction(1, d)), rem))
        else:
            items.append((k, e))
    mono_poly = {tuple(sorted(items, key=lambda kv: kv[0].key())): 1}
    if extra is None:
        return mono_poly
    return _poly_mul(extra, mono_poly)


def _poly_add(p1, p2):
    out = dict(p1)
    for m, c in p2.items():
        nc = out.get(m, 0) + c
        if nc:
            out[m] = nc if type(nc) is int else _coeff(nc)
        else:
            out.pop(m, None)
    return out


def _poly_scale(p, c):
    if c == 0:
        return {}
    return {m: _coeff(v * c) for m, v in p.items()}


def _poly_mul(p1, p2):
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = _mono_merge(m1, m2)
            if m is None:
                terms = _mono_mul(m1, m2).items()
            else:
                terms = ((m, 1),)
            for m, c in terms:
                nc = out.get(m, 0) + c1 * c2 * c
                if nc:
                    out[m] = nc if type(nc) is int else _coeff(nc)
                else:
                    out.pop(m, None)
    return out


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


def _mono_cmp(m1, m2):
    """Lex comparison; kernels ascending by key, missing exponents are 0."""
    i = j = 0
    while i < len(m1) or j < len(m2):
        k1 = m1[i][0].key() if i < len(m1) else None
        k2 = m2[j][0].key() if j < len(m2) else None
        if k2 is None or (k1 is not None and k1 < k2):
            return 1
        if k1 is None or k2 < k1:
            return -1
        e1, e2 = m1[i][1], m2[j][1]
        if e1 != e2:
            return 1 if e1 > e2 else -1
        i += 1
        j += 1
    return 0


def _leading(p):
    best = None
    for m in p:
        if best is None or _mono_cmp(m, best) > 0:
            best = m
    return best, p[best]


def _mono_divides(m1, m2):
    d2 = dict(m2)
    for k, e in m1:
        if d2.get(k, 0) < e:
            return False
    return True


def _mono_div(m2, m1):
    """m2 / m1 for a monomial m1 dividing m2; m2's kernel order is kept."""
    d1 = dict(m1)
    out = []
    for k, e in m2:
        e -= d1.get(k, 0)
        if e:
            out.append((k, e))
    return tuple(out)


def _poly_div_exact(a, b):
    """a / b when the division is exact over the rationals, else None."""
    if not b:
        return None
    q = {}
    rem = dict(a)
    lb, cb = _leading(b)
    guard = 0
    while rem:
        guard += 1
        if guard > 20000:
            return None
        la, ca = _leading(rem)
        if not _mono_divides(lb, la):
            return None
        mq = _mono_div(la, lb)
        cq = _quotient(ca, cb)
        q[mq] = _coeff(q.get(mq, 0) + cq)
        rem = _poly_add(rem, _poly_scale(_poly_mul({mq: cq}, b), -1))
    return q


def _sin_reduce(p):
    """Eliminate even sin powers through sin^2 = 1 - cos^2."""
    while True:
        target = None
        for m in p:
            for k, e in m:
                if isinstance(k, Call) and k.fn == "sin" and e >= 2:
                    target = (m, k, e)
                    break
            if target:
                break
        if target is None:
            return p
        m, k, e = target
        c = p.pop(m)
        rest = tuple((kk, 1) if kk == k else (kk, ee) for kk, ee in m if kk != k or e % 2)
        cos2 = ((Call("cos", k.arg), 2),)
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
        poly = {_EMPTY_MONO: _coeff(k.value ** abs(p))}
        return (poly, _POLY_ONE) if p > 0 else (_POLY_ONE, poly)
    if not isinstance(k, Pow):
        # pow_ collapsed the root, e.g. nested roots merging
        return _nf(pow_(k, Fraction(abs(p)))) if p > 0 else _nf(pow_(k, Fraction(-abs(p))))
    mono = {((k, abs(p)),): 1}
    return (mono, _POLY_ONE) if p > 0 else (_POLY_ONE, mono)


def _nf(e):
    """(numerator Poly, denominator Poly) of an expression."""
    if isinstance(e, Rat):
        return ({_EMPTY_MONO: _coeff(e.value)} if e.value else {}), _POLY_ONE
    if isinstance(e, Sym):
        return {((e, 1),): 1}, _POLY_ONE
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
            s = {((Call("sin", arg), 1),): sign}
            c = {((Call("cos", arg), 1),): 1}
            return s, c
        folded = call(e.fn, arg)
        if isinstance(folded, Rat):
            return _nf(folded)
        return {((folded, 1),): sign}, _POLY_ONE
    raise TypeError(type(e))


def _inverse_composition(fn, arg):
    """Rewrite fn(inverse(t)) algebraically; valid on the principal branches."""
    if not isinstance(arg, Call):
        return None
    t = arg.arg
    from .expr import ONE, sub as esub

    if arg.fn == "arcsin":
        if fn == "sin":
            return t
        if fn == "cos":
            return pow_(esub(ONE, mul(t, t)), Fraction(1, 2))
        if fn == "tan":
            return mul(t, pow_(esub(ONE, mul(t, t)), Fraction(-1, 2)))
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
            d = k.exponent.denominator
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
        e = 0
        rest = []
        for k, ex in m:
            if k == z:
                e = ex
            else:
                rest.append((k, ex))
        bucket = out.setdefault(e, {})
        mono = tuple(rest)
        bucket[mono] = _coeff(bucket.get(mono, 0) + c)
    return {e: {m: c for m, c in bucket.items() if c} for e, bucket in out.items()}


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
    z = sorted(common, key=lambda k: k.key())[0]

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
    while R and _deg_in(R, z) >= db:
        guard += 1
        if guard > 60 or _too_big(R):
            return None
        dr = _deg_in(R, z)
        lr = _coeffs_in(R, z).get(dr, {})
        zshift = {((z, dr - db),) if dr > db else _EMPTY_MONO: 1}
        R = _poly_add(
            _poly_mul(R, lb),
            _poly_scale(_poly_mul(_poly_mul(B, lr), zshift), -1),
        )
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
    factors = []
    if coeff != 1 or not mono:
        factors.append(Rat(coeff))
    for k, e in mono:
        factors.append(k if e == 1 else pow_(k, e))
    return mul(*factors)


def _poly_to_expr(p):
    if not p:
        return ZERO
    terms = sorted(p.items(), key=cmp_to_key(lambda a, b: _mono_cmp(b[0], a[0])))
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


def simplify(e: Expr) -> Expr:
    """Canonical-ish normal form; value-preserving at generic points."""
    hit = _CACHE.get(e)
    if hit is not None:
        return hit
    out = _pair_to_expr(*_normalize(e))
    if len(_CACHE) > _CACHE_LIMIT:
        _CACHE.clear()
    _CACHE[e] = out
    _CACHE[out] = out
    return out


def is_zero_symbolic(e: Expr) -> bool:
    """Structural zero test through the normal form (sound, not complete)."""
    num, _den = _nf(e)
    return not _sin_reduce(num)


def as_fraction(e: Expr):
    """Simplified (numerator, denominator) expression pair."""
    num, den = _normalize(e)
    return _poly_to_expr(num), _poly_to_expr(den)


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
    root_c = _exact_sqrt(lc)
    if root_c is None:
        return None
    half = tuple((k, exp // 2) for k, exp in lm)
    r = {half: root_c}
    for _ in range(200):
        diff = _poly_add(p, _poly_scale(_poly_mul(r, r), -1))
        if not diff:
            return r
        dm, dc = _leading(diff)
        # next term: leading(diff) / (2 * leading(r))
        if not _mono_divides(half, dm):
            return None
        tm = _mono_div(dm, half)
        term = {tm: _quotient(dc, 2 * root_c)}
        if _mono_cmp(tm, half) >= 0:
            return None
        r = _poly_add(r, term)
    return None


def _exact_sqrt(q):
    if q < 0:
        return None
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return _quotient(rn, rd)


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
    from .expr import derivative

    return simplify(derivative(e, name))
