"""Symbolic expression trees over exact rational constants.

Nodes: rational constant, symbol, n-ary sum and product, rational power and
the elementary functions sin, cos, tan, arcsin, arctan, exp, log (sqrt is
represented as a power with exponent 1/2).  Quotients and differences are
encoded through negative powers and (-1)-scaled terms.  All values are
immutable; the constructors below perform only cheap local folding, full
normalization lives in :mod:`triflat.simplify`.

A constant (``Rat.value``, ``Pow.exponent``) is an ``int`` when it is
integral and a ``Fraction`` only when it is not (:func:`exact`).  An int
hashes and compares equal to the Fraction it replaces, so keys, hashes and
``key()`` orders are those of all-Fraction trees; an int is only cheaper
to build, hash and evaluate.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import EvalError

FUNCTIONS = ("sin", "cos", "tan", "arcsin", "arctan", "exp", "log")


class Expr:
    __slots__ = ("_key", "_hash")

    def key(self):
        return self._key

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Expr) and self._key == other._key

    def __repr__(self):
        return f"<{type(self).__name__} {to_str(self)}>"

    def __str__(self):
        return to_str(self)

    # arithmetic sugar; accepts ints/Fractions on either side
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, q):
        return pow_(self, q)

    def __neg__(self):
        return neg(self)


def exact(v):
    """v as an int when it is integral, else as a Fraction."""
    if type(v) is int:
        return v
    if not isinstance(v, Fraction):
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


class Rat(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = exact(value)
        self._key = ("rat", self.value)
        self._hash = hash(self._key)


class Sym(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name
        self._key = ("sym", name)
        self._hash = hash(self._key)


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(terms)
        self._key = ("add",) + tuple(t._key for t in self.terms)
        self._hash = hash(self._key)


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = tuple(factors)
        self._key = ("mul",) + tuple(f._key for f in self.factors)
        self._hash = hash(self._key)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = exact(exponent)
        self._key = ("pow", base._key, self.exponent)
        self._hash = hash(self._key)


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        self.fn = fn
        self.arg = arg
        self._key = ("call", fn, arg._key)
        self._hash = hash(self._key)


ZERO = Rat(0)
ONE = Rat(1)
MINUS_ONE = Rat(-1)
HALF = Fraction(1, 2)


def as_expr(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction, float)):
        return Rat(v)
    if isinstance(v, str):
        return Sym(v)
    raise TypeError(f"cannot coerce {v!r} to Expr")


def add(*terms):
    flat = []
    const = 0
    for t in terms:
        t = as_expr(t)
        if isinstance(t, Add):
            for s in t.terms:
                if isinstance(s, Rat):
                    const += s.value
                else:
                    flat.append(s)
        elif isinstance(t, Rat):
            const += t.value
        else:
            flat.append(t)
    if const != 0:
        flat.append(Rat(const))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(flat)


def mul(*factors):
    flat = []
    const = 1
    for f in factors:
        f = as_expr(f)
        if isinstance(f, Mul):
            for g in f.factors:
                if isinstance(g, Rat):
                    const *= g.value
                else:
                    flat.append(g)
        elif isinstance(f, Rat):
            const *= f.value
        else:
            flat.append(f)
    if const == 0:
        return ZERO
    if const != 1:
        flat.insert(0, Rat(const))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Mul(flat)


def neg(e):
    return mul(MINUS_ONE, as_expr(e))


def sub(a, b):
    return add(a, neg(b))


def pow_(base, exponent):
    base = as_expr(base)
    if isinstance(exponent, Expr):
        if not isinstance(exponent, Rat):
            raise ValueError("exponent must be a rational constant")
        exponent = exponent.value
    q = exact(exponent)
    if q == 0:
        return ONE
    if q == 1:
        return base
    if isinstance(base, Rat):
        if q.denominator == 1:
            if base.value == 0 and q < 0:
                raise ZeroDivisionError("0 raised to a negative power")
            # an int to a negative int power is a float: fold in Fractions
            return Rat(Fraction(base.value) ** q)
        folded = _exact_rational_root(base.value, q)
        if folded is not None:
            return Rat(folded)
    if isinstance(base, Pow) and q.denominator == 1:
        # (b^r)^n = b^(rn) holds wherever b^r is defined
        return pow_(base.base, base.exponent * q)
    return Pow(base, q)


def _exact_rational_root(value, q):
    """value**q, exact (see ``exact``), or None when it is irrational."""
    if value < 0:
        return None
    p, r = q.numerator, q.denominator
    rn, rd = _exact_iroot(value.numerator, r), _exact_iroot(value.denominator, r)
    if rn is None or rd is None:
        return None
    base = Fraction(rn, rd)
    if p < 0 and base == 0:
        return None
    return exact(base**p)


def _exact_iroot(n, r):
    """The integer k >= 0 with k**r == n, or None; exact for any size of n."""
    if r == 2:
        k = math.isqrt(n)
    elif n < 2:
        k = n
    else:
        # integer Newton iteration from above: 2**ceil(bits/r) > n**(1/r)
        k = 1 << -(-n.bit_length() // r)
        while True:
            nxt = ((r - 1) * k + n // k ** (r - 1)) // r
            if nxt >= k:
                break
            k = nxt
    return k if k**r == n else None


def div(a, b):
    return mul(as_expr(a), pow_(b, -1))


def call(fn, arg):
    arg = as_expr(arg)
    if fn == "sqrt":
        return pow_(arg, HALF)
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    if isinstance(arg, Rat):
        table = {
            ("sin", 0): ZERO,
            ("cos", 0): ONE,
            ("tan", 0): ZERO,
            ("arcsin", 0): ZERO,
            ("arctan", 0): ZERO,
            ("exp", 0): ONE,
            ("log", 1): ZERO,
        }
        hit = table.get((fn, arg.value))
        if hit is not None:
            return hit
    return Call(fn, arg)


def sin(e):
    return call("sin", e)


def cos(e):
    return call("cos", e)


def tan(e):
    return call("tan", e)


def exp(e):
    return call("exp", e)


def free_symbols(e):
    out = set()
    stack = [e]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Sym):
            out.add(cur.name)
        elif isinstance(cur, Add):
            stack.extend(cur.terms)
        elif isinstance(cur, Mul):
            stack.extend(cur.factors)
        elif isinstance(cur, Pow):
            stack.append(cur.base)
        elif isinstance(cur, Call):
            stack.append(cur.arg)
    return out


def subterms(e):
    """e, then the subterms of each of its children, left to right."""
    stack = [e]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, Add):
            stack.extend(reversed(cur.terms))
        elif isinstance(cur, Mul):
            stack.extend(reversed(cur.factors))
        elif isinstance(cur, Pow):
            stack.append(cur.base)
        elif isinstance(cur, Call):
            stack.append(cur.arg)


def substitute(e, mapping):
    """Replace symbols by expressions; mapping is name -> Expr."""
    if isinstance(e, Rat):
        return e
    if isinstance(e, Sym):
        return mapping.get(e.name, e)
    if isinstance(e, Add):
        return add(*(substitute(t, mapping) for t in e.terms))
    if isinstance(e, Mul):
        return mul(*(substitute(f, mapping) for f in e.factors))
    if isinstance(e, Pow):
        return pow_(substitute(e.base, mapping), e.exponent)
    if isinstance(e, Call):
        return call(e.fn, substitute(e.arg, mapping))
    raise TypeError(type(e))


_DERIV = {
    "sin": lambda u: cos(u),
    "cos": lambda u: neg(sin(u)),
    "tan": lambda u: add(ONE, pow_(tan(u), 2)),
    "arcsin": lambda u: pow_(sub(ONE, pow_(u, 2)), Fraction(-1, 2)),
    "arctan": lambda u: pow_(add(ONE, pow_(u, 2)), -1),
    "exp": lambda u: exp(u),
    "log": lambda u: pow_(u, -1),
}


def derivative(e, name):
    """Raw partial derivative, without the final normalization pass."""
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.name == name else ZERO
    if isinstance(e, Add):
        return add(*(derivative(t, name) for t in e.terms))
    if isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            df = derivative(f, name)
            if df is ZERO or df == ZERO:
                continue
            rest = e.factors[:i] + e.factors[i + 1 :]
            terms.append(mul(df, *rest))
        return add(*terms) if terms else ZERO
    if isinstance(e, Pow):
        db = derivative(e.base, name)
        if db == ZERO:
            return ZERO
        return mul(Rat(e.exponent), pow_(e.base, e.exponent - 1), db)
    if isinstance(e, Call):
        du = derivative(e.arg, name)
        if du == ZERO:
            return ZERO
        return mul(_DERIV[e.fn](e.arg), du)
    raise TypeError(type(e))


_MATH = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "arcsin": math.asin,
    "arctan": math.atan,
    "exp": math.exp,
    "log": math.log,
}


def evaluate(e, point):
    """Evaluate at a point (mapping symbol name -> float).

    Division by zero and domain violations raise :class:`EvalError`, which
    generic-point samplers treat as a resample request.
    """
    if isinstance(e, Rat):
        try:
            return float(e.value)
        except OverflowError:
            raise EvalError("domain", "constant beyond float range") from None
    if isinstance(e, Sym):
        try:
            return float(point[e.name])
        except KeyError:
            raise EvalError("domain", f"unbound symbol {e.name!r}") from None
    if isinstance(e, Add):
        return _fsum([evaluate(t, point) for t in e.terms])
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= evaluate(f, point)
        return out
    if isinstance(e, Pow):
        return _power(evaluate(e.base, point), e.exponent)
    if isinstance(e, Call):
        return _apply(evaluate(e.arg, point), e.fn)
    raise TypeError(type(e))


# the steps of evaluate at a sum, a power and a call, shared with evaluate_column
def _fsum(terms):
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError):  # inf - inf, or a finite sum past the float range
        raise EvalError("domain", "sum overflows") from None


def _power(b, q):
    if b == 0.0 and q < 0:
        raise EvalError("division", "division by zero")
    if b < 0.0 and q.denominator != 1:
        raise EvalError("domain", "fractional power of a negative base")
    try:
        return b ** float(q)
    except OverflowError:
        raise EvalError("domain", "overflow in power") from None


def _apply(u, fn):
    if fn == "arcsin" and not -1.0 <= u <= 1.0:
        raise EvalError("domain", "arcsin argument out of range")
    if fn == "log" and u <= 0.0:
        raise EvalError("domain", "log of a non-positive value")
    try:
        return _MATH[fn](u)
    except (ValueError, OverflowError):
        raise EvalError("domain", f"{fn} evaluation failed") from None


def evaluate_column(e, points, memo):
    """[:func:`evaluate` (e, p) for p in points], the EvalError raised at a
    point standing as its value.

    One post-order pass over the distinct subterms of e, each computed for
    all points with the float operations :func:`evaluate` performs, in its
    order, so the values agree bit for bit.  ``memo`` maps each subterm
    computed to its column; expressions evaluated at the same points may
    share it.
    """
    col = memo.get(e)
    if col is not None:
        return col
    if isinstance(e, Rat):
        try:
            col = [float(e.value)] * len(points)
        except OverflowError:
            col = [EvalError("domain", "constant beyond float range")] * len(points)
    elif isinstance(e, Sym):
        col = [float(p[e.name]) if e.name in p
               else EvalError("domain", f"unbound symbol {e.name!r}") for p in points]
    elif isinstance(e, Add):
        col = _combine(_fsum, [evaluate_column(t, points, memo) for t in e.terms])
    elif isinstance(e, Mul):  # math.prod multiplies 1 by each factor in turn, as evaluate does
        col = _combine(math.prod, [evaluate_column(f, points, memo) for f in e.factors])
    elif isinstance(e, Pow):
        col = _pointwise(_power, evaluate_column(e.base, points, memo), e.exponent)
    elif isinstance(e, Call):
        col = _pointwise(_apply, evaluate_column(e.arg, points, memo), e.fn)
    else:
        raise TypeError(type(e))
    memo[e] = col
    return col


def _stored(err):
    """err without the traceback and context that would keep frames alive."""
    err.__context__ = None
    return err.with_traceback(None)


def _combine(fn, cols) -> list:
    """fn of the values at each point of the columns, or the first EvalError
    among the values, which evaluate would raise before calling fn."""
    out = []
    for vals in zip(*cols):
        try:
            out.append(fn(vals))
        except (TypeError, EvalError) as err:  # TypeError: fn met an EvalError
            out.append(next((v for v in vals if type(v) is not float), None) or _stored(err))
    return out


def _pointwise(fn, col, arg) -> list:
    """fn(v, arg) at each float v of the column; an EvalError, met or raised,
    stands as the value."""
    out = []
    for v in col:
        if type(v) is float:
            try:
                v = fn(v, arg)
            except EvalError as err:
                v = _stored(err)
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# printing: the produced text re-parses to an expression with equal values

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _frac_str(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _paren(s, inner, outer):
    return f"({s})" if inner < outer else s


def _print(e, prec):
    if isinstance(e, Rat):
        if e.value < 0:
            return _paren(f"-{_frac_str(-e.value)}", _PREC_NEG, prec)
        s = _frac_str(e.value)
        return _paren(s, _PREC_MUL if "/" in s else _PREC_ATOM, prec)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Add):
        out = ""
        for i, t in enumerate(e.terms):
            sign, body = _split_sign(t)
            piece = _print(body, _PREC_ADD + 1)
            if i == 0:
                out = ("-" if sign < 0 else "") + piece
            else:
                out += (" - " if sign < 0 else " + ") + piece
        return _paren(out, _PREC_ADD, prec)
    if isinstance(e, Mul):
        num, den = [], []
        cnum, cden = 1, 1
        for f in e.factors:
            if isinstance(f, Rat):
                cnum, cden = f.value.numerator, f.value.denominator
            elif isinstance(f, Pow) and f.exponent < 0:
                den.append(pow_(f.base, -f.exponent))
            else:
                num.append(f)
        negative = cnum < 0
        parts = []
        if abs(cnum) != 1 or not num:
            parts.append(str(abs(cnum)))
        parts.extend(_print(f, _PREC_MUL + 1) for f in num)
        s = "*".join(parts)
        if cden != 1:
            s += "/" + str(cden)
        for d in den:
            s += "/" + _print(d, _PREC_MUL + 1)
        if negative:
            return _paren("-" + s, _PREC_ADD, prec)
        return _paren(s, _PREC_MUL, prec)
    if isinstance(e, Pow):
        if e.exponent == HALF:
            return f"sqrt({_print(e.base, 0)})"
        if e.exponent < 0:
            inv = pow_(e.base, -e.exponent)
            return _paren(f"1/{_print(inv, _PREC_MUL + 1)}", _PREC_MUL, prec)
        q = e.exponent
        es = _frac_str(q) if q.denominator == 1 else f"({_frac_str(q)})"
        return _paren(f"{_print(e.base, _PREC_ATOM)}^{es}", _PREC_POW, prec)
    if isinstance(e, Call):
        return f"{e.fn}({_print(e.arg, 0)})"
    raise TypeError(type(e))


def _split_sign(t):
    """(-1, |t|) for terms with a negative rational coefficient, else (1, t)."""
    if isinstance(t, Rat) and t.value < 0:
        return -1, Rat(-t.value)
    if isinstance(t, Mul):
        for f in t.factors:
            if isinstance(f, Rat) and f.value < 0:
                rest = [Rat(-f.value)] if f.value != -1 else []
                rest += [g for g in t.factors if g is not f]
                return -1, mul(*rest) if rest else ONE
    return 1, t


def to_str(e):
    return _print(e, 0)
