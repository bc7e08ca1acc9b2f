"""Exact scalar arithmetic for the diagram categories.

Four kinds of coefficients are supported, selected by a :class:`RingTag`:

* ``Q`` -- rational numbers, optionally carrying a bound value for the
  category parameter (``t`` for partition diagrams, ``d`` for loops);
* ``poly`` -- polynomials in one indeterminate over the rationals;
* ``ratfun`` -- rational functions, stored as a reduced fraction with a
  monic denominator;
* ``numberfield`` -- the quotient ring Q[d]/(m) for a squarefree monic m.

Everything is exact.  A ``Q`` payload, and each coefficient of the tuples
that are the other payloads, is a Python ``int`` when it is integral (most
are: at an integral parameter every structure constant is, and ``int``
arithmetic is many times faster) and a :class:`fractions.Fraction` with
denominator other than 1 when it is not.  Every payload has a unique
canonical form, so equality and hashing are structural.  One
convention holds everywhere: each tag carries the arithmetic of its
payloads, every container in partcat holds bare payloads of one ring and
calls its tag, and :class:`RingElement`, a payload boxed with its tag, is
the value the public API takes and returns.  What a ring can do and its
JSON spelling are tag properties too: no other module reads ``kind``.

Composition and trace sum many products x*y*param^loops into one
coefficient.  Each tag has an accumulator for such sums (``addmul`` and
``acc_value``) that normalizes once per sum instead of once per product
and addition: reduction modulo m happens once, and a rational-function
sum takes one gcd.  That gcd comes from a primitive remainder sequence
over Z (``_pgcd``), so its divisions stay in integers.

Q tags can also write a sparse vector of payloads as integers over one
common denominator and turn an integer quotient back into a canonical
payload (``to_z`` and ``from_z``), so a caller can run a whole sum of
products in ``int`` and divide once per result.  The other rings leave
both None.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

from .errors import (
    CapExceededError,
    CoeffParseError,
    DivisionByZeroError,
    MissingParameterError,
    PoleError,
    SchemaError,
    TagMismatchError,
)

Coeffs = tuple  # dense polynomial coefficients, constant term first

# largest '^' exponent times the base's degree or coefficient bit height
# (see _growth) the parser will expand; golden outputs and benchmark
# inputs stay below 10
EXPONENT_CAP = 1000


# ---------------------------------------------------------------------------
# polynomial helpers on coefficient tuples


def _q(x):
    """The canonical form of a rational: an int when it is integral.  It is
    a whole Q payload, and the rule ``_trim`` applies to each coefficient."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


def _trim(cs: Iterable) -> Coeffs:
    """Canonical coefficients: integral values as int, no trailing zeros."""
    cs = [c.numerator if c.denominator == 1 else c for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _padd(a: Coeffs, b: Coeffs) -> Coeffs:
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _pneg(a: Coeffs) -> Coeffs:
    return tuple(-c for c in a)


def _psub(a: Coeffs, b: Coeffs) -> Coeffs:
    return _padd(a, _pneg(b))


def _addmul_into(out: Optional[list], a: Coeffs, b: Coeffs, shift: int = 0) -> list:
    """out += a * b * x^shift in place (a new list for None), untrimmed;
    out grows as needed."""
    if out is None:
        out = []
    if a and b:
        grow = len(a) + len(b) - 1 + shift - len(out)
        if grow > 0:
            out += [0] * grow
        nonzero = [(j, cb) for j, cb in enumerate(b) if cb]
        for i, ca in enumerate(a, shift):
            if ca:
                for j, cb in nonzero:
                    out[i + j] += ca * cb
    return out


def _pmul(a: Coeffs, b: Coeffs) -> Coeffs:
    return _trim(_addmul_into(None, a, b))


def _pscale(a: Coeffs, c) -> Coeffs:
    if c == 0:
        return ()
    return _trim(x * c for x in a)


def _pdivmod(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    if not b:
        raise DivisionByZeroError("polynomial division by zero")
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b):
        top = r[-1]
        if type(top) is int and type(lead) is int and top % lead == 0:
            c = top // lead
        else:
            c = Fraction(top, lead)
        k = len(r) - len(b)
        q[k] = c
        for i, cb in enumerate(b):
            r[k + i] -= c * cb
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
    return _trim(q), _trim(r)


def _pmonic(a: Coeffs) -> Coeffs:
    if not a or a[-1] == 1:
        return a
    return _pscale(a, Fraction(1, a[-1]))


def _primitive(a: Coeffs) -> Coeffs:
    """The primitive integer polynomial that is a positive rational multiple
    of a nonzero a: denominators cleared, content taken out, leading
    coefficient positive."""
    den = math.lcm(*(c.denominator for c in a))
    if den != 1:
        a = tuple((c * den).numerator for c in a)
    content = math.gcd(*a)
    if a[-1] < 0:
        content = -content
    return a if content == 1 else tuple(c // content for c in a)


def _prem(a: Coeffs, b: Coeffs) -> Coeffs:
    """A nonzero integer multiple of the remainder of a by b, for integer
    polynomials: long division that scales the running remainder by b's
    leading coefficient only where a step's division is not exact."""
    r = list(a)
    lead, nb = b[-1], len(b)
    while len(r) >= nb:
        top = r[-1]
        if top % lead:
            r = [c * lead for c in r]
        else:
            top //= lead
        for i, cb in enumerate(b, len(r) - nb):
            r[i] -= top * cb
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def _pgcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """The gcd of two polynomials over Q as a primitive integer polynomial
    with positive leading coefficient; () when both are zero.

    A primitive remainder sequence over Z (Collins 1967; Brown 1971):
    clear denominators, take out the content, pseudo-divide, and take the
    content out of each remainder again, so coefficients stay integers of
    the size of the inputs'.  By Gauss's lemma, an integer polynomial
    divided by this gcd has an integer quotient.
    """
    if not a or not b:
        return _primitive(a or b) if a or b else ()
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return (1,)


def _pderiv(a: Coeffs) -> Coeffs:
    return _trim(i * c for i, c in enumerate(a) if i)


def _peval(a: Coeffs, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


def _pxgcd(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs, Coeffs]:
    """Extended gcd: returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = a, b
    u0, u1 = (1,), ()
    v0, v1 = (), (1,)
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _psub(u0, _pmul(q, u1))
        v0, v1 = v1, _psub(v0, _pmul(q, v1))
    if not r0:
        return (), u0, v0
    lead = Fraction(1, r0[-1])
    return _pscale(r0, lead), _pscale(u0, lead), _pscale(v0, lead)


# ---------------------------------------------------------------------------
# payload arithmetic, one set of functions per ring kind


def _q_add(a, b):
    return _q(a + b)


def _q_sub(a, b):
    return _q(a - b)


def _q_mul(a, b):
    return _q(a * b)


def _inv_q(x):
    if not x:
        raise DivisionByZeroError("inverse of zero")
    return _q(Fraction(1, x))  # 1 / x would be a float for an int x


def _embed_q(q):
    return q if q.__class__ is int else _q(Fraction(q))


def _q_to_z(vector: dict) -> tuple[dict, int]:
    """Q payloads as integers over their least common denominator: (X, d)
    with vector[k] == X[k] / d for every key k."""
    d = math.lcm(*(c.denominator for c in vector.values()))
    return {k: c.numerator * (d // c.denominator) for k, c in vector.items()}, d


def _q_from_z(n: int, d: int):
    """The canonical Q payload n / d, for integers n and d > 0."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _inv_poly(x: Coeffs) -> Coeffs:
    if len(x) != 1:  # the units of Q[x] are the nonzero constants
        raise DivisionByZeroError(
            "inverse not available in a polynomial ring" if x else "inverse of zero"
        )
    return _trim((Fraction(1, x[0]),))


def _inv_ratfun(a):
    if not a[0]:
        raise DivisionByZeroError("inverse of zero")
    return _ratfun(a[1], a[0])


def _inv_nf(a: Coeffs, m: Coeffs) -> Coeffs:
    if not a:
        raise DivisionByZeroError("inverse of zero")
    g, u, _ = _pxgcd(a, m)
    if len(g) != 1:
        raise DivisionByZeroError("element is a zero divisor modulo m")
    return _pdivmod(u, m)[1]  # g == (1,)


def _const(q) -> Coeffs:
    return _trim((Fraction(q),))


def _ratfun(num: Coeffs, den: Coeffs):
    """The canonical payload num/den: gcd-reduced, monic denominator.

    The gcd is primitive, so integer num and den divide by it in integers.
    """
    if not num:
        return ((), (1,))
    g = _pgcd(num, den)
    if len(g) > 1:
        num = _pdivmod(num, g)[0]
        den = _pdivmod(den, g)[0]
    if den[-1] != 1:
        inv = Fraction(1, den[-1])
        num, den = _pscale(num, inv), _pscale(den, inv)
    return (num, den)


def _rf_add(a, b):
    (n1, d1), (n2, d2) = a, b
    return _ratfun(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))


def _rf_neg(a):
    return (_pneg(a[0]), a[1])


# ---------------------------------------------------------------------------
# sums of products: acc + x*y*param^loops, normalized once at the end
#
# ``addmul(acc, x, y, loops)`` returns the accumulator (``acc`` is None for
# an empty sum; a mutable one is updated in place) and ``acc_value(acc)``
# the canonical payload of the sum.  Between the two nothing is reduced.
# Q[t] and Q[d]/(m) sum into a coefficient list with ``_addmul_into``: the
# parameter is the variable, so its power is a shift.


def _addmul_ratfun(acc, x, y, loops: int) -> dict:
    # numerators summed per pair of denominators, whose product is taken once
    if acc is None:
        acc = {}
    key = (x[1], y[1])
    acc[key] = _addmul_into(acc.get(key), x[0], y[0], loops)
    return acc


def _rf_value(acc: dict):
    """The sum's payload: the groups brought over the lcm of their
    denominators, then one gcd against the summed numerator."""
    by_den: dict = {}
    for (d1, d2), num in acc.items():
        den = d2 if d1 == (1,) else d1 if d2 == (1,) else _pmul(d1, d2)
        old = by_den.get(den)
        by_den[den] = num if old is None else _addmul_into(old, num, (1,))
    total, common = (), (1,)
    for den, num in by_den.items():
        num = _trim(num)
        if not num:
            continue
        g = _pgcd(common, den)  # the denominators' gcd: small, unlike num's
        if len(g) > 1:
            den = _pdivmod(den, g)[0]
            num = _pmul(num, _pdivmod(common, g)[0])
        else:
            num = _pmul(num, common)
        total = _padd(_pmul(total, den), num)
        common = _pmul(common, den)
    return _ratfun(total, common)


def _q_addmul(powers: "_Powers"):
    def addmul(acc, x, y, loops):
        p = x * y
        if loops:
            p *= powers[loops]
        return p if acc is None else acc + p
    return addmul


_POLY = dict(zero_payload=(), one_payload=(1,), add=_padd, sub=_psub, neg=_pneg,
             mul=_pmul, inv=_inv_poly, is_zero=operator.not_, embed=_const,
             addmul=_addmul_into, acc_value=_trim, to_z=None, from_z=None)
_ARITHMETIC = {
    "Q": dict(zero_payload=0, one_payload=1, add=_q_add, sub=_q_sub, neg=operator.neg,
              mul=_q_mul, inv=_inv_q, is_zero=operator.not_, embed=_embed_q,
              acc_value=_q,  # addmul multiplies by the tag's powers
              to_z=_q_to_z, from_z=_q_from_z),
    "poly": _POLY,
    "ratfun": dict(zero_payload=((), (1,)), one_payload=((1,), (1,)), add=_rf_add,
                   sub=lambda a, b: _rf_add(a, _rf_neg(b)), neg=_rf_neg,
                   mul=lambda a, b: _ratfun(_pmul(a[0], b[0]), _pmul(a[1], b[1])),
                   inv=_inv_ratfun,
                   is_zero=lambda a: not a[0], embed=lambda q: (_const(q), (1,)),
                   addmul=_addmul_ratfun, acc_value=_rf_value, to_z=None, from_z=None),
    "numberfield": _POLY,  # mul, inv and acc_value reduce modulo the tag's minpoly
}
RING_NAMES = {"Q": "Q", "poly": "Qt", "ratfun": "Qratfun", "numberfield": "Qdelta"}
RING_KINDS = {v: k for k, v in RING_NAMES.items()}


# ---------------------------------------------------------------------------
# ring tags


@dataclass(frozen=True)
class RingTag:
    """Identifies a coefficient ring and carries its payload arithmetic.

    ``kind`` is one of ``"Q"``, ``"poly"``, ``"ratfun"``, ``"numberfield"``.
    ``var`` names the indeterminate (``t`` or ``d``).  For ``Q``, ``value``
    optionally binds the category parameter to a rational number so that
    diagram composition can evaluate its parameter powers.  For
    ``numberfield``, ``minpoly`` is the monic defining polynomial.

    The payload arithmetic is plain functions chosen once per tag (the Q
    ones apply the ``int``/``Fraction`` operators and turn an integral
    result back into an ``int``): ``zero_payload``,
    ``one_payload``, ``add``, ``sub``, ``neg``, ``mul``, ``inv``, ``embed``
    (the payload of a rational) and ``is_zero``.  A ratfun zero payload is
    a truthy tuple, so never test a payload's own truth value.

    ``addmul`` and ``acc_value`` sum products x*y*param^loops with one
    normalization per sum (see the functions of that name above); ``powers``
    maps an exponent to the payload param^exponent, filled on demand.

    Q tags can also leave payloads for Python integers and come back, so a
    long sum of products runs in ``int`` and divides once at the end:
    ``to_z(vector)`` writes a sparse vector of payloads as integers over
    their least common denominator, ``(X, d)`` with ``vector[k] == X[k] / d``,
    and ``from_z(n, d)`` is the canonical payload n / d.  Both are None for
    the other rings, whose payloads are not rationals.
    """

    kind: str
    var: str = "t"
    value: Optional[Fraction] = None
    minpoly: Optional[Coeffs] = None

    def __post_init__(self):
        if self.kind not in _ARITHMETIC:
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.var not in ("t", "d"):
            raise ValueError(f"unsupported indeterminate {self.var!r}")
        if self.value is not None and self.kind != "Q":
            raise ValueError("only Q tags carry a bound parameter value")
        if self.kind == "numberfield":
            m = self.minpoly
            if m is None or len(m) < 2:
                raise ValueError("numberfield requires a nonconstant minimal polynomial")
            if m[-1] != 1:
                raise ValueError("minimal polynomial must be monic")
            if len(_pgcd(m, _pderiv(m))) > 1:
                raise ValueError("minimal polynomial must be squarefree")
        elif self.minpoly is not None:
            raise ValueError("minpoly only applies to numberfield tags")
        powers = _Powers(self)
        self.__dict__.update(_ARITHMETIC[self.kind], powers=powers)
        if self.kind == "Q":
            self.__dict__["addmul"] = _q_addmul(powers)
        elif self.kind == "numberfield":
            m = self.minpoly
            self.__dict__.update(mul=lambda a, b: _pdivmod(_pmul(a, b), m)[1],
                                 inv=lambda a: _inv_nf(a, m),
                                 acc_value=lambda acc: _pdivmod(_trim(acc), m)[1])

    def __reduce__(self):
        # the arithmetic is rebuilt from the fields, never pickled
        return RingTag, (self.kind, self.var, self.value, self.minpoly)

    @property
    def is_field(self) -> bool:
        return self.kind in ("Q", "ratfun", "numberfield")

    @property
    def generic(self) -> bool:
        """True when the parameter is an indeterminate (poly, ratfun): no
        quantum integer vanishes, and payloads evaluate at a rational value."""
        return self.kind in ("poly", "ratfun")

    @property
    def splits_over_q(self) -> bool:
        """True for Q, the one ring in which the idempotent split finds the
        factors of a minimal polynomial (as its rational roots)."""
        return self.kind == "Q"

    @property
    def name(self) -> str:
        """The ring's name in JSON documents and on the command line."""
        return RING_NAMES[self.kind]

    # -- payloads -------------------------------------------------------

    def parameter_payload(self):
        """The category parameter (t or d) as a payload."""
        if self.kind == "Q":
            if self.value is None:
                raise MissingParameterError("no numeric parameter value bound to this Q tag")
            return _q(self.value)
        x = (0, 1)
        if self.kind == "ratfun":
            return (x, (1,))
        return _pdivmod(x, self.minpoly)[1] if self.kind == "numberfield" else x

    def coerce(self, value):
        """The payload of ``value``: an element of this ring, an int or a Fraction."""
        if isinstance(value, RingElement):
            if value.tag is not self and value.tag != self:
                raise TagMismatchError(f"{value.tag} vs {self}")
            return value.data
        if isinstance(value, (int, Fraction)):
            return self.embed(value)
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def power(self, x, n: int):
        """x^n by repeated squaring; a negative n inverts x first."""
        if n < 0:
            x, n = self.inv(x), -n
        mul = self.mul
        out = self.one_payload
        while n:
            if n & 1:
                out = mul(out, x)
            x = mul(x, x) if n > 1 else x
            n >>= 1
        return out

    def evaluate(self, x, value: Fraction) -> Fraction:
        """A poly or ratfun payload at a rational parameter value, as a Q payload."""
        if self.kind == "Q":
            return x
        if self.kind == "poly":
            return _q(_peval(x, value))
        if self.kind == "ratfun":
            n, d = x
            dv = _peval(d, value)
            if dv == 0:
                raise PoleError(f"pole at {self.var} = {value}")
            return _q(_peval(n, value) / dv)
        raise TagMismatchError("cannot evaluate a numberfield element")

    def render(self, x) -> str:
        """Canonical text of a payload in the coefficient grammar."""
        if self.kind == "Q":
            return str(x)
        if self.kind != "ratfun":
            return _render_poly(x, self.var)
        n, d = x
        if d == (1,):
            return _render_poly(n, self.var)
        num = _render_poly(n, self.var)
        if _poly_term_count(n) > 1:
            num = f"({num})"
        den = _render_poly(d, self.var)
        if not _is_bare_power(d):
            den = f"({den})"
        return f"{num}/{den}"

    # -- boxed elements -------------------------------------------------

    def zero(self) -> "RingElement":
        return RingElement(self, self.zero_payload)

    def one(self) -> "RingElement":
        return RingElement(self, self.one_payload)

    def from_fraction(self, q) -> "RingElement":
        return RingElement(self, self.embed(q))

    def variable(self) -> "RingElement":
        """The indeterminate as an element (error for Q tags)."""
        if self.kind == "Q":
            raise MissingParameterError(f"tag {self.kind} has no indeterminate")
        return RingElement(self, self.parameter_payload())

    def parameter(self) -> "RingElement":
        """The category parameter (t or d) as a ring element."""
        return RingElement(self, self.parameter_payload())


class _Powers(dict):
    """exponent -> the payload parameter^exponent of one tag, filled on demand."""

    def __init__(self, ring: RingTag):
        super().__init__()
        self.ring = ring

    def __missing__(self, exponent: int):
        ring = self.ring
        value = self[exponent] = ring.power(ring.parameter_payload(), exponent)
        return value


QQ = RingTag("Q")
POLY_T = RingTag("poly", "t")
RATFUN_T = RingTag("ratfun", "t")
POLY_D = RingTag("poly", "d")
RATFUN_D = RingTag("ratfun", "d")


def bound_q(value, var: str = "t") -> RingTag:
    """A Q tag with the category parameter bound to ``value``."""
    return RingTag("Q", var, Fraction(value))


def number_field(minpoly, var: str = "d") -> RingTag:
    """The quotient ring Q[var]/(m) for a monic squarefree m.

    ``minpoly`` may be a coefficient iterable, a coefficient-grammar string,
    or a polynomial :class:`RingElement`.
    """
    if isinstance(minpoly, str):
        minpoly = parse_coefficient(minpoly, RingTag("poly", var)).data
    elif isinstance(minpoly, RingElement):
        if minpoly.tag.kind != "poly":
            raise ValueError("minimal polynomial must be a polynomial element")
        minpoly = minpoly.data
    m = _pmonic(_trim(Fraction(c) for c in minpoly))
    return RingTag("numberfield", var, minpoly=m)


def tag_to_json(ring: RingTag, obj: dict):
    """Write the ring's fields (``ring``, and ``t`` or ``minpoly``) into obj."""
    obj["ring"] = ring.name
    if ring.value is not None:
        obj["t"] = str(ring.value)
    if ring.minpoly is not None:
        obj["minpoly"] = RingTag("poly", ring.var).render(ring.minpoly)


def tag_from_json(obj: dict, var: str) -> RingTag:
    """The ring a document's ``ring`` (and ``t`` or ``minpoly``) fields name."""
    name = obj.get("ring")
    if not isinstance(name, str) or name not in RING_KINDS:
        raise SchemaError(f"unknown ring name {name!r}", "/ring")
    kind = RING_KINDS[name]
    if kind == "Q":
        if "t" not in obj:
            return RingTag("Q", var)
        value = obj["t"]
        if isinstance(value, bool) or not isinstance(value, (str, int)):
            raise SchemaError("t must be a string or an integer", "/t")
        try:
            return bound_q(Fraction(value), var)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad parameter value: {exc}", "/t") from exc
    if kind == "numberfield":
        minpoly = obj.get("minpoly")
        if not isinstance(minpoly, str):
            raise SchemaError("Qdelta requires a minpoly string", "/minpoly")
        try:
            return number_field(minpoly, "d")
        except CoeffParseError:
            raise
        except ValueError as exc:
            raise SchemaError(f"bad minpoly: {exc}", "/minpoly") from exc
    return RingTag(kind, var)


# ---------------------------------------------------------------------------
# ring elements


class RingElement:
    """An exact scalar in the ring named by ``tag``: the boxed payload.

    The payload ``data`` is canonical: a rational for Q; a trimmed
    coefficient tuple for poly and numberfield; and a gcd-reduced pair of
    such tuples with monic denominator for ratfun.  A Q payload and each
    tuple coefficient is an ``int`` when integral and a ``Fraction``
    otherwise (see the module docstring).  Structural equality therefore
    decides ring equality.
    Elements are values: nothing assigns to ``tag`` or ``data`` after
    construction.  The arithmetic is the tag's.
    """

    __slots__ = ("tag", "data")

    def __init__(self, tag: RingTag, data: object):
        self.tag = tag
        self.data = data

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.tag, self.data) == (other.tag, other.data)

    def __hash__(self):
        return hash((self.tag, self.data))

    def is_zero(self) -> bool:
        return self.tag.is_zero(self.data)

    def __bool__(self) -> bool:
        return not self.tag.is_zero(self.data)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return RingElement(self.tag, self.tag.add(self.data, self.tag.coerce(other)))

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.tag, self.tag.neg(self.data))

    def __sub__(self, other):
        return RingElement(self.tag, self.tag.sub(self.data, self.tag.coerce(other)))

    def __rsub__(self, other):
        return RingElement(self.tag, self.tag.sub(self.tag.coerce(other), self.data))

    def __mul__(self, other):
        return RingElement(self.tag, self.tag.mul(self.data, self.tag.coerce(other)))

    __rmul__ = __mul__

    def inv(self) -> "RingElement":
        """Multiplicative inverse: fields, and the constants of Q[x]."""
        return RingElement(self.tag, self.tag.inv(self.data))

    def __truediv__(self, other):
        tag = self.tag
        return RingElement(tag, tag.mul(self.data, tag.inv(tag.coerce(other))))

    def __rtruediv__(self, other):
        tag = self.tag
        return RingElement(tag, tag.mul(tag.coerce(other), tag.inv(self.data)))

    def __pow__(self, n: int):
        return RingElement(self.tag, self.tag.power(self.data, n))

    # -- specialization and rendering -----------------------------------

    def evaluate(self, value) -> "RingElement":
        """Evaluate a poly/ratfun element at a rational parameter value."""
        value = Fraction(value)
        return RingElement(bound_q(value, self.tag.var), self.tag.evaluate(self.data, value))

    def render(self) -> str:
        """Canonical text in the coefficient grammar."""
        return self.tag.render(self.data)

    def __repr__(self):
        return f"<{self.render()}>"


# ---------------------------------------------------------------------------
# rendering


def _poly_term_count(cs: Coeffs) -> int:
    return sum(1 for c in cs if c)


def _is_bare_power(cs: Coeffs) -> bool:
    # matches var^k with unit coefficient, k >= 1: safe to render unparenthesized
    return len(cs) >= 2 and cs[-1] == 1 and all(c == 0 for c in cs[:-1])


def _render_poly(cs: Coeffs, var: str) -> str:
    if not cs:
        return "0"
    parts = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        elif abs(c) == 1:
            body = var if k == 1 else f"{var}^{k}"
        else:
            body = f"{str(abs(c))}*{var}" + ("" if k == 1 else f"^{k}")
        if not parts:
            # a leading negative sign must live inside the integer literal
            if c < 0:
                if k == 0:
                    body = str(c)
                elif abs(c) == 1:
                    body = f"-1*{body}"
                else:
                    body = f"-{body}"
            parts.append(body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# parsing


_DIGITS = frozenset("0123456789")  # str.isdigit also accepts digits int() rejects


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> Optional[str]:
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_symbol(self, sym: str) -> bool:
        if self.peek() == sym:
            self.pos += 1
            return True
        return False

    def expect(self, sym: str):
        if not self.take_symbol(sym):
            raise CoeffParseError(f"expected {sym!r}", self.pos)

    def take_uint(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise CoeffParseError("expected an integer", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # longer than Python's integer string limit
            raise CoeffParseError(f"integer of {self.pos - start} digits is too long", start) from None


def parse_coefficient(text: str, tag: RingTag) -> RingElement:
    """Parse a coefficient-grammar expression into a canonical element.

    Grammar: ``expr := term (('+'|'-') term)*``;
    ``term := factor (('*'|'/') factor)*``; ``factor := atom ('^' uint)?``;
    ``atom := int | int '/' int | var | '(' expr ')'``.  A leading ``-`` on
    an expression is accepted as negation.
    """
    toks = _Tokens(text)
    try:
        value = _parse_expr(toks, tag)
    except RecursionError:
        raise CoeffParseError("expression nested too deeply", toks.pos) from None
    toks._skip_ws()
    if toks.pos != len(text):
        raise CoeffParseError("unexpected trailing input", toks.pos)
    return value


def _parse_expr(toks: _Tokens, tag: RingTag) -> RingElement:
    negate = toks.take_symbol("-")
    value = _parse_term(toks, tag)
    if negate:
        value = -value
    while True:
        if toks.take_symbol("+"):
            value = value + _parse_term(toks, tag)
        elif toks.take_symbol("-"):
            value = value - _parse_term(toks, tag)
        else:
            return value


def _parse_term(toks: _Tokens, tag: RingTag) -> RingElement:
    value = _parse_factor(toks, tag)
    while True:
        if toks.take_symbol("*"):
            value = value * _parse_factor(toks, tag)
        elif toks.take_symbol("/"):
            pos = toks.pos
            rhs = _parse_factor(toks, tag)
            try:
                value = value / rhs
            except DivisionByZeroError as exc:
                raise CoeffParseError(str(exc), pos) from exc
        else:
            return value


def _parse_factor(toks: _Tokens, tag: RingTag) -> RingElement:
    value = _parse_atom(toks, tag)
    if toks.take_symbol("^"):
        pos = toks.pos
        exponent = toks.take_uint()
        if exponent * _growth(value) > EXPONENT_CAP:
            raise CapExceededError(
                f"power ^{exponent} exceeds the exponent cap {EXPONENT_CAP} (at position {pos})"
            )
        value = value**exponent
    return value


def _growth(value: RingElement) -> int:
    """How fast powers of value grow: the larger of its degree and the bit
    height of its rational coefficients, at least 1."""
    kind, data = value.tag.kind, value.data
    if kind == "Q":
        coeffs, degree = (data,), 0
    elif kind == "ratfun":
        coeffs, degree = data[0] + data[1], max(len(data[0]), len(data[1])) - 1
    else:  # poly, or numberfield, whose degree stays below the modulus's
        coeffs, degree = data, len(data) - 1 if kind == "poly" else 0
    height = max(
        (max(abs(c.numerator), c.denominator).bit_length() - 1 for c in coeffs),
        default=0,
    )
    return max(1, degree, height)


def _parse_atom(toks: _Tokens, tag: RingTag) -> RingElement:
    ch = toks.peek()
    if ch is None:
        raise CoeffParseError("unexpected end of input", toks.pos)
    if ch == "(":
        toks.expect("(")
        value = _parse_expr(toks, tag)
        toks.expect(")")
        return value
    if ch in ("t", "d"):
        pos = toks.pos
        toks.pos += 1
        if tag.kind == "Q" or ch != tag.var:
            raise CoeffParseError(f"indeterminate {ch!r} not allowed by tag", pos)
        return tag.variable()
    if ch == "-" or ch in _DIGITS:
        sign = -1 if toks.take_symbol("-") else 1
        num = toks.take_uint()
        # an integer atom may continue as int '/' int
        save = toks.pos
        if toks.take_symbol("/"):
            nxt = toks.peek()
            if nxt is not None and nxt in _DIGITS:
                pos = toks.pos
                den = toks.take_uint()
                if den == 0:
                    raise CoeffParseError("zero denominator", pos)
                return tag.from_fraction(Fraction(sign * num, den))
            toks.pos = save  # '/' belongs to the enclosing term
        return tag.from_fraction(sign * num)
    raise CoeffParseError(f"unexpected character {ch!r}", toks.pos)


# ---------------------------------------------------------------------------
# Chebyshev minimal polynomials for the loop parameter


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> Coeffs:
    poly = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _pdivmod(poly, _cyclotomic(d))
            assert not rem
    return poly


def _pair_power_basis(j: int) -> Coeffs:
    """C_j with C_j(x + 1/x) = x^j + x^-j: C_0 = 2, C_1 = y, C_{j+1} = y*C_j - C_{j-1}."""
    c0, c1 = (2,), (0, 1)
    if j == 0:
        return c0
    for _ in range(j - 1):
        c0, c1 = c1, _psub(_pmul((0, 1), c1), c0)
    return c1


def chebyshev_minpoly(l: int) -> RingElement:
    """Minimal polynomial over Q of d = q + 1/q at the smallest quantum-
    integer vanishing level ``l`` (so [l+1] = 0 and [k] != 0 for k <= l).

    The witness q is a primitive root of unity of the least order with
    q^2 of order l+1; its trace d = q + 1/q is obtained by folding the
    cyclotomic polynomial of that order.
    """
    if not 1 <= l <= 24:
        raise ValueError(f"l = {l} outside the supported range 1..24")
    m = l + 1
    order = m if m % 2 else 2 * m
    phi = _cyclotomic(order)
    s = (len(phi) - 1) // 2
    out: Coeffs = (phi[s],)
    for j in range(1, s + 1):
        out = _padd(out, _pscale(_pair_power_basis(j), phi[s + j]))
    assert out and out[-1] == 1
    return RingElement(POLY_D, out)
