"""Exact scalar arithmetic for the diagram categories.

Four kinds of coefficients are supported, selected by a :class:`RingTag`:

* ``Q`` -- rational numbers, optionally carrying a bound value for the
  category parameter (``t`` for partition diagrams, ``d`` for loops);
* ``poly`` -- polynomials in one indeterminate over the rationals;
* ``ratfun`` -- rational functions, stored as a reduced fraction with a
  monic denominator;
* ``numberfield`` -- the quotient ring Q[d]/(m) for a squarefree monic m.

Everything is exact: payloads are :class:`fractions.Fraction` values and
tuples thereof, in a unique canonical form, so equality and hashing are
structural.
"""

from __future__ import annotations

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
    TagMismatchError,
)

Coeffs = tuple  # dense polynomial coefficients, constant term first

# largest '^' exponent times the base's degree or coefficient bit height
# (see _growth) the parser will expand; golden outputs and benchmark
# inputs stay below 10
EXPONENT_CAP = 1000


# ---------------------------------------------------------------------------
# polynomial helpers on coefficient tuples


def _trim(cs: Iterable[Fraction]) -> Coeffs:
    cs = list(cs)
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


def _pmul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _trim(out)


def _pscale(a: Coeffs, c: Fraction) -> Coeffs:
    if c == 0:
        return ()
    return tuple(x * c for x in a)


def _pdivmod(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    if not b:
        raise DivisionByZeroError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b):
        c = r[-1] / lead
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
    if not a:
        return ()
    return _pscale(a, Fraction(1) / Fraction(a[-1]))


def _pgcd(a: Coeffs, b: Coeffs) -> Coeffs:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return _pmonic(a)


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
    u0, u1 = (Fraction(1),), ()
    v0, v1 = (), (Fraction(1),)
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _psub(u0, _pmul(q, u1))
        v0, v1 = v1, _psub(v0, _pmul(q, v1))
    if not r0:
        return (), u0, v0
    lead = Fraction(1) / Fraction(r0[-1])
    return _pscale(r0, lead), _pscale(u0, lead), _pscale(v0, lead)


# ---------------------------------------------------------------------------
# ring tags


@dataclass(frozen=True)
class RingTag:
    """Identifies a coefficient ring.

    ``kind`` is one of ``"Q"``, ``"poly"``, ``"ratfun"``, ``"numberfield"``.
    ``var`` names the indeterminate (``t`` or ``d``).  For ``Q``, ``value``
    optionally binds the category parameter to a rational number so that
    diagram composition can evaluate its parameter powers.  For
    ``numberfield``, ``minpoly`` is the monic defining polynomial.
    """

    kind: str
    var: str = "t"
    value: Optional[Fraction] = None
    minpoly: Optional[Coeffs] = None

    def __post_init__(self):
        if self.kind not in ("Q", "poly", "ratfun", "numberfield"):
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

    # -- constructors for elements ------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind in ("Q", "ratfun", "numberfield")

    def zero(self) -> "RingElement":
        return self.from_fraction(Fraction(0))

    def one(self) -> "RingElement":
        return self.from_fraction(Fraction(1))

    def from_fraction(self, q) -> "RingElement":
        q = Fraction(q)
        if self.kind == "Q":
            return RingElement(self, q)
        if self.kind == "poly":
            return RingElement(self, _trim((q,)))
        if self.kind == "ratfun":
            return RingElement(self, (_trim((q,)), (Fraction(1),)))
        return RingElement(self, _trim((q,)))

    def variable(self) -> "RingElement":
        """The indeterminate as an element (error for Q tags)."""
        x = (Fraction(0), Fraction(1))
        if self.kind == "poly":
            return RingElement(self, x)
        if self.kind == "ratfun":
            return RingElement(self, (x, (Fraction(1),)))
        if self.kind == "numberfield":
            return RingElement(self, _nf_reduce(x, self.minpoly))
        raise MissingParameterError(f"tag {self.kind} has no indeterminate")

    def parameter(self) -> "RingElement":
        """The category parameter (t or d) as a ring element."""
        if self.kind == "Q":
            if self.value is None:
                raise MissingParameterError(
                    "no numeric parameter value bound to this Q tag"
                )
            return RingElement(self, self.value)
        return self.variable()


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


def _nf_reduce(cs: Coeffs, m: Coeffs) -> Coeffs:
    return _pdivmod(cs, m)[1]


# ---------------------------------------------------------------------------
# ring elements


@dataclass(frozen=True)
class RingElement:
    """An exact scalar in the ring named by ``tag``.

    The payload is canonical: reduced Fraction for Q, trimmed coefficient
    tuple for poly and numberfield, and a gcd-reduced pair with monic
    denominator for ratfun.  Structural equality therefore decides ring
    equality.
    """

    tag: RingTag
    data: object

    # -- helpers -------------------------------------------------------

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.tag != self.tag:
                raise TagMismatchError(f"{other.tag} vs {self.tag}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.tag.from_fraction(other)
        raise TypeError(f"cannot coerce {other!r} into {self.tag}")

    def is_zero(self) -> bool:
        if self.tag.kind == "Q":
            return self.data == 0
        if self.tag.kind == "ratfun":
            return not self.data[0]
        return not self.data

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        k = self.tag.kind
        if k == "Q":
            return RingElement(self.tag, self.data + other.data)
        if k == "poly":
            return RingElement(self.tag, _padd(self.data, other.data))
        if k == "numberfield":
            return RingElement(self.tag, _padd(self.data, other.data))
        (n1, d1), (n2, d2) = self.data, other.data
        return _ratfun(self.tag, _padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))

    __radd__ = __add__

    def __neg__(self):
        k = self.tag.kind
        if k == "Q":
            return RingElement(self.tag, -self.data)
        if k in ("poly", "numberfield"):
            return RingElement(self.tag, _pneg(self.data))
        n, d = self.data
        return RingElement(self.tag, (_pneg(n), d))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        k = self.tag.kind
        if k == "Q":
            return RingElement(self.tag, self.data * other.data)
        if k == "poly":
            return RingElement(self.tag, _pmul(self.data, other.data))
        if k == "numberfield":
            return RingElement(
                self.tag, _nf_reduce(_pmul(self.data, other.data), self.tag.minpoly)
            )
        (n1, d1), (n2, d2) = self.data, other.data
        return _ratfun(self.tag, _pmul(n1, n2), _pmul(d1, d2))

    __rmul__ = __mul__

    def inv(self) -> "RingElement":
        """Multiplicative inverse; only defined for field tags."""
        if self.is_zero():
            raise DivisionByZeroError("inverse of zero")
        k = self.tag.kind
        if k == "Q":
            return RingElement(self.tag, 1 / self.data)
        if k == "ratfun":
            n, d = self.data
            return _ratfun(self.tag, d, n)
        if k == "numberfield":
            g, u, _ = _pxgcd(self.data, self.tag.minpoly)
            if len(g) != 1:
                raise DivisionByZeroError("element is a zero divisor modulo m")
            return RingElement(self.tag, _nf_reduce(_pscale(u, 1 / g[0]), self.tag.minpoly))
        raise DivisionByZeroError("inverse not available in a polynomial ring")

    def __truediv__(self, other):
        other = self._coerce(other)
        if self.tag.kind == "poly":
            # closure: only division by nonzero constants stays polynomial
            if other.is_zero():
                raise DivisionByZeroError("division by zero")
            if len(other.data) > 1:
                raise DivisionByZeroError("inverse not available in a polynomial ring")
            return self * self.tag.from_fraction(1 / other.data[0])
        return self * other.inv()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = self.tag.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- specialization and rendering -----------------------------------

    def evaluate(self, value) -> "RingElement":
        """Evaluate a poly/ratfun element at a rational parameter value."""
        value = Fraction(value)
        target = bound_q(value, self.tag.var)
        if self.tag.kind == "Q":
            return RingElement(target, self.data)
        if self.tag.kind == "poly":
            return RingElement(target, _peval(self.data, value))
        if self.tag.kind == "ratfun":
            n, d = self.data
            dv = _peval(d, value)
            if dv == 0:
                raise PoleError(f"pole at {self.tag.var} = {value}")
            return RingElement(target, _peval(n, value) / dv)
        raise TagMismatchError("cannot evaluate a numberfield element")

    def render(self) -> str:
        """Canonical text in the coefficient grammar."""
        k = self.tag.kind
        if k == "Q":
            return _render_fraction(self.data)
        if k in ("poly", "numberfield"):
            return _render_poly(self.data, self.tag.var)
        n, d = self.data
        if d == (Fraction(1),):
            return _render_poly(n, self.tag.var)
        num = _render_poly(n, self.tag.var)
        if _poly_term_count(n) > 1:
            num = f"({num})"
        den = _render_poly(d, self.tag.var)
        if not _is_bare_power(d):
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"<{self.render()}>"


def _ratfun(tag: RingTag, num: Coeffs, den: Coeffs) -> RingElement:
    if not den:
        raise DivisionByZeroError("zero denominator")
    if not num:
        return RingElement(tag, ((), (Fraction(1),)))
    g = _pgcd(num, den)
    if len(g) > 1:
        num = _pdivmod(num, g)[0]
        den = _pdivmod(den, g)[0]
    lead = Fraction(den[-1])
    if lead != 1:
        num = _pscale(num, 1 / lead)
        den = _pscale(den, 1 / lead)
    return RingElement(tag, (num, den))


def ring_element(tag: RingTag, value) -> RingElement:
    """Coerce an int/Fraction/string into ``tag``."""
    if isinstance(value, RingElement):
        if value.tag != tag:
            raise TagMismatchError(f"{value.tag} vs {tag}")
        return value
    if isinstance(value, str):
        return parse_coefficient(value, tag)
    return tag.from_fraction(value)


# ---------------------------------------------------------------------------
# rendering


def _render_fraction(q: Fraction) -> str:
    return str(q)


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
            body = _render_fraction(abs(c))
        elif abs(c) == 1:
            body = var if k == 1 else f"{var}^{k}"
        else:
            body = f"{_render_fraction(abs(c))}*{var}" + ("" if k == 1 else f"^{k}")
        if not parts:
            # a leading negative sign must live inside the integer literal
            if c < 0:
                if k == 0:
                    body = _render_fraction(c)
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
        return int(self.text[start : self.pos])


def parse_coefficient(text: str, tag: RingTag) -> RingElement:
    """Parse a coefficient-grammar expression into a canonical element.

    Grammar: ``expr := term (('+'|'-') term)*``;
    ``term := factor (('*'|'/') factor)*``; ``factor := atom ('^' uint)?``;
    ``atom := int | int '/' int | var | '(' expr ')'``.  A leading ``-`` on
    an expression is accepted as negation.
    """
    toks = _Tokens(text)
    value = _parse_expr(toks, tag)
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
    poly = tuple([Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)])
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _pdivmod(poly, _cyclotomic(d))
            assert not rem
    return poly


def _pair_power_basis(j: int) -> Coeffs:
    """C_j with C_j(x + 1/x) = x^j + x^-j: C_0 = 2, C_1 = y, C_{j+1} = y*C_j - C_{j-1}."""
    c0, c1 = (Fraction(2),), (Fraction(0), Fraction(1))
    if j == 0:
        return c0
    for _ in range(j - 1):
        c0, c1 = c1, _psub(_pmul((Fraction(0), Fraction(1)), c1), c0)
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
