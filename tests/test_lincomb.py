"""The linear-combination core shared by partition and Temperley-Lieb morphisms."""

import inspect

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from partcat import pcat, tl
from partcat.coeff import POLY_D, POLY_T, chebyshev_minpoly, number_field
from partcat.errors import CapExceededError, CoeffParseError, SchemaError, TagMismatchError
from partcat.lincomb import LinComb, from_dict

import reference_kernels as reference

QDELTA = number_field(chebyshev_minpoly(5), "d")


@pytest.mark.parametrize("cls", [pcat.Morphism, tl.TLMorphism])
def test_kind_classes_hold_no_method_bodies(cls):
    for name, value in vars(cls).items():
        if inspect.isfunction(value):
            assert value is vars(LinComb)[name], name


class TestKindMixing:
    def pair(self):
        return pcat.identity(1, QDELTA), tl.tl_identity(1, QDELTA)

    def test_same_ring_different_kinds(self):
        p, t = self.pair()
        assert p.ring == t.ring
        assert p != t
        for op in (lambda a, b: a + b, lambda a, b: a @ b, lambda a, b: a.tensor(b)):
            with pytest.raises(TagMismatchError):
                op(p, t)
            with pytest.raises(TagMismatchError):
                op(t, p)

    def test_constructor_rejects_foreign_diagram(self):
        d = tl.TLDiagram(1, 1, ((0, 1),))
        with pytest.raises(TagMismatchError):
            pcat.Morphism(1, 1, QDELTA, {d: 1})


class TestKernelsAgree:
    """The TL kernels agree with the point-level reference and stay planar."""

    @pytest.mark.parametrize("a,b,c", [(2, 2, 2), (1, 3, 1), (3, 3, 1), (4, 2, 4)])
    def test_compose(self, a, b, c):
        for f in tl.noncrossing_matchings(a, b):
            for g in tl.noncrossing_matchings(b, c):
                h, loops = tl._tl_compose(g, f)
                assert (h.pairs, loops) == reference.compose(g, f)
                assert tl.TLDiagram(a, c, h.pairs) == h

    def test_tensor_dual_closure(self):
        for f in tl.noncrossing_matchings(1, 3):
            dual = tl._tl_dual(f)
            assert tl.TLDiagram(3, 1, dual.pairs) == dual
            assert dual.pairs == reference.dual(f)
            for g in tl.noncrossing_matchings(2, 2):
                prod = tl._tl_tensor(f, g)
                assert tl.TLDiagram(3, 5, prod.pairs) == prod
                assert prod.pairs == reference.tensor(f, g)
        for f in tl.noncrossing_matchings(3, 3):
            assert pcat._closure_parts(f) == reference.closure(f)


# -- the word kernels against the point-level reference, for both kinds

sizes = st.integers(0, 6)


@st.composite
def diagrams(draw, kind: str, bottom: int, top: int):
    """A random partition diagram, or a random planar matching (None if a+b is odd)."""
    if kind == "tl":
        basis = tl.noncrossing_matchings(bottom, top)
        return draw(st.sampled_from(basis)) if basis else None
    labels = draw(st.lists(st.integers(0, bottom + top), min_size=bottom + top, max_size=bottom + top))
    blocks = {}
    for p, label in enumerate(labels):
        blocks.setdefault(label, []).append(p)
    return pcat.PartitionDiagram(bottom, top, tuple(blocks.values()))


KERNELS = {
    "partition": (pcat._compose_diagrams, pcat._tensor_diagrams, pcat._dual_diagram),
    "tl": (tl._tl_compose, tl._tl_tensor, tl._tl_dual),
}


class TestWordKernels:
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["partition", "tl"]), a=sizes, b=sizes, c=sizes, data=st.data())
    def test_compose_matches_reference(self, kind, a, b, c, data):
        f, g = data.draw(diagrams(kind, a, b)), data.draw(diagrams(kind, b, c))
        assume(f is not None and g is not None)
        h, loops = KERNELS[kind][0](g, f)
        assert type(h) is type(f) and (h.bottom, h.top) == (a, c)
        assert (h.parts, loops) == reference.compose(g, f)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["partition", "tl"]), sizes=st.tuples(*[sizes] * 4), data=st.data())
    def test_tensor_dual_closure_match_reference(self, kind, sizes, data):
        a, b, c, d = sizes
        f, g = data.draw(diagrams(kind, a, b)), data.draw(diagrams(kind, c, d))
        assume(f is not None and g is not None)
        _, tensor, dual = KERNELS[kind]
        assert tensor(f, g).parts == reference.tensor(f, g)
        assert dual(f).parts == reference.dual(f)
        endo = data.draw(diagrams(kind, a, a))
        assert pcat._closure_parts(endo) == reference.closure(endo)

    @settings(max_examples=300, deadline=None)
    @given(a=sizes, b=sizes, data=st.data())
    def test_blocks_word_round_trip(self, a, b, data):
        d = data.draw(diagrams("partition", a, b))
        blocks = d.blocks
        assert blocks == tuple(sorted(tuple(sorted(x)) for x in blocks))
        word = d.word
        assert len(word) == a + b and d.nblocks == len(blocks)
        assert all(word[p] == k for k, block in enumerate(blocks) for p in block)
        assert all(word[i] <= max(word[:i], default=-1) + 1 for i in range(a + b))
        assert pcat._raw(pcat.PartitionDiagram, a, b, word, d.nblocks).blocks == blocks
        # a fresh copy from its blocks, written in another order
        shuffled = data.draw(st.permutations([data.draw(st.permutations(x)) for x in blocks]))
        again = pcat.PartitionDiagram(a, b, shuffled)
        assert again == d and hash(again) == hash(d) and again.blocks == blocks
        # == and hash follow the canonical blocks
        other = data.draw(diagrams("partition", a, b))
        assert (other == d) == (other.blocks == blocks)
        if other == d:
            assert hash(other) == hash(d)


# -- JSON reader: every document parses or fails with a schema/parse error
# (or, for a non-list "terms", a TypeError)


def base_doc(kind: str) -> dict:
    if kind == "tl":
        return {"kind": "tl", "source": 1, "target": 1, "ring": "Qratfun",
                "terms": [{"pairs": [[0, 1]], "coeff": "1"}]}
    return {"source": 1, "target": 1, "ring": "Qt", "terms": [{"blocks": [[0, 1]], "coeff": "1"}]}


def put(doc: dict, field: str, value) -> dict:
    if field == "coeff":
        doc["terms"][0]["coeff"] = value
    elif field == "t":
        doc.update(ring="Q", t=value)
    elif field == "minpoly":
        doc.update(ring="Qdelta", minpoly=value)
    else:
        doc[field] = value
    return doc


json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["partition", "tl"]),
    field=st.sampled_from(["source", "target", "terms", "coeff", "t", "minpoly"]),
    value=json_values,
)
def test_reader_raises_only_schema_or_parse_errors(kind, field, value):
    try:
        m = from_dict(put(base_doc(kind), field, value))
    except (SchemaError, CoeffParseError, CapExceededError):
        return
    except TypeError:
        # the one shape kept as a TypeError (see the reader)
        assert field == "terms" and not isinstance(value, list)
        return
    assert isinstance(m, LinComb)


class TestSpecializeCommutes:
    """Evaluating the parameter is a ring map, so it commutes with composition
    and with the categorical trace, for both kinds over Q[t] and Q[d]."""

    KINDS = {
        "partition": (pcat.Morphism, POLY_T, pcat.hom_basis, [0, 1, 2, 3]),
        "tl": (tl.TLMorphism, POLY_D, tl.noncrossing_matchings, [0, 2, 4]),
    }
    values = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    @classmethod
    def morphism(cls, data, kind, a, b):
        mcls, ring, basis, _ = cls.KINDS[kind]
        x = ring.variable()
        terms = {}
        for d in data.draw(st.lists(st.sampled_from(basis(a, b)), max_size=4)):
            cs = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
            terms[d] = sum((c * x**i for i, c in enumerate(cs)), ring.zero())
        return mcls(a, b, ring, terms)

    @classmethod
    def sizes(cls, data, kind, count):
        choices = cls.KINDS[kind][3]
        shift = data.draw(st.sampled_from([0, 1])) if kind == "tl" else 0
        return [data.draw(st.sampled_from(choices)) + shift for _ in range(count)]

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["partition", "tl"]), value=values, data=st.data())
    def test_compose(self, kind, value, data):
        a, b, c = self.sizes(data, kind, 3)
        f = self.morphism(data, kind, a, b)
        g = self.morphism(data, kind, b, c)
        assert (g @ f).specialize(value) == g.specialize(value) @ f.specialize(value)

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["partition", "tl"]), value=values, data=st.data())
    def test_trace(self, kind, value, data):
        (a,) = self.sizes(data, kind, 1)
        f = self.morphism(data, kind, a, a)
        assert f.trace().evaluate(value) == f.specialize(value).trace()
