"""The linear-combination core shared by partition and Temperley-Lieb morphisms."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partcat import pcat, tl
from partcat.coeff import chebyshev_minpoly, number_field
from partcat.errors import CapExceededError, CoeffParseError, SchemaError, TagMismatchError
from partcat.lincomb import LinComb, from_dict

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
    """Planar matchings are pair partitions: both kinds' kernels must agree."""

    @staticmethod
    def as_partition(d):
        return pcat.PartitionDiagram(d.bottom, d.top, d.pairs)

    @pytest.mark.parametrize("a,b,c", [(2, 2, 2), (1, 3, 1), (3, 3, 1), (4, 2, 4)])
    def test_compose(self, a, b, c):
        for f in tl.noncrossing_matchings(a, b):
            for g in tl.noncrossing_matchings(b, c):
                h, loops = tl._tl_compose(g, f)
                ph, interior = pcat._compose_diagrams(self.as_partition(g), self.as_partition(f))
                assert (ph.blocks, interior) == (h.pairs, loops)
                assert tl.TLDiagram(a, c, h.pairs) == h

    def test_tensor_dual_closure(self):
        for f in tl.noncrossing_matchings(1, 3):
            dual = tl._tl_dual(f)
            assert tl.TLDiagram(3, 1, dual.pairs) == dual
            assert dual.pairs == pcat._dual_diagram(self.as_partition(f)).blocks
            for g in tl.noncrossing_matchings(2, 2):
                prod = tl._tl_tensor(f, g)
                assert tl.TLDiagram(3, 5, prod.pairs) == prod
                assert prod.pairs == pcat._tensor_diagrams(
                    self.as_partition(f), self.as_partition(g)
                ).blocks
        for f in tl.noncrossing_matchings(3, 3):
            assert pcat._closure_parts(f) == pcat._closure_parts(self.as_partition(f))


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
