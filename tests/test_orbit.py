"""Orbit coordinates for partition morphisms against the diagram side.

Each kernel in orbit coordinates (product, tensor, dual, strand insertion)
must agree with the diagram kernel through ``to_orbit``, and ``from_orbit``
must invert ``to_orbit``.  Factors have at most 6 points and composites at
most 8, since ``to_orbit`` of a diagram with k blocks has Bell(k) terms.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partcat.coeff import POLY_T, RATFUN_T, bound_q
from partcat.delta import theta
from partcat.errors import TagMismatchError
from partcat.lincomb import from_dict, to_dict
from partcat.pcat import (
    Morphism,
    OrbitMorphism,
    PartitionDiagram,
    _raw,
    from_orbit,
    identity,
    permutation,
    permute_top,
    to_orbit,
)

RINGS = [POLY_T, RATFUN_T, bound_q(2), bound_q(1), bound_q(Fraction(1, 2))]
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def diagrams(draw, a: int, b: int):
    """A partition diagram a -> b, drawn as a restricted-growth word."""
    word, blocks = [], 0
    for _ in range(a + b):
        label = draw(st.integers(0, blocks))
        blocks = max(blocks, label + 1)
        word.append(label)
    return _raw(PartitionDiagram, a, b, tuple(word), blocks)


@st.composite
def morphisms(draw, a: int, b: int, ring):
    terms = draw(st.dictionaries(diagrams(a, b), st.integers(-3, 3), min_size=1, max_size=3))
    return Morphism(a, b, ring, terms)


@st.composite
def composable(draw):
    """(g, f) with f: a -> b, g: b -> c, each at most 6 points, a + c <= 8."""
    b = draw(st.integers(0, 3))
    a = draw(st.integers(0, 6 - b))
    c = draw(st.integers(0, min(6 - b, 8 - a)))
    ring = draw(st.sampled_from(RINGS))
    return draw(morphisms(b, c, ring)), draw(morphisms(a, b, ring))


@st.composite
def tensorable(draw):
    """(f, g) with at most 8 points between them."""
    ring = draw(st.sampled_from(RINGS))
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    c = draw(st.integers(0, min(3, 8 - a - b)))
    d = draw(st.integers(0, min(3, 8 - a - b - c)))
    return draw(morphisms(a, b, ring)), draw(morphisms(c, d, ring))


@st.composite
def single(draw):
    ring = draw(st.sampled_from(RINGS))
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return draw(morphisms(a, b, ring))


@PROPERTY
@given(single())
def test_from_orbit_inverts_to_orbit(m):
    o = to_orbit(m)
    assert isinstance(o, OrbitMorphism)
    assert from_orbit(o) == m
    assert to_orbit(from_orbit(o)) == o


@PROPERTY
@given(composable())
def test_product_matches_composition(pair):
    g, f = pair
    assert to_orbit(g) @ to_orbit(f) == to_orbit(g @ f)


@PROPERTY
@given(tensorable())
def test_tensor_matches_diagrams(pair):
    f, g = pair
    assert to_orbit(f).tensor(to_orbit(g)) == to_orbit(f.tensor(g))


@PROPERTY
@given(single(), st.sampled_from(["source", "target", "endo"]), st.data())
def test_dual_and_theta_commute_with_to_orbit(m, variant, data):
    assert to_orbit(m).dual() == to_orbit(m.dual())
    n = m.target if variant == "target" else m.source
    if variant == "endo" and m.source != m.target or n == 0:
        return
    j = data.draw(st.integers(1, n))
    assert theta(to_orbit(m), j, variant) == to_orbit(theta(m, j, variant))


@PROPERTY
@given(single(), st.data())
def test_permute_top_is_composition_with_a_permutation(m, data):
    sigma = data.draw(st.permutations(range(m.target)))
    o = to_orbit(m)
    expected = to_orbit(permutation(sigma, o.ring)) @ o
    assert permute_top(sigma, o) == expected == to_orbit(permutation(sigma, o.ring) @ m)


class TestOrbitBasis:
    def test_identity_is_the_sum_over_strand_partitions(self):
        # id_2 = d_{12|1'2'} is o_{12|1'2'} + o_{121'2'}
        merged = PartitionDiagram(2, 2, ((0, 1, 2, 3),))
        (id2,) = identity(2).terms
        assert to_orbit(identity(2)) == OrbitMorphism(2, 2, POLY_T, {id2: 1, merged: 1})

    def test_loops_become_falling_factorials(self):
        # cap after cup of o_{11'}: the middle-only block is one closed loop,
        # so the product is (t - 0)_1 = t, and at t = 0 it vanishes
        cup = PartitionDiagram(0, 2, ((0, 1),))
        cap = PartitionDiagram(2, 0, ((0, 1),))
        for ring, expected in [(POLY_T, POLY_T.variable()), (bound_q(0), 0)]:
            o_cup, o_cap = OrbitMorphism(0, 2, ring, {cup: 1}), OrbitMorphism(2, 0, ring, {cap: 1})
            empty = PartitionDiagram(0, 0, ())
            assert o_cap @ o_cup == OrbitMorphism(0, 0, ring, {empty: expected})

    def test_kinds_do_not_mix(self):
        with pytest.raises(TagMismatchError):
            to_orbit(identity(1)) @ identity(1)
        assert to_orbit(identity(1)) != identity(1)

    def test_documents_without_a_kind_are_read_as_diagrams(self):
        doc = {"source": 1, "target": 1, "ring": "Qt", "terms": [{"blocks": [[0, 1]], "coeff": "1"}]}
        assert type(from_dict(doc)) is Morphism

    def test_orbit_morphisms_have_no_document(self):
        # without a kind of its own, the document would read back as the
        # diagram morphism with the same coefficients
        with pytest.raises(TypeError):
            to_dict(to_orbit(identity(1)))
