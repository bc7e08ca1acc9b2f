import functools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partcat import algkit, cli, pcat, tl
from partcat.algkit import (
    _combine,
    _Quotient,
    _rational_roots,
    _SplitContext,
    FinDimAlgebra,
    algebra_to_dict,
    corner_algebra,
    decomposition_to_list,
    end_algebra_partition,
    end_algebra_tl,
    identify_summand,
    radical,
    radical_morphisms,
    split_idempotent,
)
from partcat.coeff import RATFUN_D, RingElement, bound_q, chebyshev_minpoly, number_field
from partcat.errors import CapExceededError, SplitError
from partcat.linalg import Span, kernel, rank
from partcat.pcat import PartitionDiagram, diagram_morphism, hom_basis, identity, is_negligible
from partcat.young import YoungDiagram as Y

import reference_kernels as reference

E_DIAGRAM = PartitionDiagram(1, 1, ((0,), (1,)))


class TestEndAlgebra:
    def test_partition_t1(self):
        A = end_algebra_partition(1, 1)
        assert A.dim == 2
        e = A.from_morphism(diagram_morphism(E_DIAGRAM, A.tag))
        assert A.mul(e, e) == e  # e.e = t e = e at t = 1

    def test_partition_t0_nilpotent(self):
        A = end_algebra_partition(1, 0)
        e = A.from_morphism(diagram_morphism(E_DIAGRAM, A.tag))
        assert A.mul(e, e) == {}

    def test_tl_generic(self):
        A = end_algebra_tl(2)
        assert A.dim == 2
        e1 = A.from_morphism(tl.tl_e(1, 2))
        assert A.mul(e1, e1) == A.scale(e1, RATFUN_D.variable())

    def test_caps(self):
        assert end_algebra_partition(1, 1).dim == 2
        assert end_algebra_tl(3).dim == 5
        with pytest.raises(CapExceededError):
            end_algebra_partition(4, 0)
        with pytest.raises(CapExceededError):
            end_algebra_tl(7)

    @pytest.mark.parametrize(
        "build",
        [lambda: end_algebra_partition(2, 0), lambda: end_algebra_tl(4, bound_q(0, "d"))],
        ids=["partition-t0", "tl-d0"],
    )
    def test_no_zero_coefficients_at_zero_parameter(self, build):
        A = build()
        assert not any(A.tag.is_zero(c) for row in A.table for cell in row for c in cell.values())
        assert any(cell == {} for row in A.table for cell in row)  # loops at 0 vanish

    def test_zero_product_dumps_as_empty_cell(self):
        A = end_algebra_partition(1, 0)
        e = A.from_morphism(diagram_morphism(E_DIAGRAM, A.tag))
        (e_index,) = e
        assert algebra_to_dict(A)["structure"][e_index][e_index] == []

    def test_unit_is_identity_diagram(self):
        A = end_algebra_partition(2, 1)
        ident = A.from_morphism(identity(2, A.tag))
        assert A.unit == ident

    def test_roundtrip_morphism(self):
        A = end_algebra_partition(1, 5)
        m = diagram_morphism(E_DIAGRAM, A.tag).scale(A.tag.from_fraction(Fraction(2, 3)))
        assert A.to_morphism(A.from_morphism(m)) == m


@pytest.mark.parametrize(
    "generic, at",
    [
        (lambda: end_algebra_tl(4), lambda v: end_algebra_tl(4, bound_q(v, "d"))),
        (lambda: end_algebra_partition(2, None), lambda v: end_algebra_partition(2, v)),
    ],
    ids=["tl4-over-Qd", "p2-over-Qt"],
)
def test_trace_form_commutes_with_specialization(generic, at):
    """Each trace-form entry over the rational-function field, evaluated at
    0, 1 and 2, is the entry of the algebra built over Q there."""
    A = generic()
    form = A.trace_form()
    for v in range(3):
        B = at(v)
        assert B.labels == A.labels
        assert [[A.tag.evaluate(x, Fraction(v)) for x in row] for row in form] == B.trace_form()


class TestRadical:
    def test_three_regimes(self):
        assert radical(end_algebra_partition(1, 1)) == []
        A0 = end_algebra_partition(1, 0)
        rad = radical_morphisms(A0)
        assert [m for m in rad] == [diagram_morphism(E_DIAGRAM, A0.tag)]
        assert radical(end_algebra_partition(1, None)) == []
        assert radical(end_algebra_tl(2)) == []

    def test_radical_is_nilpotent(self):
        A = end_algebra_partition(2, 0)
        rad = radical(A)
        for x in rad:
            power = x
            for _ in range(A.dim):
                power = A.mul(power, x)
            assert power == {}

    def test_radical_in_gram_kernel(self):
        # radical elements are negligible morphisms (containment only)
        for t in (0, 1):
            A = end_algebra_partition(2, t)
            for m in radical_morphisms(A):
                assert is_negligible(m)


class TestSplit:
    def test_semisimple_split(self):
        A = end_algebra_partition(1, 1)
        dec = split_idempotent(A, A.unit)
        assert len(dec) == 2
        assert all(dec.primitive)
        traces = sorted(m.trace().data for m in dec.morphisms())
        assert traces == [Fraction(0), Fraction(1)]

    def test_local_algebra_is_unsplittable(self):
        A = end_algebra_partition(1, 0)
        dec = split_idempotent(A, A.unit)
        assert len(dec) == 1
        assert dec.morphisms()[0] == identity(1, A.tag)

    def test_zero_idempotent(self):
        A = end_algebra_partition(1, 1)
        assert len(split_idempotent(A, {})) == 0

    def test_non_idempotent_rejected(self):
        A = end_algebra_partition(1, 0)
        e = A.from_morphism(diagram_morphism(E_DIAGRAM, A.tag))
        with pytest.raises(ValueError):
            split_idempotent(A, e)

    def test_orthogonality_and_sum(self):
        A = end_algebra_partition(2, 1)
        dec = split_idempotent(A, A.unit)
        total = {}
        for v in dec.idempotents:
            total = A.add(total, v)
        assert total == A.unit
        for i, v in enumerate(dec.idempotents):
            assert A.mul(v, v) == v
            for w in dec.idempotents[i + 1 :]:
                assert A.mul(v, w) == {}

    def test_component_grouping(self):
        A = end_algebra_partition(2, 1)
        dec = split_idempotent(A, A.unit)
        # conjugate primitives share a component id and a trace
        by_comp = {}
        for vec, comp in zip(dec.idempotents, dec.component):
            by_comp.setdefault(comp, []).append(A.to_morphism(vec).trace())
        for traces in by_comp.values():
            assert len({t.data for t in traces}) == 1

    def test_split_under_cut(self):
        A = end_algebra_partition(1, 1)
        dec = split_idempotent(A, A.unit)
        piece = dec.idempotents[0]
        again = split_idempotent(A, piece)
        assert len(again) == 1 and again.idempotents[0] == piece

    def test_split_under_cut_across_components(self):
        A = end_algebra_partition(2, 1)
        f1, f2 = _primitives_of_two_components(A)
        e = A.add(f1, f2)
        dec = split_idempotent(A, e)
        assert len(dec) == 2
        assert dec.component[0] != dec.component[1]
        g1, g2 = dec.idempotents
        assert A.is_idempotent(g1) and A.is_idempotent(g2)
        assert A.add(g1, g2) == e
        assert A.mul(g1, g2) == {} and A.mul(g2, g1) == {}

    def test_split_of_a_rank_two_part_of_one_block(self):
        # End([A_2]) at t = 1 holds L([1]) three times: one block M_3(Q) of A/rad
        A = end_algebra_partition(2, 1)
        dec = split_idempotent(A, A.unit)
        (block,) = [c for c in set(dec.component) if dec.component.count(c) == 3]
        f1, f2, _ = [f for f, c in zip(dec.idempotents, dec.component) if c == block]
        e = A.add(f1, f2)
        part = split_idempotent(A, e)
        assert len(part) == 2 and len(set(part.component)) == 1
        g1, g2 = part.idempotents
        assert A.add(g1, g2) == e
        assert A.mul(g1, g2) == {} and A.mul(g2, g1) == {}
        for g in part.idempotents:
            assert split_idempotent(A, g).idempotents == [g]

    def test_split_over_a_ring_that_does_not_split_over_q(self):
        # over Q(t) an idempotent whose corner of A/rad is one-dimensional
        # splits to itself; any other raises
        A = end_algebra_partition(1)
        e = {A.labels.index(E_DIAGRAM): A.tag.inv(A.tag.parameter_payload())}  # e^2 = t e
        dec = split_idempotent(A, e)
        assert dec.idempotents == [e] and dec.component == [0]
        point = end_algebra_partition(0)
        assert split_idempotent(point, point.unit).idempotents == [point.unit]
        with pytest.raises(SplitError, match="only supported over Q"):
            split_idempotent(A, A.unit)

    @pytest.mark.parametrize("param", [0, 1, 2])
    @pytest.mark.parametrize("source, n", [("tl", 4), ("tl", 5), ("partition", 2)])
    def test_lifted_idempotents_are_primitive(self, source, n, param):
        # f is primitive iff fAf is local, iff fAf = Q f + f rad(A) f
        A = _center_case(source, n, param)
        rad = radical(A)
        for f in split_idempotent(A, A.unit).idempotents:
            whole = _span_dim(A.tag, (A.mul(A.mul(f, {i: A.tag.one_payload}), f) for i in range(A.dim)))
            local = _span_dim(A.tag, (A.mul(A.mul(f, r), f) for r in rad))
            assert whole - local == 1


def _center_case(source, n, param):
    if source == "tl":
        return end_algebra_tl(n, bound_q(param, "d"))
    return end_algebra_partition(n, param)


def _span_dim(ring, vectors) -> int:
    span = Span(ring)
    return sum(span.add(v) for v in vectors)


def _primitives_of_two_components(A):
    """One primitive idempotent from each of the first two components."""
    dec = split_idempotent(A, A.unit)
    first = {}
    for vec, comp in zip(dec.idempotents, dec.component):
        first.setdefault(comp, vec)
    assert len(first) >= 2
    return first[0], first[1]


def _brute_center(Q, basis):
    """The elements of span(basis) that commute with every basis element,
    from one kernel over all dim^2 commutators."""
    ring = Q.A.tag
    commutators = [[Q.A.sub(Q.mul(u, v), Q.mul(v, u)) for u in basis] for v in basis]
    keys = sorted({(j, k) for j, row in enumerate(commutators) for c in row for k in c})
    matrix = [[commutators[j][i].get(k, ring.zero_payload) for i in range(len(basis))]
              for j, k in keys]
    if not matrix:
        return list(basis)  # a commutative span is its own center
    return [_combine(ring, c, basis) for c in kernel(matrix, ring)]


def _same_span(ring, xs, ys) -> bool:
    span = Span(ring)
    for x in xs:
        span.add(x)
    return span.dim == _span_dim(ring, ys) and all(span.contains(y) for y in ys)


CENTER_CASES = [("tl", n, d) for n in (3, 4, 5) for d in (0, 1, 2)] + [
    ("partition", n, t) for n in (0, 1, 2) for t in (0, 1, 2)
]
LOCAL_QUOTIENTS = {("partition", 0, t) for t in (0, 1, 2)} | {("partition", 1, 0)}


class TestCenter:
    """center_of and the simple blocks against commutants of whole bases
    (brute force)."""

    @pytest.mark.parametrize("source, n, param", CENTER_CASES)
    def test_center_of_quotient(self, source, n, param):
        A = _center_case(source, n, param)
        Q = _Quotient(A)
        center = _SplitContext(Q).center_of()
        assert _same_span(A.tag, center, _brute_center(Q, Q.basis))
        for z in center:
            for v in Q.basis:
                assert Q.mul(z, v) == Q.mul(v, z)

    @pytest.mark.parametrize("source, n, param", [c for c in CENTER_CASES if c not in LOCAL_QUOTIENTS])
    def test_center_of_corner(self, source, n, param):
        # e is the sum of primitives from two components, so eQe is not simple;
        # its center is spanned by its parts e c in the blocks c of Q
        A = _center_case(source, n, param)
        Q = _Quotient(A)
        e = Q.project(A.add(*_primitives_of_two_components(A)))
        span = Span(A.tag)
        corner = [w for v in Q.basis if span.add(w := Q.mul(Q.mul(e, v), e))]
        parts = [f for c, _ in _SplitContext(Q).blocks() if (f := Q.mul(e, c))]
        assert len(parts) == 2
        assert _same_span(A.tag, parts, _brute_center(Q, corner))

    @pytest.mark.parametrize("source, n, param", CENTER_CASES)
    def test_blocks_of_quotient(self, source, n, param):
        A = _center_case(source, n, param)
        Q = _Quotient(A)
        blocks = _SplitContext(Q).blocks()
        total = {}
        for i, (c, corner) in enumerate(blocks):
            assert Q.mul(c, c) == c
            for v in Q.basis:
                assert Q.mul(c, v) == Q.mul(v, c)
            for other, _ in blocks[i + 1:]:
                assert Q.mul(c, other) == {}
            assert all(Q.mul(c, w) == w for w in corner)
            assert math.isqrt(len(corner)) ** 2 == len(corner)
            total = A.add(total, c)
        assert total == Q.unit
        assert sum(len(corner) for _, corner in blocks) == Q.dim


class TestCornerAlgebra:
    def test_corner_of_unit_is_same_algebra(self):
        A = end_algebra_partition(1, 1)
        B = corner_algebra(A, A.unit)
        assert B.dim == A.dim

    def test_corner_of_primitive_is_local(self):
        A = end_algebra_partition(1, 1)
        dec = split_idempotent(A, A.unit)
        B = corner_algebra(A, dec.idempotents[0])
        assert B.dim == 1
        assert radical(B) == []

    def test_corner_cut_by_morphism(self):
        A = corner_algebra(end_algebra_partition(1, 0), identity(1, bound_q(0)))
        assert A.dim == 2  # eAe = A for e the unit


class TestIdentify:
    def test_t1_labels(self):
        A = end_algebra_partition(1, 1)
        dec = split_idempotent(A, A.unit)
        quotient = A._quotient
        labels = {}
        for vec in dec.idempotents:
            lab = identify_summand(A, vec)
            labels[lab.diagram.parts] = lab
        assert A._quotient is quotient  # the split's quotient, not a second one
        assert set(labels) == {(), (1,)}
        assert labels[()].dim.data == 1 and labels[()].tensor_power == 0
        assert labels[(1,)].dim.data == 0 and labels[(1,)].tensor_power == 1

    def test_t0_point_is_indecomposable(self):
        A = end_algebra_partition(1, 0)
        lab = identify_summand(A, A.unit)
        assert lab.diagram == Y((1,))
        assert lab.dim.is_zero()

    def test_rejects_nonprimitive(self):
        A = end_algebra_partition(1, 1)
        with pytest.raises(ValueError):
            identify_summand(A, A.unit)

    def test_rejects_nonprimitive_beside_a_radical(self):
        A = end_algebra_partition(2, 0)
        assert radical(A)
        with pytest.raises(ValueError, match="not primitive"):
            identify_summand(A, A.unit)

    def test_rejects_zero(self):
        A = end_algebra_partition(1, 0)
        with pytest.raises(ValueError, match="zero"):
            identify_summand(A, {})

    @pytest.mark.parametrize(
        "build",
        [lambda: end_algebra_tl(2), lambda: end_algebra_tl(2, bound_q(1, "d")),
         lambda: end_algebra_partition(1)],
        ids=["tl-generic", "tl-bound", "partition-generic"],
    )
    def test_rejects_other_algebras(self, build):
        A = build()
        with pytest.raises(ValueError, match="needs End"):
            identify_summand(A, A.unit)

    @pytest.mark.parametrize("t", [0, 1, 2])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_matches_the_scan_over_every_power(self, n, t):
        A = end_algebra_partition(n, t)
        for vec in split_idempotent(A, A.unit).idempotents:
            label = identify_summand(A, vec)
            assert reference.identify_summand_scan(A, vec) == ([label.diagram], label.tensor_power)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_diagrams_through_a_k_are_those_with_at_most_k_propagating_blocks(self, n):
        def propagating(d):
            return sum(1 for block in d.blocks if block[0] < d.bottom <= block[-1])

        ends = hom_basis(n, n)
        assert all(algkit._propagating(d) == propagating(d) for d in ends)
        for k in range(n + 1):
            composites = {}
            for g in hom_basis(k, n):
                for h in hom_basis(n, k):
                    d, loops = pcat._compose(g, h)
                    composites[d] = composites.get(d, False) or loops == 0
            assert max(map(propagating, composites)) <= k
            loop_free = {d for d, free in composites.items() if free}
            assert loop_free == {d for d in ends if propagating(d) <= k}

    def test_cap(self, capsys):
        # identify_summand takes its n from an algebra, so the build cap bounds it
        assert cli.main(["decompose", "--n", "4", "--d", "0"]) == 3
        assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("t", [0, 1, 2, Fraction(1, 2)], ids=["0", "1", "2", "1/2"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_trace_functional_is_the_projection_coefficient(n, t):
    """Tr_reg(e D) / Tr_reg(e) is the coefficient of e's image in the
    projection of e D e onto A/rad, for every primitive e the split gives
    and every basis diagram D; and Tr_reg(e) is dim eA."""
    A = end_algebra_partition(n, t)
    one = A.tag.one_payload
    for e in split_idempotent(A, A.unit).idempotents:
        by_trace = dict(zip(A.labels, algkit._local_functional(A, e)))
        assert by_trace == reference.local_functional(A, e)
        eA = Span(A.tag)
        for i in range(A.dim):
            eA.add(A.mul(e, {i: one}))
        assert A.regular_trace(e) == eA.dim > 0


class TestJsonDump:
    def test_algebra_dump(self):
        import json

        A = end_algebra_partition(1, 1)
        doc = json.loads(json.dumps(algebra_to_dict(A)))
        assert doc["dim"] == 2 and doc["ring"] == "Q" and doc["t"] == "1"
        assert len(doc["labels"]) == 2 and len(doc["structure"]) == 2
        # e . e = t e = e at t = 1
        e_index = doc["labels"].index([[0], [1]])
        assert doc["structure"][e_index][e_index] == [[e_index, "1"]]

    def test_number_field_dump_names_its_field(self):
        ring = number_field(chebyshev_minpoly(5), "d")
        doc = algebra_to_dict(end_algebra_tl(2, ring))
        assert doc["ring"] == "Qdelta"
        assert number_field(doc["minpoly"], "d") == ring

    def test_decomposition_dump(self):
        A = end_algebra_partition(1, 1)
        dec = split_idempotent(A, A.unit)
        docs = decomposition_to_list(dec)
        assert len(docs) == 2
        assert all(d["primitive"] for d in docs)
        assert {d["component"] for d in docs} == {0, 1}


class TestPrimitiveCountsMatchBlocks:
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_point_object(self, d):
        # primitive count in End([pt]) = number of block-distinct
        # constituents among the labels of sizes 0 and 1
        from partcat.young import same_block

        A = end_algebra_partition(1, d)
        dec = split_idempotent(A, A.unit)
        merged = 1 if same_block(Y(()), Y((1,)), d) else 2
        assert len(dec) == merged


class TestStructureChecks:
    def test_associativity_guard(self):
        tag = bound_q(1)
        one = Fraction(1)
        table = [[{0: one}, {1: one}], [{1: one}, {0: one}]]
        FinDimAlgebra(tag, ["a", "b"], table, {0: one}, "test")  # group algebra of C2
        bad = [
            [{0: one}, {1: one}, {2: one}],
            [{1: one}, {2: one}, {1: one}],  # (a a) a = b a = e, a (a a) = a b = a
            [{2: one}, {0: one}, {0: one}],
        ]
        with pytest.raises(ValueError):
            FinDimAlgebra(tag, ["e", "a", "b"], bad, {0: one}, "test")

    def test_unit_guard(self):
        tag = bound_q(1)
        one = Fraction(1)
        table = [[{0: one}, {1: one}], [{1: one}, {0: one}]]
        with pytest.raises(ValueError):
            FinDimAlgebra(tag, ["a", "b"], table, {1: one}, "test")


def _product(table, x, y):
    acc = {}
    for i, a in x.items():
        for j, b in y.items():
            for k, c in table[i][j].items():
                acc[k] = acc.get(k, 0) + a * b * c
    return {k: v for k, v in acc.items() if v}


def _every_triple_associative(table) -> bool:
    """The dim^3 check, independent of algkit; for small tables only."""
    basis = [{k: 1} for k in range(len(table))]
    return all(
        _product(table, _product(table, x, y), z) == _product(table, x, _product(table, y, z))
        for x in basis
        for y in basis
        for z in basis
    )


def _corrupted(A, i, j, cell):
    table = [list(row) for row in A.table]
    table[i][j] = cell
    return table


def _build(A, table):
    """A FinDimAlgebra on the table, with A's generators as the hints."""
    return FinDimAlgebra(A.tag, A.labels, table, A.unit, A.kind, None, A.generators)


def _accepted(A, table) -> bool:
    try:
        _build(A, table)
    except ValueError:
        return False
    return True


def _doubled(cell):
    """The cell with its first coefficient doubled."""
    (k, c), *rest = cell.items()
    return {k: 2 * c, **dict(rest)}


def _corner_algebra():
    A = end_algebra_partition(2, 1)
    dec = split_idempotent(A, A.unit)
    e = {}
    for pos in (0, 3, 4, 5):
        e = A.add(e, dec.idempotents[pos])
    return corner_algebra(A, e)


ALGEBRAS = {
    "tl4-d1": lambda: end_algebra_tl(4, bound_q(1, "d")),
    "p2-t0": lambda: end_algebra_partition(2, 0),
    "corner": _corner_algebra,
    "tl6-d1": lambda: end_algebra_tl(6, bound_q(1, "d")),
    "p3-t1": lambda: end_algebra_partition(3, 1),
    "p2-t1/2": lambda: end_algebra_partition(2, Fraction(1, 2)),  # non-integral constants
    "p2-t2": lambda: end_algebra_partition(2, 2),
}


@functools.lru_cache(maxsize=None)
def _algebra(name):
    return ALGEBRAS[name]()


def _cells(A):
    """Nonempty cells (i, j) with neither index the unit, whose corruption
    leaves the unit check passing."""
    (u,) = A.unit
    return [
        (i, j)
        for i in range(A.dim)
        for j in range(A.dim)
        if u not in (i, j) and A.table[i][j]
    ]


def _corruptions(A, i, j):
    """Cell (i, j) with its first coefficient doubled, and sent elsewhere;
    an empty cell (a zero product) gets a coefficient one at the first and
    at the last basis index instead."""
    one = A.tag.one_payload
    if not A.table[i][j]:
        return [{0: one}, {A.dim - 1: one}]
    k = next(k for k in range(A.dim) if k not in A.table[i][j])
    return [_doubled(A.table[i][j]), {k: one}]


class TestAssociativityCertificate:
    """Light's test over a certified generating set is a complete check:
    every corrupted structure constant is caught, whatever the table."""

    @pytest.mark.parametrize(
        "name, pick",
        [
            ("tl4-d1", "generators"),
            ("tl4-d1", "last"),
            ("p2-t0", "zero"),
            ("corner", "sum"),
            ("corner", "last"),
            ("tl6-d1", "middle"),
            ("p3-t1", "middle"),
            ("p3-t1", "last"),
        ],
    )
    def test_corrupted_cell_is_caught(self, name, pick):
        A = _algebra(name)
        cells = _cells(A)
        if pick == "generators":
            i, j = A.generators[:2]
        elif pick == "last":
            i, j = cells[-1]
        elif pick == "middle":
            i, j = cells[len(cells) // 2]
        elif pick == "zero":  # a zero product, stored as an empty cell
            (u,) = A.unit
            i, j = next((i, j) for i in range(A.dim) for j in range(A.dim)
                        if u not in (i, j) and not A.table[i][j])
        else:  # a cell with more than one term
            i, j = next((i, j) for i, j in cells if len(A.table[i][j]) > 1)
        for cell in _corruptions(A, i, j):
            with pytest.raises(ValueError, match="not associative"):
                _build(A, _corrupted(A, i, j, cell))

    @pytest.mark.parametrize("name", ["tl4-d1", "p2-t0", "corner", "p2-t1/2", "p2-t2"])
    def test_agrees_with_every_triple(self, name):
        A = _algebra(name)
        assert _every_triple_associative(A.table)
        for i, j in _cells(A)[::17]:
            for cell in _corruptions(A, i, j):
                table = _corrupted(A, i, j, cell)
                assert _accepted(A, table) == _every_triple_associative(table), (i, j, cell)

    @pytest.mark.parametrize("name", ["p2-t1/2", "p2-t2"])
    def test_every_monomial_corruption_is_caught(self, name):
        A = _algebra(name)
        assert A._flat is not None  # Light's test runs on the integer table
        for i, j in _cells(A):
            for cell in _corruptions(A, i, j):
                with pytest.raises(ValueError, match="not associative"):
                    _build(A, _corrupted(A, i, j, cell))

    def test_standard_generators_are_used(self):
        # the walk from the unit reaches every diagram by right products of
        # e_i (TL) or of s_1, s_2, p_1, b_1 (partition), so no basis element
        # is added greedily
        for n in (5, 6):
            A = end_algebra_tl(n, bound_q(1, "d"))
            assert [A.labels[g] for g in A.generators] == tl.standard_generators(n)
        A = _algebra("p3-t1")
        s1, s2, p1, _, _, b1, _ = pcat.standard_generators(3)
        assert [A.labels[g] for g in A.generators] == [s1, s2, p1, b1]

    def test_hints_that_do_not_generate(self):
        tag = bound_q(1)
        one = Fraction(1)
        # the group algebra of Z/4 on 1, a, a^2, a^3; a^2 alone spans {1, a^2}
        z4 = [[{(x + y) % 4: one} for y in range(4)] for x in range(4)]
        A = FinDimAlgebra(tag, list("0123"), z4, {0: one}, "test", None, [2])
        assert A.generators == [2, 1]
        # a table that is associative on the hinted subalgebra {e, b} only
        bad = [
            [{0: one}, {1: one}, {2: one}],
            [{1: one}, {2: one}, {1: one}],
            [{2: one}, {0: one}, {0: one}],
        ]
        with pytest.raises(ValueError, match="not associative"):
            FinDimAlgebra(tag, ["e", "a", "b"], bad, {0: one}, "test", None, [2])


MUL_ALGEBRAS = {
    **{f"p2-t{t}": functools.partial(end_algebra_partition, 2, t)
       for t in (0, 1, 2, Fraction(-3, 2), Fraction(1, 2))},
    **{f"tl4-d{d}": functools.partial(end_algebra_tl, 4, bound_q(d, "d")) for d in (0, 1, 2)},
    "p2-ratfun": functools.partial(end_algebra_partition, 2),  # generic t: payload by payload
}


@functools.lru_cache(maxsize=None)
def _mul_algebra(name):
    return MUL_ALGEBRAS[name]()


def _nonzero_rationals():
    return st.one_of(
        st.integers(-30, 30),
        st.fractions(min_value=-6, max_value=6, max_denominator=12),
    ).filter(bool)


@pytest.mark.parametrize("name", list(MUL_ALGEBRAS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mul_matches_the_reference_product(name, data):
    """A.mul equals the independent ``_product`` on boxed scalars, and its
    result is canonical: no zero entries, and over Q an int whenever the
    coefficient is integral."""
    A = _mul_algebra(name)
    ring = A.tag
    assert (A._flat is None) == (ring.to_z is None)
    vectors = st.dictionaries(
        st.integers(0, A.dim - 1), _nonzero_rationals().map(ring.embed), max_size=8
    )
    x, y = data.draw(vectors), data.draw(vectors)

    def boxed(vec):
        return {k: RingElement(ring, c) for k, c in vec.items()}

    table = [[boxed(cell) for cell in row] for row in A.table]
    got = A.mul(x, y)
    assert boxed(got) == _product(table, boxed(x), boxed(y))
    for c in got.values():
        assert not ring.is_zero(c)
        if ring.to_z is not None:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


class TestBlockEquivalenceProfile:
    """Additive invariants of one non-semisimple block computed on both
    sides: the point-chain block of the partition category at d = 0 and
    a regular block of the loop category at level 2.

    Profile = (dim, trace-pairing rank) over the four Hom spaces between
    the first two indecomposables of the block.
    """

    @staticmethod
    def _profile(objects, hom_diagrams, compose_rank):
        out = []
        for x_cut, x_obj in objects:
            for y_cut, y_obj in objects:
                maps = hom_diagrams(x_obj, y_obj)
                ups = [y_cut @ u @ x_cut for u in maps]
                downs = [x_cut @ v @ y_cut for v in hom_diagrams(y_obj, x_obj)]
                dim = compose_rank([[u] for u in ups])
                ring = x_cut.ring
                pairing = [[ring.coerce((v @ u).trace()) for v in downs] for u in ups]
                ranked = rank(pairing, ring)
                out.append((dim, ranked))
        return out

    def test_profiles_match(self):
        # partition side at d = 0: L_0 = unit object, L_1 = the point
        t0 = bound_q(0)
        p_objects = [(identity(0, t0), 0), (identity(1, t0), 1)]

        def p_homs(a, b):
            return [diagram_morphism(d, t0) for d in pcat.hom_basis(a, b)]

        def p_rank(rows_of_morphisms):
            vecs = []
            basis = None
            for (m,) in rows_of_morphisms:
                if basis is None:
                    basis = pcat.hom_basis(m.source, m.target)
                vecs.append([m.terms.get(d, t0.zero_payload) for d in basis])
            return rank(vecs, t0)

        p_profile = self._profile(p_objects, p_homs, p_rank)

        # loop side at level 2: T_0 = unit object, T_next = the unique
        # multiplicity-one summand of the fourth tensor power
        qm1 = bound_q(-1, "d")
        A4 = end_algebra_tl(4, qm1)
        dec = split_idempotent(A4, A4.unit)
        counts = {}
        for comp in dec.component:
            counts[comp] = counts.get(comp, 0) + 1
        # fourth tensor power = T_0 + 3 T_2 + T_4 at level 2
        assert sorted(counts.values()) == [1, 1, 3]
        solos = [c for c, k in counts.items() if k == 1]
        cuts = {c: dec.morphisms()[dec.component.index(c)] for c in solos}
        negligible_solos = [c for c in solos if cuts[c].trace().is_zero()]
        assert len(negligible_solos) == 1  # T_4; the other solo is T_0
        t_cut = cuts[negligible_solos[0]]
        tl_objects = [(tl.tl_identity(0, qm1), 0), (t_cut, 4)]

        def tl_homs(a, b):
            return [
                tl.TLMorphism(a, b, qm1, {d: qm1.one()})
                for d in tl.noncrossing_matchings(a, b)
            ]

        def tl_rank(rows_of_morphisms):
            vecs = []
            basis = None
            for (m,) in rows_of_morphisms:
                if basis is None:
                    basis = tl.noncrossing_matchings(m.source, m.target)
                vecs.append([m.terms.get(d, qm1.zero_payload) for d in basis])
            return rank(vecs, qm1)

        tl_profile = self._profile(tl_objects, tl_homs, tl_rank)

        assert p_profile == tl_profile
        assert p_profile == [(1, 1), (1, 0), (1, 0), (2, 0)]


def sympy_factor_list(coeffs):
    """Reference: sympy's factor_list over QQ as [(factor, multiplicity)],
    each factor's coefficients ascending."""
    import sympy

    x = sympy.Symbol("x")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * x**i
        for i, c in enumerate(coeffs)
    )
    _, factors = sympy.Poly(expr, x, domain="QQ").factor_list()
    return [([Fraction(c.p, c.q) for c in reversed(fac.all_coeffs())], mult) for fac, mult in factors]


def sympy_rational_roots(coeffs):
    """The contract of _rational_roots, read off sympy's linear factors."""
    roots, rest = [], 0
    for fac, mult in sympy_factor_list(coeffs):
        if len(fac) == 2:
            r = -fac[0] / fac[1]
            roots.append((r.denominator, r.numerator, mult))
        else:
            rest += (len(fac) - 1) * mult
    roots.sort(key=lambda root: (root[2], root[0], -root[1]))
    return roots, rest


def poly_product(factors, scale=Fraction(1)):
    """Ascending Fraction coefficients of scale * prod f^m over (f, m)."""
    out = [scale]
    for f, mult in factors:
        for _ in range(mult):
            prod = [Fraction(0)] * (len(out) + len(f) - 1)
            for i, a in enumerate(out):
                for j, b in enumerate(f):
                    prod[i + j] += a * b
            out = prod
    return out


integer_factors = st.integers(1, 4).flatmap(
    lambda deg: st.tuples(
        st.lists(st.integers(-12, 12), min_size=deg, max_size=deg),
        st.integers(-6, 6).filter(bool),
    ).map(lambda t: [Fraction(c) for c in t[0]] + [Fraction(t[1])])
)


def cofactor(coeffs, roots):
    """coeffs divided by (q x - p)^mult for every root, ascending."""
    out = coeffs
    for q, p, mult in roots:
        for _ in range(mult):
            quotient, rest = [Fraction(0)] * (len(out) - 1), out[-1]
            for i in range(len(out) - 2, -1, -1):  # synthetic division by x - p/q
                quotient[i] = rest
                rest = out[i] + rest * Fraction(p, q)
            assert rest == 0
            out = quotient
    return out


class TestFactorOverQ:
    """_rational_roots: the linear factors over Q, found without sympy."""

    @settings(max_examples=300, deadline=None)
    @given(
        factors=st.lists(st.tuples(integer_factors, st.integers(1, 3)), min_size=1, max_size=4),
        scale=st.fractions(min_value=-20, max_value=20, max_denominator=30).filter(bool),
    )
    def test_matches_sympy(self, factors, scale):
        coeffs = poly_product(factors, scale)
        roots, rest = _rational_roots(coeffs)
        assert (roots, rest) == sympy_rational_roots(coeffs)
        rest_factors = sympy_factor_list(cofactor(coeffs, roots))
        assert all(len(fac) > 2 for fac, _ in rest_factors)
        assert rest == sum((len(fac) - 1) * mult for fac, mult in rest_factors)

    @pytest.mark.parametrize(
        "factors",
        [
            [([1, 0, 0, 0, 1], 1)],  # x^4 + 1
            [([-2, 0, 1], 1), ([-3, 0, 1], 1)],  # (x^2 - 2)(x^2 - 3)
            [([1, 0, 1], 2)],  # (x^2 + 1)^2
            [([-1, -1, 0, 0, 0, 1], 1)],  # x^5 - x - 1
            [([-(10**15), 1], 1), ([-1, 1], 1)],  # a root of 10^15
            # the central minimal polynomial that splitting End([A_3]) at t = 1
            # factors: roots 155/52, 131/52, 111/52, 79/52, -1/52
            [([-155, 52], 1), ([-131, 52], 1), ([-111, 52], 1), ([-79, 52], 1), ([1, 52], 1)],
            [([-(10**40 - 7), 3**30], 2), ([5, 0, 1], 1)],  # a root of (10^40 - 7)/3^30
        ],
        ids=["x4+1", "(x2-2)(x2-3)", "(x2+1)^2", "x5-x-1", "big-root", "end-a3-t1-quintic",
             "huge-root"],
    )
    def test_fallback_cases(self, factors, monkeypatch):
        """The cases the divisor search used to hand to sympy, now found
        with sympy blocked from import."""
        coeffs = poly_product([([Fraction(c) for c in f], m) for f, m in factors])
        want = sympy_rational_roots(coeffs)
        monkeypatch.setitem(sys.modules, "sympy", None)
        assert _rational_roots(coeffs) == want

    @pytest.mark.parametrize(
        "factors, want",
        [
            # x^3 (2x - 1)^2 (x^2 + 1)
            ([([0, 1], 3), ([-1, 2], 2), ([1, 0, 1], 1)], ([(2, 1, 2), (1, 0, 3)], 2)),
            # an irreducible cubic cofactor
            ([([-2, 0, 0, 1], 1), ([3, 1], 1)], ([(1, -3, 1)], 3)),
            # ties broken on q, then on -p
            ([([1, 1], 1), ([-1, 1], 1), ([-1, 3], 2)], ([(1, 1, 1), (1, -1, 1), (3, 1, 2)], 0)),
        ],
        ids=["power-of-x", "cubic", "ties"],
    )
    def test_without_sympy(self, factors, want, monkeypatch):
        monkeypatch.setitem(sys.modules, "sympy", None)
        coeffs = poly_product([([Fraction(c) for c in f], m) for f, m in factors], Fraction(-3, 7))
        assert _rational_roots(coeffs) == want


def gaussian_rationals() -> FinDimAlgebra:
    """Q(i) as a 2-dimensional algebra over Q: a field, so not split over Q."""
    one = Fraction(1)
    table = [[{0: one}, {1: one}], [{1: one}, {0: -one}]]
    return FinDimAlgebra(bound_q(0), ["1", "i"], table, {0: one}, "corner")


def test_field_extension_is_not_split_over_q():
    A = gaussian_rationals()
    with pytest.raises(SplitError, match="not split over Q"):
        split_idempotent(A, A.unit)


def hamilton_quaternions() -> FinDimAlgebra:
    """H over Q, basis 1, i, j, k: central simple but a division algebra,
    so it has no idempotent other than 0 and 1."""
    one = Fraction(1)
    table = [[{0: -one} if a == b else None for b in range(4)] for a in range(4)]
    for a in range(4):
        table[0][a] = table[a][0] = {a: one}
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):  # i j = k, j k = i, k i = j
        table[a][b], table[b][a] = {c: one}, {c: -one}
    return FinDimAlgebra(bound_q(0), list("1ijk"), table, {0: one}, "corner")


def test_division_algebra_has_no_proper_idempotent():
    A = hamilton_quaternions()
    assert radical(A) == []
    ctx = _SplitContext(_Quotient(A))
    with pytest.raises(SplitError, match="proper idempotent"):
        ctx._proper_idempotent(ctx.Q.unit, ctx.Q.basis)
    with pytest.raises(SplitError, match="proper idempotent"):
        split_idempotent(A, A.unit)


def matrix_units() -> FinDimAlgebra:
    """M_2(Q) on the matrix units E_ab, at index 2a + b: E_ab E_cd = [b = c] E_ad."""
    table = [[{2 * a + d: 1} if b == c else {} for c in range(2) for d in range(2)]
             for a in range(2) for b in range(2)]
    return FinDimAlgebra(bound_q(0), ["E11", "E12", "E21", "E22"], table, {0: 1, 3: 1}, "corner")


E11, E12, E22 = {0: 1}, {1: 1}, {3: 1}


@pytest.mark.parametrize("order", [0, 1], ids=["fg", "gf"])
def test_orthogonality_check_rejects_idempotents_that_do_not_annihilate(order):
    """f = E11 and g = E12 + E22 are idempotents with fg = E12 and gf = 0:
    the prefix sums catch a product that is nonzero on either side."""
    A = matrix_units()
    f, g = E11, A.add(E12, E22)
    assert A.is_idempotent(f) and A.is_idempotent(g)
    assert A.mul(f, g) == E12 and A.mul(g, f) == {}
    parts = [f, g] if order == 0 else [g, f]
    with pytest.raises(SplitError, match="not orthogonal"):
        algkit._check_orthogonal(A, A.add(f, g), parts)


def test_orthogonality_check_rejects_bad_parts_and_sums():
    A = matrix_units()
    algkit._check_orthogonal(A, A.unit, [E11, E22])  # passes
    with pytest.raises(SplitError, match="not idempotent"):
        algkit._check_orthogonal(A, A.add(E11, E12), [E11, E12])  # E12^2 = 0
    with pytest.raises(SplitError, match="do not sum"):
        algkit._check_orthogonal(A, E11, [E11, E22])


SPLITS_WITHOUT_SYMPY = """
import contextlib, io, sys
sys.modules["sympy"] = None  # from here on, importing sympy raises ImportError

import partcat
from partcat import algkit, cli
from partcat.coeff import bound_q

P, T, OUT = sys.argv[1:]
VERBS = [
    ["compose", "-f", P, "-g", P], ["tensor", "-f", T, "-g", T], ["dual", "-f", P],
    ["trace", "-f", P], ["dim", "--n", "2"], ["gram", "--n", "1"], ["negligible", "-f", T],
    ["verify", "--family", "deltalg", "--n", "2"], ["verify", "--family", "object_split", "--d", "1"],
    ["blocks", "--d", "1"], ["block-of", "--lambda", "2,1", "--d", "1"],
    ["symmetrizer", "--lambda", "2,1", "-o", OUT],
    ["decompose", "--n", "2", "--d", "1", "--json"], ["decompose", "--n", "2", "--t", "3/2"],
    ["tl", "jw", "--n", "3"], ["tl", "quantum", "--n", "3", "--delta", "2"],
    ["tl", "steinberg", "--l", "3"], ["tl", "negligible", "--n", "3", "--l", "4"],
    ["tl", "block", "--n", "3", "--l", "4"], ["tl", "compose", "-f", T, "-g", T],
    ["tl", "trace", "-f", T],
]
for argv in VERBS:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
for d in (0, 1, 2):
    A = algkit.end_algebra_tl(4, bound_q(d, "d"))
    algkit.split_idempotent(A, A.unit)
print("ok")
"""


def test_splitting_does_not_import_sympy(tmp_path):
    """import partcat, every CLI verb and the TL_4 splits run with sympy
    blocked from import."""
    src = str(Path(algkit.__file__).resolve().parents[1])
    golden = Path(__file__).resolve().parent / "golden"
    done = subprocess.run(
        [sys.executable, "-c", SPLITS_WITHOUT_SYMPY, str(golden / "partition.json"),
         str(golden / "tl.json"), str(tmp_path / "out.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert done.stdout.strip() == "ok"
