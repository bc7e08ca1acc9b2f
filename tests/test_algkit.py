import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partcat import algkit, pcat, tl
from partcat.algkit import (
    _factor_over_q,
    FinDimAlgebra,
    algebra_to_dict,
    corner_algebra,
    decomposition_to_list,
    end_algebra,
    end_algebra_partition,
    end_algebra_tl,
    identify_summand,
    radical,
    radical_morphisms,
    split_idempotent,
)
from partcat.coeff import RATFUN_D, bound_q, chebyshev_minpoly, number_field
from partcat.errors import CapExceededError
from partcat.linalg import rank
from partcat.pcat import PartitionDiagram, diagram_morphism, identity, is_negligible
from partcat.young import YoungDiagram as Y

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

    def test_dispatch_and_caps(self):
        assert end_algebra("partition", 1, t=1).dim == 2
        assert end_algebra("tl", 3).dim == 5
        with pytest.raises(CapExceededError):
            end_algebra_partition(4, 0)
        with pytest.raises(CapExceededError):
            end_algebra_tl(7)
        with pytest.raises(ValueError):
            end_algebra("nonsense", 1)

    def test_unit_is_identity_diagram(self):
        A = end_algebra_partition(2, 1)
        ident = A.from_morphism(identity(2, A.tag))
        assert A.unit == ident

    def test_roundtrip_morphism(self):
        A = end_algebra_partition(1, 5)
        m = diagram_morphism(E_DIAGRAM, A.tag).scale(A.tag.from_fraction(Fraction(2, 3)))
        assert A.to_morphism(A.from_morphism(m)) == m


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

    def test_corner_cut_via_dispatch(self):
        A = end_algebra("partition", 1, t=0, cut=identity(1, bound_q(0)))
        assert A.dim == 2  # eAe = A for e the unit


class TestIdentify:
    def test_t1_labels(self):
        A = end_algebra_partition(1, 1)
        dec = split_idempotent(A, A.unit)
        labels = {}
        for vec in dec.idempotents:
            lab = identify_summand(1, vec, 1)
            labels[lab.diagram.parts] = lab
        assert set(labels) == {(), (1,)}
        assert labels[()].dim.data == 1 and labels[()].tensor_power == 0
        assert labels[(1,)].dim.data == 0 and labels[(1,)].tensor_power == 1

    def test_t0_point_is_indecomposable(self):
        A = end_algebra_partition(1, 0)
        lab = identify_summand(1, A.unit, 0)
        assert lab.diagram == Y((1,))
        assert lab.dim.is_zero()

    def test_rejects_nonprimitive(self):
        A = end_algebra_partition(1, 1)
        with pytest.raises(ValueError):
            identify_summand(1, A.unit, 1)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            identify_summand(9, {}, 0)


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
                pairing = [[(v @ u).trace() for v in downs] for u in ups]
                ranked = rank(pairing)
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
                vecs.append([m.terms.get(d, t0.zero()) for d in basis])
            return rank(vecs)

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
                vecs.append([m.terms.get(d, qm1.zero()) for d in basis])
            return rank(vecs)

        tl_profile = self._profile(tl_objects, tl_homs, tl_rank)

        assert p_profile == tl_profile
        assert p_profile == [(1, 1), (1, 0), (1, 0), (2, 0)]


def sympy_factor_list(coeffs):
    """Reference: sympy's factor_list over QQ, coefficients ascending."""
    import sympy

    x = sympy.Symbol("x")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * x**i
        for i, c in enumerate(coeffs)
    )
    _, factors = sympy.Poly(expr, x, domain="QQ").factor_list()
    out = []
    for fac, mult in factors:
        cs = [Fraction(0)] * (fac.degree() + 1)
        for monom, coef in zip(fac.monoms(), fac.coeffs()):
            cs[monom[0]] = Fraction(coef.p, coef.q)
        out.append((cs, mult))
    return out


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


class TestFactorOverQ:
    @settings(max_examples=300, deadline=None)
    @given(
        factors=st.lists(st.tuples(integer_factors, st.integers(1, 3)), min_size=1, max_size=4),
        scale=st.fractions(min_value=-20, max_value=20, max_denominator=30).filter(bool),
    )
    def test_matches_sympy(self, factors, scale):
        coeffs = poly_product(factors, scale)
        assert _factor_over_q(coeffs) == sympy_factor_list(coeffs)

    @pytest.mark.parametrize(
        "factors",
        [
            [([1, 0, 0, 0, 1], 1)],  # x^4 + 1
            [([-2, 0, 1], 1), ([-3, 0, 1], 1)],  # (x^2 - 2)(x^2 - 3)
            [([1, 0, 1], 2)],  # (x^2 + 1)^2
            [([-1, -1, 0, 0, 0, 1], 1)],  # x^5 - x - 1
            [([-(10**15), 1], 1), ([-1, 1], 1)],  # end coefficient past the search limit
        ],
        ids=["x4+1", "(x2-2)(x2-3)", "(x2+1)^2", "x5-x-1", "big-root"],
    )
    def test_fallback_cases(self, factors, monkeypatch):
        calls = []
        fallback = algkit._factor_over_q_sympy
        monkeypatch.setattr(
            algkit, "_factor_over_q_sympy", lambda c: calls.append(c) or fallback(c)
        )
        coeffs = poly_product([([Fraction(c) for c in f], m) for f, m in factors])
        assert _factor_over_q(coeffs) == sympy_factor_list(coeffs)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "factors",
        [
            [([0, 1], 3), ([-1, 2], 2), ([1, 0, 1], 1)],  # x^3 (2x - 1)^2 (x^2 + 1)
            [([-2, 0, 0, 1], 1), ([3, 1], 1)],  # irreducible cubic cofactor
            [([1, 1], 1), ([-1, 1], 1), ([-1, 3], 2)],  # ties broken on coefficients
        ],
        ids=["power-of-x", "cubic", "ties"],
    )
    def test_without_sympy(self, factors, monkeypatch):
        monkeypatch.setattr(algkit, "_factor_over_q_sympy", None)
        coeffs = poly_product([([Fraction(c) for c in f], m) for f, m in factors], Fraction(-3, 7))
        assert _factor_over_q(coeffs) == sympy_factor_list(coeffs)


SPLITS_WITHOUT_SYMPY = """
import contextlib, io, sys
from partcat import cli
from partcat.algkit import end_algebra_tl, split_idempotent
from partcat.coeff import bound_q

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["decompose", "--n", "2", "--d", "1", "--json"]) == 0
for d in (0, 1, 2):
    A = end_algebra_tl(4, bound_q(d, "d"))
    split_idempotent(A, A.unit)
print("sympy" in sys.modules)
"""


def test_splitting_does_not_import_sympy():
    src = str(Path(algkit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", SPLITS_WITHOUT_SYMPY],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert done.stdout.strip() == "False"
