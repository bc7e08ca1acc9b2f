import itertools
import json

import pytest

from conftest import bell_number, random_diagram
from partcat.coeff import POLY_T, RATFUN_T, bound_q
from partcat.errors import CapExceededError, PoleError, SchemaError, TagMismatchError
from partcat.linalg import rank
from partcat.pcat import (
    PartitionDiagram,
    _hom_diagrams,
    _rg_words,
    braiding,
    coev,
    counit,
    diagram_morphism,
    dim,
    ev,
    gram_matrix,
    hom_basis,
    identity,
    is_negligible,
    morphism_from_dict,
    morphism_to_dict,
    mu,
    permutation,
    set_partitions,
    unit,
)

E = diagram_morphism(PartitionDiagram(1, 1, ((0,), (1,))))
M = diagram_morphism(PartitionDiagram(2, 2, ((0, 1, 2, 3),)))
T = POLY_T.variable()


class TestDiagram:
    def test_canonical_encoding(self):
        a = PartitionDiagram(1, 1, ((1, 0),))
        b = PartitionDiagram(1, 1, ((0, 1),))
        assert a == b and hash(a) == hash(b)
        assert a.blocks == ((0, 1),)

    def test_invalid_blocks(self):
        with pytest.raises(ValueError):
            PartitionDiagram(1, 1, ((0,),))  # not covering
        with pytest.raises(ValueError):
            PartitionDiagram(1, 1, ((0, 1), (1,)))  # overlap
        with pytest.raises(ValueError):
            PartitionDiagram(-1, 1, ())

    def test_generators(self):
        assert identity(1).sorted_terms()[0][0].blocks == ((0, 1),)
        assert mu(1).sorted_terms()[0][0].blocks == ((0, 1, 2),)
        assert unit(1).sorted_terms()[0][0].blocks == ((0,),)
        assert counit(1) == unit(1).dual()
        assert ev(2).sorted_terms()[0][0].blocks == ((0, 2), (1, 3))
        assert permutation([1, 0]) == braiding(1, 1)

    def test_permutation_validation(self):
        with pytest.raises(ValueError):
            permutation([0, 0])


class TestCompose:
    def test_e_squared(self):
        assert (E @ E) == E.scale(T)

    def test_identity_law_exhaustive(self):
        for a in range(3):
            for b in range(3):
                for blocks in set_partitions(a + b):
                    f = diagram_morphism(PartitionDiagram(a, b, blocks))
                    assert (identity(b) @ f) == f
                    assert (f @ identity(a)) == f

    def test_merge_idempotent(self):
        assert (M @ M) == M

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            identity(2) @ identity(1)

    def test_ring_mismatch(self):
        with pytest.raises(TagMismatchError):
            identity(1, POLY_T) @ identity(1, bound_q(1))

    def test_bound_q_composition(self):
        e5 = E.specialize(5)
        assert (e5 @ e5) == e5.scale(5)


class TestTensorDualTrace:
    def test_tensor_identities(self):
        assert identity(1).tensor(identity(1)) == identity(2)
        both = E.tensor(M)
        d = both.sorted_terms()[0][0]
        assert d.bottom == 3 and d.top == 3
        assert d.blocks == ((0,), (1, 2, 4, 5), (3,))

    def test_tensor_nonzero(self, rng):
        for _ in range(25):
            f = diagram_morphism(random_diagram(rng, 2, 1)) + diagram_morphism(
                random_diagram(rng, 2, 1)
            )
            g = diagram_morphism(random_diagram(rng, 1, 2)).scale(
                POLY_T.from_fraction(3)
            )
            if not f.is_zero() and not g.is_zero():
                assert not f.tensor(g).is_zero()

    def test_dual(self):
        assert unit(1).dual() == counit(1)
        assert M.dual() == M
        assert coev(2).dual() == ev(2)

    def test_dual_involution_and_antihomomorphism(self, rng):
        for _ in range(25):
            f = diagram_morphism(random_diagram(rng, 2, 2))
            g = diagram_morphism(random_diagram(rng, 2, 2))
            assert f.dual().dual() == f
            assert (g @ f).dual() == (f.dual() @ g.dual())

    def test_traces(self):
        assert identity(1).trace() == T
        assert identity(2).trace() == T * T
        assert M.trace() == T
        assert E.trace() == T

    def test_trace_requires_endo(self):
        with pytest.raises(ValueError):
            unit(1).trace()

    def test_trace_cyclic(self, rng):
        for _ in range(30):
            f = diagram_morphism(random_diagram(rng, 2, 3))
            g = diagram_morphism(random_diagram(rng, 3, 2))
            assert (g @ f).trace() == (f @ g).trace()

    def test_trace_multiplicative(self, rng):
        for _ in range(20):
            f = diagram_morphism(random_diagram(rng, 2, 2))
            g = diagram_morphism(random_diagram(rng, 1, 1))
            assert f.tensor(g).trace() == f.trace() * g.trace()

    def test_dim_powers(self):
        for n in range(7):
            assert dim(n) == T**n


class TestBraiding:
    def test_braiding_squares_to_identity(self):
        assert (braiding(1, 1) @ braiding(1, 1)) == identity(2)
        for a, b in [(1, 2), (2, 1), (2, 2)]:
            assert (braiding(b, a) @ braiding(a, b)) == identity(a + b)

    def test_interchange(self, rng):
        for _ in range(20):
            f = diagram_morphism(random_diagram(rng, 1, 2))
            fp = diagram_morphism(random_diagram(rng, 2, 1))
            g = diagram_morphism(random_diagram(rng, 2, 1))
            gp = diagram_morphism(random_diagram(rng, 1, 2))
            lhs = f.tensor(g) @ fp.tensor(gp)
            rhs = (f @ fp).tensor(g @ gp)
            assert lhs == rhs


class TestHomBasisGram:
    def test_hom_basis_counts(self):
        for a, b in [(0, 0), (1, 1), (2, 2), (1, 2), (0, 4)]:
            assert len(hom_basis(a, b)) == bell_number(a + b)

    def test_rg_words_in_lexicographic_order(self):
        for n in range(9):
            want = [
                (w, max(w, default=-1) + 1)
                for w in itertools.product(*(range(i + 1) for i in range(n)))
                if all(w[i] <= 1 + max(w[:i], default=-1) for i in range(n))
            ]
            assert list(_rg_words(n)) == want

    def test_cap(self):
        with pytest.raises(CapExceededError):
            hom_basis(6, 6)
        # counted lazily: the list of all Bell(12) diagrams would take over a GB
        assert sum(1 for _ in _hom_diagrams(6, 6, 12)) == bell_number(12)

    def test_gram_1_1(self):
        G = gram_matrix(1, 1)
        tt = T * T
        assert G == [[T, T], [T, tt]]
        det = G[0][0] * G[1][1] - G[0][1] * G[1][0]
        assert det == T**3 - T**2

    def test_gram_rank_at_one(self):
        G = gram_matrix(1, 1, bound_q(1))
        assert rank(G) == 1

    def test_gram_empty(self):
        assert gram_matrix(0, 0) == [[POLY_T.one()]]


class TestNegligible:
    def test_examples(self):
        f = (E - identity(1)).specialize(1)
        assert is_negligible(f)
        assert not is_negligible(identity(1, bound_q(2)))

    def test_ideal_property(self, rng):
        f = (E - identity(1)).specialize(1)
        ring = f.ring
        for _ in range(10):
            g = diagram_morphism(random_diagram(rng, 2, 1), ring)
            h = diagram_morphism(random_diagram(rng, 1, 2), ring)
            assert is_negligible(h @ f @ g)
            assert is_negligible(f.tensor(g))


class TestSpecialize:
    def test_commutes_with_compose(self):
        assert (E @ E).specialize(5) == (E.specialize(5) @ E.specialize(5))
        assert E.specialize(5).scale(5) == (E @ E).specialize(5)

    def test_commutes_with_tensor_dual_trace(self, rng):
        for _ in range(15):
            f = diagram_morphism(random_diagram(rng, 2, 1)).scale(T)
            g = diagram_morphism(random_diagram(rng, 1, 2))
            assert f.tensor(g).specialize(3) == f.specialize(3).tensor(g.specialize(3))
            assert f.dual().specialize(3) == f.specialize(3).dual()
            h = diagram_morphism(random_diagram(rng, 2, 2)).scale(T + 1)
            assert h.trace().evaluate(3) == h.specialize(3).trace()

    def test_pole(self):
        f = identity(1, RATFUN_T).scale(RATFUN_T.one() / (RATFUN_T.variable() - 1))
        with pytest.raises(PoleError):
            f.specialize(1)


class TestJson:
    def test_roundtrip(self):
        m = E.scale(T) + identity(1).scale(POLY_T.from_fraction(-2))
        blob = json.dumps(morphism_to_dict(m))
        assert morphism_from_dict(json.loads(blob)) == m

    def test_bound_q_roundtrip(self):
        m = E.specialize(3)
        blob = morphism_to_dict(m)
        assert blob["ring"] == "Q" and blob["t"] == "3"
        assert morphism_from_dict(blob) == m

    def test_reader_canonicalizes(self):
        doc = {
            "source": 1,
            "target": 1,
            "ring": "Qt",
            "terms": [
                {"blocks": [[1], [0]], "coeff": "t"},
                {"blocks": [[0], [1]], "coeff": "1"},
            ],
        }
        m = morphism_from_dict(doc)
        assert m == E.scale(T + 1)

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            morphism_from_dict({"source": 1, "terms": []})
        with pytest.raises(SchemaError):
            morphism_from_dict(
                {"source": 1, "target": 1, "ring": "Qx", "terms": []}
            )
        with pytest.raises(SchemaError):
            morphism_from_dict(
                {
                    "source": 1,
                    "target": 1,
                    "ring": "Qt",
                    "terms": [{"blocks": [[0]], "coeff": "1"}],
                }
            )
