import json
from math import comb

import pytest

from partcat.coeff import RATFUN_D, bound_q, chebyshev_minpoly, number_field
from partcat.errors import (
    CapExceededError,
    ProjectorUndefinedError,
    SchemaError,
)
from partcat.tl import (
    TLDiagram,
    TLMorphism,
    jw,
    jw_negligible,
    l_q,
    noncrossing_matchings,
    quantum_int,
    steinberg,
    tl_block,
    tl_e,
    tl_from_dict,
    tl_hom_dimension,
    tl_identity,
    tl_negligible,
    tl_to_dict,
)

import reference_kernels as reference

D = RATFUN_D.variable()
QM1 = bound_q(-1, "d")  # loop value of the level-2 ring


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


class TestDiagram:
    def test_planarity_accepts_nested(self):
        TLDiagram(2, 2, ((0, 2), (1, 3)))  # identity
        TLDiagram(2, 2, ((0, 1), (2, 3)))  # cup-cap
        TLDiagram(4, 0, ((0, 3), (1, 2)))  # nested cups

    def test_planarity_rejects_crossing(self):
        with pytest.raises(ValueError):
            TLDiagram(2, 2, ((0, 3), (1, 2)))  # the transposition crosses
        with pytest.raises(ValueError):
            TLDiagram(4, 0, ((0, 2), (1, 3)))

    def test_planarity_matches_the_arc_test(self):
        # two arcs cross iff their ends interleave along the boundary
        def crosses(a, b, pairs):
            order = [*range(a), *range(a + b - 1, a - 1, -1)]
            pos = {p: i for i, p in enumerate(order)}
            arcs = [sorted((pos[i], pos[j])) for i, j in pairs]
            return any(x1 < x2 < y1 < y2 for x1, y1 in arcs for x2, y2 in arcs)

        def matchings(points):
            if not points:
                yield ()
                return
            for k in range(1, len(points)):
                rest = points[1:k] + points[k + 1 :]
                for m in matchings(rest):
                    yield ((points[0], points[k]),) + m

        for n in (0, 2, 4, 6, 8):
            for a in range(n + 1):
                planar = 0
                for pairs in matchings(tuple(range(n))):
                    if crosses(a, n - a, pairs):
                        with pytest.raises(ValueError, match="crossing"):
                            TLDiagram(a, n - a, pairs)
                    else:
                        assert TLDiagram(a, n - a, pairs).pairs == tuple(sorted(pairs))
                        planar += 1
                assert planar == catalan(n // 2)

    def test_parity_and_cover(self):
        with pytest.raises(ValueError):
            TLDiagram(1, 2, ((0, 1), (2, 2)))
        with pytest.raises(ValueError):
            TLDiagram(1, 0, ())


class TestComposition:
    def test_loop_value(self):
        e1 = tl_e(1, 2)
        assert (e1 @ e1) == e1.scale(D)

    def test_jones_relation(self):
        e1, e2 = tl_e(1, 3), tl_e(2, 3)
        assert ((e1 @ e2) @ e1) == e1
        assert ((e2 @ e1) @ e2) == e2

    def test_identity_law(self):
        for d in noncrossing_matchings(2, 4):
            m = TLMorphism(2, 4, RATFUN_D, {d: RATFUN_D.one()})
            assert (tl_identity(4) @ m) == m
            assert (m @ tl_identity(2)) == m

    def test_relations_exhaustive(self):
        for n in range(2, 7):
            for i in range(1, n):
                ei = tl_e(i, n)
                assert (ei @ ei) == ei.scale(D)
                for j in range(1, n):
                    ej = tl_e(j, n)
                    if abs(i - j) == 1:
                        assert ((ei @ ej) @ ei) == ei
                    elif i != j:
                        assert (ei @ ej) == (ej @ ei)

    def test_trace_and_tensor(self):
        assert tl_identity(3).trace() == D**3
        e1 = tl_e(1, 2)
        assert e1.trace() == D
        assert e1.tensor(tl_identity(1)).source == 3
        assert tl_identity(1).tensor(tl_identity(1)) == tl_identity(2)

    def test_dual(self):
        e1 = tl_e(1, 2)
        assert e1.dual() == e1
        cup = TLMorphism(0, 2, RATFUN_D, {TLDiagram(0, 2, ((0, 1),)): RATFUN_D.one()})
        cap = cup.dual()
        assert cap.source == 2 and cap.target == 0
        assert (cap @ cup).trace() == D


class TestHomDimensions:
    def test_catalan(self):
        for a in range(9):
            for b in range(9):
                if a + b <= 16:
                    want = catalan((a + b) // 2) if (a + b) % 2 == 0 else 0
                    assert tl_hom_dimension(a, b) == want

    def test_cap(self):
        with pytest.raises(CapExceededError):
            noncrossing_matchings(9, 9)


class TestQuantumIntegers:
    def test_small(self):
        assert quantum_int(0).is_zero()
        assert quantum_int(1) == RATFUN_D.one()
        assert quantum_int(2) == D
        assert quantum_int(3) == D * D - 1

    def test_l_q(self):
        assert l_q(RATFUN_D) is None
        assert l_q(QM1) == 2
        assert l_q(bound_q(0, "d")) == 1
        assert l_q(bound_q(2, "d")) is None
        assert l_q(number_field("d^2 - 2")) == 3


class TestJonesWenzl:
    def test_base_cases(self):
        assert jw(0) == tl_identity(0)
        assert jw(1) == tl_identity(1)
        assert jw(2) == tl_identity(2) - tl_e(1, 2).scale(D.inv())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_killed_idempotent_trace(self, n):
        f = jw(n)
        assert (f @ f) == f
        assert f.trace() == quantum_int(n + 1)
        for i in range(1, n):
            assert (tl_e(i, n) @ f).is_zero()
            assert (f @ tl_e(i, n)).is_zero()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_killed_idempotent_level8(self, n):
        ring = number_field(chebyshev_minpoly(8), "d")
        f = jw(n, ring)
        assert (f @ f) == f
        assert f.trace() == quantum_int(n + 1, ring)
        for i in range(1, n):
            assert (tl_e(i, n, ring) @ f).is_zero()
            assert (f @ tl_e(i, n, ring)).is_zero()

    @pytest.mark.parametrize("n", [7, 8])
    def test_killed_at_level8_reach(self, n):
        # identity coefficient 1 and killed by every e_i pins the projector
        # down; (n-1) |jw(n)| pairs a side, no f @ f
        ring = number_field(chebyshev_minpoly(8), "d")
        f = jw(n, ring)
        assert len(f.terms) == catalan(n)
        (identity,) = tl_identity(n, ring).terms
        assert f.terms[identity] == ring.one_payload
        assert f.trace() == quantum_int(n + 1, ring)
        assert f.trace().is_zero() == (n == 8)
        for i in range(1, n):
            assert (tl_e(i, n, ring) @ f).is_zero()
            assert (f @ tl_e(i, n, ring)).is_zero()

    @pytest.mark.parametrize(
        "ring",
        [
            RATFUN_D,
            number_field(chebyshev_minpoly(8), "d"),
            number_field(chebyshev_minpoly(12), "d"),
            bound_q("3/2", "d"),
            bound_q(5, "d"),
            bound_q("-1/3", "d"),
            bound_q(1, "d"),
            bound_q(0, "d"),
        ],
        ids=["ratfun", "level8", "level12", "d=3/2", "d=5", "d=-1/3", "d=1", "d=0"],
    )
    def test_matches_two_sided(self, ring):
        for n in range(8):
            try:
                expected = reference.jw_two_sided(n, ring)
            except ProjectorUndefinedError:
                with pytest.raises(ProjectorUndefinedError):
                    jw(n, ring)
                continue
            assert jw(n, ring) == expected, n

    def test_undefined_at_vanishing_level(self):
        with pytest.raises(ProjectorUndefinedError):
            jw(3, QM1)  # [3] = 0 at level 2

    def test_exists_below_level(self):
        f = jw(2, QM1)
        assert (f @ f) == f
        assert (tl_e(1, 2, QM1) @ f).is_zero()


class TestSteinberg:
    def test_level_two(self):
        st = steinberg(2, QM1)
        assert st == tl_identity(1, QM1)
        assert st.trace().render() == "-1"

    def test_level_three(self):
        ring = number_field(chebyshev_minpoly(3))
        st = steinberg(3, ring)
        assert (st @ st) == st
        assert st.trace() == quantum_int(3, ring)
        assert not st.trace().is_zero()

    def test_wrong_ring(self):
        with pytest.raises(ProjectorUndefinedError):
            steinberg(3, QM1)
        with pytest.raises(ValueError):
            steinberg(1, QM1)


class TestNegligibility:
    def test_jw_negligible_pattern(self):
        got = [jw_negligible(n, QM1) for n in range(9)]
        assert got == [(n + 1) % 3 == 0 for n in range(9)]

    def test_cross_check_with_trace_pairing(self):
        # the combinatorial predicate agrees with the pairing definition
        assert tl_negligible(jw(2, QM1)) is True
        assert tl_negligible(jw(1, QM1)) is False
        assert tl_negligible(tl_identity(1)) is False

    def test_negligible_ideal_spot(self):
        f = jw(2, QM1)
        g = tl_e(1, 2, QM1)
        assert tl_negligible(g @ f)
        assert tl_negligible(f.tensor(tl_identity(1, QM1)))


class TestBlocks:
    def test_reflexive(self):
        assert tl_block(5, 2) == tl_block(5, 2)

    def test_generic_singletons(self):
        ids = {tl_block(i, None) for i in range(10)}
        assert len(ids) == 10

    def test_level_two_count(self):
        ids = [tl_block(i, 2) for i in range(4)]
        regular = {b for b in ids if b.startswith("reg:")}
        assert len(regular) == 2
        assert tl_block(2, 2).startswith("wall:")

    def test_orbits(self):
        assert tl_block(0, 2) == tl_block(4, 2) == tl_block(6, 2)
        assert tl_block(1, 2) == tl_block(3, 2) == tl_block(7, 2)
        assert tl_block(0, 2) != tl_block(1, 2)
        walls = [i for i in range(12) if tl_block(i, 2).startswith("wall:")]
        assert walls == [2, 5, 8, 11]


class TestJson:
    def test_roundtrip(self):
        f = jw(2)
        blob = json.dumps(tl_to_dict(f))
        assert tl_from_dict(json.loads(blob)) == f

    def test_kind_required(self):
        with pytest.raises(SchemaError):
            tl_from_dict({"source": 1, "target": 1, "ring": "Qratfun", "terms": []})

    def test_crossing_rejected(self):
        doc = {
            "kind": "tl",
            "source": 2,
            "target": 2,
            "ring": "Qratfun",
            "terms": [{"pairs": [[0, 3], [1, 2]], "coeff": "1"}],
        }
        with pytest.raises(SchemaError):
            tl_from_dict(doc)

    def test_bound_delta_roundtrip(self):
        f = jw(2, QM1)
        doc = tl_to_dict(f)
        assert doc["ring"] == "Q" and doc["t"] == "-1"
        assert tl_from_dict(doc) == f
