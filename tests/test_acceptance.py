"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every comparison is symbolic equality over an exact ring (or an integer
count), so the stated tolerance of each criterion is literal equality.
Each test prints its own pass line; run with -v (or -s) for the listing.
"""

import json
from collections import Counter
from math import comb
from random import Random

from conftest import falling_factorial_poly, partition_count, random_diagram
from partcat import algkit, cli, delta, pcat, tl, young
from partcat.coeff import bound_q
from partcat.young import YoungDiagram as Y


def _announce(number: int, text: str):
    print(f"ACCEPTANCE {number:02d}: {text}: PASS")


def test_c01_category_axioms():
    """Associativity and interchange: exhaustive <= 6 points, random at 8."""
    sizes = range(0, 4)
    checked = 0
    for a in sizes:
        for b in sizes:
            for c in sizes:
                for d in sizes:
                    if a + b + c + d > 6:
                        continue
                    for fb in pcat.set_partitions(a + b):
                        f = pcat.diagram_morphism(pcat.PartitionDiagram(a, b, fb))
                        for gb in pcat.set_partitions(b + c):
                            g = pcat.diagram_morphism(pcat.PartitionDiagram(b, c, gb))
                            gf = g @ f
                            for hb in pcat.set_partitions(c + d):
                                h = pcat.diagram_morphism(
                                    pcat.PartitionDiagram(c, d, hb)
                                )
                                assert (h @ gf) == ((h @ g) @ f)
                                checked += 1
    assert checked > 1000

    rng = Random(88)
    for _ in range(200):
        a, b, c, d = (rng.randint(0, 3) for _ in range(4))
        while not 7 <= a + b + c + d <= 8:
            a, b, c, d = (rng.randint(0, 4) for _ in range(4))
        f = pcat.diagram_morphism(random_diagram(rng, a, b))
        g = pcat.diagram_morphism(random_diagram(rng, b, c))
        h = pcat.diagram_morphism(random_diagram(rng, c, d))
        assert (h @ (g @ f)) == ((h @ g) @ f)

    # interchange: (f (x) g) . (f' (x) g') = (f . f') (x) (g . g')
    checked = 0
    for a1 in range(0, 3):
        for b1 in range(0, 3):
            for c1 in range(0, 3):
                for a2 in range(0, 3):
                    for b2 in range(0, 3):
                        for c2 in range(0, 3):
                            if a1 + b1 + c1 + a2 + b2 + c2 > 6:
                                continue
                            rung = Random((a1, b1, c1, a2, b2, c2).__hash__())
                            fp = pcat.diagram_morphism(random_diagram(rung, a1, b1))
                            f = pcat.diagram_morphism(random_diagram(rung, b1, c1))
                            gp = pcat.diagram_morphism(random_diagram(rung, a2, b2))
                            g = pcat.diagram_morphism(random_diagram(rung, b2, c2))
                            lhs = f.tensor(g) @ fp.tensor(gp)
                            rhs = (f @ fp).tensor(g @ gp)
                            assert lhs == rhs
                            checked += 1
    assert checked > 100
    rng = Random(99)
    for _ in range(200):
        dims = [rng.randint(0, 2) for _ in range(6)]
        while not 7 <= sum(dims) <= 8:
            dims = [rng.randint(0, 2) for _ in range(6)]
        a1, b1, c1, a2, b2, c2 = dims
        fp = pcat.diagram_morphism(random_diagram(rng, a1, b1))
        f = pcat.diagram_morphism(random_diagram(rng, b1, c1))
        gp = pcat.diagram_morphism(random_diagram(rng, a2, b2))
        g = pcat.diagram_morphism(random_diagram(rng, b2, c2))
        assert f.tensor(g) @ fp.tensor(gp) == (f @ fp).tensor(g @ gp)
    _announce(1, "category axioms (exhaustive <= 6 points, randomized at 8)")


def test_c02_xn_idempotent_selfdual():
    """x_n^2 = x_n and x_n* = x_n identically over Q for n <= 5."""
    for n in range(6):
        report = delta.verify_suite("xn_idempotent", n)
        assert report.overall, report.summary_lines()
    _announce(2, "x_n idempotent and self-dual for n <= 5")


def test_c03_algebra_and_module_identities():
    """(D1)-(D3), (Dj1)-(Dj3) for all j, (Dplus1): identically over Q[t],
    n <= 3 plus the n = 4 target."""
    for family in ("deltalg", "deltaj", "dplus1"):
        for n in range(5):
            report = delta.verify_suite(family, n)
            assert report.overall, report.summary_lines()
    _announce(3, "algebra and module identities for n <= 4")


def test_c04_ortho_and_psi():
    """(ortho) for n <= 4; Psi component equations and the mutual-inverse
    matrix checks for n <= 4."""
    for n in range(5):
        report = delta.verify_suite("ortho", n)
        assert report.overall, report.summary_lines()
    for n in range(5):
        report = delta.verify_suite("psi", n)
        assert report.overall, report.summary_lines()
    _announce(4, "splitting idempotents: ortho n <= 4, Psi matrices n <= 4")


def test_c05_azero_and_nondegeneracy():
    """The relative algebra equations and the pairing morphism = x_{n+1},
    for n <= 3."""
    for n in range(4):
        for family in ("azero", "nondegenerate"):
            report = delta.verify_suite(family, n)
            assert report.overall, report.summary_lines()
    _announce(5, "relative algebra axioms and non-degeneracy for n <= 3")


def test_c06_traces_and_dimensions():
    """trace(x_n) is the falling factorial (n <= 8); the d+1 point
    configuration at t = d has dimension 0 and is nonzero negligible
    (d <= 3); relative dimension is t-n, so -1 at t = d."""
    for n in range(9):
        assert delta.trace_x(n) == falling_factorial_poly(n)
    for d in range(4):
        dim_poly = delta.trace_x(d + 1)
        assert dim_poly.evaluate(d).is_zero()
        xd = delta.x_n(d + 1).specialize(d)
        assert not xd.is_zero()
        assert pcat.is_negligible(xd)
        report = delta.object_split_check(d)
        by_label = {c.label: c for c in report.checks}
        assert by_label["relative dimension = t - (d+1)"].passed
        assert by_label["relative dimension at t = d"].passed
    _announce(6, "falling-factorial traces; nonzero negligible x_{d+1} at t = d")


def test_c07_object_level_split():
    """x_{d+1} (x) id = x_{d+2} + sum_j x_{d+1,j} for d <= 2."""
    for d in range(3):
        report = delta.object_split_check(d)
        assert report.overall, report.summary_lines()
    _announce(7, "object-level splitting of the point tensor for d <= 2")


def test_c08_blocks():
    """Block data: column chain at d = 0; (1) links to (5) at d = 5;
    symbolic blocks are singletons; infinite block counts match p(d)."""
    desc = young.block_of(Y(()), 0, 4)
    assert desc.block_type == "infinite"
    assert [m.parts for m in desc.members] == [
        (), (1,), (1, 1), (1, 1, 1), (1, 1, 1, 1),
    ]
    assert desc.index_of_query == 0

    linked = young.block_of(Y((1,)), 5, 8)
    assert Y((5,)) in linked.members
    assert linked.index_of_query == 0

    for lam in young.all_partitions_upto(5):
        for other in young.all_partitions_upto(5):
            assert young.same_block(lam, other, None) == (lam == other)

    for d in (0, 1, 2, 3, 4, 5):
        assert young.count_infinite_blocks(d, d + 4) == partition_count(d)
    _announce(8, "block classification and infinite-block counts p(d)")


# The multiset of summand labels of End([A_n]) at t = d: {lambda: count}.
C09_LABELS = {
    (0, 0): {(): 1},
    (0, 1): {(1,): 1},
    (0, 2): {(1,): 2, (1, 1): 1, (2,): 1},
    (0, 3): {(1,): 5, (1, 1): 5, (1, 1, 1): 1, (2,): 6, (2, 1): 2, (3,): 1},
    (1, 0): {(): 1},
    (1, 1): {(): 1, (1,): 1},
    (1, 2): {(): 1, (1,): 3, (1, 1): 1, (2,): 1},
    (1, 3): {(): 1, (1,): 10, (1, 1): 6, (1, 1, 1): 1, (2,): 4, (2, 1): 2, (3,): 1},
    (2, 0): {(): 1},
    (2, 1): {(): 1, (1,): 1},
    (2, 2): {(): 2, (1,): 2, (1, 1): 1, (2,): 1},
    (2, 3): {(): 4, (1,): 4, (1, 1): 6, (1, 1, 1): 1, (2,): 6, (2, 1): 2, (3,): 1},
}


def test_c09_negligibility_cross_validation():
    """For d <= 2 and n <= 3: categorical traces of primitive idempotents
    vanish exactly when the combinatorial predicate says so."""
    for d in range(3):
        for n in range(4):
            A = algkit.end_algebra_partition(n, d)
            dec = algkit.split_idempotent(A, A.unit)
            rep_for = {}
            for vec, comp in zip(dec.idempotents, dec.component):
                rep_for.setdefault(comp, vec)
            labels = {
                comp: algkit.identify_summand(A, vec)
                for comp, vec in rep_for.items()
            }
            assert Counter(labels[comp].diagram.parts for comp in dec.component) == C09_LABELS[d, n]
            for vec, comp in zip(dec.idempotents, dec.component):
                label = labels[comp]
                trace = A.to_morphism(vec).trace()
                assert trace.is_zero() == label.dim.is_zero()
                assert label.dim.is_zero() == young.negligible_class(
                    label.diagram, d
                ), (d, n, label.diagram)
    _announce(9, "summand dimensions match the negligibility predicate")


def test_c10_temperley_lieb_suite():
    """Hom dimensions, generator relations, projectors, the level-2
    vanishing pattern, and the block count at level 2."""
    for a in range(9):
        for b in range(9):
            if a + b <= 16:
                want = comb(a + b, (a + b) // 2) // ((a + b) // 2 + 1) if (a + b) % 2 == 0 else 0
                assert tl.tl_hom_dimension(a, b) == want
    D = tl.RATFUN_D.variable()
    for n in range(2, 7):
        for i in range(1, n):
            ei = tl.tl_e(i, n)
            assert (ei @ ei) == ei.scale(D)
            for j in range(i + 1, n):
                ej = tl.tl_e(j, n)
                if j == i + 1:
                    assert ((ei @ ej) @ ei) == ei
                    assert ((ej @ ei) @ ej) == ej
                else:
                    assert (ei @ ej) == (ej @ ei)
    for n in range(1, 7):
        f = tl.jw(n)
        assert (f @ f) == f
        assert f.trace() == tl.quantum_int(n + 1)
        for i in range(1, n):
            assert (tl.tl_e(i, n) @ f).is_zero()
            assert (f @ tl.tl_e(i, n)).is_zero()
    qm1 = bound_q(-1, "d")
    assert tl.l_q(qm1) == 2
    for n in range(9):
        assert tl.jw_negligible(n, qm1) == ((n + 1) % 3 == 0)
    ids = {tl.tl_block(i, 2) for i in range(4)}
    regular = {b for b in ids if b.startswith("reg:")}
    assert len(regular) == 2
    _announce(10, "Temperley-Lieb dimensions, relations, projectors, blocks")


def test_c11_gram_radical_regimes():
    """End([pt]) in three regimes: generic semisimple with no negligibles;
    t = 1 semisimple with e - id negligible; t = 0 local with radical e."""
    e_diag = pcat.PartitionDiagram(1, 1, ((0,), (1,)))

    generic = algkit.end_algebra_partition(1, None)
    assert algkit.radical(generic) == []
    from partcat.coeff import RATFUN_T
    from partcat.linalg import rank

    gram = pcat.gram_matrix(1, 1, RATFUN_T)
    assert rank([[RATFUN_T.coerce(x) for x in row] for row in gram], RATFUN_T) == 2

    at_one = algkit.end_algebra_partition(1, 1)
    assert algkit.radical(at_one) == []
    e_minus_id = pcat.diagram_morphism(e_diag, at_one.tag) - pcat.identity(1, at_one.tag)
    assert pcat.is_negligible(e_minus_id)
    assert len(algkit.split_idempotent(at_one, at_one.unit)) == 2

    at_zero = algkit.end_algebra_partition(1, 0)
    rad = algkit.radical_morphisms(at_zero)
    assert rad == [pcat.diagram_morphism(e_diag, at_zero.tag)]
    dec = algkit.split_idempotent(at_zero, at_zero.unit)
    assert len(dec) == 1
    assert dec.morphisms()[0].trace().is_zero()
    _announce(11, "End([pt]) regimes: generic / t = 1 / t = 0")


def test_c12_roundtrip_and_determinism(tmp_path, capsys):
    """Canonicalization is idempotent; repeated CLI runs are byte-identical;
    the exit-code fixture matrix holds."""
    doc = {
        "source": 2,
        "target": 1,
        "ring": "Qt",
        "terms": [
            {"blocks": [[2, 1], [0]], "coeff": "1 + t"},
            {"blocks": [[0, 1, 2]], "coeff": "3"},
        ],
    }
    src = tmp_path / "m.json"
    src.write_text(json.dumps(doc))
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli.main(["dual", "-f", str(src), "-o", str(first)]) == 0
    assert cli.main(["dual", "-f", str(first), "-o", str(second)]) == 0
    third = tmp_path / "third.json"
    fourth = tmp_path / "fourth.json"
    assert cli.main(["dual", "-f", str(second), "-o", str(third)]) == 0
    assert cli.main(["dual", "-f", str(third), "-o", str(fourth)]) == 0
    assert second.read_text() == fourth.read_text()
    parsed = json.loads(second.read_text())
    assert parsed["terms"][0]["blocks"] == [[0], [1, 2]]

    outs = []
    for _ in range(2):
        code = cli.main(["verify", "--family", "deltalg", "--n", "2", "--json"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]

    matrix = [
        (["verify", "--family", "ortho", "--n", "2"], 0),
        (["verify", "--family", "azero", "--n", "42"], 3),
        (["gram", "--n", "9"], 3),
        (["frobnicate"], 2),
        (["dim"], 2),
        (["trace", "-f", "/no/such/file.json"], 2),
        (["block-of", "--lambda", "1", "--d", "5", "--bound", "8"], 0),
        (["tl", "quantum", "--n", "4", "--l", "2"], 0),
        (["tl", "jw", "--n", "3", "--l", "2"], 2),
    ]
    for argv, want in matrix:
        assert cli.main(argv) == want, argv
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text('{"source": 1, "target": 1, "ring": "Qt", "terms": [{"blocks": [[0], [1]], "coeff": "t//2"}]}')
    assert cli.main(["trace", "-f", str(bad)]) == 2
    capsys.readouterr()
    _announce(12, "round-trip canonicalization, determinism, exit codes")
