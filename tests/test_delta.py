from fractions import Fraction

import pytest

import reference_kernels as reference
from conftest import falling_factorial_poly
from partcat import cli, delta
from partcat.coeff import POLY_T, RATFUN_T, bound_q
from partcat.delta import (
    FAMILIES,
    delta_maps,
    object_split_check,
    falling_factorial,
    mobius_coarsening,
    theta,
    theta_mu,
    trace_x,
    verify_suite,
    x_n,
    x_nj,
)
from partcat.errors import CapExceededError
from partcat.pcat import (
    Morphism,
    PartitionDiagram,
    braiding,
    coev,
    diagram_morphism,
    ev,
    from_orbit,
    identity,
    mu,
    unit,
)

M = diagram_morphism(PartitionDiagram(2, 2, ((0, 1, 2, 3),)))


class TestMobius:
    def test_examples(self):
        assert mobius_coarsening(((0,), (1,), (2,))) == 1
        assert mobius_coarsening(((0, 1), (2,))) == -1
        assert mobius_coarsening(((0, 1, 2),)) == 2

    def test_not_disjoint(self):
        with pytest.raises(ValueError):
            mobius_coarsening(((0, 1), (1, 2)))


class TestXn:
    def test_x1_is_identity(self):
        assert x_n(1) == identity(1)

    def test_x2(self):
        assert x_n(2) == identity(2) - M

    def test_idempotent(self):
        x2 = x_n(2)
        assert (x2 @ x2) == x2

    def test_rational_coefficients(self):
        for n in range(5):
            for _, c in x_n(n).sorted_terms():
                assert len(c) == 1  # a constant polynomial payload


class TestTheta:
    def test_endo_example(self):
        assert theta(identity(1), 1, "endo") == M

    def test_x11(self):
        assert x_nj(1, 1) == M

    def test_linearity(self):
        f = identity(2) + M.scale(POLY_T.from_fraction(3))
        assert theta(f, 1, "endo") == theta(identity(2), 1, "endo") + theta(
            M, 1, "endo"
        ).scale(POLY_T.from_fraction(3))

    def test_algebra_homomorphism(self):
        # strand insertion is multiplicative on endomorphisms, on diagrams
        # and in orbit coordinates
        for n in (1, 2):
            for j in range(1, n + 1):
                for f in (x_n(n), delta_maps(n).x):
                    assert theta(f @ f, j, "endo") == (
                        theta(f, j, "endo") @ theta(f, j, "endo")
                    )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            theta(identity(2), 3, "endo")
        with pytest.raises(ValueError):
            theta(identity(2), 1, "sideways")

    def test_theta_mu_shape(self):
        tm = theta_mu(1, 1)
        d = tm.sorted_terms()[0][0]
        assert d.bottom == 4 and d.top == 2
        assert d.blocks == ((0, 1, 2, 3, 4, 5),)


class TestVerifySuite:
    @pytest.mark.parametrize("family", ["xn_idempotent", "deltalg", "deltaj", "dplus1", "ortho", "psi"])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_families_small(self, family, n):
        report = verify_suite(family, n)
        assert report.overall, report.summary_lines()

    @pytest.mark.parametrize("family", ["azero", "nondegenerate"])
    def test_relative_families_small(self, family):
        for n in (0, 1):
            assert verify_suite(family, n).overall

    @pytest.mark.parametrize("ring", [RATFUN_T, bound_q(2), bound_q(Fraction(1, 2))], ids=str)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_over_other_rings(self, family, ring):
        # the orbit product's falling factorials go through the ring; at
        # t = 2 some of them vanish
        for n in range(3):
            report = verify_suite(family, n, ring)
            assert report.overall, report.summary_lines()

    def test_ortho_n1_exhibits_split(self):
        report = verify_suite("ortho", 1)
        sum_check = report.checks[0]
        assert sum_check.label == "sum"
        assert from_orbit(sum_check.right) == x_n(2) + x_nj(1, 1)
        assert from_orbit(sum_check.left) == x_n(1).tensor(identity(1))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            verify_suite("nonsense", 1)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            verify_suite("azero", 99)

    def test_report_serialization(self):
        rep = verify_suite("deltalg", 1)
        doc = rep.to_dict()
        assert doc["family"] == "deltalg" and doc["overall"] is True
        assert all(set(c) == {"label", "pass"} for c in doc["checks"])


class TestTraceX:
    def test_frozen_values(self):
        t = POLY_T.variable()
        assert trace_x(1) == t
        assert trace_x(2) == t * t - t
        assert trace_x(3) == t**3 - 3 * t**2 + 2 * t

    def test_against_expansion_oracle(self):
        for n in range(7):
            assert trace_x(n) == falling_factorial_poly(n)
            assert falling_factorial(n) == falling_factorial_poly(n)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            trace_x(9)


class TestObjectSplit:
    @pytest.mark.parametrize("d", [0, 1])
    def test_passes(self, d):
        report = object_split_check(d)
        assert report.overall, report.summary_lines()

    def test_relative_dimension_value(self):
        report = object_split_check(1)
        by_label = {c.label: c for c in report.checks}
        assert by_label["relative dimension at t = d"].left.render() == "-1"

    def test_cap(self):
        with pytest.raises(CapExceededError):
            object_split_check(9)


class TestDeltaMaps:
    def test_delta_mult_unit_at_one(self):
        maps = delta_maps(1)
        assert from_orbit(maps.mult) == mu(1)
        assert from_orbit(maps.unit) == unit(1)

    def test_tau_is_idempotent_realization(self):
        # tau realizes an identity morphism, so it is idempotent
        for n in (0, 1, 2):
            maps = delta_maps(n)
            assert (maps.tau @ maps.tau) == maps.tau

    def test_maps_are_built_on_first_use(self):
        maps = delta_maps(2)
        x = from_orbit(maps.x)
        assert from_orbit(maps.mult) == x @ mu(2) @ x.tensor(x)
        assert "tau" not in vars(maps) and "nu" not in vars(maps)
        assert maps.nu is maps.nu
        assert "tau" in vars(maps)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_maps_match_their_diagram_chains(self, n):
        # a second witness: each map's named chain on diagrams, composed and
        # tensored by the point-level reference kernels
        def C(*factors):
            out = factors[0]
            for f in factors[1:]:
                out = reference.compose_pairwise(out, f)
            return out

        def T(f, g):
            terms = {}
            for fd, fc in f.terms.items():
                for gd, gc in g.terms.items():
                    d = PartitionDiagram(f.source + g.source, f.target + g.target, reference.tensor(fd, gd))
                    terms[d] = POLY_T.mul(fc, gc)
            return Morphism.from_payloads(f.source + g.source, f.target + g.target, POLY_T, terms)

        x, x1, id1, b11 = x_n(n), x_n(n + 1), identity(1), braiding(1, 1)
        tau = C(T(x, b11), T(x1, id1), T(x, b11), T(x1, id1))
        mult_plus = C(x1, T(x, mu(1)), tau)
        expected = {
            "mult": C(x, mu(n), T(x, x)),
            "unit": C(x, unit(n)),
            "psi": C(x1, T(mu(n), id1), T(x, x1)),
            "tau": tau,
            "nu": C(T(x, braiding(1, 2)), T(x1, identity(2)), T(x, braiding(2, 1)), T(tau, id1)),
            "mult_plus": mult_plus,
            "unit_plus": C(x1, T(x, unit(1))),
            "braid_plus": C(tau, T(x, b11), tau),
            "ev_plus": C(x, T(x, ev(1)), tau),
            "coev_plus": C(tau, T(x, coev(1)), x),
            "mult_tensor_id": C(T(x, b11), T(x1, id1), T(x, b11), T(mult_plus, id1)),
        }
        maps = delta_maps(n)
        assert from_orbit(maps.x) == x and from_orbit(maps.x_next) == x1
        for name, chain in expected.items():
            assert from_orbit(getattr(maps, name)) == chain, name
        for j in range(1, n + 1):
            assert from_orbit(maps.x_j[j - 1]) == x_nj(n, j)
            alpha = C(x_nj(n, j), theta(x, j, "target"), x)
            assert from_orbit(maps.alpha[j - 1]) == alpha

    def test_a_wrong_tau_fails_azero(self, monkeypatch, capsys):
        def mutated(n, ring=POLY_T):
            maps = real(n, ring)
            tau = maps.tau
            d, c = tau.sorted_terms()[0]
            terms = dict(tau.terms)
            terms[d] = ring.neg(c)
            maps.__dict__["tau"] = type(tau).from_payloads(tau.source, tau.target, ring, terms)
            return maps

        real = delta.delta_maps
        monkeypatch.setattr(delta, "delta_maps", mutated)
        report = verify_suite("azero", 1)
        assert not report.overall, report.summary_lines()
        assert cli.main(["verify", "--family", "azero", "--n", "1"]) == 1
        assert "azero(n=1): FAILED" in capsys.readouterr().out
