"""Sums of products in ``@`` and ``trace``, and the primitive gcd over Z.

``LinComb.__matmul__`` and ``LinComb.trace`` accumulate each output
coefficient unnormalized through the ring's ``addmul`` and normalize it
once with ``acc_value``.  Here they are checked against the pairwise loops
in ``reference_kernels`` (every product and partial sum normalized), and
the gcd that normalizes Q(d) sums against Euclid's algorithm over Fraction
and against sympy.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partcat import pcat, tl
from partcat.coeff import (
    POLY_T,
    RATFUN_D,
    RingElement,
    _pgcd,
    _pmonic,
    _pmul,
    _trim,
    bound_q,
    chebyshev_minpoly,
    number_field,
    parse_coefficient,
)

import reference_kernels as reference

LEVEL8 = number_field(chebyshev_minpoly(8), "d")  # d^3 - 3d + 1
FRACTIONAL = number_field((Fraction(-1, 3), Fraction(1, 2), 1), "d")  # d^2 + d/2 - 1/3
Q_BOUND = bound_q(Fraction(3, 2))
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def polynomial(data, ring, degree):
    x = ring.variable()
    cs = data.draw(st.lists(small, min_size=1, max_size=degree + 1))
    return sum((c * x**i for i, c in enumerate(cs)), ring.zero())


def rational_function(data, ring):
    x = ring.variable()
    dens = [x, x + 1, x - 1, x * x - 2, x * x - x - 1]
    den = ring.one()
    for factor in data.draw(st.lists(st.sampled_from(dens), max_size=2)):
        den = den * factor
    return polynomial(data, ring, 2) / den


def rational(data, ring):
    return ring.from_fraction(data.draw(small))


# name -> (morphism class, ring, Hom basis, object sizes, coefficient strategy)
CASES = {
    "tl-ratfun": (tl.TLMorphism, RATFUN_D, tl.noncrossing_matchings, [0, 2, 4], rational_function),
    "tl-level8": (tl.TLMorphism, LEVEL8, tl.noncrossing_matchings, [1, 3, 5],
                  lambda data, ring: polynomial(data, ring, 2)),
    "tl-fractional-minpoly": (tl.TLMorphism, FRACTIONAL, tl.noncrossing_matchings, [0, 2, 4],
                              lambda data, ring: polynomial(data, ring, 1)),
    "partition-poly": (pcat.Morphism, POLY_T, pcat.hom_basis, [0, 1, 2],
                       lambda data, ring: polynomial(data, ring, 2)),
    "partition-bound-q": (pcat.Morphism, Q_BOUND, pcat.hom_basis, [0, 1, 2], rational),
}


def morphism(data, case, a, b):
    cls, ring, basis, _, coeff = CASES[case]
    diagrams = data.draw(st.lists(st.sampled_from(basis(a, b)), min_size=1, max_size=6))
    return cls(a, b, ring, {d: coeff(data, ring) for d in diagrams})


@pytest.mark.parametrize("case", sorted(CASES))
class TestAgainstPairwise:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_compose(self, case, data):
        sizes = CASES[case][3]
        a, b, c = (data.draw(st.sampled_from(sizes)) for _ in range(3))
        f = morphism(data, case, a, b)
        g = morphism(data, case, b, c)
        assert g @ f == reference.compose_pairwise(g, f)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_trace(self, case, data):
        a = data.draw(st.sampled_from(CASES[case][3]))
        f = morphism(data, case, a, a)
        assert f.trace() == RingElement(f.ring, reference.trace_pairwise(f))


def test_projectors_match_pairwise():
    for ring in (RATFUN_D, LEVEL8):
        f = tl.jw(4, ring)
        assert f @ f == reference.compose_pairwise(f, f) == f


class TestCancellation:
    def e_and_id(self, ring):
        return tl.tl_e(1, 2, ring), tl.tl_identity(2, ring)

    def test_vanishes_only_modulo_m(self):
        # e.e = d e, so (d e - 2 id) . e = (d^2 - 2) e, zero in Q[d]/(d^2 - 2)
        ring = number_field("d^2 - 2")
        e, one = self.e_and_id(ring)
        g = e.scale(ring.variable()) - one.scale(2)
        assert (g @ e).is_zero()
        assert not (g @ e).terms
        assert reference.compose_pairwise(g, e).is_zero()

    def test_ratfun_sum_cancels(self):
        # (e/d - id) . e = e - e
        e, one = self.e_and_id(RATFUN_D)
        g = e.scale(RATFUN_D.variable().inv()) - one
        assert (g @ e).is_zero()
        assert (g @ e).trace().is_zero()

    def test_mixed_denominators(self):
        # (id/(d+1) + e/(d^2-1)) . e/(d-1) = (1/(d^2-1) + d/((d^2-1)(d-1))) e
        ring = RATFUN_D
        e, one = self.e_and_id(ring)
        c = lambda text: parse_coefficient(text, ring)
        g = one.scale(c("1/(d+1)")) + e.scale(c("1/(d^2-1)"))
        f = e.scale(c("1/(d-1)"))
        want = e.scale(c("(2*d - 1)/((d-1)^2*(d+1))"))
        assert g @ f == want == reference.compose_pairwise(g, f)
        assert (g @ f).trace() == c("(2*d - 1)*d/((d-1)^2*(d+1))")

    def test_empty_trace_is_zero(self):
        for ring in (RATFUN_D, LEVEL8, POLY_T, Q_BOUND):
            assert tl.TLMorphism(2, 2, ring).trace() == ring.zero()


# ---------------------------------------------------------------------------
# the primitive gcd over Z

poly = st.lists(small, max_size=4).map(_trim)


def check_gcd(a, b):
    g = _pgcd(a, b)
    assert all(type(c) is int for c in g)
    if g:
        assert g[-1] > 0
        assert math.gcd(*g) == 1
    assert _pmonic(g) == _trim(reference.euclid_gcd(a, b))
    return g


@settings(max_examples=300, deadline=None)
@given(common=poly, a=poly, b=poly)
def test_gcd_matches_euclid(common, a, b):
    check_gcd(_pmul(common, a), _pmul(common, b))


@pytest.mark.parametrize(
    "a,b,want",
    [
        ((3,), (6,), (1,)),  # constants
        ((), (0, 2), (0, 1)),
        ((), (), ()),
        ((1, 1), (-1, 1), (1,)),  # coprime
        ((-2, 0, 1), (-2, 0, 1), (-2, 0, 1)),  # equal
        ((-2, 0, 2), (2, -2), (-1, 1)),  # contents 2 and 2
        ((Fraction(1, 2), Fraction(3, 2), 1), (Fraction(1, 3), Fraction(1, 3)), (1, 1)),
        ((0, 0, -6), (0, 9), (0, 1)),  # negative leading coefficient
    ],
)
def test_gcd_cases(a, b, want):
    assert check_gcd(a, b) == want


@settings(max_examples=150, deadline=None)
@given(common=poly, a=poly, b=poly)
def test_gcd_matches_sympy(common, a, b):
    sympy = pytest.importorskip("sympy")
    x, y = _pmul(common, a), _pmul(common, b)
    X = sympy.Symbol("x")
    to_sympy = lambda cs: sympy.Poly(list(reversed(cs)) or [0], X, domain="QQ")
    want = to_sympy(x).gcd(to_sympy(y))
    want = want.monic() if not want.is_zero else want
    got = tuple(reversed([Fraction(int(c.p), int(c.q)) for c in want.all_coeffs()]))
    assert _pmonic(_pgcd(x, y)) == _trim(got)
