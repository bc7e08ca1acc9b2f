from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partcat.coeff import (
    EXPONENT_CAP,
    POLY_T,
    QQ,
    RATFUN_T,
    bound_q,
    chebyshev_minpoly,
    number_field,
    parse_coefficient,
)
from partcat.errors import (
    CapExceededError,
    CoeffParseError,
    DivisionByZeroError,
    MissingParameterError,
    PoleError,
    TagMismatchError,
)

NF_SQRT2 = number_field("d^2 - 2")

fractions_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


def poly_elements(tag):
    return st.lists(fractions_st, min_size=0, max_size=4).map(
        lambda cs: sum(
            (tag.from_fraction(c) * tag.variable() ** i for i, c in enumerate(cs)),
            tag.zero(),
        )
    )


def elements_of(tag):
    if tag.kind == "Q":
        return fractions_st.map(tag.from_fraction)
    if tag.kind in ("poly", "numberfield"):
        return poly_elements(tag)
    nonzero_polys = st.lists(fractions_st, min_size=1, max_size=3).filter(
        lambda cs: any(cs)
    )
    return st.tuples(
        st.lists(fractions_st, min_size=0, max_size=3), nonzero_polys
    ).map(
        lambda nd: sum(
            (tag.from_fraction(c) * tag.variable() ** i for i, c in enumerate(nd[0])),
            tag.zero(),
        )
        / sum(
            (tag.from_fraction(c) * tag.variable() ** i for i, c in enumerate(nd[1])),
            tag.zero(),
        )
    )


ALL_TAGS = [QQ, POLY_T, RATFUN_T, NF_SQRT2]


class TestArithmetic:
    def test_rational_sum(self):
        assert (parse_coefficient("1/2", QQ) + parse_coefficient("1/3", QQ)).render() == "5/6"

    def test_poly_product(self):
        got = parse_coefficient("(t - 1)*(t + 1)", POLY_T)
        assert got == parse_coefficient("t^2 - 1", POLY_T)

    def test_ratfun_inverse(self):
        t = RATFUN_T.variable()
        assert t.inv().render() == "1/t"
        assert (t.inv() * t) == RATFUN_T.one()

    def test_poly_has_no_inverse(self):
        with pytest.raises(DivisionByZeroError):
            POLY_T.variable().inv()

    def test_tag_mismatch(self):
        with pytest.raises(TagMismatchError):
            POLY_T.one() + QQ.one()

    def test_inverse_of_zero(self):
        with pytest.raises(DivisionByZeroError):
            QQ.zero().inv()

    def test_numberfield_reduction(self):
        d = NF_SQRT2.variable()
        assert (d * d).render() == "2"
        assert (d.inv() * d) == NF_SQRT2.one()

    def test_unbound_parameter(self):
        with pytest.raises(MissingParameterError):
            QQ.parameter()
        assert bound_q(3).parameter().render() == "3"

    def test_pole(self):
        one_over = (RATFUN_T.one() / (RATFUN_T.variable() - 1))
        with pytest.raises(PoleError):
            one_over.evaluate(1)
        assert one_over.evaluate(3).render() == "1/2"


@pytest.mark.parametrize("tag", ALL_TAGS, ids=["Q", "polyT", "ratfunT", "nf"])
class TestRingAxioms:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_axioms(self, tag, data):
        a = data.draw(elements_of(tag))
        b = data.draw(elements_of(tag))
        c = data.draw(elements_of(tag))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + tag.zero() == a
        assert a * tag.one() == a
        assert a - a == tag.zero()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_canonical_uniqueness(self, tag, data):
        a = data.draw(elements_of(tag))
        b = data.draw(elements_of(tag))
        # equality is decided by payload identity
        assert (a == b) == (a.data == b.data)
        assert ((a - b).is_zero()) == (a == b)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_render_roundtrip(self, tag, data):
        a = data.draw(elements_of(tag))
        assert parse_coefficient(a.render(), tag) == a

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_field_inverse(self, tag, data):
        if not tag.is_field:
            return
        a = data.draw(elements_of(tag).filter(lambda x: not x.is_zero()))
        assert a * a.inv() == tag.one()


class TestParser:
    def test_simple_examples(self):
        assert parse_coefficient("3/2", QQ).data == Fraction(3, 2)
        got = parse_coefficient("t^2 - t", POLY_T)
        assert got.data == (Fraction(0), Fraction(-1), Fraction(1))

    def test_zero_denominator(self):
        with pytest.raises(CoeffParseError):
            parse_coefficient("1/0", QQ)

    def test_error_position(self):
        with pytest.raises(CoeffParseError) as err:
            parse_coefficient("t//2", POLY_T)
        assert err.value.position == 2

    def test_wrong_indeterminate(self):
        with pytest.raises(CoeffParseError):
            parse_coefficient("d + 1", POLY_T)
        with pytest.raises(CoeffParseError):
            parse_coefficient("t", QQ)

    def test_whitespace_insensitive(self):
        a = parse_coefficient(" 2*t ^2-  3/4 ", POLY_T)
        b = parse_coefficient("2*t^2 - 3/4", POLY_T)
        assert a == b

    def test_parentheses_and_power(self):
        got = parse_coefficient("(t + 1)^3", POLY_T)
        want = (POLY_T.variable() + 1) ** 3
        assert got == want

    def test_trailing_garbage(self):
        with pytest.raises(CoeffParseError):
            parse_coefficient("1 + ", QQ)
        with pytest.raises(CoeffParseError):
            parse_coefficient("2 2", QQ)

    @pytest.mark.parametrize("text", ["²", "t^²", "1/²", "٣"])
    def test_non_ascii_digits_rejected(self, text):
        # str.isdigit accepts these, but int() rejects or reinterprets them
        with pytest.raises(CoeffParseError):
            parse_coefficient(text, POLY_T)

    def test_leading_minus(self):
        assert parse_coefficient("-t + 1", POLY_T) == 1 - POLY_T.variable()

    def test_ratfun_division(self):
        got = parse_coefficient("(t^2 - 1)/(t - 1)", RATFUN_T)
        assert got == RATFUN_T.variable() + 1


class TestExponentCap:
    def test_powers_up_to_the_cap(self):
        t = POLY_T.variable()
        assert parse_coefficient(f"t^{EXPONENT_CAP}", POLY_T) == t**EXPONENT_CAP
        assert parse_coefficient(f"2^{EXPONENT_CAP}", QQ) == QQ.from_fraction(2**EXPONENT_CAP)

    @pytest.mark.parametrize(
        "text, tag",
        [
            (f"t^{EXPONENT_CAP + 1}", POLY_T),
            ("t^1000000", POLY_T),
            (f"2^{EXPONENT_CAP + 1}", QQ),
            (f"(t + 1)^{EXPONENT_CAP + 1}", RATFUN_T),
            (f"d^{EXPONENT_CAP + 1}", NF_SQRT2),
        ],
    )
    def test_exponent_past_the_cap(self, text, tag):
        with pytest.raises(CapExceededError, match="exponent cap"):
            parse_coefficient(text, tag)

    @pytest.mark.parametrize(
        "text, tag",
        [
            ("(t^100)^100", POLY_T),
            ("((t + 1)^10)^101", RATFUN_T),
            ("((2^1000)^1000)^1000", QQ),
            ("(2^1000)^1000", POLY_T),
            ("(1/5*d)^600", NF_SQRT2),
        ],
    )
    def test_nested_powers_are_capped_by_size(self, text, tag):
        with pytest.raises(CapExceededError, match="exponent cap"):
            parse_coefficient(text, tag)


class TestChebyshevMinpoly:
    def test_small_values(self):
        assert chebyshev_minpoly(1).render() == "d"
        assert chebyshev_minpoly(2).render() == "d + 1"
        assert chebyshev_minpoly(3).render() == "d^2 - 2"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            chebyshev_minpoly(0)
        with pytest.raises(ValueError):
            chebyshev_minpoly(25)

    @pytest.mark.parametrize("l", range(1, 25))
    def test_quantum_vanishing_level(self, l):
        # [k] != 0 for k <= l and [l+1] = 0 in Q[d]/(m_l)
        from partcat.tl import l_q, quantum_int

        tag = number_field(chebyshev_minpoly(l))
        for k in range(1, l + 1):
            assert not quantum_int(k, tag).is_zero()
        assert quantum_int(l + 1, tag).is_zero()
        assert l_q(tag) == l

    def test_level_two_root(self):
        # level 2 is realized by a primitive cubic root: d = -1
        tag = number_field(chebyshev_minpoly(2))
        assert tag.minpoly == (Fraction(1), Fraction(1))
