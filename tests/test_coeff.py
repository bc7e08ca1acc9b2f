import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partcat import algkit
from partcat.algkit import FinDimAlgebra, split_idempotent
from partcat.coeff import (
    EXPONENT_CAP,
    POLY_T,
    QQ,
    RATFUN_T,
    RingElement,
    RingTag,
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

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(CoeffParseError, match="nested too deeply"):
            parse_coefficient("(" * 300 + "1" + ")" * 300, QQ)

    def test_moderate_nesting_parses(self):
        assert parse_coefficient("(" * 50 + "t" + ")" * 50, POLY_T) == POLY_T.variable()


FUZZ_TAGS = [QQ, bound_q(Fraction(5, 2)), POLY_T, RATFUN_T, NF_SQRT2]


@pytest.mark.parametrize("tag", FUZZ_TAGS, ids=["Q", "Q-at-5/2", "Qt", "Qratfun", "nf"])
@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet="0123456789td()+-*/^ ", max_size=30))
def test_grammar_fuzz(tag, text):
    """Any string over the grammar's alphabet parses or raises a documented
    error, and every parsed value survives render and re-parse."""
    try:
        value = parse_coefficient(text, tag)
    except (CoeffParseError, CapExceededError):
        return
    assert parse_coefficient(value.render(), tag) == value


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


LIMIT = sys.get_int_max_str_digits()  # Python's integer string limit, 0 if off


@pytest.mark.skipif(LIMIT == 0, reason="no integer string limit in this interpreter")
class TestLongDigitRuns:
    """A digit run past Python's integer string limit is a parse error with its position."""

    def test_at_the_limit(self):
        assert parse_coefficient("1" * LIMIT, QQ) == QQ.from_fraction(int("1" * LIMIT))

    @pytest.mark.parametrize(
        "text, position",
        [
            ("1" * (LIMIT + 1), 0),
            ("t^" + "1" * (LIMIT + 1), 2),
            ("3/" + "7" * (LIMIT + 1), 2),
            ("t + -" + "2" * (LIMIT + 1), 5),
        ],
        ids=["integer", "exponent", "denominator", "negated"],
    )
    def test_past_the_limit(self, text, position):
        with pytest.raises(CoeffParseError, match="too long") as info:
            parse_coefficient(text, POLY_T)
        assert info.value.position == position


class TestIndeterminatePowers:
    """The parser reads var^k from the tag's power table: the result must be
    the repeated-squaring power, alone, parenthesized and in sums."""

    TAGS = [
        RATFUN_T,
        RingTag("ratfun", "d"),
        POLY_T,
        RingTag("poly", "d"),
        number_field(chebyshev_minpoly(8)),
        number_field("d^2 - 2"),
        number_field("d - 3"),  # d is the constant 3, and 3^k hits the table too
    ]
    IDS = ["Qratfun-t", "Qratfun-d", "Qt", "Qd", "nf-level8", "nf-sqrt2", "nf-linear"]

    @staticmethod
    def monomial_mod(k, m):
        """Coefficients of x^k reduced mod the monic m, by long division."""
        cs = [Fraction(0)] * k + [Fraction(1)]
        for top in range(k, len(m) - 2, -1):
            lead = cs[top]
            for i, c in enumerate(m):
                cs[top - len(m) + 1 + i] -= lead * c
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    @pytest.mark.parametrize("tag", TAGS, ids=IDS)
    def test_every_power_up_to_40(self, tag):
        v = tag.var
        for k in range(41):
            want = tag.variable() ** k
            for text in (f"{v}^{k}", f"({v})^{k}", f" ( {v} ) ^ {k} ", f"1*{v}^{k}"):
                assert parse_coefficient(text, tag) == want, text
            # and the power itself, written out without the ring's arithmetic
            monomial = (0,) * k + (1,)
            if tag.kind == "numberfield":
                assert tuple(Fraction(c) for c in want.data) == self.monomial_mod(k, tag.minpoly)
            elif tag.kind == "ratfun":
                assert want.data == (monomial, (1,))
            else:
                assert want.data == monomial

    @pytest.mark.parametrize("tag", TAGS, ids=IDS)
    @settings(max_examples=40, deadline=None)
    @given(
        terms=st.lists(
            st.tuples(fractions_st, st.integers(min_value=0, max_value=40), st.booleans()),
            min_size=1,
            max_size=5,
        )
    )
    def test_mixed_sums(self, tag, terms):
        v = tag.var
        text = " + ".join(
            f"({c.numerator}/{c.denominator})*{f'({v})' if paren else v}^{k}"
            for c, k, paren in terms
        )
        want = sum(
            (tag.from_fraction(c) * tag.variable() ** k for c, k, _ in terms), tag.zero()
        )
        assert parse_coefficient(text, tag) == want

    def test_zeroth_power_is_one(self):
        for tag in self.TAGS:
            assert parse_coefficient(f"{tag.var}^0", tag) == tag.one()
            assert parse_coefficient(f"({tag.var})^0", tag) == tag.one()


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


# ---------------------------------------------------------------------------
# integer payloads: integral coefficients are int, the others Fraction


NF_CUBIC = number_field("d^3 - 3*d + 1")  # irreducible over Q, so a field
Q_AT = bound_q(Fraction(5, 2))
PAYLOAD_TAGS = [POLY_T, RATFUN_T, NF_CUBIC, Q_AT, bound_q(2)]
PAYLOAD_IDS = ["Qt", "Qratfun", "nf-cubic", "Q-at-5/2", "Q-at-2"]


def assert_canonical_payload(c):
    """An int, or a Fraction that is not integral: never a float or a bool."""
    assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def assert_canonical_types(x: RingElement):
    if x.tag.kind == "Q":
        coefficients = (x.data,)
    elif x.tag.kind == "ratfun":
        coefficients = x.data[0] + x.data[1]
    else:
        coefficients = x.data
    for c in coefficients:
        assert_canonical_payload(c)


def poly_expr(cs, var):
    import sympy

    x = sympy.Symbol(var)
    return sum(
        (sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * x**i
         for i, c in enumerate(cs)),
        sympy.Integer(0),
    )


def sympy_reference(x: RingElement):
    """x as a sympy expression, built from the Fraction value of each coefficient."""
    import sympy

    if x.tag.kind == "Q":
        return sympy.Rational(x.data.numerator, x.data.denominator)
    if x.tag.kind == "ratfun":
        return poly_expr(x.data[0], x.tag.var) / poly_expr(x.data[1], x.tag.var)
    return poly_expr(x.data, x.tag.var)


def reference_reduce(tag, want):
    """want in lowest terms; in a number field, the polynomial mod m equal to it."""
    import sympy

    want = sympy.cancel(want)
    if tag.kind != "numberfield":
        return want
    x, m = sympy.Symbol(tag.var), poly_expr(tag.minpoly, tag.var)
    num, den = sympy.fraction(want)
    return sympy.rem(sympy.expand(num * sympy.invert(den, m, x)), m, x)


OPS = st.sampled_from(["+", "-", "*", "/", "inv", "**", "roundtrip"])


@pytest.mark.parametrize("tag", PAYLOAD_TAGS, ids=PAYLOAD_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_payload_functions_agree_with_boxed_arithmetic(tag, data):
    """The ring's functions on bare payloads give the payloads of the boxed results."""
    a, b = data.draw(elements_of(tag)), data.draw(elements_of(tag))
    x, y = tag.coerce(a), tag.coerce(b)
    assert tag.add(x, y) == (a + b).data
    assert tag.sub(x, y) == (a - b).data
    assert tag.sub(tag.embed(1), x) == (1 - a).data
    assert tag.mul(x, y) == (a * b).data
    assert tag.neg(x) == (-a).data
    assert tag.is_zero(x) == a.is_zero() == (a == tag.zero())
    assert tag.is_zero(tag.sub(x, x)) and tag.sub(x, x) == tag.zero_payload
    assert tag.render(x) == a.render()
    assert tag.embed(3) == tag.from_fraction(3).data == tag.coerce(3)
    assert tag.one_payload == tag.one().data and tag.parameter_payload() == tag.parameter().data
    k = data.draw(st.integers(min_value=0, max_value=3))
    assert tag.power(x, k) == (a**k).data
    if tag.is_field and not a.is_zero():
        assert tag.inv(x) == a.inv().data
        assert tag.mul(y, tag.inv(x)) == (b / a).data
    if tag.kind != "numberfield":
        try:
            want = a.evaluate(3).data
        except PoleError:
            with pytest.raises(PoleError):
                tag.evaluate(x, Fraction(3))
        else:
            assert tag.evaluate(x, Fraction(3)) == want


def test_ratfun_zero_payload_is_truthy_but_zero():
    """Containers must ask the ring, never a payload's truth value."""
    zero = RATFUN_T.zero_payload
    assert zero and RATFUN_T.is_zero(zero) and not RATFUN_T.zero()
    t = RATFUN_T.parameter_payload()
    assert RATFUN_T.is_zero(RATFUN_T.sub(t, t)) and RATFUN_T.sub(t, t) == zero
    assert not RATFUN_T.is_zero(t) and not POLY_T.is_zero(POLY_T.parameter_payload())


@pytest.mark.parametrize("tag", PAYLOAD_TAGS, ids=PAYLOAD_IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_payloads_are_int_or_proper_fraction(tag, data):
    """Random programs keep every coefficient an int or a non-integral
    Fraction, never a float or a bool, and agree with a sympy reference."""
    import sympy

    small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    operand = elements_of(tag) if tag.kind == "Q" else poly_elements(tag)
    acc = data.draw(operand)
    want = sympy_reference(acc)
    assert_canonical_types(acc)
    for op in data.draw(st.lists(OPS, min_size=1, max_size=4)):
        if op in ("+", "-", "*"):
            b = data.draw(operand)
            acc, want = {
                "+": (acc + b, want + sympy_reference(b)),
                "-": (acc - b, want - sympy_reference(b)),
                "*": (acc * b, want * sympy_reference(b)),
            }[op]
        elif op == "/":
            if tag.kind == "poly":  # only constants divide in Q[t]
                b = tag.from_fraction(data.draw(small.filter(bool)))
            else:
                b = data.draw(operand.filter(bool))
            acc, want = acc / b, want / sympy_reference(b)
        elif op == "inv":
            if not tag.is_field or acc.is_zero():
                continue
            acc, want = acc.inv(), 1 / want
        elif op == "**":
            k = data.draw(st.integers(min_value=-2 if tag.is_field and acc else 0, max_value=2))
            acc, want = acc**k, want**k
        else:
            again = parse_coefficient(acc.render(), tag)
            assert again == acc and again.render() == acc.render()
            acc = again
        assert_canonical_types(acc)
        want = reference_reduce(tag, want)
        assert sympy.cancel(sympy_reference(acc) - want) == 0, (op, acc)


class TestDivisionSites:
    """Each true division of a payload goes through Fraction, never float."""

    def test_poly_divided_by_integer(self):
        got = parse_coefficient("t/2", POLY_T)
        assert got.data == (0, Fraction(1, 2))
        assert type(got.data[1]) is Fraction
        assert parse_coefficient("t/3", POLY_T).data == (0, Fraction(1, 3))
        assert (POLY_T.variable() * 2 / 2).data == (0, 1)
        assert_canonical_types(POLY_T.variable() * 2 / 2)

    def test_numberfield_inverse_of_integer_element(self):
        x = parse_coefficient("d^2 + 2*d - 1", NF_CUBIC)
        assert all(type(c) is int for c in x.data)
        inv = x.inv()
        assert_canonical_types(inv)
        assert x * inv == NF_CUBIC.one()
        assert (NF_CUBIC.variable().inv()).data == (3, 0, -1)  # d (3 - d^2) = 1 mod m

    def test_ratfun_with_non_unit_leading_denominator(self):
        got = parse_coefficient("1/(2*t + 1)", RATFUN_T)
        assert got.data == ((Fraction(1, 2),), (Fraction(1, 2), 1))
        assert_canonical_types(got)
        assert got.render() == "1/2/(t + 1/2)"

    def test_central_split_with_integer_factors(self):
        # group algebra of C2; z = (e + a)/2 has minimal polynomial x^2 - x,
        # whose cofactor pieces u*h are integral: 1 - x and x
        one, half = Fraction(1), Fraction(1, 2)
        table = [[{0: one}, {1: one}], [{1: one}, {0: one}]]
        A = FinDimAlgebra(bound_q(1), ["e", "a"], table, {0: one}, "test")
        ctx = algkit._SplitContext(algkit._Quotient(A))
        parts = ctx._central_split({0: half, 1: half}, A.unit)
        want = [[(0, half), (1, -half)], [(0, half), (1, half)]]
        assert sorted(sorted(p.items()) for p in parts) == want
        assert all(type(v) is Fraction for p in parts for v in p.values())
        dec = split_idempotent(A, A.unit)
        assert sorted(sorted(e.items()) for e in dec.idempotents) == want


@pytest.mark.parametrize("value", [0, 1, 2, Fraction(1, 2)], ids=["0", "1", "2", "1/2"])
@pytest.mark.parametrize("family", ["partition-2", "tl-4"])
def test_algebra_payloads_are_canonical(family, value):
    """Tables, radical vectors and split idempotents of End([A_2]) and TL_4
    hold canonical Q payloads: ints in every table at an integral
    parameter, never an integral Fraction, a float or a bool."""
    if family == "partition-2":
        A = algkit.end_algebra_partition(2, value)
    else:
        A = algkit.end_algebra_tl(4, bound_q(value, "d"))
    table = [c for row in A.table for cell in row for c in cell.values()]
    radical = [c for v in algkit.radical(A) for c in v.values()]
    split = [c for e in split_idempotent(A, A.unit).idempotents for c in e.values()]
    for c in [*table, *A.unit.values(), *radical, *split]:
        assert_canonical_payload(c)
    if Fraction(value).denominator == 1:
        assert all(type(c) is int for c in table)
    else:
        assert any(type(c) is Fraction for c in table)


def test_slotted_element_keeps_value_semantics():
    a = parse_coefficient("t + 1", POLY_T)
    b = RingElement(POLY_T, (Fraction(1), Fraction(1)))  # integral Fractions
    assert a == b and hash(a) == hash(b) and a.render() == b.render()
    assert a != RingElement(RATFUN_T, a.data)
    assert not hasattr(a, "__dict__")
