import pytest
from hypothesis import given, strategies as st

from slq2.algebra import AlgebraMode, NormalMonomial, from_word, monomial_element, zero
from slq2.cyclo import CyclotomicScalar, q_half_power, q_power
from slq2.parsing import (
    ParseError,
    element_from_json,
    element_to_json,
    element_to_latex,
    parse_element,
    parse_scalar,
)

GEN3 = AlgebraMode.generic(3)


def test_parse_scalar_basics():
    assert parse_scalar("1 - q^2 + (1/2)q", 3) == CyclotomicScalar.from_coeff_list(3, ["1", "1/2", "-1"])
    assert parse_scalar("q^(-1)", 3) == q_power(3, -1)
    assert parse_scalar("2q^2", 3) == q_power(3, 2) * 2
    assert parse_scalar("-3/2", 5) == CyclotomicScalar.from_coeff_list(5, ["-3/2"])
    assert parse_scalar("q(1+q)", 3) == q_power(3, 1) * (1 + q_power(3, 1))


def test_parse_half_powers():
    assert parse_scalar("q^(1/2)", 3) == q_half_power(3, 1)
    assert parse_scalar("q^(-3/2)", 5) == q_half_power(5, -3)
    with pytest.raises(ParseError):
        parse_scalar("q^(1/3)", 3)


def test_parse_element_words():
    x = parse_element("a^2 b c^3", GEN3)
    assert x == from_word(GEN3, [("a", 2), ("b", 1), ("c", 3)])
    y = parse_element("1 + q^(-1) b c", GEN3)
    assert y == from_word(GEN3, [], 1) + from_word(GEN3, [("b", 1), ("c", 1)], q_power(3, -1))


def test_parse_element_normalizes():
    assert parse_element("d a", GEN3) == from_word(GEN3, [("d", 1), ("a", 1)])
    assert parse_element("b a", GEN3) == from_word(GEN3, [("a", 1), ("b", 1)], q_power(3, -1))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_element("a + $", GEN3)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_element("", GEN3)
    with pytest.raises(ParseError):
        parse_element("a^-1", GEN3)


DIVISIONS_BY_ZERO = [("1/0", 1), ("(3/0) q", 2), ("0/0 b", 1), ("2/(1-1)", 1)]


@pytest.mark.parametrize("text, position", DIVISIONS_BY_ZERO, ids=[text for text, _ in DIVISIONS_BY_ZERO])
def test_division_by_zero_is_a_parse_error(text, position):
    # a literal zero denominator and a divisor that evaluates to zero alike
    with pytest.raises(ParseError, match="division by zero") as err:
        parse_element(text, GEN3)
    assert err.value.position == position


CHAINED_DIVISIONS = [
    ("q/1/2", "(1/2)q"),
    ("q/(1)/2", "(1/2)q"),
    ("(1+q)/10/3", "(1+q)/30"),
    ("12/2/3", "2"),
    ("1/2/q", "(1/2)q^(-1)"),
]


@pytest.mark.parametrize("text, expected", CHAINED_DIVISIONS, ids=[text for text, _ in CHAINED_DIVISIONS])
def test_division_is_left_associative(text, expected):
    assert parse_scalar(text, 5) == parse_scalar(expected, 5)
    assert parse_element(f"{text} a", AlgebraMode.generic(5)) == parse_element(f"{expected} a", AlgebraMode.generic(5))


def test_chained_division_by_zero_stops_at_the_first_division():
    with pytest.raises(ParseError, match="division by zero") as err:
        parse_element("q/0/0", GEN3)
    assert err.value.position == 1


def scalars(ell=3):
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.lists(coeff, min_size=2, max_size=2).map(
        lambda cs: CyclotomicScalar.from_coeff_list(ell, cs)
    )


def elements(mode=GEN3):
    mono = st.tuples(
        st.integers(min_value=-2, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    ).map(lambda t: NormalMonomial(*t))

    def build(pairs):
        out = zero(mode)
        for m, c in pairs:
            out = out + monomial_element(mode, m, c)
        return out

    return st.lists(st.tuples(mono, scalars(mode.ell)), min_size=0, max_size=4).map(build)


@given(x=scalars())
def test_scalar_round_trip(x):
    assert parse_scalar(str(x), 3) == x


@given(x=elements())
def test_element_round_trip(x):
    assert parse_element(str(x), GEN3) == x


@given(x=elements())
def test_element_json_round_trip(x):
    assert element_from_json(element_to_json(x)) == x


def test_latex_emission():
    x = from_word(GEN3, [("a", 2), ("b", 1)], q_power(3, 1))
    assert element_to_latex(x) == "qa^{2}b"
    y = from_word(GEN3, [("a", 2), ("b", 1)], q_power(3, 2))
    assert element_to_latex(y) == "(-1 - q)a^{2}b"  # q^2 in reduced form


@pytest.mark.parametrize(
    "text, latex",
    [
        ("(1/2) a", "(1/2)a"),
        ("-(1/2) a b", "(-1/2)ab"),
        ("(1/2) q a", "((1/2)q)a"),
        ("(1/3) + (1/2) q^2 c", "1/3 + (-1/2 - (1/2)q)c"),
        ("3 a^2 - q b", "-qb + 3a^{2}"),
    ],
)
def test_latex_brackets_fraction_coefficients_like_the_text(text, latex):
    """A fraction coefficient is bracketed in LaTeX as in the text form, so
    (1/2) a never prints as 1/2a, which reads as 1/(2a); a rational term
    (monomial 1) stays bare."""
    x = parse_element(text, GEN3)
    assert element_to_latex(x) == latex
    assert str(x).count("(") == latex.count("(")


# message and position of each malformed text, as the parser reports them
MALFORMED = [
    ("a 2", "expected '+' or '-' between terms", 2),
    ("q a 2", "expected '+' or '-' between terms", 4),
    ("q(1+q) a", "expected '+' or '-' between terms", 1),
    ("a + + b", "unexpected token '+' in scalar", 4),
    ("--a", "unexpected token 'a' in scalar", 2),
    ("(1 + q a", "expected ')'", 7),
    ("q^(1/3)", "only half-integer q powers are supported", 4),
    ("a^-1", "generator exponents must be >= 0", 1),
    ("a^q", "expected an integer", 2),
    ("a)", "expected '+' or '-' between terms", 1),
    ("a + b)", "expected '+' or '-' between terms", 5),
    (")", "unexpected token ')' in scalar", 0),
    ("", "empty element expression", 0),
    ("   ", "empty element expression", 0),
    ("a ^ 2 b ^", "unexpected end of input", 9),
    ("q^(1/2", "unexpected end of input", 6),
    ("2 *", "unexpected end of input", 3),
    ("a b + 3 / 0 c", "division by zero", 8),
    ("a $", "unexpected character '$'", 2),
    ("ab", "unexpected character 'a'", 0),
]


@pytest.mark.parametrize("text, message, position", MALFORMED, ids=[repr(text) for text, _, _ in MALFORMED])
def test_malformed_element_reports_message_and_position(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_element(text, GEN3)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


MALFORMED_SCALARS = [
    ("", "unexpected end of input", 0),
    ("  ", "unexpected end of input", 2),
    ("1 +", "unexpected end of input", 3),
    ("q)", "trailing input ')'", 1),
    ("q a", "trailing input 'a'", 2),
    ("1 2 )", "trailing input ')'", 4),
]


@pytest.mark.parametrize(
    "text, message, position", MALFORMED_SCALARS, ids=[repr(text) for text, _, _ in MALFORMED_SCALARS]
)
def test_malformed_scalar_reports_message_and_position(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_scalar(text, 3)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


# a leading sign is optional, a sign between terms is not, and a sign with
# no term after it reads the term 1
SIGNED_TERMS = [
    ("+", "1"),
    ("-", "-1"),
    ("a +", "1 + a"),
    ("a - -1", "1 + a"),
    ("- a - b", "-b - a"),
    ("+a - b", "-b + a"),
    ("-2 -3 a", "-2 - 3 a"),
    ("-(1/2) a + (q+1) b c", "(1 + q) b c + (-1/2) a"),
    ("1 + 2 + 3", "6"),
]


@pytest.mark.parametrize("text, value", SIGNED_TERMS, ids=[repr(text) for text, _ in SIGNED_TERMS])
def test_signed_terms(text, value):
    assert str(parse_element(text, GEN3)) == value
