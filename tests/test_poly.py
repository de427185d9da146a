"""Parser, convenience check, and the coordinate restriction that the
tests build reference models from."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonspec import (
    GLOBAL,
    LOCAL,
    InputError,
    NotConvenientError,
    Poly,
    PolynomialSyntaxError,
    check_convenient,
    parse_monomial,
    parse_polynomial,
)

from conftest import random_convenient_poly, restrict


def test_parse_square_example():
    p = parse_polynomial("u^2 + u^2*v^2 + v^2")
    assert p.names == ("u", "v")
    assert set(p.support()) == {(2, 0), (2, 2), (0, 2)}
    assert all(c == 1 for c in p.terms.values())


def test_parse_local_quintic():
    p = parse_polynomial("x^5 + x^2*y^2 + y^5", mode=LOCAL)
    assert set(p.support()) == {(5, 0), (2, 2), (0, 5)}
    assert p.mode == LOCAL


def test_parse_combines_terms():
    p = parse_polynomial("2*u - u")
    assert p.terms == {(1,): Fraction(1)}


def test_parse_cancellation_drops_zero():
    p = parse_polynomial("u - u + v")
    # u still counts as a variable; only its term cancels
    assert p.names == ("u", "v")
    assert p.support() == ((0, 1),)


def test_parse_rational_coefficients():
    p = parse_polynomial("1/2*u + 3*v^2 + 7")
    assert p.terms[(1, 0)] == Fraction(1, 2)
    assert p.terms[(0, 2)] == 3
    assert p.terms[(0, 0)] == 7


def test_parsed_coefficients_are_fractions():
    # the parser sums plain ints, with a Fraction only for a/b, and
    # stores every term's coefficient as a Fraction
    p = parse_polynomial("u^2 - 2*u^2 + 1/2*u*v + 1/2*u*v - 3*v^2 + 4 + -5/6*u")
    assert p.terms == {(2, 0): -1, (1, 1): 1, (0, 2): -3, (0, 0): 4, (1, 0): Fraction(-5, 6)}
    assert all(type(c) is Fraction for c in p.terms.values())
    assert list(p.terms) == [(2, 0), (1, 1), (0, 2), (0, 0), (1, 0)]


def test_parse_repeated_variable_in_term():
    p = parse_polynomial("u*u*v + u^2*v")
    assert p.terms == {(2, 1): Fraction(2)}


def test_syntax_error_carries_offset():
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial("u^2 + $")
    assert err.value.offset == 6


@pytest.mark.parametrize("text,char,offset", [
    ("u^²+v^2", "²", 2),
    ("12²*u+v^2", "²", 2),
    ("u^①+v", "①", 2),
])
def test_non_decimal_digits_are_syntax_errors(text, char, offset):
    # '²' and '①' are digits to str.isdigit but no decimal digits, which
    # are all that int() reads
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(text)
    assert err.value.offset == offset
    assert str(err.value) == f"unexpected character {char!r} (at offset {offset})"


def test_decimal_digits_of_any_script_are_numbers():
    assert parse_polynomial("u^٣ + ٢*v").terms == {(3, 0): 1, (0, 1): 2}


def test_superscript_after_a_letter_stays_in_the_name():
    assert parse_polynomial("u² + v^2").names == ("u²", "v")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="uv019+-*^/ ²①٣½", max_size=16))
def test_text_over_the_grammar_parses_or_is_refused(text):
    try:
        parse_polynomial(text)
    except InputError:
        pass


def test_negative_exponent_rejected():
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial("u^-2")
    assert err.value.offset == 2


def test_empty_term_rejected():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("u + + v")


def test_zero_denominator_rejected():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("1/0*u")


def test_local_constant_rejected():
    with pytest.raises(InputError):
        parse_polynomial("1 + x + y", mode=LOCAL)


def test_var_order_pins_indices():
    p = parse_polynomial("v + u", var_order=["u", "v"])
    assert p.names == ("u", "v")
    assert set(p.support()) == {(1, 0), (0, 1)}
    with pytest.raises(InputError):
        parse_polynomial("v + u + w", var_order=["u", "v"])
    with pytest.raises(InputError, match="variable u repeats"):
        parse_polynomial("u^2", var_order=["u", "u"])


def test_parse_monomial():
    assert parse_monomial("u^2*v", ("u", "v")) == (2, 1)
    assert parse_monomial("1", ("u", "v")) == (0, 0)
    with pytest.raises(InputError):
        parse_monomial("2*u", ("u", "v"))
    with pytest.raises(InputError):
        parse_monomial("u + v", ("u", "v"))


def test_check_convenient_examples():
    assert check_convenient(parse_polynomial("u^2 + u^2*v^2 + v^2")) == [2, 2]
    assert check_convenient(
        parse_polynomial("u + v + w + u^2*v^2*w^2 + v^2*w^2")
    ) == [1, 1, 1]
    with pytest.raises(NotConvenientError) as err:
        check_convenient(parse_polynomial("u + u*v"))
    assert err.value.missing == ("v",)


def test_check_convenient_picks_smallest_power():
    assert check_convenient(parse_polynomial("u^5 + u^3 + v^2")) == [3, 2]


def test_restrict_examples():
    p = parse_polynomial("u^2 + u^2*v^2 + v^2")
    r = restrict(p, {1})
    assert r.names == ("u",)
    assert r.terms == {(2,): Fraction(1)}

    q = parse_polynomial("u + v + w + u^2*v^2*w^2 + v^2*w^2")
    r = restrict(q, {0})
    assert r.names == ("v", "w")
    assert set(r.support()) == {(1, 0), (0, 1), (2, 2)}

    quintic = parse_polynomial("x^5 + x^2*y^2 + y^5", mode=LOCAL)
    r = restrict(quintic, {1})
    assert r.terms == {(5,): Fraction(1)}
    assert r.mode == LOCAL


def test_restrict_rejects_everything():
    p = parse_polynomial("u + v")
    with pytest.raises(InputError):
        restrict(p, {0, 1})


def test_restrict_empty_set_is_identity():
    p = parse_polynomial("u + v")
    assert restrict(p, set()) == p


def test_restrict_commutes():
    rng = random.Random(7)
    for _ in range(20):
        p = random_convenient_poly(rng, 3)
        once = restrict(restrict(p, {2}), {0})  # drop w, then u
        both = restrict(p, {0, 2})
        assert once == both


def test_restriction_stays_convenient():
    rng = random.Random(11)
    for _ in range(20):
        p = random_convenient_poly(rng, 3)
        check_convenient(p)
        for i in range(3):
            check_convenient(restrict(p, {i}))


def test_round_trip_is_fixed_point():
    rng = random.Random(13)
    texts = ["u^2 + u^2*v^2 + v^2", "2*u - u + 1/3*v^4", "-1*u + 5*v - 2"]
    texts += [str(random_convenient_poly(rng, n)) for n in (1, 2, 3) for _ in range(5)]
    for text in texts:
        once = parse_polynomial(text)
        twice = parse_polynomial(str(once))
        assert str(twice) == str(once)


def test_round_trip_with_pinned_order_is_identity():
    rng = random.Random(17)
    for n in (1, 2, 3):
        for _ in range(5):
            p = random_convenient_poly(rng, n)
            assert parse_polynomial(str(p), var_order=p.names) == p


def test_local_zero_vector_invariant():
    with pytest.raises(InputError):
        Poly(names=("x",), terms={(0,): Fraction(1), (1,): Fraction(1)}, mode=LOCAL)
