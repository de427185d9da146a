"""Series arithmetic: worked values plus the algebraic laws as properties."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from newtonspec import SpectrumSeries, one_minus_z_pow, z_minus_one_pow

from conftest import series


def naive_mul_one_minus_z(terms, k):
    """Independent expansion oracle: repeated convolution with (1 - z)."""
    data = dict(terms)
    for _ in range(k):
        out = {}
        for e, c in data.items():
            out[e] = out.get(e, 0) + c
            out[e + 1] = out.get(e + 1, 0) - c
        data = {e: c for e, c in out.items() if c}
    return data


def naive_combine(*term_lists):
    """Independent accumulation oracle: sum the coefficients of every
    (exponent, coefficient) pair into a dict, drop the zeros and return
    the terms in ascending exponent order, as ``SpectrumSeries.items``."""
    data = {}
    for terms in term_lists:
        for e, c in terms:
            data[e] = data.get(e, 0) + c
    return tuple(sorted((e, c) for e, c in data.items() if c))


exponents = st.fractions(
    min_value=-4, max_value=8, max_denominator=12
)
series_strategy = st.builds(
    SpectrumSeries,
    st.lists(st.tuples(exponents, st.integers(-9, 9)), max_size=8),
)


def test_add_cancellation():
    assert series(("0", 1), ("1", 1)) + series(("0", -1)) == series(("1", 1))


def test_add_identity():
    s = series(("1/2", 2), ("3", -1))
    assert SpectrumSeries.zero() + s == s


def test_add_like_terms():
    assert series(("1/2", 1)) + series(("1/2", 1)) == series(("1/2", 2))


def test_mul_one_minus_z_basic():
    s = series(("0", 1), ("1/2", 1))
    assert s.mul_one_minus_z_pow(1) == series(
        ("0", 1), ("1/2", 1), ("1", -1), ("3/2", -1)
    )
    assert SpectrumSeries.one().mul_one_minus_z_pow(2) == series(
        ("0", 1), ("1", -2), ("2", 1)
    )


def test_mul_one_minus_z_half_steps():
    # telescoping of sum_{j=0..4} z^{j/2} times (1 - z); value frozen from
    # the naive expansion oracle
    s = SpectrumSeries({Fraction(j, 2): 1 for j in range(5)})
    got = s.mul_one_minus_z_pow(1)
    oracle = naive_mul_one_minus_z({Fraction(j, 2): 1 for j in range(5)}, 1)
    assert got == SpectrumSeries(oracle)
    assert got == series(("0", 1), ("1/2", 1), ("5/2", -1), ("3", -1))


@given(series_strategy, st.integers(0, 4))
def test_mul_one_minus_z_matches_oracle(s, k):
    assert s.mul_one_minus_z_pow(k) == SpectrumSeries(
        naive_mul_one_minus_z(dict(s.items()), k)
    )


@given(series_strategy, series_strategy)
def test_add_matches_oracle(s, t):
    assert (s + t).items() == naive_combine(s.items(), t.items())


@given(series_strategy, series_strategy)
def test_sub_matches_oracle(s, t):
    negated = [(e, -c) for e, c in t.items()]
    assert (s - t).items() == naive_combine(s.items(), negated)


@given(series_strategy, series_strategy)
def test_mul_matches_oracle(s, t):
    products = [
        (e1 + e2, c1 * c2) for e1, c1 in s.items() for e2, c2 in t.items()
    ]
    assert (s * t).items() == naive_combine(products)


@given(series_strategy, st.integers(-5, 5))
def test_scalar_mul_matches_oracle(s, k):
    want = naive_combine([(e, k * c) for e, c in s.items()])
    assert (s * k).items() == want
    assert (k * s).items() == want


@given(series_strategy)
def test_sub_self_is_zero(s):
    assert s - s == SpectrumSeries.zero()


def test_eval_at_one_examples():
    assert series(("0", 1), ("1/2", 3), ("1", 3), ("3/2", 1)).eval_at_one() == 8
    assert SpectrumSeries.zero().eval_at_one() == 0
    assert series(("1/2", 1), ("1", 3), ("3/2", 1)).eval_at_one() == 5


def test_reflect_examples():
    s = series(("1/2", 1), ("1", 3), ("3/2", 1))
    assert s.reflect(2) == s
    assert SpectrumSeries.one().reflect(0) == SpectrumSeries.one()
    palindrome = series(("0", 1), ("2", 1))
    assert palindrome.reflect(2) == palindrome


@given(
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
)
def test_fraction_arithmetic_is_exact(x, y):
    a, b = x.numerator, x.denominator
    c, d = y.numerator, y.denominator
    assert (x + y) * (b * d) == a * d + c * b


@given(series_strategy)
def test_one_minus_z_powers_compose(s):
    assert s.mul_one_minus_z_pow(1).mul_one_minus_z_pow(1) == s.mul_one_minus_z_pow(2)


@given(series_strategy, st.integers(1, 4))
def test_one_minus_z_annihilates_mass(s, k):
    assert s.mul_one_minus_z_pow(k).eval_at_one() == 0


@given(series_strategy, st.integers(-3, 6))
def test_reflect_is_involution(s, n):
    assert s.reflect(n).reflect(n) == s


@given(series_strategy)
def test_terms_ascend(s):
    exps = s.exponents()
    assert list(exps) == sorted(exps)
    assert all(c != 0 for _, c in s.items())


@given(series_strategy)
def test_json_round_trip(s):
    payload = s.to_json()
    assert payload == sorted(payload, key=lambda t: Fraction(t["exponent"]))
    assert SpectrumSeries({Fraction(t["exponent"]): t["coefficient"] for t in payload}) == s


def test_z_minus_one_pow():
    assert z_minus_one_pow(2) == series(("0", 1), ("1", -2), ("2", 1))
    assert z_minus_one_pow(0) == SpectrumSeries.one()
    assert one_minus_z_pow(3) == series(("0", 1), ("1", -3), ("2", 3), ("3", -1))


def test_rendering():
    assert str(series(("0", 1), ("1/2", 3), ("1", 3), ("3/2", 1))) == (
        "1 + 3 z^{1/2} + 3 z + z^{3/2}"
    )
    assert str(series(("0", 1), ("1", 14), ("2", 5))) == "1 + 14 z + 5 z^2"
    assert str(SpectrumSeries.zero()) == "0"
    assert str(series(("0", -1), ("1", 1))) == "-1 + z"


# -- the canonical form: integer numerators over the least denominator --

mixed_exponents = st.builds(
    Fraction, st.integers(-12, 24), st.sampled_from([1, 2, 3, 4, 6])
)
# few exponents and small coefficients, so that equal exponents with
# different spellings meet and cancel often
mixed_pairs = st.lists(st.tuples(mixed_exponents, st.integers(-3, 3)), max_size=10)
# includes denominators such as 5 and 7 that no series above has
probe_exponents = st.fractions(min_value=-3, max_value=7, max_denominator=14)


def reference(pairs):
    """Plain {Fraction: int} accumulation of (exponent, coefficient) pairs."""
    data = {}
    for e, c in pairs:
        data[Fraction(e)] = data.get(Fraction(e), 0) + c
    return {e: c for e, c in data.items() if c}


def sorted_items(data):
    return tuple(sorted(data.items()))


@given(mixed_pairs)
def test_canonical_items_and_denominator(pairs):
    s = SpectrumSeries(pairs)
    want = reference(pairs)
    assert s.items() == sorted_items(want)
    assert s.exponents() == tuple(sorted(want))
    assert s.denominator == math.lcm(*(e.denominator for e in want))
    assert list(s.numerators()) == [(e * s.denominator, c) for e, c in s.items()]


@given(mixed_pairs, mixed_pairs)
def test_canonical_arithmetic_matches_reference(p1, p2):
    s, t = SpectrumSeries(p1), SpectrumSeries(p2)
    r1, r2 = reference(p1), reference(p2)
    assert (s + t).items() == sorted_items(reference([*r1.items(), *r2.items()]))
    assert (s - t).items() == sorted_items(
        reference([*r1.items(), *((e, -c) for e, c in r2.items())])
    )
    assert (s * t).items() == sorted_items(reference(
        (e1 + e2, c1 * c2) for e1, c1 in r1.items() for e2, c2 in r2.items()
    ))
    assert (s * 3).items() == sorted_items({e: 3 * c for e, c in r1.items()})


@given(mixed_pairs, probe_exponents, st.integers(-3, 6), st.integers(0, 3))
def test_canonical_methods_match_reference(pairs, x, n, k):
    s = SpectrumSeries(pairs)
    want = reference(pairs)
    assert s.shift(x).items() == sorted_items({e + x: c for e, c in want.items()})
    assert s.reflect(n).items() == sorted_items({n - e: c for e, c in want.items()})
    assert s.truncate_above(x).items() == sorted_items(
        {e: c for e, c in want.items() if e <= x}
    )
    assert s.restrict_below(x).items() == sorted_items(
        {e: c for e, c in want.items() if e < x}
    )
    assert s.mul_one_minus_z_pow(k).items() == sorted_items(naive_mul_one_minus_z(want, k))
    assert s.coefficient(x) == want.get(x, 0)
    for e, c in want.items():
        assert s.coefficient(e) == c
    # the integer forms of the same calls, x spelled over its denominator
    num, den = x.numerator, x.denominator
    assert s.shift(num, den) == s.shift(x)
    assert s.coefficient(num, den) == s.coefficient(x)


@given(mixed_pairs, probe_exponents, st.integers(-40, 40), st.integers(1, 14))
def test_shift_equals_the_constructor_built_series(pairs, x, num, den):
    # shift builds its result without the constructor: the same terms in
    # the same order over the same least denominator, for int, Fraction
    # and (num, den) shifts
    s = SpectrumSeries(pairs)
    for shifted, by in ((s.shift(num), Fraction(num)), (s.shift(x), x),
                        (s.shift(num, den), Fraction(num, den))):
        want = SpectrumSeries([(e + by, c) for e, c in s.items()])
        assert shifted == want
        assert shifted.denominator == want.denominator
        assert list(shifted.numerators()) == list(want.numerators())


@given(mixed_pairs, mixed_exponents, st.integers(1, 4))
def test_equal_series_have_equal_hashes(pairs, e, m):
    s = SpectrumSeries(pairs)
    # the same series in another order, with a term that cancels
    t = SpectrumSeries([(e, 1)] + pairs[::-1] + [(e, -1)])
    # ... and from integer numerators over a denominator that is m times
    # a common one, not the least
    den = m * math.lcm(*(Fraction(x).denominator for x, _ in pairs))
    u = SpectrumSeries([(int(x * den), c) for x, c in pairs], den)
    assert s == t == u
    assert hash(s) == hash(t) == hash(u)
    assert s.denominator == t.denominator == u.denominator


def test_cancellation_leaves_the_least_denominator():
    s = SpectrumSeries([(Fraction(1, 2), 1), (Fraction(1, 2), -1), (1, 1)])
    assert s == SpectrumSeries({1: 1}, 1)
    assert s.denominator == 1
    assert (series(("1/2", 1)) - series(("1/2", 1))).denominator == 1
    assert SpectrumSeries({3: 1, 6: 2}, 6) == series(("1/2", 1), ("1", 2))
    assert SpectrumSeries({3: 1, 6: 2}, 6).denominator == 2


def test_integer_numerators_need_a_positive_denominator_multiple():
    with pytest.raises(ValueError):
        SpectrumSeries({1: 1}, 0)
    with pytest.raises(ValueError):
        list(series(("1/2", 1)).numerators(3))
    assert list(series(("1/2", 1)).numerators(6)) == [(3, 1)]
