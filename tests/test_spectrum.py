"""Spectrum routes, the inclusion-exclusion series and Milnor numbers."""

import random
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonspec import (
    GLOBAL,
    LOCAL,
    InputError,
    Poly,
    SpectrumSeries,
    TruncationError,
    boundary_lattice_points,
    build_model,
    check_convenient,
    koszul_hilbert_series,
    milnor_number,
    parse_polynomial,
    spectrum_at_infinity,
    toric_spectrum,
    toric_spectrum_box,
    toric_spectrum_oracle,
)

from conftest import (
    FOUR_VARIABLE_POLYS,
    QUINTIC_AT_INFINITY,
    QUINTIC_SPECTRUM,
    SQUARE_AT_INFINITY,
    SQUARE_SPECTRUM,
    THREED_AT_INFINITY,
    THREED_SPECTRUM,
    series,
)


def test_box_formula_square(square_model):
    assert toric_spectrum_box(square_model) == series(*SQUARE_SPECTRUM)


def test_box_formula_threed(threed_model):
    assert toric_spectrum_box(threed_model) == series(*THREED_SPECTRUM)


def test_box_formula_local_quintic(quintic_model):
    assert toric_spectrum_box(quintic_model) == series(*QUINTIC_SPECTRUM)


def test_box_formula_non_simplicial():
    # the square face u, v, u*w, v*w is cut in two by the triangulation
    m = build_model(parse_polynomial("u + 2*v + 3*u*w + 5*v*w + 7*w^2"))
    assert not m.simplicial_fan
    assert toric_spectrum_box(m) == toric_spectrum_oracle(m)
    assert toric_spectrum_box(m) == series(("0", 1), ("1/2", 1), ("1", 2))


def test_oracle_square(square_model):
    assert toric_spectrum_oracle(square_model) == series(*SQUARE_SPECTRUM)


def test_oracle_standard_simplex():
    m = build_model(parse_polynomial("u1 + u2 + u3"))
    assert toric_spectrum_oracle(m) == SpectrumSeries.one()


def test_oracle_weighted_simplex():
    m = build_model(parse_polynomial("u1 + u2 + u3^3"))
    assert toric_spectrum_oracle(m) == series(("0", 1), ("1/3", 1), ("2/3", 1))


def test_oracle_is_exact_at_scan_height(corpus):
    for entry in corpus:
        assert toric_spectrum_oracle(entry.model) == entry.box


def test_toric_spectrum_is_the_box_route_on_any_fan(square_model):
    assert toric_spectrum(square_model) == toric_spectrum_oracle(square_model)
    m = build_model(parse_polynomial("u + 2*v + 3*u*w + 5*v*w + 7*w^2"))
    assert toric_spectrum(m) == toric_spectrum_oracle(m)
    assert toric_spectrum(m).eval_at_one() == m.normalized_volume()


def test_spectrum_at_infinity_square(square_poly):
    assert spectrum_at_infinity(square_poly) == series(*SQUARE_AT_INFINITY)


def test_spectrum_at_infinity_threed(threed_poly):
    assert spectrum_at_infinity(threed_poly) == series(*THREED_AT_INFINITY)


def test_local_spectrum_quintic(quintic_poly):
    assert spectrum_at_infinity(quintic_poly) == series(*QUINTIC_AT_INFINITY)


def test_milnor_numbers(square_poly, quintic_poly):
    assert milnor_number(square_poly) == 5
    assert milnor_number(parse_polynomial("u + v")) == 0
    assert milnor_number(quintic_poly) == 11


def test_boundary_lattice_points(square_model, quintic_model):
    assert boundary_lattice_points(square_model) == 5
    assert boundary_lattice_points(build_model(parse_polynomial("u + v"))) == 2
    # cross-checked against the coefficient of z: 0 = points - n
    m3 = build_model(parse_polynomial("u1 + u2 + u3^3"))
    spec = toric_spectrum_oracle(m3)
    assert boundary_lattice_points(m3) == 3
    assert spec.coefficient(1) == boundary_lattice_points(m3) - 3
    assert boundary_lattice_points(quintic_model) == 3


def test_local_spectrum_cancels_axis_contributions(quintic_poly):
    # the restriction series remove the constant and the z^{k/5} terms
    local = spectrum_at_infinity(quintic_poly)
    assert local.coefficient(0) == 0
    assert all(e.denominator != 5 for e in local.exponents())


def test_routes_agree_on_corpus(corpus):
    for entry in corpus:
        assert entry.oracle == entry.koszul
        assert entry.box == entry.oracle


def test_spectrum_mass_on_corpus(corpus):
    for entry in corpus:
        assert entry.oracle.eval_at_one() == entry.mu


def test_exponent_range_on_simplicial_corpus(corpus):
    for entry in corpus:
        if entry.model.simplicial_fan:
            assert all(0 <= e < entry.model.n for e in entry.oracle.exponents())


def test_integral_shifts_on_corpus(corpus):
    # every box value nu(v) of a face F outside the coordinate hyperplanes
    # recurs at nu(v) + j for j = 0 .. n-1-dim(F)
    for entry in corpus:
        m = entry.model
        if not m.simplicial_fan:
            continue
        for k in m.f_of_p:
            face = m.faces[k]
            for bp in m.box_points(face):
                for j in range(m.n - face.dim):
                    assert entry.oracle.coefficient(bp.nu + j) >= 1, (
                        entry.poly, bp.point, j
                    )


def test_koszul_series_square(square_poly, square_model):
    assert koszul_hilbert_series(square_poly, square_model) == series(*SQUARE_SPECTRUM)


def test_degenerate_input_detected():
    # the square face of this one factors, so the relation ranks collapse
    p = parse_polynomial("u + v + u*w + v*w + w^2")
    m = build_model(p)
    with pytest.raises(TruncationError):
        koszul_hilbert_series(p, m)


@st.composite
def convenient_polys(draw):
    """Convenient supports in n <= 4 variables, global or local, with
    random coefficients so the input is Newton nondegenerate.  Exponents
    are <= 4 with up to n + 1 extra points for n <= 3, and <= 3 with up
    to 3 extra points for n = 4."""
    n = draw(st.integers(1, 4))
    top, max_extra = (3, 3) if n == 4 else (4, n + 1)
    mode = draw(st.sampled_from([GLOBAL, LOCAL]))
    support = set()
    for i in range(n):
        support.add(tuple(draw(st.integers(1, top)) if j == i else 0 for j in range(n)))
    extra = draw(st.lists(st.tuples(*[st.integers(0, top)] * n), max_size=max_extra))
    support.update(v for v in extra if any(v))
    rng = random.Random(draw(st.integers(0, 2**32)))
    terms = {v: Fraction(rng.randint(1, 999983)) for v in sorted(support)}
    return Poly(names=tuple("uvwx"[:n]), terms=terms, mode=mode)


@settings(max_examples=60, deadline=timedelta(seconds=20))
@given(convenient_polys())
def test_routes_agree_on_random_supports(p):
    m = build_model(p)
    box = toric_spectrum_box(m)
    assert box == toric_spectrum_oracle(m)
    assert box == koszul_hilbert_series(p, m)


def assert_routes_agree(text, n):
    p = parse_polynomial(text)
    m = build_model(p)
    assert m.n == n
    box = toric_spectrum_box(m)
    assert box.eval_at_one() == m.normalized_volume()
    assert box == toric_spectrum_oracle(m)
    assert box == koszul_hilbert_series(p, m)


@pytest.mark.parametrize("text", FOUR_VARIABLE_POLYS)
def test_routes_agree_in_four_variables(text):
    assert_routes_agree(text, 4)


def test_routes_agree_in_five_variables():
    # normalized volume 1024; the Koszul blocks span the 53130 monomials
    # of Newton value <= 5
    assert_routes_agree("u^4 + v^4 + w^4 + x^4 + y^4", 5)


@pytest.mark.parametrize("route", [
    check_convenient, build_model, spectrum_at_infinity, milnor_number,
])
@pytest.mark.parametrize("text", ["1", "0"])
def test_polynomial_without_variables_is_input_error(route, text):
    with pytest.raises(InputError, match="no variables"):
        route(parse_polynomial(text))
