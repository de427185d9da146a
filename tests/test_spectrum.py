"""Spectrum routes, the inclusion-exclusion series and Milnor numbers."""

import itertools
import random
import sys
from datetime import timedelta
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonspec import ehrhart, linalg, polytope, series as series_module, spectrum
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
    orbifold_dimensions,
    parse_polynomial,
    spectrum_at_infinity,
    toric_spectrum,
    toric_spectrum_box,
    toric_spectrum_oracle,
)

from conftest import (
    FOUR_VARIABLE_POLYS,
    LOCAL_GERMS,
    QUINTIC_AT_INFINITY,
    QUINTIC_SPECTRUM,
    SQUARE_AT_INFINITY,
    SQUARE_SPECTRUM,
    THREED_AT_INFINITY,
    THREED_SPECTRUM,
    acceptance_polys,
    restrict,
    series,
)
from newtonspec.cli import main


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


def test_spectrum_at_infinity_square(square_model):
    assert spectrum_at_infinity(square_model) == series(*SQUARE_AT_INFINITY)


def test_spectrum_at_infinity_threed(threed_model):
    assert spectrum_at_infinity(threed_model) == series(*THREED_AT_INFINITY)


def test_local_spectrum_quintic(quintic_model):
    assert spectrum_at_infinity(quintic_model) == series(*QUINTIC_AT_INFINITY)


def test_milnor_numbers(square_model, quintic_model):
    assert milnor_number(square_model) == 5
    assert milnor_number(build_model(parse_polynomial("u + v"))) == 0
    assert milnor_number(quintic_model) == 11


def test_boundary_lattice_points(square_model, quintic_model):
    assert boundary_lattice_points(square_model) == 5
    assert boundary_lattice_points(build_model(parse_polynomial("u + v"))) == 2
    # cross-checked against the coefficient of z: 0 = points - n
    m3 = build_model(parse_polynomial("u1 + u2 + u3^3"))
    spec = toric_spectrum_oracle(m3)
    assert boundary_lattice_points(m3) == 3
    assert spec.coefficient(1) == boundary_lattice_points(m3) - 3
    assert boundary_lattice_points(quintic_model) == 3


def test_local_spectrum_cancels_axis_contributions(quintic_model):
    # the restriction series remove the constant and the z^{k/5} terms
    local = spectrum_at_infinity(quintic_model)
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
        for face in m.faces:
            if face.in_coordinate_hyperplane:
                continue
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
def convenient_polys(draw, min_n=1, max_n=4, mode=None):
    """Convenient supports in min_n <= n <= max_n <= 4 variables, global
    or local unless ``mode`` is given, with random coefficients so the
    input is Newton nondegenerate.  Exponents are <= 4 with up to n + 1
    extra points for n <= 3, and <= 3 with up to 3 extra points for
    n = 4."""
    n = draw(st.integers(min_n, max_n))
    top, max_extra = (3, 3) if n == 4 else (4, n + 1)
    if mode is None:
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


def _oracle_at_n_plus_one(model):
    """The oracle as computed before it truncated at T = n: the series at
    T = n + 1, from the census histogram, kept as the reference."""
    n = model.n
    t = n + 1
    partial = SpectrumSeries(model.value_histogram(t))
    return partial.mul_one_minus_z_pow(n).truncate_above(t)


def test_oracle_at_n_equals_the_series_at_n_plus_one_on_corpus(corpus):
    for entry in corpus:
        assert entry.oracle == _oracle_at_n_plus_one(build_model(entry.poly)), entry.poly


@pytest.mark.parametrize("text,mode", [(t, GLOBAL) for t in FOUR_VARIABLE_POLYS]
                         + [(t, LOCAL) for t in LOCAL_GERMS])
def test_oracle_at_n_equals_the_series_at_n_plus_one(text, mode):
    m = build_model(parse_polynomial(text, mode=mode))
    assert toric_spectrum_oracle(m) == _oracle_at_n_plus_one(m)


@settings(max_examples=60, deadline=timedelta(seconds=20))
@given(convenient_polys(min_n=2))
def test_oracle_at_n_equals_the_series_at_n_plus_one_on_random_supports(p):
    m = build_model(p)
    assert toric_spectrum_oracle(m) == _oracle_at_n_plus_one(m)


@given(st.integers(1, 5), st.integers(1, 12), st.data())
def test_truncated_product_equals_the_cut_full_product(n, scale, data):
    # the oracle builds only the terms at exponents <= n of (1 - z)^n
    # times the census series, whose values lie in [0, n]
    counts = data.draw(st.dictionaries(st.integers(0, n * scale), st.integers(1, 10**6),
                                       max_size=30))
    want = SpectrumSeries(counts, scale).mul_one_minus_z_pow(n).truncate_above(n)
    got = spectrum._truncated_product(dict(sorted(counts.items())), n, scale)
    assert got == want
    assert list(got.numerators()) == list(want.numerators())


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
    check_convenient,
    build_model,
    pytest.param(lambda p: spectrum_at_infinity(build_model(p)), id="spectrum_at_infinity"),
    pytest.param(lambda p: milnor_number(build_model(p)), id="milnor_number"),
])
@pytest.mark.parametrize("text", ["1", "0"])
def test_polynomial_without_variables_is_input_error(route, text):
    with pytest.raises(InputError, match="no variables"):
        route(parse_polynomial(text))


def test_spectrum_routes_build_no_fraction(monkeypatch):
    # the models (whose facet forms are rational) are built first; after
    # that the box route, the oracle, the orbifold sum, the spectrum at
    # infinity and the Milnor number work on integers alone
    polys = acceptance_polys() + [parse_polynomial(t, mode=LOCAL) for t in LOCAL_GERMS]
    want = []
    for p in polys:
        m = build_model(p)
        want.append((toric_spectrum_box(m), toric_spectrum_oracle(m), spectrum_at_infinity(m),
                     milnor_number(m)))
    fresh = [build_model(p) for p in polys]

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction built on the spectrum path")

    for module in (series_module, spectrum, polytope, ehrhart, linalg):
        monkeypatch.setattr(module, "Fraction", refuse, raising=False)
    got = []
    for model in fresh:
        box = toric_spectrum_box(model)
        if model.simplicial_fan:
            assert orbifold_dimensions(model) == box
        got.append((box, toric_spectrum_oracle(model), spectrum_at_infinity(model),
                    milnor_number(model)))
    monkeypatch.undo()
    assert got == want


def _restriction_reference(p):
    """The spectrum at infinity and the Milnor number of p as the sums
    over the coordinate restrictions that define them, one model per
    restriction: the alternating sums of the toric spectra and of the
    normalized volumes of build_model(restrict(p, I)) over the proper
    subsets I of the variables, the restriction to every variable
    counting (-1)^n in both."""
    n = p.nvars
    at_infinity = SpectrumSeries.one() * (-1) ** n
    mu = (-1) ** n
    for size in range(n):
        for subset in itertools.combinations(range(n), size):
            model = build_model(restrict(p, subset))
            at_infinity = at_infinity + (-1) ** size * toric_spectrum(model)
            mu += (-1) ** size * model.normalized_volume()
    return at_infinity, mu


def _assert_matches_restriction_reference(p):
    model = build_model(p)
    at_infinity, mu = _restriction_reference(p)
    assert spectrum_at_infinity(model) == at_infinity, p
    assert milnor_number(model) == mu, p


def test_one_model_matches_restriction_models_on_corpus(corpus):
    for entry in corpus:
        assert (entry.at_infinity, entry.milnor) == _restriction_reference(entry.poly), entry.poly


@pytest.mark.parametrize("text, mode", [(t, LOCAL) for t in LOCAL_GERMS]
                         + [(t, GLOBAL) for t in FOUR_VARIABLE_POLYS])
def test_one_model_matches_restriction_models(text, mode):
    _assert_matches_restriction_reference(parse_polynomial(text, mode=mode))


@settings(max_examples=60, deadline=timedelta(seconds=20))
@given(convenient_polys(min_n=2))
def test_one_model_matches_restriction_models_on_random_supports(p):
    _assert_matches_restriction_reference(p)


@pytest.mark.parametrize("command", ["check", "spec-infinity", "milnor"])
@pytest.mark.parametrize("argv", [["u^3 + v^4 + w^5 + u*v*w"], ["--local", "x^4 + y^5 + x^2*y^2"]])
def test_commands_build_one_model(command, argv, monkeypatch, capsys):
    built = []
    original = polytope.build_model

    def counted(p):
        built.append(p)
        return original(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("newtonspec") and getattr(module, "build_model", None) is original:
            monkeypatch.setattr(module, "build_model", counted)
    assert main([command, *argv]) == 0
    assert len(built) == 1


def _brieskorn_pham(exponents, low):
    """prod_i sum_{low <= k < a_i} z^{k / a_i}."""
    out = SpectrumSeries.one()
    for a in exponents:
        out = out * SpectrumSeries({Fraction(k, a): 1 for k in range(low, a)})
    return out


@pytest.mark.parametrize("mode", [GLOBAL, LOCAL])
@pytest.mark.parametrize("exponents", [(97, 89, 5), (400, 7, 3), (12, 12, 12, 12), (3, 3, 3, 3, 3)])
def test_brieskorn_pham_closed_form(exponents, mode):
    # sum x_i^{a_i}: the toric spectrum is prod_i sum_{0 <= k < a_i} z^{k/a_i}
    # and the spectrum at infinity (local spectrum) the same product over
    # 1 <= k < a_i (Steenbrink 1977)
    names = "uvwxy"[:len(exponents)]
    model = build_model(parse_polynomial(
        " + ".join(f"{x}^{a}" for x, a in zip(names, exponents)), mode=mode))
    assert toric_spectrum(model) == _brieskorn_pham(exponents, 0)
    at_infinity = _brieskorn_pham(exponents, 1)
    assert spectrum_at_infinity(model) == at_infinity
    assert milnor_number(model, _at_infinity=at_infinity) == prod(a - 1 for a in exponents)


@st.composite
def disjoint_sums(draw):
    """(f + g, f, g) for f and g in 1 or 2 variables each on disjoint
    variables, in one mode, drawn as in ``convenient_polys``."""
    mode = draw(st.sampled_from([GLOBAL, LOCAL]))
    f = draw(convenient_polys(max_n=2, mode=mode))
    g = draw(convenient_polys(max_n=2, mode=mode))
    zeros_f, zeros_g = (0,) * f.nvars, (0,) * g.nvars
    terms = {v + zeros_g: c for v, c in f.terms.items()}
    terms.update({zeros_f + v: c for v, c in g.terms.items()})
    names = tuple("uvwx"[:f.nvars + g.nvars])
    return Poly(names=names, terms=terms, mode=mode), f, g


@settings(max_examples=40, deadline=timedelta(seconds=20))
@given(disjoint_sums())
def test_thom_sebastiani_products(sums):
    # f(x) + g(y) on disjoint variables: its Newton polytope is the free
    # sum of the factors', so both spectra are products (Sebastiani and
    # Thom 1971), and so is the Milnor number
    p, f, g = sums
    model, mf, mg = build_model(p), build_model(f), build_model(g)
    assert toric_spectrum(model) == toric_spectrum(mf) * toric_spectrum(mg)
    assert spectrum_at_infinity(model) == spectrum_at_infinity(mf) * spectrum_at_infinity(mg)
    assert milnor_number(model) == milnor_number(mf) * milnor_number(mg)
