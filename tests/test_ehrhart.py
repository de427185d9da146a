"""Delta-vectors, Ehrhart polynomials, Hodge-Deligne polynomials and
orbifold cohomology dimensions."""

from fractions import Fraction

import pytest

from newtonspec import (
    ExponentRangeError,
    NotSimplicialError,
    PolytopeModel,
    SpectrumSeries,
    box_point_union,
    build_model,
    delta_from_counts,
    delta_from_spectrum,
    ehrhart_polynomial,
    hodge_deligne,
    orbifold_contributions,
    orbifold_dimensions,
    parse_polynomial,
    toric_spectrum_box,
)

from conftest import FOUR_VARIABLE_POLYS, QUINTIC_SPECTRUM, SQUARE_SPECTRUM, series


def test_delta_from_spectrum_square():
    assert delta_from_spectrum(series(*SQUARE_SPECTRUM), 2).entries == (1, 6, 1)


def test_delta_from_spectrum_weighted_simplex():
    for c in (2, 3, 5):
        s = SpectrumSeries({Fraction(i, c): 1 for i in range(c)})
        assert delta_from_spectrum(s, 3).entries == (1, c - 1, 0, 0)


def test_delta_from_spectrum_quintic():
    assert delta_from_spectrum(series(*QUINTIC_SPECTRUM), 2).entries == (1, 14, 5)


def test_delta_exponent_out_of_range():
    with pytest.raises(ExponentRangeError):
        delta_from_spectrum(series(("5/2", 1)), 2)


def test_delta_from_counts(square_model, quintic_model):
    assert delta_from_counts(square_model).entries == (1, 6, 1)
    assert delta_from_counts(quintic_model).entries == (1, 14, 5)
    simplex = build_model(parse_polynomial("u1 + u2 + u3 + u4"))
    assert delta_from_counts(simplex).entries == (1, 0, 0, 0, 0)


def test_delta_from_counts_scans_the_region_once(monkeypatch):
    # one count-only walk at height n, and no point stored
    walks = []
    walk = PolytopeModel._walk

    def counted(model, height, weights=None):
        walks.append((height, weights is not None))
        return walk(model, height, weights)

    monkeypatch.setattr(PolytopeModel, "_walk", counted)
    m = build_model(parse_polynomial("u^3 + v^4 + w^5 + u*v*w"))
    assert delta_from_counts(m) == delta_from_spectrum(toric_spectrum_box(m), 3)
    assert walks == [(3, False)]


def test_ehrhart_polynomial_text_and_values(quintic_model):
    delta = delta_from_counts(quintic_model)
    ehr = ehrhart_polynomial(delta)
    assert str(ehr) == "C(z+2,2) + 14 C(z+1,2) + 5 C(z,2)"
    for ell in range(4):
        assert ehr.evaluate(ell) == quintic_model.lattice_count(ell)


def test_ehrhart_weighted_simplex():
    for c in (2, 3, 5):
        m = build_model(parse_polynomial(f"u1 + u2 + u3^{c}"))
        ehr = ehrhart_polynomial(delta_from_counts(m))
        want = "C(z+3,3)" if c == 1 else f"C(z+3,3) + {c - 1} C(z+2,3)"
        if c == 2:
            want = "C(z+3,3) + C(z+2,3)"
        assert str(ehr) == want
        for ell in range(5):
            assert ehr.evaluate(ell) == m.lattice_count(ell)


def test_ehrhart_square_evaluation(square_model):
    ehr = ehrhart_polynomial(delta_from_counts(square_model))
    assert ehr.evaluate(2) == 25 == square_model.lattice_count(2)


def test_hodge_deligne_square(square_model):
    assert hodge_deligne(square_model, (0, 0), relative=True) == series(
        ("0", 1), ("1", 1)
    )
    assert hodge_deligne(square_model, (0, 0)) == series(("1", 1), ("2", 1))
    # sigma(v) full-dimensional: only the cone itself contributes
    assert hodge_deligne(square_model, (2, 1)) == SpectrumSeries.one()
    assert hodge_deligne(square_model, (2, 1), relative=True) == SpectrumSeries.one()


def test_hodge_deligne_duality(corpus):
    for entry in corpus:
        m = entry.model
        if not m.simplicial_fan:
            continue
        origin = (0,) * m.n
        e0 = hodge_deligne(m, origin)
        assert e0.reflect(m.n) == hodge_deligne(m, origin, relative=True)


def test_relative_hd_nonnegative_and_counts_top_cones(corpus):
    for entry in corpus[:15]:
        m = entry.model
        if not m.simplicial_fan:
            continue
        for v, _ in box_point_union(m):
            sigma = m.smallest_cone(v)
            e = hodge_deligne(m, v, relative=True)
            assert e.is_nonnegative()
            sset = frozenset(sigma.vertex_indices)
            top = sum(
                1
                for f in m.faces
                if not f.in_coordinate_hyperplane
                and f.dim == m.n - 1
                and sset <= frozenset(f.vertex_indices)
            )
            assert e.eval_at_one() == top


def test_box_point_union_threed(threed_model):
    points = [v for v, _ in box_point_union(threed_model)]
    assert sorted(points) == [(0, 0, 0), (0, 1, 1), (1, 1, 1), (1, 2, 2)]


def test_orbifold_contributions_threed(threed_model):
    contribs = dict(orbifold_contributions(threed_model))
    assert contribs[(0, 0, 0)] == series(("0", 1), ("1", 2), ("2", 1))
    assert contribs[(1, 1, 1)] == series(("1/2", 1), ("3/2", 2), ("5/2", 1))
    assert contribs[(1, 2, 2)] == series(("1", 1), ("2", 1))
    assert contribs[(0, 1, 1)] == series(("1/2", 1), ("3/2", 1))


def test_orbifold_dimensions_examples(square_model, quintic_model):
    assert orbifold_dimensions(square_model) == series(*SQUARE_SPECTRUM)
    assert orbifold_dimensions(quintic_model) == series(*QUINTIC_SPECTRUM)
    simplex = build_model(parse_polynomial("u1 + u2 + u3"))
    assert orbifold_dimensions(simplex) == SpectrumSeries.one()


def test_orbifold_needs_simplicial():
    m = build_model(parse_polynomial("u + 2*v + 3*u*w + 5*v*w + 7*w^2"))
    with pytest.raises(NotSimplicialError):
        orbifold_dimensions(m)


def test_orbifold_matches_spectrum_on_corpus(corpus):
    for entry in corpus:
        if entry.orbifold is not None:
            assert entry.orbifold == entry.oracle


def test_orbifold_matches_box_route(threed_model):
    assert orbifold_dimensions(threed_model) == toric_spectrum_box(threed_model)


def test_delta_cross_validation_on_corpus(corpus):
    for entry in corpus:
        assert entry.delta_spec == entry.delta_counts
        assert entry.delta_spec[0] == 1
        assert sum(entry.delta_spec) == entry.mu


def _reference_orbifold_contributions(model):
    """The per-point orbifold route, kept from before the walk over open
    boxes as the reference: the deduplicated union of the half-open boxes
    of the faces outside the coordinate hyperplanes, sorted by value and
    point, each point's relative Hodge-Deligne polynomial read from its
    smallest cone and shifted by its Newton value."""
    seen = {}
    for face in model.faces:
        if face.in_coordinate_hyperplane:
            continue
        for bp in model.box_points(face):
            seen.setdefault(bp.point, bp.value)
    union = sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
    return union, [
        (point, hodge_deligne(model, point, relative=True).shift(value, model.value_scale))
        for point, value in union
    ]


def _simplicial_models(corpus):
    models = [entry.model for entry in corpus]
    models += [build_model(parse_polynomial(t)) for t in FOUR_VARIABLE_POLYS]
    return [m for m in models if m.simplicial_fan]


def test_orbifold_by_cone_matches_per_point_reference(corpus):
    for m in _simplicial_models(corpus):
        union, contribs = _reference_orbifold_contributions(m)
        assert box_point_union(m) == union, m.to_json()
        assert orbifold_contributions(m) == contribs, m.to_json()
        total = SpectrumSeries.zero()
        for _, s in contribs:
            total = total + s
        assert orbifold_dimensions(m) == total, m.to_json()


def test_orbifold_reads_no_smallest_cone(corpus, monkeypatch):
    # each point's cone is the face spanned by its vertices with q > 0
    def located(self, v):
        raise AssertionError("smallest_cone called on the orbifold path")

    models = [build_model(entry.poly) for entry in corpus if entry.model.simplicial_fan]
    models += [build_model(parse_polynomial(t)) for t in FOUR_VARIABLE_POLYS[:2]]
    monkeypatch.setattr(PolytopeModel, "smallest_cone", located)
    for m in models:
        orbifold_dimensions(m)
        orbifold_contributions(m)
        box_point_union(m)
