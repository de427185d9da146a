"""The one walk of the open boxes per model against the per-face routes.

The box formula, the spectrum at infinity, the orbifold sum and the
Hodge-Deligne polynomials read the value histograms of
``PolytopeModel.open_boxes`` and the star counts of the triangulation
and of the face lattice; the orbifold terms and the box-point union read
the points of the top simplices' boxes.  The references below are the
per-face routes they replaced, kept verbatim: ``_box_sum`` read the
half-open box of every simplex of the triangulation,
``_hodge_deligne_of_cone`` scanned every face for every cone, and
``_open_boxes`` walked the half-open box of every face of the face
lattice and of the zero cone, keeping the points with every d*q
positive, for ``orbifold_dimensions``, ``orbifold_contributions`` and
``box_point_union``, and ``_reference_face_stars`` took the star
counts of the face lattice from its ``Face`` objects.
"""

import sys
from datetime import timedelta

import pytest
from hypothesis import given, settings

from newtonspec import (
    GLOBAL,
    LOCAL,
    NotSimplicialError,
    SpectrumSeries,
    box_point_union,
    build_model,
    hodge_deligne,
    orbifold_contributions,
    orbifold_dimensions,
    parse_polynomial,
    polytope,
    spectrum_at_infinity,
    toric_spectrum,
)
from newtonspec.cli import main
from newtonspec.polytope import PolytopeModel, _submasks
from newtonspec.series import z_minus_one_pow

from conftest import FOUR_VARIABLE_POLYS, LOCAL_GERMS
from test_polytope import PINNED_HULLS, _pinned_poly, _triangulation
from test_spectrum import convenient_polys


def _open_boxes(model):
    """Each cone of the fan with the points of its open box, zero cone
    first, the cones with an empty open box left out.

    A box point v = sum q_l * b_l of a face lies in the open box of the
    face sigma spanned by the vertices with q_l > 0, and sigma is the
    smallest cone of v.  Every face of the Newton boundary lies in a
    facet, which is outside the coordinate hyperplanes, so the union of
    the half-open boxes of the faces outside them is the disjoint union
    of the open boxes of all faces, the zero cone's being the origin.
    The open box of sigma is the part of its half-open box where every
    d*q entry is positive.  The faces must be simplices.  Only the
    printed points are walked here; the sums read
    :attr:`PolytopeModel.open_boxes`.
    """
    out = []
    for sigma in (model.zero_cone, *model.faces):
        points = [bp for bp in model.box_points(sigma) if all(bp.dq)]
        if points:
            out.append((sigma, points))
    return out


def _reference_face_stars(model):
    """The star of each face sigma of the Newton boundary, and of the
    zero cone (mask 0), in the face lattice: ``{sigma: (every,
    outside)}``, where ``every[k]`` counts the faces f that contain
    sigma with n - 1 - dim f = k, and ``outside[k]`` those of them
    outside the coordinate hyperplanes.

    One pass over the lattice, from the bottom up: the faces of a
    simplex are its nonempty submasks, and those of any other face are
    itself and the faces of its ridges, kept for the faces above."""
    n = model.n
    stars: dict = {}
    below: dict = {}   # a face that is no simplex: its faces, 0 included
    for face in model.faces:
        mask = sum(1 << i for i in face.vertex_indices)
        if face.is_simplex:
            subs = _submasks(mask)
        else:
            subs = below[mask] = {mask}
            for ridge in model._ridges(mask):
                subs.update(below.get(ridge) or _submasks(ridge))
        k = n - 1 - face.dim
        outside = not face.in_coordinate_hyperplane
        for sigma in subs:
            counts = stars.get(sigma)
            if counts is None:
                counts = stars[sigma] = ([0] * (n + 1), [0] * (n + 1))
            counts[0][k] += 1
            if outside:
                counts[1][k] += 1
    return stars


def _reference_box_sum(model, restrictions):
    """Sums (-1)^|Z| (z-1)^(n-|Z|-1-dim S) * sum_{v in Box(S)} z^{nu(v)}
    over the simplices S of the triangulation, Z the coordinates on which
    S vanishes: over those with Z empty, or with ``restrictions`` over all
    of them and (-1)^n.  The exponents are integers over L, the model's
    ``value_scale``.  The weight depends on |Z| and dim S alone, so each
    pair's is built once.
    """
    n = model.n
    scale = model.value_scale
    terms = [(0, (-1) ** n)] if restrictions else []
    weights = {}
    for simplex in _triangulation(model):
        zeros = len(model._zero_coordinates(sum(1 << i for i in simplex.vertex_indices)))
        if zeros and not restrictions:
            continue
        weight = weights.get((zeros, simplex.dim))
        if weight is None:
            weight = weights[zeros, simplex.dim] = [
                (e, (-1) ** zeros * c)
                for e, c in z_minus_one_pow(n - zeros - 1 - simplex.dim).numerators(scale)
            ]
        terms.extend(
            (bp.value + e, c) for bp in model.box_points(simplex) for e, c in weight
        )
    return SpectrumSeries(terms, scale)


def _reference_hodge_deligne_of_cone(model, sigma, relative):
    """The sum of (z - 1)^(n - 1 - dim f) over the faces f that contain
    sigma: the faces are counted by that power first, so each power of
    (z - 1) is built once per call."""
    n = model.n
    counts = [0] * (n + 1)
    if not relative and sigma.dim == -1:
        # the zero cone belongs to the full fan only
        counts[n] = 1
    vs = sigma.vertex_indices
    for f in model.faces:
        if relative and f.in_coordinate_hyperplane:
            continue
        if all(map(f.vertex_indices.__contains__, vs)):
            counts[n - 1 - f.dim] += 1
    return SpectrumSeries(
        ((e, count * c) for k, count in enumerate(counts) if count
         for e, c in z_minus_one_pow(k).numerators()),
        1,
    )


def _reference_orbifold_dimensions(model):
    """The sum over the cones sigma of E*_sigma(z) times the sum of
    z^{nu(v)} over the open box of sigma, the open boxes walked face by
    face (``_open_boxes``) and each E*_sigma from the scan of every face."""
    if not model.simplicial_fan:
        raise NotSimplicialError("orbifold dimensions need a simplicial fan")
    cones = [
        (_reference_hodge_deligne_of_cone(model, sigma, relative=True), points)
        for sigma, points in _open_boxes(model)
    ]
    scale = model.value_scale
    terms = []
    for e_rel, points in cones:
        weight = list(e_rel.numerators(scale))
        terms.extend((bp.value + e, c) for bp in points for e, c in weight)
    return SpectrumSeries(terms, scale)


def _reference_orbifold_contributions(model):
    """The box-point union and the per-point orbifold terms, read off the
    points of every face's open box (``_open_boxes``), each point's term
    its cone's E*_sigma from the scan of every face shifted by its value;
    both sorted by value and then point."""
    scale = model.value_scale
    points = sorted(
        ((bp.value, bp.point, _reference_hodge_deligne_of_cone(model, sigma, relative=True))
         for sigma, points in _open_boxes(model) for bp in points),
        key=lambda t: t[:2],
    )
    return ([(point, value) for value, point, _ in points],
            [(point, e_rel.shift(value, scale)) for value, point, e_rel in points])


def _assert_matches_references(p, cones=None):
    """The box sums of a fresh model in both modes, and, on a simplicial
    fan, the orbifold sum, the orbifold terms and the box-point union,
    against the per-face references; the star counts of the face lattice
    against those taken from its ``Face`` objects, and its bitmasks
    against ``faces``; and the Hodge-Deligne polynomials of the zero cone
    and of ``cones`` faces of the lattice (every face when None), full
    and relative."""
    model = build_model(p)
    assert model.face_stars == _reference_face_stars(model), p
    assert model._face_dims == {
        sum(1 << i for i in f.vertex_indices): f.dim for f in model.faces}, p
    assert toric_spectrum(model) == _reference_box_sum(model, False), p
    assert spectrum_at_infinity(model) == _reference_box_sum(model, True), p
    if model.simplicial_fan:
        assert orbifold_dimensions(model) == _reference_orbifold_dimensions(model), p
        union, contributions = _reference_orbifold_contributions(model)
        assert box_point_union(model) == union, p
        assert orbifold_contributions(model) == contributions, p
    else:
        for route in (orbifold_dimensions, orbifold_contributions, box_point_union):
            with pytest.raises(NotSimplicialError):
                route(model)
    faces = model.faces if cones is None else model.faces[::max(1, len(model.faces) // cones)]
    for sigma in (model.zero_cone, *faces):
        # a point of the cone's relative interior: the sum of its vertices
        v = tuple(map(sum, zip((0,) * model.n, *(model.vertices[i]
                                                for i in sigma.vertex_indices))))
        assert model.smallest_cone(v) == sigma
        for relative in (False, True):
            assert hodge_deligne(model, v, relative) == _reference_hodge_deligne_of_cone(
                model, sigma, relative), (p, sigma, relative)


def test_open_boxes_match_the_per_face_routes_on_corpus(corpus):
    for entry in corpus:
        _assert_matches_references(entry.poly)


@pytest.mark.parametrize("text,mode", [(t, GLOBAL) for t in FOUR_VARIABLE_POLYS]
                         + [(t, LOCAL) for t in LOCAL_GERMS]
                         + [("3*u+5*v+7*u*w+11*v*w+13*w^2", GLOBAL),
                            ("3*u+5*v+7*u*w+11*v*w+13*w^2", LOCAL)])
def test_open_boxes_match_the_per_face_routes(text, mode):
    _assert_matches_references(parse_polynomial(text, mode=mode))


@pytest.mark.parametrize("index", [-2, -1], ids=["n5", "n6"])
def test_open_boxes_match_the_per_face_routes_on_pinned_hulls(index):
    # neither fan is simplicial; the scan of every face for every cone
    # (3989 faces on the 6-variable hull) is read for about 40 faces
    mode, support, _ = PINNED_HULLS[index]
    _assert_matches_references(_pinned_poly(mode, support), cones=40)


@settings(max_examples=60, deadline=timedelta(seconds=20))
@given(convenient_polys(min_n=2))
def test_open_boxes_match_the_per_face_routes_on_random_supports(p):
    _assert_matches_references(p)


def test_open_boxes_partition_the_top_boxes(corpus):
    # each open box is in the box of every top simplex that holds its
    # simplex, so the histograms of the open boxes inside one top simplex
    # add up to the order of its box group
    for entry in corpus:
        model = build_model(entry.poly)
        boxes = model.open_boxes
        assert boxes[0] == {0: 1}
        for piece in model._top_simplices:
            top = sum(1 << i for i in piece)
            inside = sum(sum(values.values()) for g, values in boxes.items() if g & top == g)
            assert inside == len(model.box_points(model._face(top, len(piece) - 1)))


@pytest.mark.parametrize("command", ["check", "spectrum", "spec-infinity", "milnor"])
@pytest.mark.parametrize("argv", [
    ["u^3 + v^4 + w^5 + u*v*w"],
    ["u + v + w + u^2*v^2*w^2 + v^2*w^2"],
    ["u^4 + v^4 + w^4 + x^4"],
    ["3*u+5*v+7*u*w+11*v*w+13*w^2"],
    ["--local", "x^4 + y^5 + z^6 + x*y*z^2 + x^2*y^2"],
])
def test_box_sums_walk_each_top_simplex_once(command, argv, monkeypatch, capsys):
    # one diagonal form per top simplex of the one model, and no box point
    forms, models = [], []
    diagonal_form, build = polytope._diagonal_form, polytope.build_model

    def counted_form(rows):
        forms.append(rows)
        return diagonal_form(rows)

    def counted_build(p):
        models.append(build(p))
        return models[-1]

    def refuse(self, face):
        raise AssertionError("box_points called on a box sum")

    monkeypatch.setattr(polytope, "_diagonal_form", counted_form)
    monkeypatch.setattr(PolytopeModel, "box_points", refuse)
    for name, module in list(sys.modules.items()):
        if name.startswith("newtonspec") and getattr(module, "build_model", None) is build:
            monkeypatch.setattr(module, "build_model", counted_build)
    assert main([command, *argv]) == 0
    capsys.readouterr()
    [model] = models
    assert len(forms) == len(model._top_simplices)
    assert sorted(map(tuple, forms)) == sorted(
        tuple(model.vertices[i] for i in piece) for piece in model._top_simplices)
