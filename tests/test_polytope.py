"""Polytope models: facets, faces, cones, boxes, volumes, counts."""

import json
import random
from fractions import Fraction

import pytest

from newtonspec import (
    LOCAL,
    NotSimplexError,
    build_model,
    parse_polynomial,
)


def frac(s):
    return Fraction(s)


def test_square_model_geometry(square_model):
    m = square_model
    assert m.vertices == ((0, 2), (2, 0), (2, 2))
    assert sorted(f.normal for f in m.facets) == [
        (frac(0), frac("1/2")),
        (frac("1/2"), frac(0)),
    ]
    # each facet holds the corner vertex and one axis vertex
    for f in m.facets:
        assert (2, 2) in [m.vertices[i] for i in f.vertex_indices]
    # F(P): both edges and the corner vertex
    f_sets = sorted(
        tuple(m.vertices[i] for i in m.faces[k].vertex_indices) for k in m.f_of_p
    )
    assert f_sets == [((0, 2), (2, 2)), ((2, 0), (2, 2)), ((2, 2),)]
    assert m.simplicial_fan


def test_square_face_lattice(square_model):
    m = square_model
    dims = sorted((f.dim, tuple(m.vertices[i] for i in f.vertex_indices)) for f in m.faces)
    assert dims == [
        (0, ((0, 2),)),
        (0, ((2, 0),)),
        (0, ((2, 2),)),
        (1, ((0, 2), (2, 2))),
        (1, ((2, 0), (2, 2))),
    ]
    axis_vertices = [f for f in m.faces if f.dim == 0 and f.in_coordinate_hyperplane]
    assert len(axis_vertices) == 2


def test_linear_polynomial_single_facet():
    m = build_model(parse_polynomial("u + v"))
    assert len(m.facets) == 1
    assert m.facets[0].normal == (1, 1)


def test_quintic_local_facets(quintic_model):
    m = quintic_model
    assert sorted(f.normal for f in m.facets) == [
        (frac("1/5"), frac("3/10")),
        (frac("3/10"), frac("1/5")),
    ]
    assert m.vertices == ((0, 5), (2, 2), (5, 0))
    assert m.mode == LOCAL


def test_newton_value(square_model, quintic_model):
    assert square_model.newton_value((1, 1)) == frac("1/2")
    assert square_model.newton_value((0, 0)) == 0
    assert quintic_model.newton_value((2, 1)) == frac("7/10")


def test_newton_value_on_support_points(corpus):
    for entry in corpus:
        m = entry.model
        for a in entry.poly.support():
            assert m.newton_value(a) <= 1
        for v in m.vertices:
            assert m.newton_value(v) == 1


def test_same_cone_examples(square_model):
    m = square_model
    assert not m.same_cone((2, 0), (0, 2))
    assert m.same_cone((0, 0), (5, 7))
    assert m.same_cone((1, 0), (1, 1))


def test_same_cone_matches_face_containment(corpus):
    # independent route: nu is additive exactly when the smallest cones
    # share a containing Newton-boundary face
    rng = random.Random(3)
    for entry in corpus[:20]:
        m = entry.model
        for _ in range(8):
            a = tuple(rng.randint(0, 4) for _ in range(m.n))
            b = tuple(rng.randint(0, 4) for _ in range(m.n))
            sa = frozenset(m.smallest_cone(a).vertex_indices)
            sb = frozenset(m.smallest_cone(b).vertex_indices)
            joint = any(
                sa <= frozenset(f.vertex_indices) and sb <= frozenset(f.vertex_indices)
                for f in m.faces
            )
            assert m.same_cone(a, b) == joint


def test_subadditivity(corpus):
    rng = random.Random(5)
    for entry in corpus[:20]:
        m = entry.model
        for _ in range(8):
            a = tuple(rng.randint(0, 5) for _ in range(m.n))
            b = tuple(rng.randint(0, 5) for _ in range(m.n))
            lhs = m.newton_value(tuple(x + y for x, y in zip(a, b)))
            rhs = m.newton_value(a) + m.newton_value(b)
            if m.mode == "global":
                assert lhs <= rhs
            else:
                assert lhs >= rhs


def test_smallest_cone_examples(square_model):
    m = square_model
    ray = m.smallest_cone((1, 1))
    assert [m.vertices[i] for i in ray.vertex_indices] == [(2, 2)]
    assert ray.cone_dim == 1

    zero = m.smallest_cone((0, 0))
    assert zero.vertex_indices == ()
    assert zero.cone_dim == 0
    assert zero.in_coordinate_hyperplane

    edge = m.smallest_cone((2, 1))
    assert [m.vertices[i] for i in edge.vertex_indices] == [(2, 0), (2, 2)]


def test_smallest_cone_on_local_axis(quintic_model):
    m = quintic_model
    face = m.smallest_cone((3, 0))
    assert [m.vertices[i] for i in face.vertex_indices] == [(5, 0)]


def test_box_points_square_edge(square_model):
    m = square_model
    edge = next(
        f for f in m.faces
        if tuple(m.vertices[i] for i in f.vertex_indices) == ((2, 0), (2, 2))
    )
    pts = m.box_points(edge)
    assert [(bp.point, bp.nu) for bp in pts] == [
        ((0, 0), frac(0)),
        ((1, 0), frac("1/2")),
        ((1, 1), frac("1/2")),
        ((2, 1), frac(1)),
    ]
    for bp in pts:
        assert all(0 <= q < 1 for q in bp.q)
        assert sum(bp.q) == bp.nu == m.newton_value(bp.point)


def test_box_points_vertex_face(square_model):
    m = square_model
    vertex = next(
        f for f in m.faces
        if tuple(m.vertices[i] for i in f.vertex_indices) == ((2, 2),)
    )
    assert [(bp.point, bp.nu) for bp in m.box_points(vertex)] == [
        ((0, 0), frac(0)),
        ((1, 1), frac("1/2")),
    ]


def test_box_points_quintic_edge(quintic_model):
    m = quintic_model
    edge = next(
        f for f in m.faces
        if tuple(m.vertices[i] for i in f.vertex_indices) == ((2, 2), (5, 0))
    )
    pts = m.box_points(edge)
    assert len(pts) == 10
    values = sorted(bp.nu for bp in pts)
    assert values == sorted(
        frac(s) for s in
        ["0", "1/5", "2/5", "3/5", "4/5", "1/2", "7/10", "9/10", "11/10", "13/10"]
    )


def test_box_points_need_simplex():
    p = parse_polynomial("u + 2*v + 3*u*w + 5*v*w + 7*w^2")
    m = build_model(p)
    square_face = next(f for f in m.faces if not f.is_simplex)
    with pytest.raises(NotSimplexError):
        m.box_points(square_face)


def test_box_count_equals_volume(corpus):
    # each simplex facet's half-open parallelepiped holds |det| points
    for entry in corpus:
        m = entry.model
        if not m.simplicial_fan:
            continue
        total = 0
        for ff in m.facets:
            face = next(
                f for f in m.faces if f.vertex_indices == ff.vertex_indices
            )
            total += len(m.box_points(face))
        assert total == entry.mu


def test_normalized_volume(square_model, quintic_model):
    assert square_model.normalized_volume() == 8
    assert quintic_model.normalized_volume() == 20
    for n in (1, 2, 3, 4):
        p = parse_polynomial(" + ".join(f"u{i}" for i in range(1, n + 1)))
        assert build_model(p).normalized_volume() == 1


def test_lattice_count(square_model):
    assert square_model.lattice_count(0) == 1
    assert square_model.lattice_count(1) == 9
    assert square_model.lattice_count(2) == 25


def test_census_answers_do_not_depend_on_query_order(corpus):
    for entry in corpus:
        n = entry.model.n
        tall_first = build_model(entry.poly)
        tall_first.value_histogram(n + 1)
        ascending = build_model(entry.poly)
        for h in range(1, n + 2):
            got = [
                (list(m.points_by_value(h).items()), m.lattice_count(h),
                 list(m.value_histogram(h).items()))
                for m in (ascending, tall_first)
            ]
            assert got[0] == got[1], (entry.poly, h)


def test_f_of_p_faces_avoid_hyperplanes(corpus):
    for entry in corpus:
        m = entry.model
        for k in m.f_of_p:
            f = m.faces[k]
            vecs = [m.vertices[i] for i in f.vertex_indices]
            assert not any(all(v[j] == 0 for v in vecs) for j in range(m.n))


def test_facets_are_in_f_of_p(corpus):
    for entry in corpus:
        m = entry.model
        nb_sets = {f.vertex_indices for f in m.facets}
        f_of_p_sets = {m.faces[k].vertex_indices for k in m.f_of_p}
        assert nb_sets <= f_of_p_sets


def test_model_json_dump(square_model):
    payload = square_model.to_json()
    assert json.dumps(payload)  # serializable
    assert payload["vertices"] == [[0, 2], [2, 0], [2, 2]]
    assert {"u_F": ["1/2", "0"], "vertices": [1, 2]} in payload["facets"]
    for face in payload["faces"]:
        assert set(face) == {"vertices", "dim", "in_F_of_P", "simplex"}
