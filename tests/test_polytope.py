"""Polytope models: facets, faces, cones, boxes, volumes, counts."""

import gc
import hashlib
import itertools
import json
import random
import weakref
from fractions import Fraction
from math import gcd, lcm

import pytest

from newtonspec import (
    GLOBAL,
    LOCAL,
    NotSimplexError,
    Poly,
    build_model,
    linalg,
    parse_polynomial,
    polytope,
)

from conftest import FOUR_VARIABLE_POLYS, LOCAL_GERMS, random_convenient_poly


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


def _int_forms(model):
    """Each rational form ``FacetForm.normal`` as (integer numerators, its
    own denominator), so that the references below do not read the
    model's scaled forms."""
    forms = []
    for ff in model.facets:
        den = lcm(*(x.denominator for x in ff.normal))
        forms.append((tuple(int(x * den) for x in ff.normal), den))
    return forms


def _value_pair(model, forms, v):
    """The Newton value of v as an unreduced integer pair (num, den)."""
    take_max = model.mode == GLOBAL
    best_n = best_d = None
    for w, d in forms:
        s = sum(wi * vi for wi, vi in zip(w, v))
        if best_n is None or (s * best_d > best_n * d if take_max else s * best_d < best_n * d):
            best_n, best_d = s, d
    return best_n, best_d


def _three_value_same_cone(model, a, b):
    """The cone rule by three Newton evaluations: nu(a) + nu(b) == nu(a + b)."""
    a, b = tuple(a), tuple(b)
    if not any(a) or not any(b):
        return True
    forms = _int_forms(model)
    n1, d1 = _value_pair(model, forms, a)
    n2, d2 = _value_pair(model, forms, b)
    n3, d3 = _value_pair(model, forms, tuple(x + y for x, y in zip(a, b)))
    return (n1 * d2 + n2 * d1) * d3 == n3 * d1 * d2


def test_cone_masks_agree_with_three_value_rule(corpus):
    models = [entry.model for entry in corpus]
    models += [build_model(parse_polynomial(t, mode=LOCAL)) for t in LOCAL_GERMS]
    models += [build_model(parse_polynomial(t)) for t in FOUR_VARIABLE_POLYS]
    rng = random.Random(7)
    outcomes = set()
    for m in models:
        top = max(c for v in m.vertices for c in v)
        points = [(0,) * m.n] + [
            tuple(rng.randint(0, top) for _ in range(m.n)) for _ in range(12)
        ]
        keys = {}
        for v in points:
            key, mask = m.cone_key(v)
            nu = m.newton_value(v)
            assert Fraction(key, m.value_scale) == nu, (m.to_json(), v)
            if any(v):
                attaining = sum(
                    1 << i for i, f in enumerate(m.facets)
                    if sum(u * x for u, x in zip(f.normal, v)) == nu
                )
                assert mask == attaining, (m.to_json(), v)
            else:
                assert (key, mask) == (0, -1)
            keys[v] = key
        for a in points:
            for b in points:
                want = _three_value_same_cone(m, a, b)
                assert m.same_cone(a, b) == want, (m.to_json(), a, b)
                if want:
                    total = tuple(x + y for x, y in zip(a, b))
                    assert m.cone_key(total)[0] == keys[a] + keys[b]
                outcomes.add(want)
    assert outcomes == {True, False}


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


def _box_census(model, height):
    """The census as a full sweep of the box [0, height * max_coord]^n,
    kept verbatim from before the region scan, as the reference."""
    groups: dict = {}
    box = height * model._max_coord
    forms = _int_forms(model)
    for v in itertools.product(range(box + 1), repeat=model.n):
        num, den = _value_pair(model, forms, v)
        if num <= height * den:
            groups.setdefault(Fraction(num, den), []).append(v)
    return dict(sorted(groups.items()))


def _assert_census_matches_box_sweep(p):
    model = build_model(p)
    heights = range(model.n + 2)
    want = {h: list(_box_census(model, h).items()) for h in heights}
    for h in heights:  # each taller query scans the region afresh
        assert list(model._census(h).items()) == want[h], (p, h)
    for h in reversed(heights):  # the lower ones filter the tallest scan
        assert list(model._census(h).items()) == want[h], (p, h)


# global supports with a facet form that has a negative entry, such as
# u/2 - v/6 for the first
NEGATIVE_FORM_POLYS = [
    "u^2 + v^2 + u^3*v^3",
    "u + v^3 + u^2*v^4",
    "u^2 + v^2 + w^2 + u^3*v^3*w^3",
    "u^3 + v^2 + w^2 + u^4*v*w^3",
]


def _census_inputs():
    polys = [parse_polynomial(t, mode=LOCAL) for t in LOCAL_GERMS]
    polys += [parse_polynomial(t) for t in FOUR_VARIABLE_POLYS + NEGATIVE_FORM_POLYS]
    rng = random.Random(11)
    for n in (1, 2, 3):
        for _ in range(6):
            for mode in (GLOBAL, LOCAL):
                p = random_convenient_poly(rng, n)
                polys.append(Poly(names=p.names, terms=p.terms, mode=mode))
    return polys


CENSUS_INPUTS = _census_inputs()


def test_census_matches_box_sweep_on_corpus(corpus):
    for entry in corpus:
        _assert_census_matches_box_sweep(entry.poly)


@pytest.mark.parametrize(
    "p", CENSUS_INPUTS,
    ids=[f"{p.mode}-n{p.nvars}-{i}" for i, p in enumerate(CENSUS_INPUTS)],
)
def test_census_matches_box_sweep(p):
    _assert_census_matches_box_sweep(p)


def _reference_box_points(model, face):
    """Box points by a sweep of the integer bounding box that solves for q
    at every candidate, kept verbatim from before the single elimination
    of ``box_points``, as the reference."""
    verts = [model.vertices[i] for i in face.vertex_indices]
    k = len(verts)
    n = model.n
    # pick k independent coordinate rows of the n x k vertex matrix
    cols = verts  # each vertex is a column
    rows_all = [[cols[j][i] for j in range(k)] for i in range(n)]
    chosen = []
    probe = []
    for i, row in enumerate(rows_all):
        if linalg.rank(probe + [row], k) > len(chosen):
            chosen.append(i)
            probe.append(row)
        if len(chosen) == k:
            break
    assert len(chosen) == k, "face vertices are linearly dependent"
    sub = [rows_all[i] for i in chosen]
    det = linalg.int_det(sub)
    inv_cols = []
    for j in range(k):
        e = [Fraction(1) if i == j else Fraction(0) for i in range(k)]
        inv_cols.append(linalg.solve_unique(sub, e))
    # adjugate action: adj[r] . v_R = det * q_r, all integers
    adj = [[int(inv_cols[j][r] * det) for j in range(k)] for r in range(k)]
    sums = [sum(c[i] for c in cols) for i in range(n)]
    out = []
    for cand in itertools.product(*(range(max(s, 1)) for s in sums)):
        v_r = [cand[i] for i in chosen]
        nq = [sum(adj[r][j] * v_r[j] for j in range(k)) for r in range(k)]
        if det > 0:
            if any(x < 0 or x >= det for x in nq):
                continue
        else:
            if any(x > 0 or x <= det for x in nq):
                continue
        ok = True
        for i in range(n):
            if sum(rows_all[i][j] * nq[j] for j in range(k)) != det * cand[i]:
                ok = False
                break
        if not ok:
            continue
        q = tuple(Fraction(x, det) for x in nq)
        out.append((cand, q, sum(q, Fraction(0))))
    out.sort()
    return out


def _assert_box_points_match_reference(model):
    faces = [model.zero_cone] + list(model.triangulation())
    faces += [f for f in model.faces if f.is_simplex]
    for face in faces:
        got = [(bp.point, bp.q, bp.nu) for bp in model.box_points(face)]
        assert got == _reference_box_points(model, face), (model.to_json(), face)


def test_box_points_match_reference_on_corpus(corpus):
    for entry in corpus:
        _assert_box_points_match_reference(entry.model)


@pytest.mark.parametrize(
    "p", CENSUS_INPUTS,
    ids=[f"{p.mode}-n{p.nvars}-{i}" for i, p in enumerate(CENSUS_INPUTS)],
)
def test_box_points_match_reference(p):
    _assert_box_points_match_reference(build_model(p))


@pytest.mark.parametrize("text", NEGATIVE_FORM_POLYS)
def test_negative_form_supports_have_negative_entries(text):
    model = build_model(parse_polynomial(text))
    assert model.mode == GLOBAL
    assert any(x < 0 for ff in model.facets for x in ff.normal)


def test_census_leaves_no_reference_cycle():
    # with the cyclic collector off, only reference counting can free the
    # model: a cycle through it would keep every census list alive
    enabled = gc.isenabled()
    gc.disable()
    try:
        for text, mode in (("u^2 + v^2 + u^3*v^3", GLOBAL), (LOCAL_GERMS[0], LOCAL)):
            model = build_model(parse_polynomial(text, mode=mode))
            model.lattice_count(model.n + 1)
            model.normalized_volume()
            ref = weakref.ref(model)
            del model
            assert ref() is None, text
    finally:
        if enabled:
            gc.enable()


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


# Supports in 4 and 5 variables (global) and 3 and 4 variables (local),
# with the sha256 of build_model(p).to_json() dumped with sorted keys:
# facet order, normals and faces are pinned, not only the volume.
PINNED_HULLS = [
    (GLOBAL, [(0, 0, 0, 4), (0, 0, 2, 0), (0, 1, 1, 4), (0, 2, 0, 0), (1, 4, 3, 0),
              (3, 0, 0, 0), (3, 0, 0, 1), (3, 1, 1, 4), (3, 3, 2, 2), (4, 1, 1, 2)],
     "6640da4dd1799575bcca4ae69bf3fc6c98668a14dd44194baa2cdb0a20348974"),
    (GLOBAL, [(0, 0, 0, 3), (0, 0, 2, 0), (0, 3, 0, 0), (0, 3, 3, 3), (2, 0, 0, 0),
              (2, 0, 2, 1), (2, 2, 1, 2), (2, 2, 3, 3), (2, 3, 2, 0), (3, 1, 3, 1),
              (3, 2, 1, 1), (3, 2, 3, 0)],
     "b82f698538dd61a1d8f6addab0da5b8e773f05b0efbc48b58b12bf0e3a2bfd0d"),
    (GLOBAL, [(0, 0, 0, 3), (0, 0, 3, 0), (0, 2, 0, 4), (0, 4, 0, 0), (0, 4, 3, 4),
              (1, 0, 3, 0), (2, 0, 0, 0), (2, 1, 4, 3), (4, 3, 1, 1)],
     "1a74da8f9bd5ce25847374796c5a927558536b4e65777957096c53ebb7b54776"),
    (GLOBAL, [(0, 0, 0, 0, 2), (0, 0, 0, 3, 0), (0, 0, 1, 0, 3), (0, 0, 3, 0, 0),
              (0, 3, 0, 0, 0), (0, 3, 0, 3, 1), (2, 0, 0, 0, 0), (3, 2, 1, 1, 3),
              (3, 2, 2, 0, 1)],
     "e0a734d2a6f45c1a8585fc6d81ca9f0d98b99062d44524d4f409e8f7fe3807e5"),
    (GLOBAL, [(0, 0, 0, 0, 2), (0, 0, 0, 2, 0), (0, 0, 2, 0, 0), (0, 1, 0, 0, 1),
              (0, 2, 0, 0, 0), (0, 2, 1, 0, 2), (0, 2, 2, 2, 0), (1, 2, 0, 1, 1),
              (2, 0, 0, 0, 0), (2, 1, 0, 0, 2)],
     "4145f43ffb532cf1cd9eef36ed00c3e77f9c2dd8de0a0c08ee192a8823be48d7"),
    (LOCAL, [(0, 0, 5), (0, 2, 3), (0, 7, 0), (1, 1, 1), (1, 3, 1), (2, 2, 0), (4, 0, 0)],
     "a3763b1eb57134b81b23a0d1319f122f6df3a32df2ac130e2f7cde545ec51cab"),
    (LOCAL, [(0, 0, 5), (0, 1, 2), (0, 2, 1), (0, 7, 0), (1, 0, 1), (1, 0, 2), (2, 2, 2),
             (7, 0, 0)],
     "e94d85762a793d3316a9b45b7843b32f4e1902d2fd2d3ae9c9b02c9f79eedfc3"),
    (LOCAL, [(0, 0, 0, 4), (0, 0, 5, 0), (0, 4, 0, 0), (2, 0, 1, 1), (2, 0, 1, 2),
             (2, 2, 0, 0), (2, 2, 0, 1), (4, 0, 0, 0)],
     "e98f6966647c2b99562dedda48be286d5575cc58838ecb871791d82d6a5d02b0"),
    (LOCAL, [(0, 0, 0, 6), (0, 0, 4, 0), (0, 4, 0, 0), (2, 0, 0, 2), (2, 0, 2, 1),
             (2, 1, 2, 2), (4, 0, 0, 0)],
     "b4fb5f5b68e48abba15dde3ca150a7c7e446a601cc5f43acb5cd5d7a48d88f91"),
]


@pytest.mark.parametrize("mode,support,digest", PINNED_HULLS)
def test_hull_output_is_pinned_in_higher_dimension(mode, support, digest):
    n = len(support[0])
    p = Poly(names=tuple("xyzwt"[:n]), terms={v: Fraction(1) for v in support}, mode=mode)
    model = build_model(p)
    payload = json.dumps(model.to_json(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest
    assert all(type(x) is Fraction for ff in model.facets for x in ff.normal)


def test_hull_scan_is_integer_only(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Fraction built in the hull scan")

    monkeypatch.setattr(polytope, "Fraction", refuse)
    monkeypatch.setattr(linalg, "Fraction", refuse)
    for _, support, _ in PINNED_HULLS:
        points = [(0,) * len(support[0])] + support
        for hf in polytope._enumerate_facets(points, len(support[0])):
            assert all(type(x) is int for x in hf.normal + (hf.level,))
            assert gcd(hf.level, *hf.normal) == 1
