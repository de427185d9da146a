"""Polytope models: facets, faces, cones, boxes, volumes, counts."""

import contextlib
import functools
import gc
import hashlib
import itertools
import json
import os
import random
import weakref
from datetime import timedelta
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonspec import (
    GLOBAL,
    LOCAL,
    Face,
    InputError,
    InternalCheckError,
    NotSimplexError,
    Poly,
    build_model,
    hodge_deligne,
    hull,
    linalg,
    parse_polynomial,
    polytope,
)
from newtonspec.cli import main

from conftest import (
    FOUR_VARIABLE_POLYS,
    LOCAL_GERMS,
    NON_SIMPLICIAL_SUPPORTS,
    random_convenient_poly,
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
        tuple(m.vertices[i] for i in f.vertex_indices)
        for f in m.faces if not f.in_coordinate_hyperplane
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


def test_vectors_of_the_wrong_length_are_refused(square_model):
    # the model is in n = 2 variables; a shorter or longer vector was
    # silently truncated by the dot products
    for v in ((1,), (1, 1, 5), (2,), ()):
        with pytest.raises(InputError, match="n = 2"):
            square_model.newton_value(v)
        with pytest.raises(InputError, match="n = 2"):
            square_model.smallest_cone(v)
        with pytest.raises(InputError, match="n = 2"):
            hodge_deligne(square_model, v)
    with pytest.raises(InputError, match="negative"):
        square_model.newton_value((1, -1))
    with pytest.raises(InputError, match="negative"):
        square_model.smallest_cone((-1, 0))


MALFORMED_VECTORS = [(1,), (1, 1, 1), (-1, 3)]


@pytest.mark.parametrize("v", MALFORMED_VECTORS)
def test_every_reader_of_the_newton_function_refuses_a_malformed_vector(v):
    # cone_key read such vectors through zip, which truncated (1,) and
    # gave (-1, 3) a cone key of its own
    m = build_model(parse_polynomial("u^2+v^2"))
    readers = [m.cone_key, m.newton_value, m.smallest_cone,
               lambda v: m.same_cone(v, (1, 0)), lambda v: m.same_cone((1, 0), v)]
    for read in readers:
        with pytest.raises(InputError):
            read(v)


def test_zero_cone_is_one_face_for_every_model(square_model, quintic_model):
    zero = Face(vertex_indices=(), dim=-1, in_coordinate_hyperplane=True, is_simplex=True)
    assert polytope.PolytopeModel.zero_cone == zero
    assert square_model.zero_cone is quintic_model.zero_cone
    assert square_model.smallest_cone((0, 0)) == zero
    # the cone of a face of dimension dim has dimension dim + 1
    assert quintic_model.zero_cone.dim + 1 == 0


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
    # independent route: nu is additive exactly when the smallest cones,
    # located from the hull facets, share a containing Newton-boundary face
    rng = random.Random(3)
    for entry in corpus[:20]:
        m = entry.model
        reference = _hull_reference(entry.poly, m)
        for _ in range(8):
            a = tuple(rng.randint(0, 4) for _ in range(m.n))
            b = tuple(rng.randint(0, 4) for _ in range(m.n))
            sa = frozenset(_reference_smallest_cone(m, reference, a).vertex_indices)
            sb = frozenset(_reference_smallest_cone(m, reference, b).vertex_indices)
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


def _hull_points(p):
    """The origin and the support globally, the point set that
    ``build_model`` hulls; locally the support and far anchors K*e_i,
    K = n! * top^n + top + 1, which ``build_model`` no longer hulls: it
    takes the orthant's rays e_i as directions, and the models of this
    anchored set are kept as the reference that its models must equal.
    Anchor K*e_i is point len(support) + i, at the bit of direction e_i."""
    n = p.nvars
    support = tuple(sorted(p.terms))
    if p.mode == GLOBAL:
        return list(dict.fromkeys(((0,) * n,) + support))
    top = max(c for v in support for c in v)
    anchor_scale = factorial(n) * top**n + top + 1
    anchors = tuple(
        tuple(anchor_scale if j == i else 0 for j in range(n)) for i in range(n)
    )
    return list(dict.fromkeys(support + anchors))


def _indices(mask):
    """The indices of the set bits of ``mask``, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _hull_vertex_indices(pts, hull_facets, n):
    """The hull vertices by their own rule, apart from
    ``hull.hull_vertices``: a point of a full-dimensional hull is a
    vertex when the normals of the facets through it have rank n."""
    return {
        i for i in range(len(pts))
        if linalg.rank([hf.normal for hf in hull_facets if hf.contact >> i & 1], n) == n
    }


def _hull_reference(p, model):
    """The hull facets of the point set that ``build_model`` reads, each
    paired with the set of hull vertices on it, and the map from hull
    vertices to model vertices."""
    n = model.n
    pts = _hull_points(p)
    hull_facets = hull.enumerate_facets(pts, n)
    hull_verts = _hull_vertex_indices(pts, hull_facets, n)
    vertex_sets = [frozenset(i for i in _indices(hf.contact) if i in hull_verts)
                   for hf in hull_facets]
    hull_to_model = {
        i: model.vertices.index(pts[i]) for i in hull_verts if pts[i] in model.vertices
    }
    return list(zip(hull_facets, vertex_sets)), hull_to_model


@pytest.mark.parametrize("mode", [GLOBAL, LOCAL])
def test_hull_vertices_match_the_rank_rule(corpus, mode):
    polys = [Poly(e.poly.names, e.poly.terms, mode) for e in corpus]
    polys += [parse_polynomial(t, mode=mode) for t in FOUR_VARIABLE_POLYS + LOCAL_GERMS]
    for p in polys:
        pts = _hull_points(p)
        facets = hull.enumerate_facets(pts, p.nvars)
        want = _hull_vertex_indices(pts, facets, p.nvars)
        assert set(_indices(hull.hull_vertices(len(pts), facets))) == want, p


def _triangulation(model):
    """Every simplex of the pulling triangulation as a ``Face``, sorted by
    dimension and then vertices."""
    return tuple(sorted((model._face(mask, mask.bit_count() - 1) for mask, _ in model._simplices),
                        key=lambda f: (f.dim, f.vertex_indices)))


def _reference_smallest_cone(model, reference, v):
    """The smallest cone by intersecting the hull facets through v scaled
    onto the Newton boundary, kept from before ``smallest_cone`` read the
    cone-key mask, as the reference.  nu(v) comes from the rational forms,
    not from the model's scaled ones."""
    hull_facets, hull_to_model = reference
    v = tuple(v)
    if not any(v):
        return model.zero_cone
    num, den = _value_pair(model, _int_forms(model), v)
    assert num > 0, f"Newton value of {v} is not positive"
    # v * den / num lies on <h, x> = level exactly when
    # <h, v> * den == level * num, as num > 0
    meets = [
        vertex_set for hf, vertex_set in hull_facets
        if sum(map(mul, hf.normal, v)) * den == hf.level * num
    ]
    assert meets, f"{v} lies on no boundary facet"
    common = frozenset.intersection(*meets)
    vidx = tuple(sorted(hull_to_model[i] for i in common))
    face = next((f for f in model.faces if f.vertex_indices == vidx), None)
    assert face is not None, f"face lookup failed for {v}"
    return face


def _assert_smallest_cone_matches_reference(p, model):
    reference = _hull_reference(p, model)
    points = set(model.vertices)
    points.update(itertools.product(range(4), repeat=model.n))
    for face in list(_triangulation(model)) + [f for f in model.faces if f.is_simplex]:
        points.update(bp.point for bp in model.box_points(face))
    for v in sorted(points):
        want = _reference_smallest_cone(model, reference, v)
        assert model.smallest_cone(v) == want, (model.to_json(), v)


def test_smallest_cone_matches_hull_facets_on_corpus(corpus):
    for entry in corpus:
        _assert_smallest_cone_matches_reference(entry.poly, entry.model)


def _cone_inputs():
    polys = [parse_polynomial(t, mode=LOCAL) for t in LOCAL_GERMS]
    polys += [parse_polynomial(t) for t in FOUR_VARIABLE_POLYS]
    rng = random.Random(17)
    for n in (1, 2, 3):
        for _ in range(12):
            for mode in (GLOBAL, LOCAL):
                p = random_convenient_poly(rng, n)
                polys.append(Poly(names=p.names, terms=p.terms, mode=mode))
    return polys


CONE_INPUTS = _cone_inputs()


@pytest.mark.parametrize(
    "p", CONE_INPUTS,
    ids=[f"{p.mode}-n{p.nvars}-{i}" for i, p in enumerate(CONE_INPUTS)],
)
def test_smallest_cone_matches_hull_facets(p):
    _assert_smallest_cone_matches_reference(p, build_model(p))


def test_smallest_cone_examples(square_model):
    m = square_model
    ray = m.smallest_cone((1, 1))
    assert [m.vertices[i] for i in ray.vertex_indices] == [(2, 2)]
    assert ray.dim + 1 == 1

    zero = m.smallest_cone((0, 0))
    assert zero.vertex_indices == ()
    assert zero.dim + 1 == 0
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
        assert bp.value == m._scaled_value(bp.point)


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


def test_box_too_large_to_hold_fails_before_the_walk():
    # the point list is sized d = 10^20 before any column is walked
    m = build_model(parse_polynomial("u^99999999999999999999"))
    [piece] = m._top_simplices
    with pytest.raises(OverflowError):
        m.box_points(m._face(1 << piece[0], 0))


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


def _census_items(model, height):
    """The census's (value, points) groups, its integer keys nu * L read
    as ``Fraction(key, L)``."""
    scale = model.value_scale
    return [(Fraction(key, scale), pts) for key, pts in model._points(height).items()]


def _assert_census_matches_box_sweep(p):
    model = build_model(p)
    heights = range(model.n + 2)
    want = {h: list(_box_census(model, h).items()) for h in heights}
    for h in heights:  # each taller query scans the region afresh
        assert _census_items(model, h) == want[h], (p, h)
    for h in reversed(heights):  # the lower ones filter the tallest scan
        assert _census_items(model, h) == want[h], (p, h)


def _reference_scan_region(model, height):
    """The point census as a region scan that stores every point, kept
    verbatim from before the census stored points only up to height n
    and counted above it, as the reference for both walks."""
    n = model.n
    forms = model._scaled_forms
    top = height * model.value_scale
    cap = height * model._max_coord
    take_max = model.mode == GLOBAL
    # rests[k][F]: the least that coordinates k+1.. can add to form F
    rests = [[0] * len(forms) for _ in range(n)]
    if take_max:
        for k in range(n - 2, -1, -1):
            rests[k] = [r + min(0, w[k + 1]) * cap for r, w in zip(rests[k + 1], forms)]
    pick = max if take_max else min
    groups: dict = {}
    stack = [((), (0,) * len(forms))]
    while stack:
        prefix, sums = stack.pop()
        k = len(prefix)
        column = [w[k] for w in forms]
        if take_max:
            lo, hi = 0, cap
            for s, a, r in zip(sums, column, rests[k]):
                room = top - s - r
                if a > 0:
                    hi = min(hi, room // a)
                elif a < 0:
                    lo = max(lo, -(room // -a))
                elif room < 0:
                    hi = -1
        else:
            lo, hi = 0, min(cap, max(
                ((top - s) // a for s, a in zip(sums, column) if s <= top),
                default=-1,
            ))
        if lo > hi:
            continue
        if k < n - 1:
            for x in range(hi, lo - 1, -1):
                stack.append((prefix + (x,), tuple(s + a * x for s, a in zip(sums, column))))
            continue
        # along the last coordinate each form is an arithmetic progression
        lines = [
            range(s + a * lo, s + a * (hi + 1), a) if a else itertools.repeat(s, hi + 1 - lo)
            for s, a in zip(sums, column)
        ]
        keys = map(pick, *lines) if len(lines) > 1 else lines[0]
        for x, key in zip(range(lo, hi + 1), keys):
            group = groups.get(key)
            if group is None:
                groups[key] = [prefix + (x,)]
            else:
                group.append(prefix + (x,))
    return {key: groups[key] for key in sorted(groups)}

def _assert_walks_match_point_census(p):
    """At every height 0..n+1: the decoded codes of a walk equal the
    reference scan, groups, key order and product order included, and so
    do the model's census codes up to n under ``decode``, which ``encode``
    inverts, code by code; the count-only walk, the
    interval lengths and the lattice counts and histograms read off the
    census, whether its histogram counts the codes or a count-only walk
    built it, equal the reference's group sizes."""
    n = p.nvars
    stored = build_model(p)
    stored_codes = stored._codes
    counted = build_model(p)
    for h in range(n + 2):
        want = list(_reference_scan_region(stored, h).items())
        counts = {key: len(pts) for key, pts in want}
        values = {Fraction(key, stored.value_scale): c for key, c in counts.items()}
        fresh = build_model(p)
        radix = fresh._radix(h)
        groups = fresh._walk(h, polytope._code_weights(n, radix))
        assert [(key, polytope._decode(codes, n, radix)) for key, codes in groups.items()] == want, (p, h)
        if h <= n:
            # the model's code map at its census radix, which is the walk's here
            decoded = [(key, stored.decode(group))
                       for key, group in stored_codes.items() if key <= h * stored.value_scale]
            assert decoded == want, (p, h)
            for (_, group), (_, points) in zip(stored_codes.items(), decoded):
                assert list(map(stored.encode, points)) == group, (p, h)
                assert [stored.decode([code])[0] for code in group] == points, (p, h)
        assert fresh._walk(h) == counts, (p, h)
        assert fresh._number(h) == sum(counts.values()), (p, h)
        for model in (counted, stored):
            assert model.lattice_count(h) == sum(counts.values()), (p, h)
            assert model.value_histogram(h) == values, (p, h)
        assert "_codes" not in fresh.__dict__ and "_codes" not in counted.__dict__, (p, h)


# global supports with a facet form that has a negative entry, such as
# u/2 - v/6 for the first
NEGATIVE_FORM_POLYS = [
    "u^2 + v^2 + u^3*v^3",
    "u + v^3 + u^2*v^4",
    "u^2 + v^2 + w^2 + u^3*v^3*w^3",
    "u^3 + v^2 + w^2 + u^4*v*w^3",
]


# local germs in four variables, so that the census takes the local span
# at two prefix coordinates before the last two
FOUR_VARIABLE_GERMS = [
    "x^3 + y^3 + z^3 + w^3 + x*y*z*w",
    "x^4 + y^3 + z^3 + w^2 + x*y*z",
    "x^2*y + x^3 + y^4 + z^3 + w^3 + y*z*w",
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
    polys += [parse_polynomial(t, mode=LOCAL) for t in FOUR_VARIABLE_GERMS]
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


def test_walks_match_point_census_on_corpus(corpus):
    for entry in corpus:
        _assert_walks_match_point_census(entry.poly)


@pytest.mark.parametrize(
    "p", CENSUS_INPUTS,
    ids=[f"{p.mode}-n{p.nvars}-{i}" for i, p in enumerate(CENSUS_INPUTS)],
)
def test_walks_match_point_census(p):
    _assert_walks_match_point_census(p)


# the census walks that each command takes at n = p.nvars: ("codes", h)
# a walk of the codes up to h, ("counts", h) a count-only walk and
# ("number", h) a sum of interval lengths
WALK_PLANS = {
    "check": lambda n: [("codes", n), ("number", n + 1)],
    "product-table": lambda n: [("codes", n)],
    "delta": lambda n: [("counts", n)],
    **{command: lambda n: [] for command in
       ("spectrum", "spec-infinity", "milnor", "volume", "orbifold", "ehrhart")},
}

WALK_PLAN_INPUTS = [
    ("u^5", GLOBAL), ("u^7 + v^2", GLOBAL), ("u^3 + v^4 + w^5 + u*v*w", GLOBAL),
    (NEGATIVE_FORM_POLYS[2], GLOBAL), (FOUR_VARIABLE_POLYS[0], GLOBAL), (LOCAL_GERMS[0], LOCAL),
    # acceptance corpus input 6: its spectrum tops out at 5/6, below n
    ("43470*v^2 + 942646*v^6 + 915339*u", GLOBAL),
]


@pytest.mark.parametrize("text,mode", WALK_PLAN_INPUTS)
@pytest.mark.parametrize("command", list(WALK_PLANS))
def test_census_walk_plan(command, text, mode, monkeypatch):
    # every reader takes the census at height n, whatever the spectrum's
    # top exponent; only the Ehrhart check counts above it
    walks = []
    walk, number = polytope.PolytopeModel._walk, polytope.PolytopeModel._number

    def counted_walk(model, height, weights=None):
        walks.append(("codes" if weights else "counts", height))
        return walk(model, height, weights)

    def counted_number(model, height):
        walks.append(("number", height))
        return number(model, height)

    monkeypatch.setattr(polytope.PolytopeModel, "_walk", counted_walk)
    monkeypatch.setattr(polytope.PolytopeModel, "_number", counted_number)
    p = parse_polynomial(text, mode=mode)
    code = _run_quietly(command, p)
    assert code == (1 if command == "orbifold" and not build_model(p).simplicial_fan else 0)
    assert walks == WALK_PLANS[command](p.nvars), (command, text)


@pytest.mark.parametrize("reader", ["lattice_count", "value_histogram", "points_by_value"])
@pytest.mark.parametrize("height", [-1, -2, 1.5, 2.0, "1", None, True, False])
def test_census_readers_refuse_a_bad_height(square_model, reader, height):
    with pytest.raises(InputError, match="nonnegative integer"):
        getattr(square_model, reader)(height)


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
    faces = [model.zero_cone] + list(_triangulation(model))
    faces += [f for f in model.faces if f.is_simplex]
    for face in faces:
        pts = model.box_points(face)
        got = [(bp.point, bp.q, bp.nu) for bp in pts]
        assert got == _reference_box_points(model, face), (model.to_json(), face)
        assert [bp.value for bp in pts] == [model._scaled_value(bp.point) for bp in pts]


def test_box_points_match_reference_on_corpus(corpus):
    for entry in corpus:
        _assert_box_points_match_reference(entry.model)


@pytest.mark.parametrize(
    "p", CENSUS_INPUTS,
    ids=[f"{p.mode}-n{p.nvars}-{i}" for i, p in enumerate(CENSUS_INPUTS)],
)
def test_box_points_match_reference(p):
    _assert_box_points_match_reference(build_model(p))


@settings(max_examples=60, deadline=timedelta(seconds=20))
@given(st.integers(0, 2**32), st.sampled_from([2, 3]))
def test_box_points_match_reference_on_random_supports(seed, n):
    _assert_box_points_match_reference(build_model(random_convenient_poly(random.Random(seed), n)))


def _box_elimination(model, face):
    """E and |d| of the box over R: E is the right block of the reduced
    row echelon form [E*V | E] of [V | I], with R the greedy set of
    independent coordinates, its pivot columns, so that E is the inverse
    of V's columns R; d is V's minor on R."""
    verts = [model.vertices[i] for i in face.vertex_indices]
    k, n = len(verts), model.n
    reduced = linalg.rref(
        list(v) + [int(i == j) for j in range(k)] for i, v in enumerate(verts)
    )
    e = [[row.get(n + j, 0) for j in range(k)] for row in reduced.values()]
    return e, abs(linalg.int_det([[v[c] for c in reduced] for v in verts]))


def _box_kinds(model, face):
    """The kinds of box ``face`` has: "divisibility" when the face has
    fewer vertices than coordinates and some of the d lattice points of
    the parallelepiped over R have a coordinate outside R that is not an
    integer, so the box holds fewer than d points, "negative" when d*E
    has a negative entry, so that some d*q_l falls as a coordinate in R
    grows."""
    e, d = _box_elimination(model, face)
    kinds = set()
    if len(face.vertex_indices) < model.n and len(model.box_points(face)) < d:
        kinds.add("divisibility")
    if any(x < 0 for row in e for x in row):
        kinds.add("negative")
    return kinds


def test_random_supports_reach_every_kind_of_box():
    # the seeded supports drawn as in the Hypothesis test above hold faces
    # of both kinds, in two and in three variables
    for n in (2, 3):
        kinds = set()
        for seed in range(20):
            model = build_model(random_convenient_poly(random.Random(seed), n))
            for face in _triangulation(model):
                kinds |= _box_kinds(model, face)
        assert kinds == {"divisibility", "negative"}, n


def test_box_holds_a_divisor_of_d_points(corpus):
    # the parallelepiped over R holds d lattice points; the box of a top
    # simplex is all of them, that of a lower face those whose other
    # coordinates are integers, a subgroup, so a divisor of d of them
    for entry in corpus:
        m = entry.model
        for face in _triangulation(m):
            d = _box_elimination(m, face)[1]
            found = len(m.box_points(face))
            assert d % found == 0
            if len(face.vertex_indices) == m.n:
                assert found == d


def _minor_gcd(rows):
    """The gcd of the k x k minors of the k x n integer matrix ``rows``."""
    k, n = len(rows), len(rows[0])
    return gcd(*(
        linalg.int_det([[row[j] for j in cols] for row in rows])
        for cols in itertools.combinations(range(n), k)
    ))


def test_diagonal_form_on_random_matrices():
    rng = random.Random(23)
    tried = 0
    while tried < 300:
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
        if linalg.rank(rows, n) < k:
            continue
        tried += 1
        u, s = polytope._diagonal_form(rows)
        assert abs(linalg.int_det(u)) == 1, rows
        assert all(x > 0 for x in s), rows
        assert prod(s) == _minor_gcd(rows), rows
        for row, order in zip(u, s):
            uv = [sum(map(mul, row, col)) for col in zip(*rows)]
            assert all(x % order == 0 for x in uv), rows


def test_box_points_on_dependent_vertices_fail_the_internal_check(square_model):
    # three vertices in the plane, flagged as a simplex by mistake
    face = Face(vertex_indices=(0, 1, 2), dim=2, in_coordinate_hyperplane=False,
                is_simplex=True)
    with pytest.raises(InternalCheckError, match="linearly dependent"):
        square_model.box_points(face)


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
        for f in m.faces:
            if f.in_coordinate_hyperplane:
                continue
            vecs = [m.vertices[i] for i in f.vertex_indices]
            assert not any(all(v[j] == 0 for v in vecs) for j in range(m.n))


def test_facets_are_in_f_of_p(corpus):
    for entry in corpus:
        m = entry.model
        nb_sets = {f.vertex_indices for f in m.facets}
        f_of_p_sets = {f.vertex_indices for f in m.faces if not f.in_coordinate_hyperplane}
        assert nb_sets <= f_of_p_sets


def test_model_json_dump(square_model):
    payload = square_model.to_json()
    assert json.dumps(payload)  # serializable
    assert payload["vertices"] == [[0, 2], [2, 0], [2, 2]]
    assert {"u_F": ["1/2", "0"], "vertices": [1, 2]} in payload["facets"]
    for face in payload["faces"]:
        assert set(face) == {"vertices", "dim", "in_F_of_P", "simplex"}


# Supports in 4, 5 and 6 variables (global) and 3 and 4 variables (local),
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
    # digests of the exhaustive scan, which tries 169911 and 177100 subsets
    # on these two
    (GLOBAL, [(0, 0, 0, 0, 2), (0, 0, 0, 2, 0), (0, 0, 2, 0, 0), (0, 1, 1, 0, 3),
              (0, 2, 2, 1, 3), (0, 2, 2, 3, 1), (0, 3, 0, 0, 0), (0, 3, 2, 0, 0),
              (0, 3, 3, 3, 0), (1, 1, 1, 0, 1), (1, 1, 1, 2, 1), (1, 2, 0, 3, 2),
              (1, 2, 2, 2, 3), (1, 2, 3, 1, 2), (1, 3, 3, 3, 2), (2, 0, 3, 1, 0),
              (2, 0, 3, 2, 0), (2, 1, 0, 2, 3), (2, 1, 2, 1, 1), (2, 2, 3, 1, 3),
              (3, 0, 0, 0, 0), (3, 0, 1, 1, 3), (3, 0, 2, 3, 3), (3, 1, 0, 0, 2),
              (3, 1, 1, 2, 0), (3, 1, 1, 2, 3), (3, 1, 2, 2, 1), (3, 2, 1, 3, 2),
              (3, 3, 1, 2, 1), (3, 3, 2, 3, 2)],
     "b010b7483d3495164acfe2e041c59147808cae1195b5d2eb288e8b5f4a465625"),
    (GLOBAL, [(0, 0, 0, 0, 0, 2), (0, 0, 0, 0, 2, 0), (0, 0, 0, 2, 0, 0), (0, 0, 3, 0, 0, 0),
              (0, 0, 3, 1, 1, 0), (0, 1, 1, 0, 3, 2), (0, 1, 2, 0, 3, 0), (0, 1, 2, 3, 2, 1),
              (0, 2, 1, 1, 2, 2), (0, 2, 2, 1, 0, 1), (0, 3, 0, 0, 0, 0), (1, 0, 0, 2, 0, 2),
              (1, 1, 3, 2, 0, 0), (1, 3, 1, 3, 0, 0), (2, 0, 0, 0, 0, 0), (2, 1, 0, 2, 1, 1),
              (2, 2, 0, 2, 0, 0), (2, 2, 2, 1, 1, 2), (2, 3, 3, 3, 0, 2), (2, 3, 3, 3, 3, 2),
              (3, 1, 2, 0, 0, 0), (3, 1, 3, 3, 2, 1), (3, 2, 0, 2, 1, 0), (3, 3, 1, 3, 3, 1)],
     "6ea6c286eed098405701da692c63932b27a144fd7263d8df42ce4e17e1362d2a"),
]


def _pinned_poly(mode, support):
    return Poly(names=tuple("xyzwtv"[:len(support[0])]),
                terms={v: Fraction(1) for v in support}, mode=mode)


@pytest.mark.parametrize("mode,support,digest", PINNED_HULLS)
def test_hull_output_is_pinned_in_higher_dimension(mode, support, digest):
    model = build_model(_pinned_poly(mode, support))
    payload = json.dumps(model.to_json(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest
    assert all(type(x) is Fraction for ff in model.facets for x in ff.normal)


@pytest.mark.parametrize("text,mode,point", [
    ("u^2 + u*v + v^2", GLOBAL, (1, 1)),
    ("x^4 + x^2*y^2 + y^4", LOCAL, (2, 2)),
])
def test_support_point_inside_a_face_is_no_vertex(text, mode, point):
    # the point lies on the segment between the two pure powers: it is in
    # that facet's contact mask but is no vertex of the hull or the model
    p = parse_polynomial(text, mode=mode)
    pts = _hull_points(p)
    bit = 1 << pts.index(point)
    facets = hull.enumerate_facets(pts, p.nvars)
    through = [hf for hf in facets if hf.contact & bit]
    assert len(through) == 1
    assert through[0].normal[0] == through[0].normal[1]
    assert not hull.hull_vertices(len(pts), facets) & bit
    model = build_model(p)
    assert point not in model.vertices
    ends = tuple(sorted(v for v in model.vertices if 0 in v))
    assert [tuple(model.vertices[i] for i in ff.vertex_indices) for ff in model.facets] == [ends]
    # model masks and indices name model vertices only
    assert all(w >> len(model.vertices) == 0 for w in model._walls)
    assert point not in [model.vertices[i] for f in model.faces for i in f.vertex_indices]
    assert model.smallest_cone(point).vertex_indices == model.facets[0].vertex_indices


def test_hull_scan_is_integer_only(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Fraction built in the hull scan")

    # the hull module has no Fraction to build; linalg's is refused
    assert not hasattr(hull, "Fraction")
    monkeypatch.setattr(linalg, "Fraction", refuse)
    for _, support, _ in PINNED_HULLS:
        points = [(0,) * len(support[0])] + support
        for hf in hull.enumerate_facets(points, len(support[0])):
            assert all(type(x) is int for x in hf.normal + (hf.level,))
            assert gcd(hf.level, *hf.normal) == 1
            assert type(hf.contact) is int


def _exhaustive_facets(points, n):
    """All facets of conv(points), with outward normals and contact masks.

    Every n-subset of the points spans a candidate hyperplane <h, x> = c
    with h an integer kernel vector; it is a facet when all points lie on
    one side.  Facets are keyed and sorted by the primitive integer vector
    (h, c) / gcd(c, *h).

    Kept verbatim from before the double description, as the reference.
    """
    facets = {}
    npts = len(points)
    for subset in itertools.combinations(range(npts), n):
        base = points[subset[0]]
        rows = [
            [points[i][j] - base[j] for j in range(n)] for i in subset[1:]
        ]
        h = linalg.nullspace_vector(rows, n)
        if h is None:
            continue
        c = sum(map(mul, h, base))
        vals = [sum(map(mul, h, p)) for p in points]
        if max(vals) > c:
            if min(vals) < c:
                continue
            g = -gcd(c, *h)   # flip h so that every point has <h, p> <= c
        elif min(vals) < c:
            g = gcd(c, *h)
        else:
            continue  # all points on one hyperplane; not full-dimensional
        key = tuple(x // g for x in h) + (c // g,)
        if key in facets:
            continue
        contact = sum(1 << i for i, v in enumerate(vals) if v == c)
        facets[key] = hull.HullFacet(key[:-1], key[-1], contact)
    return [facets[k] for k in sorted(facets)]


def _facet_list(facets):
    return [(f.normal, f.level, f.contact) for f in facets]


# (n, exponent bound, mixed monomials), the shapes of the hull-n4n5 inputs
HULL_SHAPES = [(4, 4, 6), (5, 3, 4), (4, 4, 8), (5, 3, 6), (4, 4, 10), (5, 3, 8), (4, 4, 12)]


def _shaped_support(rng, n, emax, extra):
    """Pure powers on every axis plus ``extra`` mixed monomials."""
    support = {tuple(rng.randint(2, emax) if j == i else 0 for j in range(n)) for i in range(n)}
    while len(support) < n + extra:
        v = tuple(rng.randint(0, emax) for _ in range(n))
        if sum(1 for x in v if x) >= 2:
            support.add(v)
    return sorted(support)


def _anchored_model(p):
    """``build_model(p)`` from the hull of ``_hull_points(p)``, the anchors
    in place of the orthant's rays."""
    points = _hull_points(p)

    def anchored(pts, n, directions):
        # the support leads both sets, and anchor i takes direction i's bit
        assert list(pts) == points[:len(pts)] and len(pts) + len(directions) == len(points)
        return hull.enumerate_facets(points, n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polytope, "enumerate_facets", anchored)
        return build_model(p)


def _assert_matches_anchored_model(p):
    assert p.mode == LOCAL
    model, want = build_model(p), _anchored_model(p)
    assert model.vertices == want.vertices, str(p)
    assert model.value_scale == want.value_scale, str(p)
    assert model._scaled_forms == want._scaled_forms, str(p)
    assert model._facet_masks == want._facet_masks, str(p)
    assert model._face_dims == want._face_dims, str(p)
    assert model._top_simplices == want._top_simplices, str(p)


def test_local_models_match_the_anchored_hull_on_corpus(corpus):
    for entry in corpus:
        _assert_matches_anchored_model(Poly(entry.poly.names, entry.poly.terms, LOCAL))


def _local_model_inputs():
    # x^3: in one variable the seed simplex takes a direction row;
    # x^2+y^2 and the four squares: fewer than n + 1 affinely
    # independent support points
    texts = LOCAL_GERMS + ["x^3", "x^2+y^2", "x^2+y^2+z^2+w^2"]
    polys = [parse_polynomial(t, mode=LOCAL) for t in texts]
    rng = random.Random(58)
    for n, emax, extra in [(2, 9, 2), (2, 9, 4), (3, 6, 2), (3, 6, 5), (4, 4, 3), (4, 4, 6)]:
        for _ in range(4):
            terms = {v: Fraction(1) for v in _shaped_support(rng, n, emax, extra)}
            polys.append(Poly(names=tuple("xyzw"[:n]), terms=terms, mode=LOCAL))
    return polys


LOCAL_MODEL_INPUTS = _local_model_inputs()


@pytest.mark.parametrize(
    "p", LOCAL_MODEL_INPUTS,
    ids=[f"n{p.nvars}-{len(p.terms)}terms-{i}" for i, p in enumerate(LOCAL_MODEL_INPUTS)],
)
def test_local_models_match_the_anchored_hull(p):
    _assert_matches_anchored_model(p)


def test_hull_with_the_orthant_returns_the_facets_of_the_polyhedron():
    # x^5 + x^2*y^2 + y^5: rows 0-2 the sorted support, rows 3 and 4 the
    # directions e_1 and e_2; the face at infinity (0, 0 | 1) is left out
    points = [(0, 5), (2, 2), (5, 0)]
    facets = hull.enumerate_facets(points, 2, [(1, 0), (0, 1)])
    assert _facet_list(facets) == [
        ((-3, -2), -10, 0b00011),
        ((-2, -3), -10, 0b00110),
        ((-1, 0), 0, 0b10001),
        ((0, -1), 0, 0b01100),
    ]
    assert all(any(hf.normal) for hf in facets)
    # in one variable the seed simplex is the point and the direction
    assert _facet_list(hull.enumerate_facets([(3,)], 1, [(1,)])) == [((-1,), -3, 0b01)]


# point sets with many points on each facet: a full cube, points on the
# coordinate hyperplanes, and simplices and squares with interior points
DEGENERATE_POINT_SETS = [
    list(itertools.product(range(3), repeat=3)),
    [v for v in itertools.product(range(4), repeat=3) if 0 in v],
    list(itertools.product(range(2), repeat=4)),
    list(itertools.product(range(5), repeat=2)),
    [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1), (2, 1, 1), (1, 2, 0),
     (2, 2, 0), (0, 2, 2), (1, 1, 2)],
    [(0, 0, 0, 0), (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3), (1, 1, 1, 0),
     (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1), (1, 0, 0, 0), (0, 2, 1, 0)],
]


def _reference_hull_inputs():
    polys = [parse_polynomial(t, mode=LOCAL) for t in LOCAL_GERMS]
    polys += [parse_polynomial(t) for t in FOUR_VARIABLE_POLYS]
    # the exhaustive scan of the last two pinned hulls takes seconds
    polys += [_pinned_poly(mode, support) for mode, support, _ in PINNED_HULLS[:-2]]
    rng = random.Random(4)
    for _ in range(2):
        for n, emax, extra in HULL_SHAPES:
            terms = {v: Fraction(1) for v in _shaped_support(rng, n, emax, extra)}
            polys.append(Poly(names=tuple("xyzwt"[:n]), terms=terms, mode=GLOBAL))
    inputs = [(_hull_points(p), p.nvars) for p in polys]
    return inputs + [(pts, len(pts[0])) for pts in DEGENERATE_POINT_SETS]


REFERENCE_HULL_INPUTS = _reference_hull_inputs()


def test_hull_matches_exhaustive_scan_on_corpus(corpus):
    for entry in corpus:
        pts = _hull_points(entry.poly)
        want = _facet_list(_exhaustive_facets(pts, entry.model.n))
        assert _facet_list(hull.enumerate_facets(pts, entry.model.n)) == want, pts


@pytest.mark.parametrize(
    "points,n", REFERENCE_HULL_INPUTS,
    ids=[f"n{n}-{len(pts)}pts-{i}" for i, (pts, n) in enumerate(REFERENCE_HULL_INPUTS)],
)
def test_hull_matches_exhaustive_scan(points, n):
    want = _facet_list(_exhaustive_facets(points, n))
    assert want
    assert _facet_list(hull.enumerate_facets(points, n)) == want


@st.composite
def hull_point_sets(draw):
    """Up to 16 - n distinct points in n <= 5 variables with coordinates
    <= 3, and a permutation of them.  Half of the sets also hold the
    origin and a point on every axis, so that most are full dimensional."""
    n = draw(st.integers(1, 5))
    coords = st.tuples(*[st.integers(0, 3)] * n)
    points = draw(st.lists(coords, min_size=1, max_size=16 - n, unique=True))
    if draw(st.booleans()):
        axes = [tuple(draw(st.integers(1, 3)) if j == i else 0 for j in range(n)) for i in range(n)]
        points = list(dict.fromkeys([(0,) * n] + axes + points))
    return points, n, draw(st.permutations(range(len(points))))


@settings(max_examples=150, deadline=timedelta(seconds=20))
@given(hull_point_sets())
def test_hull_matches_exhaustive_scan_in_any_point_order(drawn):
    points, n, perm = drawn
    got = _facet_list(hull.enumerate_facets(points, n))
    assert got == _facet_list(_exhaustive_facets(points, n))
    # point k of the shuffled list is point perm[k] of the original
    shuffled = hull.enumerate_facets([points[i] for i in perm], n)
    assert [
        (f.normal, f.level, sum(1 << perm[k] for k in _indices(f.contact))) for f in shuffled
    ] == got


def test_hull_makes_at_most_n_plus_one_kernel_solves(monkeypatch):
    # the simplex that seeds the double description takes n + 1 kernel
    # solves; a scan over n-subsets would take one per subset
    solve = linalg.nullspace_vector
    calls = []

    def counted(rows, ncols):
        calls.append(ncols)
        return solve(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace_vector", counted)
    inputs = REFERENCE_HULL_INPUTS + [
        (_hull_points(_pinned_poly(mode, support)), len(support[0]))
        for mode, support, _ in PINNED_HULLS[-2:]
    ]
    for points, n in inputs:
        calls.clear()
        assert hull.enumerate_facets(points, n)
        assert 0 < len(calls) <= n + 1, (points, calls)


def _greedy_simplex(points, n):
    """Point 0, then each point whose difference from point 0 raises the
    rank of the differences taken, until n + 1 points are taken; None if
    they run out first.  The seed of the hull before it took homogeneous
    rows, kept as the reference."""
    simplex = [0]
    rows: list = []
    for i in range(1, len(points)):
        row = [a - b for a, b in zip(points[i], points[0])]
        if linalg.rank(rows + [row], n) > len(rows):
            rows.append(row)
            simplex.append(i)
            if len(simplex) == n + 1:
                return simplex
    return None


def test_hull_seeds_the_simplex_of_the_greedy_rank_test(monkeypatch):
    # the n + 1 kernel solves of the seed read the homogeneous rows
    # (p, -1) of its points, so their points are the simplex
    solve = linalg.nullspace_vector
    calls = []

    def recorded(rows, ncols):
        calls.append(rows)
        return solve(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace_vector", recorded)
    inputs = REFERENCE_HULL_INPUTS + [
        (_hull_points(_pinned_poly(mode, support)), len(support[0]))
        for mode, support, _ in PINNED_HULLS[-2:]
    ]
    for points, n in inputs:
        calls.clear()
        hull.enumerate_facets(points, n)
        want = {tuple(points[i]) + (-1,) for i in _greedy_simplex(points, n)}
        assert len(calls) == n + 1, points
        assert {tuple(row) for rows in calls for row in rows} == want, points


def test_build_model_ranks_only_to_seed_the_hull(monkeypatch):
    # the hull's simplex seed takes each point's homogeneous row into one
    # elimination, at most npts rows in all, and its kernel solves make
    # no rank call; the face lattice reads each dimension from its level,
    # where a rank per face would take thousands on these inputs
    add_row, solve, rank = linalg.add_row, linalg.nullspace_vector, linalg.rank
    seeded, ranks, solving = [], [], []

    def counted_add_row(pivot_of, row):
        if not solving:
            seeded.append(row)
        return add_row(pivot_of, row)

    def counted_solve(rows, ncols):
        solving.append(ncols)
        try:
            return solve(rows, ncols)
        finally:
            solving.pop()

    monkeypatch.setattr(linalg, "add_row", counted_add_row)
    monkeypatch.setattr(linalg, "nullspace_vector", counted_solve)
    def counted_rank(rows, ncols):
        ranks.append(ncols)
        return rank(rows, ncols)

    monkeypatch.setattr(linalg, "rank", counted_rank)
    for mode, support, _ in PINNED_HULLS:
        p = _pinned_poly(mode, support)
        seeded.clear()
        build_model(p)
        assert p.nvars + 1 <= len(seeded) <= len(_hull_points(p)), (support, len(seeded))
        assert ranks == [], support


def _affine_dim(vectors):
    if len(vectors) <= 1:
        return 0
    base = vectors[0]
    rows = [[v[j] - base[j] for j in range(len(base))] for v in vectors[1:]]
    return linalg.rank(rows, len(base))


def _make_face(vertices, vidx, dim):
    """The face of the model vertices ``vertices`` with indices ``vidx`` and
    dimension ``dim``, read off the coordinates.  Kept from before the
    model tested coordinate hyperplanes on vertex bitmasks, as the
    reference."""
    in_hyp = any(all(vertices[i][j] == 0 for i in vidx) for j in range(len(vertices[0])))
    return Face(vertex_indices=vidx, dim=dim, in_coordinate_hyperplane=in_hyp,
                is_simplex=len(vidx) == dim + 1)


def _closure_faces(p, model):
    """The faces of the Newton boundary: every hull facet's vertex set
    closed under pairwise intersection, kept when it lies in a
    Newton-boundary facet, each with its dimension from a rank.

    Kept verbatim from before the lattice was built level by level, as
    the reference.  The Newton-boundary facets are the hull facets whose
    vertices are all model vertices, so the model's own facet list is
    not read.
    """
    hull_facets, hull_to_model = _hull_reference(p, model)
    vertices = model.vertices
    nb_vsets_model = [
        frozenset(hull_to_model[i] for i in vertex_set)
        for _, vertex_set in hull_facets if vertex_set <= hull_to_model.keys()
    ]
    all_vsets = [vertex_set for _, vertex_set in hull_facets if vertex_set]
    closure = set(all_vsets)
    frontier = list(closure)
    while frontier:
        fresh = []
        for w in frontier:
            for v in all_vsets:
                x = w & v
                if x and x not in closure:
                    closure.add(x)
                    fresh.append(x)
        frontier = fresh
    nb_faces_sets = set()
    for w in closure:
        wm = frozenset(hull_to_model[i] for i in w if i in hull_to_model)
        if len(wm) == len(w) and any(wm <= s for s in nb_vsets_model):
            nb_faces_sets.add(wm)

    faces = []
    for wset in sorted(nb_faces_sets, key=lambda s: (len(s), tuple(sorted(s)))):
        vidx = tuple(sorted(wset))
        faces.append(_make_face(vertices, vidx, _affine_dim([vertices[i] for i in vidx])))
    faces.sort(key=lambda f: (f.dim, f.vertex_indices))
    return faces


def _assert_lattice_matches_closure(p, model):
    assert list(model.faces) == _closure_faces(p, model), model.to_json()
    # the Newton boundary projects radially onto a simplex, so its
    # Euler characteristic is 1
    assert sum((-1) ** f.dim for f in model.faces) == 1


def _lattice_inputs():
    polys = [parse_polynomial(t, mode=LOCAL) for t in LOCAL_GERMS]
    polys += [parse_polynomial(t) for t in FOUR_VARIABLE_POLYS]
    polys += [_pinned_poly(mode, support) for mode, support, _ in PINNED_HULLS]
    polys += [
        _pinned_poly(mode, support)
        for support in NON_SIMPLICIAL_SUPPORTS for mode in (GLOBAL, LOCAL)
    ]
    return polys


LATTICE_INPUTS = _lattice_inputs()


def test_face_lattice_matches_closure_on_corpus(corpus):
    for entry in corpus:
        _assert_lattice_matches_closure(entry.poly, entry.model)


@pytest.mark.parametrize(
    "p", LATTICE_INPUTS,
    ids=[f"{p.mode}-n{p.nvars}-{len(p.terms)}terms-{i}" for i, p in enumerate(LATTICE_INPUTS)],
)
def test_face_lattice_matches_closure(p):
    _assert_lattice_matches_closure(p, build_model(p))


@st.composite
def lattice_polys(draw):
    """Convenient supports in 2 <= n <= 5 variables, global or local:
    pure powers of degree <= 3 and up to 8 - n more points with
    coordinates <= 2.  Half of the draws add each point's reversal, which
    puts four or more vertices on some faces."""
    n = draw(st.integers(2, 5))
    mode = draw(st.sampled_from([GLOBAL, LOCAL]))
    support = {tuple(draw(st.integers(1, 3)) if j == i else 0 for j in range(n)) for i in range(n)}
    extra = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), max_size=8 - n))
    support.update(v for v in extra if any(v))
    if draw(st.booleans()):
        support |= {v[::-1] for v in support}
    return Poly(names=tuple("xyzwt"[:n]), terms={v: Fraction(1) for v in sorted(support)},
                mode=mode)


@settings(max_examples=150, deadline=timedelta(seconds=20))
@given(lattice_polys())
def test_face_lattice_matches_closure_on_random_supports(p):
    _assert_lattice_matches_closure(p, build_model(p))


def _reference_top_simplices(model):
    """The top simplices of the pulling triangulation, read off the face
    lattice: a face that is not a simplex is coned from its first vertex
    over the pieces of the faces one dimension down inside it that miss
    that vertex, found by a scan of ``model.faces``.

    Kept from before the triangulation read the ridges of the
    non-simplex faces alone, as the reference.
    """
    faces = model.faces
    memo = {}

    def pull(face):
        vidx = face.vertex_indices
        if vidx not in memo:
            if face.is_simplex:
                memo[vidx] = [vidx]
            else:
                vset = frozenset(vidx)
                memo[vidx] = [
                    (vidx[0],) + piece
                    for child in faces
                    if child.dim == face.dim - 1
                    and vidx[0] not in child.vertex_indices
                    and vset.issuperset(child.vertex_indices)
                    for piece in pull(child)
                ]
        return memo[vidx]

    index = {f.vertex_indices: f for f in faces}
    return sorted({piece for ff in model.facets for piece in pull(index[ff.vertex_indices])})


def _non_simplicial_draws():
    """Seeded supports in 4, 5 and 6 variables, global and local, whose
    Newton boundary has a facet with more than n vertices: pure powers
    of degree 2 (global) or 4 (local) on every axis, mixed points with
    coordinates <= 2 and the reversal of each point.  Two per shape."""
    rng = random.Random(22)
    polys = []
    for n, extra in ((4, 6), (5, 5), (6, 4)):
        for mode, top in ((GLOBAL, 2), (LOCAL, 4)):
            found = 0
            while found < 2:
                support = {tuple(top if j == i else 0 for j in range(n)) for i in range(n)}
                while len(support) < n + extra:
                    v = tuple(rng.randint(0, 2) for _ in range(n))
                    if sum(1 for x in v if x) >= 2:
                        support.add(v)
                support |= {v[::-1] for v in support}
                p = _pinned_poly(mode, sorted(support))
                if any(len(ff.vertex_indices) > n for ff in build_model(p).facets):
                    polys.append(p)
                    found += 1
    return polys


def _triangulation_inputs():
    polys = [parse_polynomial(t, mode=LOCAL) for t in LOCAL_GERMS]
    polys += [parse_polynomial(t) for t in FOUR_VARIABLE_POLYS]
    polys += [_pinned_poly(mode, support) for mode, support, _ in PINNED_HULLS]
    return polys + _non_simplicial_draws()


TRIANGULATION_INPUTS = _triangulation_inputs()


def _assert_triangulation_matches_reference(p):
    # a fresh model: the triangulation runs before anything reads the
    # face lattice, then the reference reads it
    model = build_model(p)
    got = model._top_simplices
    triangulation = _triangulation(model)
    want = _reference_top_simplices(model)
    assert got == want, model.to_json()
    simplices = {
        sub for piece in want for k in range(1, len(piece) + 1)
        for sub in itertools.combinations(piece, k)
    }
    assert triangulation == tuple(
        _make_face(model.vertices, s, len(s) - 1)
        for s in sorted(simplices, key=lambda s: (len(s), s))
    )
    assert model.simplicial_fan == all(f.is_simplex for f in model.faces)


def test_triangulation_matches_lattice_scan_on_corpus(corpus):
    for entry in corpus:
        _assert_triangulation_matches_reference(entry.poly)


@pytest.mark.parametrize(
    "p", TRIANGULATION_INPUTS,
    ids=[f"{p.mode}-n{p.nvars}-{len(p.terms)}terms-{i}"
         for i, p in enumerate(TRIANGULATION_INPUTS)],
)
def test_triangulation_matches_lattice_scan(p):
    _assert_triangulation_matches_reference(p)


def test_triangulation_and_volume_pull_once(monkeypatch):
    pull = polytope.PolytopeModel._pull
    calls = []

    def counted(self, face, dim, memo):
        calls.append(face)
        return pull(self, face, dim, memo)

    monkeypatch.setattr(polytope.PolytopeModel, "_pull", counted)
    steps = {"triangulation": _triangulation,
             "normalized_volume": polytope.PolytopeModel.normalized_volume}
    for support in NON_SIMPLICIAL_SUPPORTS:
        for first, second in (("triangulation", "normalized_volume"),
                              ("normalized_volume", "triangulation")):
            model = build_model(_pinned_poly(GLOBAL, support))
            calls.clear()
            steps[first](model)
            once = len(calls)
            steps[second](model)
            assert len(calls) == once > len(model.facets), (support, first)


def test_seeded_draws_have_non_simplicial_facets():
    draws = _non_simplicial_draws()
    assert {(p.nvars, p.mode) for p in draws} == {
        (n, mode) for n in (4, 5, 6) for mode in (GLOBAL, LOCAL)
    }
    assert not any(build_model(p).simplicial_fan for p in draws)


@pytest.mark.parametrize(
    "p", TRIANGULATION_INPUTS,
    ids=[f"{p.mode}-n{p.nvars}-{len(p.terms)}terms-{i}"
         for i, p in enumerate(TRIANGULATION_INPUTS)],
)
def test_box_points_fill_the_box_group(p):
    # distinct points of the box, as many as the group has elements (the
    # gcd of the k x k minors), are the whole box
    model = build_model(p)
    for face in _triangulation(model):
        verts = [model.vertices[i] for i in face.vertex_indices]
        points = model.box_points(face)
        assert len({bp.point for bp in points}) == len(points) == _minor_gcd(verts)
        for bp in points:
            assert bp.d == len(points)
            assert all(0 <= x < bp.d for x in bp.dq)
            assert all(x >= 0 for x in bp.point)
            assert [sum(map(mul, bp.dq, col)) for col in zip(*verts)] == [
                bp.d * x for x in bp.point
            ], (face, bp)


# the commands that read the volume, the triangulation, the box points,
# the census or the restrictions, and never the face lattice
LATTICE_FREE_COMMANDS = ["volume", "spectrum", "spec-infinity", "milnor", "delta", "ehrhart",
                         "product-table"]


def _run_quietly(command, p):
    argv = [command, str(p), "--vars", ",".join(p.names)] + (["--local"] * (p.mode == LOCAL))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return main(argv)


def test_lattice_free_commands_build_no_lattice(corpus, monkeypatch):
    def refuse(self):
        raise AssertionError("face lattice built")

    monkeypatch.setattr(polytope.PolytopeModel, "_face_dims", property(refuse))
    # every command on the corpus and the pinned hulls but the last two
    polys = [entry.poly for entry in corpus]
    polys += [_pinned_poly(mode, support) for mode, support, _ in PINNED_HULLS[:-2]]
    for p in polys:
        for command in LATTICE_FREE_COMMANDS:
            assert _run_quietly(command, p) == 0, (command, str(p))
    # on the 5- and 6-variable supports, all but delta (25.6 s on the
    # 5-variable one) and product-table (over 60 s).  In process on a
    # 2-core host, Python 3.11.7, spectrum takes 0.30 s and 0.78 s there,
    # spec-infinity 0.33 s and 0.94 s, milnor 0.43 s and 0.90 s, and
    # ehrhart 0.17 s and 0.79 s
    for mode, support, _ in PINNED_HULLS[-2:]:
        p = _pinned_poly(mode, support)
        for command in ("volume", "spectrum", "spec-infinity", "milnor", "ehrhart"):
            assert _run_quietly(command, p) == 0, (command, str(p))
        model = build_model(p)
        assert model._simplices
        assert not model.simplicial_fan


def test_check_builds_no_face(corpus, monkeypatch):
    # check reads the face lattice as vertex bitmasks only: its
    # Hodge-Deligne and orbifold checks read the star counts of the
    # lattice, and no Face is built
    def refuse(self, mask, dim):
        raise AssertionError("Face built")

    monkeypatch.setattr(polytope.PolytopeModel, "_face", refuse)
    for entry in corpus:
        assert _run_quietly("check", entry.poly) == 0, str(entry.poly)


def test_check_and_orbifold_build_the_lattice_once(corpus, monkeypatch):
    build = polytope.PolytopeModel._face_dims.func
    built = []

    def counted(self):
        built.append(self)
        return build(self)

    counted_dims = functools.cached_property(counted)
    counted_dims.__set_name__(polytope.PolytopeModel, "_face_dims")
    monkeypatch.setattr(polytope.PolytopeModel, "_face_dims", counted_dims)
    # check on the pinned hulls with a non-simplicial fan takes seconds
    # and reads no lattice, as the corpus's non-simplicial inputs show
    polys = [entry.poly for entry in corpus]
    polys += [
        p for p in (_pinned_poly(mode, support) for mode, support, _ in PINNED_HULLS[:-2])
        if build_model(p).simplicial_fan
    ]
    for p in polys:
        simplicial = build_model(p).simplicial_fan
        for command in ("check", "orbifold"):
            built.clear()
            code = _run_quietly(command, p)
            # the orbifold, Hodge-Deligne and shift checks read the lattice
            # of p's own model, and no restriction's
            assert len(built) == simplicial, (command, str(p))
            assert code == (0 if simplicial or command == "check" else 1), (command, str(p))
