"""build_model: its facet forms against the route through rational
normals, and each of its sanity checks on corrupted hulls."""

import functools
from datetime import timedelta
from fractions import Fraction
from math import lcm
from operator import or_

import pytest
from hypothesis import given, settings

from newtonspec import (
    GLOBAL,
    LOCAL,
    InternalCheckError,
    Poly,
    build_model,
    parse_polynomial,
    polytope,
)
from newtonspec.cli import main
from newtonspec.hull import HullFacet, enumerate_facets, hull_vertices

from conftest import FOUR_VARIABLE_POLYS, LOCAL_GERMS
from test_polytope import PINNED_HULLS, _hull_points, _pinned_poly, _run_quietly, lattice_polys


def _fraction_route(p):
    """``(value_scale, scaled forms, facet masks, facets)`` as build_model
    made them when each hull ray (h, c) became the rational normal h / c:
    the forms sorted by their normals, L the lcm of the normals'
    denominators.  Kept as the reference for the integer route.  The
    inputs have no constant term, so the hull points outside the support
    are the origin (global) or the anchors of ``_hull_points`` (local)."""
    n = p.nvars
    pts = _hull_points(p)
    forbidden = sum(1 << i for i, v in enumerate(pts) if v not in p.terms)
    hull_facets = enumerate_facets(pts, n)
    nb_hull = [hf for hf in hull_facets if not hf.contact & forbidden]
    normals = [tuple(Fraction(h, hf.level) for h in hf.normal) for hf in nb_hull]
    boundary = functools.reduce(or_, (hf.contact for hf in nb_hull))
    hull_index = sorted(polytope._bits(boundary & hull_vertices(len(pts), hull_facets)),
                        key=pts.__getitem__)

    def to_model(contact):
        return sum(1 << k for k, i in enumerate(hull_index) if contact >> i & 1)

    facets = tuple(
        polytope.FacetForm(normal=u, vertex_indices=polytope._bits(to_model(hf.contact)))
        for u, hf in sorted(zip(normals, nb_hull), key=lambda pair: pair[0])
    )
    scale = lcm(*(x.denominator for ff in facets for x in ff.normal))
    forms = [tuple(x.numerator * (scale // x.denominator) for x in ff.normal) for ff in facets]
    masks = tuple(sum(1 << i for i in ff.vertex_indices) for ff in facets)
    return scale, forms, masks, facets


def _assert_matches_fraction_route(p):
    model = build_model(p)
    scale, forms, masks, facets = _fraction_route(p)
    assert model.value_scale == scale, str(p)
    assert model._scaled_forms == forms, str(p)
    assert model._facet_masks == masks, str(p)
    assert model.facets == facets, str(p)
    assert all(type(x) is Fraction for ff in model.facets for x in ff.normal)
    assert model.simplicial_fan == all(len(ff.vertex_indices) == p.nvars for ff in facets)


def _both_modes(p):
    return [Poly(p.names, p.terms, mode) for mode in (GLOBAL, LOCAL)]


def test_forms_match_fraction_route_on_corpus(corpus):
    for entry in corpus:
        for p in _both_modes(entry.poly):
            _assert_matches_fraction_route(p)


FORM_INPUTS = (
    [p for text in LOCAL_GERMS + FOUR_VARIABLE_POLYS for p in _both_modes(parse_polynomial(text))]
    + [_pinned_poly(mode, support) for mode, support, _ in PINNED_HULLS]
)


@pytest.mark.parametrize(
    "p", FORM_INPUTS,
    ids=[f"{p.mode}-n{p.nvars}-{len(p.terms)}terms-{i}" for i, p in enumerate(FORM_INPUTS)],
)
def test_forms_match_fraction_route(p):
    _assert_matches_fraction_route(p)


@settings(max_examples=100, deadline=timedelta(seconds=20))
@given(lattice_polys())
def test_forms_match_fraction_route_on_random_supports(p):
    _assert_matches_fraction_route(p)


def test_volume_builds_no_fraction_in_the_model(corpus, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Fraction built on the volume path")

    monkeypatch.setattr(polytope, "Fraction", refuse)
    for entry in corpus:
        for p in _both_modes(entry.poly):
            assert _run_quietly("volume", p) == 0, (str(p), p.mode)


# -- the sanity checks ---------------------------------------------------

SQUARE = "u^2 + u^2*v^2 + v^2"      # facets u <= 2 and v <= 2 off the origin
QUINTIC = "x^5 + x^2*y^2 + y^5"     # compact facets 2x + 3y >= 10 and 3x + 2y >= 10


def _corrupt_hull(monkeypatch, p, change):
    """Make build_model read ``change(boundary facets, other facets)`` in
    place of p's hull facets; the boundary facets are those that miss
    the origin (global) or the directions (local), in hull order."""
    def corrupted(points, n, directions):
        forbidden = sum(1 << i for i, v in enumerate(points) if v not in p.terms)
        forbidden |= ((1 << len(directions)) - 1) << len(points)
        facets = enumerate_facets(points, n, directions)
        return change([hf for hf in facets if not hf.contact & forbidden],
                      [hf for hf in facets if hf.contact & forbidden])

    monkeypatch.setattr(polytope, "enumerate_facets", corrupted)


def _drop_all(nb, rest):
    return rest


def _flip_first(nb, rest):
    hf = nb[0]
    return [HullFacet(tuple(-h for h in hf.normal), -hf.level, hf.contact)] + nb[1:] + rest


def _flip_first_entry(nb, rest):
    hf = nb[0]
    return [hf._replace(normal=(-hf.normal[0],) + hf.normal[1:])] + nb[1:] + rest


def _relevel(normal, level):
    def change(nb, rest):
        return [hf._replace(level=level) if hf.normal == normal else hf for hf in nb] + rest
    return change


SANITY_CASES = [
    # (text, mode, change, message)
    (SQUARE, GLOBAL, lambda nb, rest: [], "support is not full dimensional"),
    (SQUARE, GLOBAL, _drop_all, "no Newton-boundary facet found"),
    (QUINTIC, LOCAL, _drop_all, "no Newton-boundary facet found"),
    # a sign flipped: a boundary facet faces the other way, or one entry
    # of its normal does
    (SQUARE, GLOBAL, _flip_first, "origin-avoiding facet at level <= 0"),
    (QUINTIC, LOCAL, _flip_first, "compact facet with outward level >= 0"),
    (QUINTIC, LOCAL, _flip_first_entry, "compact facet without strictly positive normal"),
    # a level shifted towards the origin: the facet cuts the support
    (SQUARE, GLOBAL, _relevel((1, 0), 1), "support point (2, 0) outside the polytope"),
    (QUINTIC, LOCAL, _relevel((-2, -3), -11), "support point (2, 2) below the Newton boundary"),
    # a level shifted away from the origin: a vertex leaves level one
    (SQUARE, GLOBAL, _relevel((1, 0), 3), "vertex (2, 0) does not sit at level one"),
    (QUINTIC, LOCAL, _relevel((-2, -3), -9), "vertex (5, 0) does not sit at level one"),
]


@pytest.mark.parametrize("text,mode,change,message", SANITY_CASES,
                         ids=[f"{mode}-{message}" for _, mode, _, message in SANITY_CASES])
def test_sanity_check_refuses_a_corrupted_hull(monkeypatch, capsys, text, mode, change, message):
    p = parse_polynomial(text, mode=mode)
    build_model(p)   # the true hull passes
    _corrupt_hull(monkeypatch, p, change)
    with pytest.raises(InternalCheckError) as err:
        build_model(p)
    assert str(err.value) == message
    capsys.readouterr()
    assert main(["volume", text] + ["--local"] * (mode == LOCAL)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"internal consistency failure: {message}\n"
