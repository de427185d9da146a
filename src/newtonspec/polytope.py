"""Newton polytope / Newton polyhedron models with exact arithmetic.

Global mode builds the convex hull of the origin and the support; local
mode builds the Newton polyhedron of a power series, i.e. the region
under the compact faces of the positive-orthant hull of the support.
Both expose the same interface: level-one facet forms, the Newton
function (max of the forms globally, min locally), the face lattice of
the Newton boundary and its pulling triangulation, half-open box points
of simplices, normalized volumes and lattice-point counts.

The Newton function is evaluated in the integers only: the facet forms
are scaled by L, the lcm of their denominators, and nu(v) * L is the max
(global) or min (local) of their integer dot products with v.  A
monomial's cone key (:meth:`PolytopeModel.cone_key`) is that integer
together with the bitmask of the scaled forms that attain it.  Two
exponents share a fan cone, so that nu is additive on them, exactly when
their masks meet; the graded ring's cone rule needs no third evaluation.

The half-open box of a simplex comes from one fraction-free (Bareiss)
Gauss-Jordan elimination of its vertex matrix beside the identity; the
candidates range over the independent coordinates it finds, and each
test is an integer one.

The lattice census (the points with nu(v) <= T, grouped by value) walks
only that region, not a bounding box: with one integer partial sum per
scaled form, each coordinate in turn ranges over the interval that the
forms leave it.  It reads the facet forms alone, never the triangulation
or the box points, so the oracle built on it checks the box route
independently.

The hull is found by exhaustive enumeration: every hyperplane through n
affinely independent input points is tested against all points.  That is
quadratic-ish and perfectly exact, which is the right trade at the
intended scale (n <= 6, a few dozen support points).  The scan stays in
the integers: each hyperplane's normal is a fraction-free integer kernel
vector, its level and side tests are integer dot products, and a facet
is keyed by its primitive integer (normal, level).  Only the level-one
facet forms of the model are rational.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .errors import (
    InputError,
    InternalCheckError,
    NotSimplexError,
)
from .poly import GLOBAL, LOCAL, Poly, check_convenient

Vec = Tuple[int, ...]


@dataclass(frozen=True)
class FacetForm:
    """A Newton-boundary facet, presented by its level-one linear form.

    ``normal`` is the rational vector u with <u, x> = 1 on the facet; the
    whole support satisfies <u, a> <= 1 in global mode and >= 1 in local
    mode.  ``vertex_indices`` point into the model's vertex list.
    """

    normal: Tuple[Fraction, ...]
    vertex_indices: Tuple[int, ...]


@dataclass(frozen=True)
class Face:
    """A closed face of the Newton boundary, or a simplex of its triangulation.

    ``dim`` is the affine dimension of the vertex set; the zero cone of
    the fan is represented by the special face with no vertices and
    ``dim == -1`` (its cone has dimension 0).
    """

    vertex_indices: Tuple[int, ...]
    dim: int
    in_coordinate_hyperplane: bool
    is_simplex: bool

    @property
    def cone_dim(self) -> int:
        """Dimension of the cone spanned by the face from the origin."""
        return self.dim + 1


@dataclass(frozen=True)
class BoxPoint:
    """A lattice point of the half-open parallelepiped of a simplex face."""

    point: Vec
    q: Tuple[Fraction, ...]
    nu: Fraction


# ---------------------------------------------------------------------------
# exact convex hull by exhaustive hyperplane enumeration
# ---------------------------------------------------------------------------


class _HullFacet:
    __slots__ = ("normal", "level", "contact", "vertex_set")

    def __init__(self, normal, level, contact):
        self.normal = normal          # tuple[int], outward: <h, x> <= level
        self.level = level            # int; (normal, level) is primitive
        self.contact = contact        # frozenset of point indices on the facet
        self.vertex_set = None        # filled in once hull vertices are known


def _enumerate_facets(points: Sequence[Vec], n: int) -> List[_HullFacet]:
    """All facets of conv(points), with outward normals and contact sets.

    Every n-subset of the points spans a candidate hyperplane <h, x> = c
    with h an integer kernel vector; it is a facet when all points lie on
    one side.  Facets are keyed and sorted by the primitive integer vector
    (h, c) / gcd(c, *h).
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
        contact = frozenset(i for i, v in enumerate(vals) if v == c)
        facets[key] = _HullFacet(key[:-1], key[-1], contact)
    return [facets[k] for k in sorted(facets)]


def _hull_vertices(npts: int, facets: Sequence[_HullFacet]) -> List[int]:
    verts = []
    for i in range(npts):
        meets = [f.contact for f in facets if i in f.contact]
        if not meets:
            continue
        common = frozenset.intersection(*meets)
        if common == {i}:
            verts.append(i)
    return verts


def _face_closure(vertex_sets: Sequence[frozenset]) -> set:
    """Close a family of vertex sets under pairwise intersection."""
    faces = set(vertex_sets)
    frontier = list(faces)
    while frontier:
        fresh = []
        for w in frontier:
            for v in vertex_sets:
                x = w & v
                if x and x not in faces:
                    faces.add(x)
                    fresh.append(x)
        frontier = fresh
    return faces


def _make_face(vertices: Sequence[Vec], vidx: Tuple[int, ...], dim: int) -> Face:
    in_hyp = any(all(vertices[i][j] == 0 for i in vidx) for j in range(len(vertices[0])))
    return Face(vertex_indices=vidx, dim=dim, in_coordinate_hyperplane=in_hyp,
                is_simplex=len(vidx) == dim + 1)


def _affine_dim(vectors: Sequence[Vec]) -> int:
    if len(vectors) <= 1:
        return 0
    base = vectors[0]
    rows = [[v[j] - base[j] for j in range(len(base))] for v in vectors[1:]]
    return linalg.rank(rows, len(base))


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


class PolytopeModel:
    """Immutable-after-build model of a Newton polytope or polyhedron.

    Use :func:`build_model`; the constructor is internal.
    """

    def __init__(self, mode, n, vertices, facets, faces, zero_cone,
                 hull_facets, hull_to_model):
        self.mode = mode
        self.n = n
        self.vertices: Tuple[Vec, ...] = vertices
        self.facets: Tuple[FacetForm, ...] = facets
        self.faces: Tuple[Face, ...] = faces
        self.zero_cone: Face = zero_cone
        self.f_of_p: Tuple[int, ...] = tuple(
            i for i, f in enumerate(faces) if not f.in_coordinate_hyperplane
        )
        self.simplicial_fan: bool = all(f.is_simplex for f in faces)
        self._hull_facets = hull_facets
        self._hull_to_model = hull_to_model
        self._face_index = {frozenset(f.vertex_indices): i for i, f in enumerate(faces)}
        # L, the lcm of the form denominators, and the forms scaled by it:
        # nu(v) * L is the max (global) or min (local) of their integer dot
        # products with v, and evaluation reads nothing else
        self.value_scale = lcm(*(x.denominator for ff in facets for x in ff.normal))
        self._scaled_forms = [
            tuple(int(x * self.value_scale) for x in ff.normal) for ff in facets
        ]
        self._max_coord = max((c for v in vertices for c in v), default=0)
        self._box_cache: dict = {}
        self._census_height = -1
        self._census_groups: dict = {}
        self._triangulation: Optional[Tuple[Face, ...]] = None
        self._volume: Optional[int] = None

    # -- Newton function ----------------------------------------------

    def _scaled_value(self, v: Sequence[int]) -> int:
        """nu(v) * value_scale, an integer."""
        pick = max if self.mode == GLOBAL else min
        return pick(sum(map(mul, w, v)) for w in self._scaled_forms)

    def newton_value(self, v: Sequence[int]) -> Fraction:
        """nu(v): max of the facet forms in global mode, min in local mode."""
        v = tuple(v)
        if any(x < 0 for x in v):
            raise InputError(f"{v} has negative coordinates")
        if not any(v):
            return Fraction(0)
        return Fraction(self._scaled_value(v), self.value_scale)

    def cone_key(self, v: Sequence[int]) -> Tuple[int, int]:
        """(nu(v) * value_scale, mask): the scaled Newton value, an integer,
        and the bitmask of the facet forms that attain nu at v.

        nu is the max (global) or min (local) of the forms, so
        nu(a + b) = nu(a) + nu(b) exactly when one form attains nu at both
        a and b: a and b share a fan cone when their masks meet.  The zero
        vector lies in every cone and gets (0, -1).
        """
        if not any(v):
            return 0, -1
        key = self._scaled_value(v)
        mask = 0
        for i, w in enumerate(self._scaled_forms):
            if sum(map(mul, w, v)) == key:
                mask |= 1 << i
        return key, mask

    def same_cone(self, a: Sequence[int], b: Sequence[int]) -> bool:
        """True when nu is additive on a and b, i.e. they share a fan cone."""
        return bool(self.cone_key(a)[1] & self.cone_key(b)[1])

    def smallest_cone(self, v: Sequence[int]) -> Face:
        """The inclusion-minimal Newton-boundary face whose cone contains v.

        Returns the zero cone for v = 0.  The face is located by scaling v
        onto the Newton boundary and intersecting the hull facets through
        the scaled point; the side tests stay in the integers.
        """
        v = tuple(v)
        if any(x < 0 for x in v):
            raise InputError(f"{v} has negative coordinates")
        if not any(v):
            return self.zero_cone
        key = self._scaled_value(v)
        if key <= 0:
            raise InternalCheckError(f"Newton value of {v} is not positive")
        # v * L / key lies on <h, x> = level exactly when
        # <h, v> * L == level * key, as key > 0
        scale = self.value_scale
        meets = [
            hf.vertex_set for hf in self._hull_facets
            if sum(map(mul, hf.normal, v)) * scale == hf.level * key
        ]
        if not meets:
            raise InternalCheckError(f"{v} lies on no boundary facet")
        common = frozenset.intersection(*meets)
        model_set = frozenset(self._hull_to_model[i] for i in common)
        idx = self._face_index.get(model_set)
        if idx is None:
            raise InternalCheckError(f"face lookup failed for {v}")
        return self.faces[idx]

    # -- box points -----------------------------------------------------

    def box_points(self, face: Face) -> List[BoxPoint]:
        """Lattice points of the half-open parallelepiped spanned by ``face``.

        These are the v in N^n with v = sum q_l * b_l over the face's
        vertices and every q_l in [0, 1).  The face must be a simplex so
        that the coordinates q are unique.  One fraction-free Gauss-Jordan
        elimination of [V | I], V the k x n matrix of the vertices as
        rows, finds the greedy independent coordinates R as its pivots and
        gives the rows [d*E*V | d*E], E the inverse of V's columns R.  So
        d*q = (d*E)^T v_R and d*v = (d*E*V)^T v_R: only the coordinates in
        R are enumerated, over the integer bounding box, and a candidate
        is kept when 0 <= d*q < d and d divides every entry of d*v.  The
        other coordinates then lie in the bounding box too, as q < 1.
        """
        key = face.vertex_indices
        if key in self._box_cache:
            return self._box_cache[key]
        if not face.is_simplex:
            raise NotSimplexError(
                f"face with vertices {face.vertex_indices} is not a simplex"
            )
        verts = [self.vertices[i] for i in face.vertex_indices]
        k = len(verts)
        n = self.n
        rows, chosen, d, _ = linalg.bareiss(
            [list(v) + [int(i == j) for j in range(k)] for i, v in enumerate(verts)],
            n + k, above=True,
        )
        if any(c >= n for c in chosen):
            raise InternalCheckError("face vertices are linearly dependent")
        if d < 0:
            rows = [[-x for x in row] for row in rows]
            d = -d
        # columns of the transposes: to_v[i] and to_q[l] hold, for each
        # r in R, the weight of v_r in d*v_i and in d*q_l
        to_v = [[row[i] for row in rows] for i in range(n)]
        to_q = [[row[n + l] for row in rows] for l in range(k)]
        sums = [sum(v[i] for v in verts) for i in chosen]
        out = []
        for v_r in itertools.product(*(range(max(s, 1)) for s in sums)):
            nq = [sum(map(mul, col, v_r)) for col in to_q]
            if any(x < 0 or x >= d for x in nq):
                continue
            nv = [sum(map(mul, col, v_r)) for col in to_v]
            if any(x % d for x in nv):
                continue
            out.append(BoxPoint(
                point=tuple(x // d for x in nv),
                q=tuple(Fraction(x, d) for x in nq),
                nu=Fraction(sum(nq), d),
            ))
        out.sort(key=lambda bp: bp.point)
        self._box_cache[key] = out
        return out

    # -- triangulation, volumes and lattice counts ----------------------

    def _top_simplices(self) -> List[Tuple[int, ...]]:
        """Top-dimensional simplices of the pulling triangulation.

        A face that is not a simplex is coned from its first vertex over
        the pieces of its children that miss that vertex.  The cut of a
        face depends on that face alone, so adjacent facets meet in
        common simplices.
        """
        memo: dict = {}
        return sorted({
            piece
            for ff in self.facets
            for piece in self._pull(self.faces[self._face_index[frozenset(ff.vertex_indices)]], memo)
        })

    def _pull(self, face: Face, memo: dict) -> List[Tuple[int, ...]]:
        """The pieces of one face in the pulling triangulation, memoised
        by vertices.  A method, not a closure: a closure that calls itself
        is a reference cycle and would keep the model alive until the
        cyclic garbage collector runs.
        """
        vidx = face.vertex_indices
        if vidx not in memo:
            if face.is_simplex:
                memo[vidx] = [vidx]
            else:
                vset = frozenset(vidx)
                memo[vidx] = [
                    (vidx[0],) + piece
                    for child in self.faces
                    if child.dim == face.dim - 1
                    and vidx[0] not in child.vertex_indices
                    and vset.issuperset(child.vertex_indices)
                    for piece in self._pull(child, memo)
                ]
        return memo[vidx]

    def triangulation(self) -> Tuple[Face, ...]:
        """Every face of every top simplex of the pulling triangulation of
        the Newton boundary, sorted by dimension and then vertices.  Each
        vertex sits at level one and nu is linear on the cone over each.
        """
        if self._triangulation is None:
            simplices = {
                sub
                for piece in self._top_simplices()
                for k in range(1, len(piece) + 1)
                for sub in itertools.combinations(piece, k)
            }
            self._triangulation = tuple(
                _make_face(self.vertices, s, len(s) - 1)
                for s in sorted(simplices, key=lambda s: (len(s), s))
            )
        return self._triangulation

    def normalized_volume(self) -> int:
        """n! times the volume of the model region (an integer).

        The sum of |det| over the top-dimensional simplices of
        :meth:`triangulation`, i.e. over the pyramids with apex at the
        origin.
        """
        if self._volume is None:
            self._volume = sum(
                abs(linalg.int_det([list(self.vertices[i]) for i in piece]))
                for piece in self._top_simplices()
            )
        return self._volume

    def _census(self, height: int) -> dict:
        """Lattice points with nu(v) <= height, as {value: points}.

        Values ascend and each group keeps ``itertools.product`` order.
        :meth:`_scan_region` visits only the points of the region, never
        the whole box [0, height * max_coord]^n.  The tallest scan so far
        is kept; a query at or below its height filters it, and filtering
        keeps the product order.
        """
        if height > self._census_height:
            self._census_groups = self._scan_region(height)
            self._census_height = height
        return {val: pts for val, pts in self._census_groups.items() if val <= height}

    def _scan_region(self, height: int) -> dict:
        """The lattice points with nu(v) <= height, grouped by value.

        Works in the integers nu(v) * L = max (global) or min (local) of
        the scaled forms <S_F, v>, against the threshold H = height * L.
        The coordinates are fixed in product order, coordinate 0
        outermost, each capped at height * max_coord, with one partial
        sum s_F per form.  Every coordinate ranges over an interval:

        * global: x is kept while some completion can keep every form at
          or below H, i.e. s_F + S_Fk * x + r_F <= H for all F, where r_F
          is the least that the later coordinates can add to form F (the
          sum of min(0, S_Fj) * cap over j > k);
        * local: x is kept while some form with s_F <= H stays at or
          below H, which bounds x above only, as every S_Fk > 0.

        At the last coordinate r_F = 0, so each point of the interval is
        in the region.  The integer keys are sorted and turned into
        ``Fraction(key, L)`` once per group.
        """
        n = self.n
        forms = self._scaled_forms
        top = height * self.value_scale
        cap = height * self._max_coord
        take_max = self.mode == GLOBAL
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
        scale = self.value_scale
        return {Fraction(key, scale): groups[key] for key in sorted(groups)}

    def lattice_count(self, ell: int) -> int:
        """Number of lattice points v >= 0 with nu(v) <= ell."""
        if ell < 0:
            raise InputError("dilation factor must be nonnegative")
        return sum(len(pts) for pts in self._census(ell).values())

    def value_histogram(self, bound: int) -> dict:
        """Multiset of Newton values <= bound, as {Fraction: multiplicity}."""
        return {val: len(pts) for val, pts in self._census(bound).items()}

    def points_by_value(self, bound: int) -> dict:
        """Lattice points grouped by Newton value, for values <= bound."""
        return {val: list(pts) for val, pts in self._census(bound).items()}

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.n,
            "vertices": [list(v) for v in self.vertices],
            "facets": [
                {
                    "u_F": [str(x) for x in ff.normal],
                    "vertices": list(ff.vertex_indices),
                }
                for ff in self.facets
            ],
            "faces": [
                {
                    "vertices": list(f.vertex_indices),
                    "dim": f.dim,
                    "in_F_of_P": not f.in_coordinate_hyperplane,
                    "simplex": f.is_simplex,
                }
                for f in self.faces
            ],
        }


def build_model(p: Poly) -> PolytopeModel:
    """Build the Newton polytope (global) or Newton polyhedron (local) of p.

    Requires a convenient polynomial.  Global mode takes the facets of
    conv({0} u supp p) that avoid the origin; local mode takes the compact
    facets of the positive-orthant hull of the support, found by
    augmenting the support with far-out anchor points K*e_i so a single
    finite-hull pass yields the compact face structure.
    """
    check_convenient(p)
    n = p.nvars
    support = tuple(sorted(p.terms))
    if p.mode == GLOBAL:
        pts = list(dict.fromkeys(((0,) * n,) + support))
        forbidden = {pts.index((0,) * n)}
    else:
        top = max(c for v in support for c in v)
        anchor_scale = factorial(n) * top**n + top + 1
        anchors = tuple(
            tuple(anchor_scale if j == i else 0 for j in range(n)) for i in range(n)
        )
        pts = list(dict.fromkeys(support + anchors))
        forbidden = {pts.index(a) for a in anchors}

    base = pts[0]
    diff_rows = [[q[j] - base[j] for j in range(n)] for q in pts[1:]]
    if linalg.rank(diff_rows, n) != n:
        raise InternalCheckError("support is not full dimensional")

    hull_facets = _enumerate_facets(pts, n)
    hull_verts = _hull_vertices(len(pts), hull_facets)
    vert_set = set(hull_verts)
    for hf in hull_facets:
        hf.vertex_set = frozenset(i for i in hf.contact if i in vert_set)

    nb_hull = [hf for hf in hull_facets if not (hf.contact & forbidden)]
    if not nb_hull:
        raise InternalCheckError("no Newton-boundary facet found")

    normals = []
    for hf in nb_hull:
        c = hf.level
        if p.mode == GLOBAL:
            if c <= 0:
                raise InternalCheckError("origin-avoiding facet at level <= 0")
        else:
            if c >= 0:
                raise InternalCheckError("compact facet with outward level >= 0")
        u = tuple(Fraction(h, c) for h in hf.normal)
        if p.mode == LOCAL and any(x <= 0 for x in u):
            raise InternalCheckError("compact facet without strictly positive normal")
        normals.append(u)

    # model vertex list: vertices of the Newton boundary, sorted
    nb_vertex_hull = sorted(set().union(*(hf.vertex_set for hf in nb_hull)))
    vertices = tuple(sorted(pts[i] for i in nb_vertex_hull))
    hull_to_model = {i: vertices.index(pts[i]) for i in nb_vertex_hull}

    order = sorted(range(len(nb_hull)), key=lambda i: normals[i])
    facet_forms = []
    nb_vsets_model = []
    for i in order:
        vset = tuple(sorted(hull_to_model[j] for j in nb_hull[i].vertex_set))
        facet_forms.append(FacetForm(normal=normals[i], vertex_indices=vset))
        nb_vsets_model.append(frozenset(vset))

    # Newton-boundary face lattice: intersections of hull facet vertex
    # sets, kept when they land inside a Newton-boundary facet.
    all_vsets = [hf.vertex_set for hf in hull_facets if hf.vertex_set]
    closure = _face_closure(all_vsets)
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

    zero_cone = Face(
        vertex_indices=(),
        dim=-1,
        in_coordinate_hyperplane=True,
        is_simplex=True,
    )

    model = PolytopeModel(
        mode=p.mode,
        n=n,
        vertices=vertices,
        facets=tuple(facet_forms),
        faces=tuple(faces),
        zero_cone=zero_cone,
        hull_facets=hull_facets,
        hull_to_model=hull_to_model,
    )

    # sanity: the defining inequalities really hold on the support
    for a in support:
        val = model.newton_value(a)
        if p.mode == GLOBAL and val > 1:
            raise InternalCheckError(f"support point {a} outside the polytope")
        if p.mode == LOCAL and val < 1:
            raise InternalCheckError(f"support point {a} below the Newton boundary")
    for v in model.vertices:
        if model.newton_value(v) != 1:
            raise InternalCheckError(f"vertex {v} does not sit at level one")
    return model
