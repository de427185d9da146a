"""Newton polytope / Newton polyhedron models with exact arithmetic.

Global mode builds the convex hull of the origin and the support; local
mode builds the Newton polyhedron of a power series, i.e. the region
under the compact faces of the positive-orthant hull of the support.
Both expose the same interface: level-one facet forms, the Newton
function (max of the forms globally, min locally), the face lattice of
the Newton boundary and its pulling triangulation, half-open box points
of simplices, normalized volumes and lattice-point counts.

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
from math import factorial, gcd
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple

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
                 hull_points, hull_facets, hull_to_model):
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
        self._hull_points = hull_points
        self._hull_facets = hull_facets
        self._hull_to_model = hull_to_model
        self._face_index = {frozenset(f.vertex_indices): i for i, f in enumerate(faces)}
        self._face_vsets = [frozenset(f.vertex_indices) for f in faces]
        # integer presentation of the facet forms for fast lattice scans
        self._int_forms = []
        for ff in facets:
            den = 1
            for x in ff.normal:
                den = den * x.denominator // gcd(den, x.denominator)
            self._int_forms.append((tuple(int(x * den) for x in ff.normal), den))
        self._max_coord = max((c for v in vertices for c in v), default=0)
        self._box_cache: dict = {}
        self._census_height = -1
        self._census_groups: dict = {}
        self._triangulation: Optional[Tuple[Face, ...]] = None
        self._volume: Optional[int] = None

    # -- Newton function ----------------------------------------------

    def _value_pair(self, v: Sequence[int]):
        """The Newton value of v as an unreduced integer pair (num, den)."""
        take_max = self.mode == GLOBAL
        best_n = best_d = None
        for w, d in self._int_forms:
            s = 0
            for wi, vi in zip(w, v):
                s += wi * vi
            if best_n is None:
                best_n, best_d = s, d
            elif take_max:
                if s * best_d > best_n * d:
                    best_n, best_d = s, d
            else:
                if s * best_d < best_n * d:
                    best_n, best_d = s, d
        return best_n, best_d

    def newton_value(self, v: Sequence[int]) -> Fraction:
        """nu(v): max of the facet forms in global mode, min in local mode."""
        v = tuple(v)
        if any(x < 0 for x in v):
            raise InputError(f"{v} has negative coordinates")
        if not any(v):
            return Fraction(0)
        num, den = self._value_pair(v)
        return Fraction(num, den)

    def same_cone(self, a: Sequence[int], b: Sequence[int]) -> bool:
        """True when nu is additive on a and b, i.e. they share a fan cone."""
        a, b = tuple(a), tuple(b)
        if not any(a) or not any(b):
            return True
        n1, d1 = self._value_pair(a)
        n2, d2 = self._value_pair(b)
        n3, d3 = self._value_pair(tuple(x + y for x, y in zip(a, b)))
        return (n1 * d2 + n2 * d1) * d3 == n3 * d1 * d2

    def smallest_cone(self, v: Sequence[int]) -> Face:
        """The inclusion-minimal Newton-boundary face whose cone contains v.

        Returns the zero cone for v = 0.  The face is located by scaling v
        onto the Newton boundary and intersecting the hull facets through
        the scaled point.
        """
        v = tuple(v)
        if any(x < 0 for x in v):
            raise InputError(f"{v} has negative coordinates")
        if not any(v):
            return self.zero_cone
        num, den = self._value_pair(v)
        if num <= 0:
            raise InternalCheckError(f"Newton value of {v} is not positive")
        x = [Fraction(vi * den, num) for vi in v]
        meets = []
        for hf in self._hull_facets:
            val = sum(hj * xj for hj, xj in zip(hf.normal, x))
            if val == hf.level:
                meets.append(hf.vertex_set)
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
        that the coordinates q are unique; enumeration scans the integer
        bounding box and solves for q exactly.
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
        if len(chosen) < k:
            raise InternalCheckError("face vertices are linearly dependent")
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
            out.append(BoxPoint(point=cand, q=q, nu=sum(q, Fraction(0))))
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

        def pull(face: Face) -> List[Tuple[int, ...]]:
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
                        for piece in pull(child)
                    ]
            return memo[vidx]

        return sorted({
            piece
            for ff in self.facets
            for piece in pull(self.faces[self._face_index[frozenset(ff.vertex_indices)]])
        })

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
        The tallest scan so far is kept; a query at or below its height
        filters it, since the box [0, height * max_coord]^n holds every
        point with nu(v) <= height and filtering keeps the product order.
        """
        if height > self._census_height:
            groups: dict = {}
            box = height * self._max_coord
            for v in itertools.product(range(box + 1), repeat=self.n):
                num, den = self._value_pair(v)
                if num <= height * den:
                    groups.setdefault(Fraction(num, den), []).append(v)
            self._census_groups = dict(sorted(groups.items()))
            self._census_height = height
        return {val: pts for val, pts in self._census_groups.items() if val <= height}

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
        hull_points=tuple(pts),
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
