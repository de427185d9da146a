"""Newton polytope / Newton polyhedron models with exact arithmetic.

Global mode builds the convex hull of the origin and the support; local
mode builds the Newton polyhedron conv(supp) + R^n_{>=0} of a power
series, the orthant's rays e_i being the hull's directions.
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
The mask also locates the smallest cone of a point: its face is the
common vertex set of the masked facet forms, cut down to the vertices
that vanish wherever the point does.

The half-open box of a simplex, with its vertices as the rows of V, is
the finite group (Z^n meet span V) / Z*V, one point per class.  A
diagonal form U*V*W = diag(s), U and W unimodular (Cohen, *A Course in
Computational Algebraic Number Theory*, 1993, section 2.4), gives the
group's generators, one of order s_i per row of U, and an odometer over
their digits reaches each of its prod(s) points once, in the integers,
with no candidate rejected.  That walk is coded once,
:meth:`PolytopeModel._box_group`, as the columns of the d*q_l of the
points, one per vertex: :attr:`PolytopeModel.open_boxes` folds them into
value histograms and :meth:`PolytopeModel.box_points` builds points
from them.

Every box sum reads one walk per model (:attr:`PolytopeModel.open_boxes`).
The half-open box of a simplex is the disjoint union of the open boxes
of its faces, so the boxes of the top simplices of the triangulation
hold the open box of every simplex, and each open box is kept, as a
histogram of its values, from the first top simplex that holds it; a
sum over the half-open boxes of weighted simplices is then a sum over
the open boxes, each weighted by the star of its simplex, as in
Stapledon's weighted Ehrhart theory.  The star
counts are taken once per model, over the triangulation
(:attr:`PolytopeModel.triangulation_stars`) and over the face lattice
(:attr:`PolytopeModel.face_stars`).  The points themselves are built
only where they are printed, from the boxes of the top simplices.

The lattice census (the points with nu(v) <= T, grouped by value) walks
only that region, not a bounding box: with one integer partial sum per
scaled form, each coordinate in turn ranges over the interval that the
forms leave it, the last two as whole ranges, one ``map`` chain per
form.  Points leave the walk as integer monomial codes
(:func:`_code_weights`), grouped by the integers nu(v) * L, as the box
points' values are; ``Fraction`` values and exponent tuples are built
only by the public views and the graded quotient's blocks.  Every
reader inside the package reads the census at height n, the one height
that the spectrum needs: the codes (:attr:`PolytopeModel._codes`), one
walk per model, or their histogram (:attr:`PolytopeModel._histogram`),
which a count-only walk builds when no code has been walked.  A count
above n, which the Ehrhart check takes at n + 1, is a sum of interval
lengths (:meth:`PolytopeModel._number`), no point built.  The census
reads the facet forms alone, never the
triangulation or the box points, so the oracle built on it checks the
box route independently.

The hull comes from :mod:`newtonspec.hull`, in the integers, with each
facet's points and the hull's vertices as bitmasks.  A Newton-boundary
hull facet is a primitive integer ray (h, c), so the scaled form L * h / c
is read off the ray in the integers, with L the lcm of the |c|, and the
model is built with no ``Fraction``: the rational level-one forms,
``PolytopeModel.facets``, are built the first time they are read.
:func:`build_model` remaps each hull mask once onto the model vertices,
dropping the points that are no vertices of the Newton boundary, and
keeps the scaled forms, their masks and the walls (all the hull facets'
masks so cut down) and nothing else of the hull.

A face is the bitmask of the model vertices on it, and the faces one
dimension down inside a face are its ridges: its largest proper
intersections with the walls, or, for a simplex, itself less one vertex.
A face lies in a coordinate hyperplane when it misses the mask of the
vertices that are nonzero on some coordinate.
The pulling triangulation reads the ridges of the faces that are not
simplices only, memoised per model; a simplex facet is its own piece.
So the volume and the box route build no face lattice.  The lattice is
built the first time ``face_stars``, ``faces``,
:meth:`PolytopeModel.smallest_cone` or :meth:`PolytopeModel.to_json`
reads it, from the top down, one dimension at a time, through the same
ridge memo, as ``{vertex bitmask: dim}``.  A face's dimension is its
level, so no rank is taken, and it is a simplex when it has dim + 1
vertices.  Every reader inside the package keeps faces as bitmasks; a
:class:`Face` is built only where one leaves the model: ``faces``, the
face ``smallest_cone`` returns and the faces handed to ``box_points``.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm, prod
from operator import add, floordiv, mod, mul, neg, or_
from typing import Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .errors import (
    InputError,
    InternalCheckError,
    NotSimplexError,
)
from .hull import enumerate_facets, hull_vertices
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


@dataclass(frozen=True)
class BoxPoint:
    """A lattice point of the half-open parallelepiped of a simplex face.

    ``value`` is nu(point) * L, L the model's ``value_scale``; ``d`` is
    the order of the face's box group, the number of points in its box,
    and ``dq`` is d * q, so the coordinates are q = dq / d.  ``q`` and
    ``nu`` build the rationals on demand.
    """

    point: Vec
    value: int
    dq: Tuple[int, ...]
    d: int

    @property
    def q(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(x, self.d) for x in self.dq)

    @property
    def nu(self) -> Fraction:
        return Fraction(sum(self.dq), self.d)


def _bits(mask: int) -> Tuple[int, ...]:
    """The indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _submasks(mask: int) -> List[int]:
    """Every submask of ``mask``, 0 included."""
    out = [mask]
    sub = mask
    while sub:
        sub = (sub - 1) & mask
        out.append(sub)
    return out


def _diagonal_form(rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int]]:
    """``(U, s)`` with U unimodular, s > 0 and U*V*W = diag(s) for some
    unimodular W, V the k x n integer matrix ``rows`` of rank k.

    Each round moves an entry of least absolute value in the rows and
    columns not yet done to the corner, clears its column by row
    operations, which U records, and its row by column operations, which
    touch V alone, and repeats until only the corner is left in both.
    The s need not divide one another.  Fewer than k nonzero corners
    mean that the rows are dependent: ``InternalCheckError``.
    """
    a = [list(row) for row in rows]
    k = len(a)
    n = len(a[0]) if k else 0
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    s = []
    for t in range(k):
        while True:
            pivots = [(abs(a[i][j]), i, j) for i in range(t, k) for j in range(t, n) if a[i][j]]
            if not pivots:
                raise InternalCheckError("face vertices are linearly dependent")
            _, i, j = min(pivots)
            a[t], a[i] = a[i], a[t]
            u[t], u[i] = u[i], u[t]
            for row in a[t:]:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for i in range(t + 1, k):
                f = a[i][t] // p
                a[i] = [x - f * y for x, y in zip(a[i], a[t])]
                u[i] = [x - f * y for x, y in zip(u[i], u[t])]
            for j in range(t + 1, n):
                f = a[t][j] // p
                for row in a[t:]:
                    row[j] -= f * row[t]
            # what is left in the corner's row and column is smaller than p,
            # so the next round has a smaller corner
            if not any(a[i][t] for i in range(t + 1, k)) and not any(a[t][t + 1:]):
                break
        # a column sign flip, left to W, makes the corner positive
        s.append(abs(p))
    return u, s


def _code_weights(n: int, radix: int) -> Vec:
    """The weights w of the integer monomial code sum_k w_k * m_k: the
    total degree, then m_0, m_1, ..., as digits in ``radix``, which
    exceeds every coordinate coded.  Codes order points by total degree
    and then exponent, and code(m + t) = code(m) + code(t) while the
    coordinates of m + t stay below the radix."""
    return tuple(radix ** n + radix ** (n - 1 - k) for k in range(n))


def _decode(codes: Sequence[int], n: int, radix: int) -> List[Vec]:
    """The points of :func:`_code_weights` codes: m_k is the digit of
    radix ** (n - 1 - k)."""
    return list(zip(*[
        map(mod, map(floordiv, codes, repeat(radix ** j)), repeat(radix)) if j
        else map(mod, codes, repeat(radix))
        for j in range(n - 1, -1, -1)
    ]))


def _check_height(height) -> None:
    """A census height must be a nonnegative integer, else ``InputError``."""
    if isinstance(height, bool) or not isinstance(height, int) or height < 0:
        raise InputError(f"height must be a nonnegative integer, got {height!r}")


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


class PolytopeModel:
    """Immutable-after-build model of a Newton polytope or polyhedron.

    Use :func:`build_model`; the constructor is internal.  The model
    holds the scaled facet forms with their vertex bitmasks and the walls
    (the hull facets as vertex bitmasks).  The face lattice, as vertex
    bitmasks, is built the first time it is read; the volume, the
    triangulation, the open boxes and the box points never read it.
    """

    # the cone of the zero vector, the same in every model
    zero_cone = Face(vertex_indices=(), dim=-1, in_coordinate_hyperplane=True, is_simplex=True)

    def __init__(self, mode, n, vertices, value_scale, scaled_forms, facet_masks, walls):
        self.mode = mode
        self.n = n
        self.vertices: Tuple[Vec, ...] = vertices
        # L, the lcm of the form denominators, and the forms scaled by it:
        # nu(v) * L is the max (global) or min (local) of their integer dot
        # products with v, and evaluation reads nothing else
        self.value_scale: int = value_scale
        self._scaled_forms: List[Vec] = scaled_forms
        self._facet_masks: Tuple[int, ...] = facet_masks
        # every face lies in a facet and every face of a simplex is a
        # simplex, so the fan is simplicial when every facet is
        self.simplicial_fan: bool = all(m.bit_count() == n for m in facet_masks)
        self._walls: Tuple[int, ...] = walls
        # bit i of _support[j] is set when vertex i has a nonzero coordinate j
        self._support = tuple(sum(1 << i for i, v in enumerate(vertices) if v[j])
                              for j in range(n))
        self._ridge_memo: dict = {}
        self._max_coord = max((c for v in vertices for c in v), default=0)
        self._columns: Tuple[Vec, ...] = tuple(zip(*scaled_forms))
        self._volume: Optional[int] = None

    @functools.cached_property
    def facets(self) -> Tuple[FacetForm, ...]:
        """The Newton-boundary facets as level-one forms with ``Fraction``
        normals, in the order of the scaled forms; built on first read."""
        scale = self.value_scale
        return tuple(
            FacetForm(normal=tuple(Fraction(x, scale) for x in form), vertex_indices=_bits(mask))
            for form, mask in zip(self._scaled_forms, self._facet_masks)
        )

    def _face(self, mask: int, dim: int) -> Face:
        """The face with vertex bitmask ``mask`` and dimension ``dim``."""
        vidx = _bits(mask)
        return Face(vertex_indices=vidx, dim=dim,
                    in_coordinate_hyperplane=bool(self._zero_coordinates(mask)),
                    is_simplex=len(vidx) == dim + 1)

    def _zero_coordinates(self, mask: int) -> Tuple[int, ...]:
        """The coordinates on which every vertex in the bitmask ``mask`` is 0."""
        return tuple(j for j, s in enumerate(self._support) if not mask & s)

    # -- faces ------------------------------------------------------------

    def _ridges(self, face: int) -> Tuple[int, ...]:
        """The ridges of a face that is not a simplex, memoised: the
        inclusion-maximal proper nonempty face & g over the walls g
        (Kaibel and Pfetsch, 2002).  Taken in descending size, a
        candidate is a ridge when no ridge accepted before holds it.  The
        walls are all the hull facets cut down to the model vertices,
        which loses nothing because a Newton-boundary face holds model
        vertices only."""
        ridges = self._ridge_memo.get(face)
        if ridges is None:
            found: List[int] = []
            for c in sorted({face & g for g in self._walls} - {0, face}, key=int.bit_count,
                            reverse=True):
                if all(c & r != c for r in found):
                    found.append(c)
            ridges = self._ridge_memo[face] = tuple(found)
        return ridges

    @functools.cached_property
    def _face_dims(self) -> dict:
        """Every face of the Newton boundary as ``{vertex bitmask: dim}``,
        from the top down; built on first read.  The facets make the top
        level; the faces one level down are the ridges of those of this
        level, a simplex's being itself less one vertex.  A face's
        dimension is its level."""
        faces: dict = {}
        level = set(self._facet_masks)
        for dim in range(self.n - 1, -1, -1):
            below = set()
            for f in level:
                faces[f] = dim
                if not dim:
                    continue
                if f.bit_count() == dim + 1:
                    below.update(f ^ (1 << i) for i in _bits(f))
                else:
                    below.update(self._ridges(f))
            level = below
        return faces

    @functools.cached_property
    def faces(self) -> Tuple[Face, ...]:
        """Every face of the Newton boundary, sorted by dimension and
        vertices; built on first read."""
        return tuple(sorted((self._face(mask, dim) for mask, dim in self._face_dims.items()),
                            key=lambda f: (f.dim, f.vertex_indices)))

    # -- Newton function ----------------------------------------------

    def _scaled_value(self, v: Sequence[int]) -> int:
        """nu(v) * value_scale, an integer."""
        pick = max if self.mode == GLOBAL else min
        return pick(sum(map(mul, w, v)) for w in self._scaled_forms)

    def _exponent(self, v: Sequence[int]) -> Vec:
        """v as a tuple, checked to be a point of N^n."""
        v = tuple(v)
        if len(v) != self.n:
            raise InputError(f"{v} does not have n = {self.n} coordinates")
        if any(x < 0 for x in v):
            raise InputError(f"{v} has negative coordinates")
        return v

    def newton_value(self, v: Sequence[int]) -> Fraction:
        """nu(v): max of the facet forms in global mode, min in local mode."""
        v = self._exponent(v)
        if not any(v):
            return Fraction(0)
        return Fraction(self._scaled_value(v), self.value_scale)

    def cone_key(self, v: Sequence[int]) -> Tuple[int, int]:
        """(nu(v) * value_scale, mask): the scaled Newton value, an integer,
        and the bitmask of the facet forms that attain nu at v.

        nu is the max (global) or min (local) of the forms, so
        nu(a + b) = nu(a) + nu(b) exactly when one form attains nu at both
        a and b: a and b share a fan cone when their masks meet.  The zero
        vector lies in every cone and gets (0, -1).  v must be a point of
        N^n, else :class:`InputError`.
        """
        v = self._exponent(v)
        if not any(v):
            return 0, -1
        values = [sum(map(mul, w, v)) for w in self._scaled_forms]
        key = max(values) if self.mode == GLOBAL else min(values)
        mask = 0
        for i, x in enumerate(values):
            if x == key:
                mask |= 1 << i
        return key, mask

    def same_cone(self, a: Sequence[int], b: Sequence[int]) -> bool:
        """True when nu is additive on a and b, i.e. they share a fan cone."""
        return bool(self.cone_key(a)[1] & self.cone_key(b)[1])

    def _cone_mask(self, v: Vec) -> int:
        """The vertex bitmask of the smallest cone of v, a point of N^n
        other than 0.  Scaled onto the Newton boundary, v lies on the hull
        facets of the facet forms in its cone-key mask and on the
        coordinate hyperplanes where v is 0, and on no others.  So the
        face is the common vertex set of the masked forms, cut down to the
        vertices that are 0 wherever v is."""
        mask = self.cone_key(v)[1]
        face = -1
        for i, facet in enumerate(self._facet_masks):
            if mask >> i & 1:
                face &= facet
        for x, support in zip(v, self._support):
            if not x:
                face &= ~support
        if face not in self._face_dims:
            raise InternalCheckError(f"face lookup failed for {v}")
        return face

    def smallest_cone(self, v: Sequence[int]) -> Face:
        """The inclusion-minimal Newton-boundary face whose cone contains
        v (:meth:`_cone_mask`); the zero cone for v = 0."""
        v = self._exponent(v)
        if not any(v):
            return self.zero_cone
        mask = self._cone_mask(v)
        return self._face(mask, self._face_dims[mask])

    # -- box points -----------------------------------------------------

    def _box_group(self, piece: Sequence[int]) -> Tuple[int, Iterator[List[int]]]:
        """The box group of the simplex with the vertices ``piece``:
        ``(d, columns)``, d its order and ``columns`` a lazy iterator that
        yields, for each vertex l of ``piece`` in turn, the list of the
        d*q_l of all d points, in one order of the points for every l.

        V is the k x n matrix of the vertices as rows.  With U*V*W =
        diag(s) from :func:`_diagonal_form`, row i of U*V is s_i times a
        lattice vector, and these k vectors are a basis of Z^n meet span V.
        So the group (Z^n meet span V) / Z*V is the direct sum of cyclic
        groups of orders s_i, generated by the classes with q = U_i / s_i,
        and d = prod(s).  A column is an odometer on the digits
        0 <= c_i < s_i: each generator adds its step d*q_l = (d / s_i) *
        U_il mod d to every entry found so far, so each entry costs one
        addition and no candidate is rejected.
        """
        u, s = _diagonal_form([self.vertices[i] for i in piece])
        d = prod(s)
        generators = [(row, order) for row, order in zip(u, s) if order > 1]

        def columns():
            for l in range(len(piece)):
                column = [0]
                for row, order in generators:
                    step = row[l] * (d // order) % d
                    column = ([(x + c) % d for c in range(0, order * step, step) for x in column]
                              if step else column * order)
                yield column

        return d, columns()

    def box_points(self, face: Face) -> List[BoxPoint]:
        """Lattice points of the half-open parallelepiped spanned by ``face``.

        These are the v in N^n with v = sum q_l * b_l over the face's
        vertices and every q_l in [0, 1).  The face must be a simplex so
        that the coordinates q are unique.  The points are one of each
        class of the box group (:meth:`_box_group`), each built from its
        d*q as (d*q)*V / d.  The list is sized d before the walk, so a box
        too large to hold fails at once (``OverflowError``,
        ``MemoryError``).  Each point carries d*q and nu * L as integers,
        no ``Fraction``; the points are sorted.
        """
        if not face.is_simplex:
            raise NotSimplexError(
                f"face with vertices {face.vertex_indices} is not a simplex"
            )
        d, columns = self._box_group(face.vertex_indices)
        # d * point, one list per coordinate, summed column by column
        coords = [[0] * d for _ in range(self.n)]
        walked = []
        for i, column in zip(face.vertex_indices, columns):
            walked.append(column)
            for j, a in enumerate(self.vertices[i]):
                if a:
                    coords[j] = [p + a * x for p, x in zip(coords[j], column)]
        points = zip(*([p // d for p in coord] for coord in coords))
        found = sorted(zip(points, list(zip(*walked)) or [()]))
        # every vertex is at level one, so nu * L = sum(q) * L, an integer
        scale = self.value_scale
        return [BoxPoint(point, sum(dq) * scale // d, dq, d) for point, dq in found]

    @functools.cached_property
    def open_boxes(self) -> dict:
        """The open box of every simplex of the triangulation as a value
        histogram, ``{G: {nu * L: count}}``, G the simplex's vertex
        bitmask, for each G whose open box holds a point; the origin is
        the open box of the empty simplex, mask 0.  Walked once per model.

        A point v = sum q_l * b_l of the half-open box of a simplex lies in
        the open box of the face spanned by the vertices with q_l > 0, so
        the boxes of the top simplices hold every open box.  Each open box
        is taken from the first top simplex that holds it.  The columns of
        each top simplex's box group (:meth:`_box_group`) are folded into
        one integer key per point: sum(d*q) shifted past the vertex bits,
        plus the bits of the vertices with d*q_l > 0.  No point and no
        ``BoxPoint`` is built.  The key list is sized d before the walk,
        so a box too large to hold fails at once (``OverflowError``,
        ``MemoryError``).
        """
        scale = self.value_scale
        shift = len(self.vertices)
        low = (1 << shift) - 1
        boxes: dict = {}
        for piece in self._top_simplices:
            d, columns = self._box_group(piece)
            keys = [0] * d
            for i, column in zip(piece, columns):
                bit = 1 << i
                keys = [key + (x << shift | bit) if x else key for key, x in zip(keys, column)]
            counts = Counter(keys)
            del keys, column, columns
            found: dict = {}
            for key, count in counts.items():
                g = key & low
                values = found.get(g)
                if values is None:
                    if g in boxes:   # an earlier top simplex holds it
                        continue
                    values = found[g] = {}
                # every vertex is at level one, so nu * L = sum(q) * L
                values[(key >> shift) * scale // d] = count
            boxes.update(found)
        return boxes

    # -- triangulation, volumes and lattice counts ----------------------

    @functools.cached_property
    def _top_simplices(self) -> List[Tuple[int, ...]]:
        """Top-dimensional simplices of the pulling triangulation, once.

        A face that is not a simplex is coned from its first vertex over
        the pieces of its ridges that miss that vertex.  The cut of a
        face depends on that face alone, so adjacent facets meet in
        common simplices.
        """
        memo: dict = {}
        return sorted({
            piece for f in self._facet_masks for piece in self._pull(f, self.n - 1, memo)
        })

    def _pull(self, face: int, dim: int, memo: dict) -> List[Tuple[int, ...]]:
        """The pieces of the face ``face`` (a vertex bitmask) of dimension
        ``dim`` in the pulling triangulation, memoised by mask.  A method,
        not a closure: a closure that calls itself is a reference cycle
        and would keep the model alive until the cyclic garbage collector
        runs.
        """
        pieces = memo.get(face)
        if pieces is None:
            if face.bit_count() == dim + 1:
                pieces = [_bits(face)]
            else:
                first = face & -face
                apex = (first.bit_length() - 1,)
                pieces = [
                    apex + piece
                    for child in self._ridges(face) if not child & first
                    for piece in self._pull(child, dim - 1, memo)
                ]
            memo[face] = pieces
        return pieces

    @functools.cached_property
    def _simplices(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """Every simplex of the pulling triangulation, each once, as its
        vertex bitmask with the coordinates on which it vanishes, in
        ascending order of the masks."""
        simplices = set()
        for piece in self._top_simplices:
            simplices.update(_submasks(sum(1 << i for i in piece)))
        simplices.discard(0)
        return tuple((mask, self._zero_coordinates(mask)) for mask in sorted(simplices))

    @functools.cached_property
    def triangulation_stars(self) -> dict:
        """The star of each simplex G of :attr:`open_boxes` in the
        triangulation: ``{G: {(|Z|, dim S): number}}``, the simplices S
        that contain G counted by the number of coordinates Z on which S
        vanishes and by their dimension.  One pass over the submasks of
        every simplex; the star of the empty simplex, mask 0, is the whole
        triangulation."""
        stars = {g: {} for g in self.open_boxes}
        for mask, zeros in self._simplices:
            key = (len(zeros), mask.bit_count() - 1)
            for sub in _submasks(mask):
                star = stars.get(sub)
                if star is not None:
                    star[key] = star.get(key, 0) + 1
        return stars

    @functools.cached_property
    def face_stars(self) -> dict:
        """The star of each face sigma of the Newton boundary, and of the
        zero cone (mask 0), in the face lattice: ``{sigma: (every,
        outside)}``, where ``every[k]`` counts the faces f that contain
        sigma with n - 1 - dim f = k, and ``outside[k]`` those of them
        outside the coordinate hyperplanes.

        One pass over the lattice's bitmasks, from the bottom up: the
        faces of a simplex are its submasks, 0 included, and those of any
        other face are itself and the faces of its ridges, kept for the
        faces above.  A face is outside the coordinate hyperplanes when it
        meets the support mask of every coordinate."""
        n = self.n
        support = self._support
        stars: dict = {}
        below: dict = {}   # a face that is no simplex: its faces, 0 included
        for mask, dim in reversed(self._face_dims.items()):
            if mask.bit_count() == dim + 1:
                subs = _submasks(mask)
            else:
                subs = below[mask] = {mask}
                for ridge in self._ridges(mask):
                    subs.update(below.get(ridge) or _submasks(ridge))
            k = n - 1 - dim
            outside = all(mask & s for s in support)
            for sigma in subs:
                counts = stars.get(sigma)
                if counts is None:
                    counts = stars[sigma] = ([0] * (n + 1), [0] * (n + 1))
                counts[0][k] += 1
                if outside:
                    counts[1][k] += 1
        return stars

    def normalized_volume(self) -> int:
        """n! times the volume of the model region (an integer).

        The sum of |det| over the top-dimensional simplices of the
        pulling triangulation, i.e. over the pyramids with apex at the
        origin.
        """
        if self._volume is None:
            self._volume = sum(
                abs(linalg.int_det([self.vertices[i] for i in piece]))
                for piece in self._top_simplices
            )
        return self._volume

    # -- lattice census -------------------------------------------------

    def _radix(self, height: int) -> int:
        """The code radix: above every coordinate up to max(height, n)."""
        return max(height, self.n) * self._max_coord + 1

    @functools.cached_property
    def code_weights(self) -> Vec:
        """The :func:`_code_weights` of the census up to height n."""
        return _code_weights(self.n, self._radix(self.n))

    def _limits(self, height: int):
        """``(H, cap, rests)`` of the region nu(v) <= height: H = height * L,
        cap = height * max_coord bounds every coordinate, and rests[k][F]
        is the least that the coordinates after k can add to form F, the
        sum of min(0, S_Fj) * cap over j > k (0 in local mode)."""
        n = self.n
        cap = height * self._max_coord
        rests = [[0] * len(self._scaled_forms) for _ in range(n)]
        if self.mode == GLOBAL:
            for k in range(n - 2, -1, -1):
                rests[k] = [r + min(0, a) * cap for r, a in zip(rests[k + 1], self._columns[k + 1])]
        return height * self.value_scale, cap, rests

    def _span(self, sums: Sequence[int], k: int, limits) -> Tuple[int, int]:
        """The interval lo..hi of coordinate k at a prefix of the region
        with the forms' partial sums ``sums``, in the integers nu(v) * L =
        max (global) or min (local) of the scaled forms <S_F, v>:

        * global: x is kept while some completion can keep every form at
          or below H, i.e. s_F + S_Fk * x + r_F <= H for all F, with r_F
          from ``rests``;
        * local: x is kept while some form with s_F <= H stays at or
          below H, which bounds x above only, as every S_Fk > 0.
        """
        top, cap, rests = limits
        column = self._columns[k]
        if self.mode != GLOBAL:
            return 0, min(cap, max(
                ((top - s) // a for s, a in zip(sums, column) if s <= top), default=-1))
        lo, hi = 0, cap
        for s, a, r in zip(sums, column, rests[k]):
            room = top - s - r
            if a > 0:
                hi = min(hi, room // a)
            elif a < 0:
                lo = max(lo, -(room // -a))
            elif room < 0:
                hi = -1
        return lo, hi

    def _nodes(self, limits, weights: Sequence[int]):
        """The region's prefixes of coordinates 0..n-3 (the empty one if
        n <= 2) in product order, as ``(code, partial sums)``."""
        depth = self.n - 2
        stack = [(0, 0, (0,) * len(self._scaled_forms))]
        while stack:
            k, code, sums = stack.pop()
            if k >= depth:
                yield code, sums
                continue
            lo, hi = self._span(sums, k, limits)
            column, w = self._columns[k], weights[k]
            for x in range(hi, lo - 1, -1):
                stack.append((k + 1, code + w * x, tuple(s + a * x for s, a in zip(sums, column))))

    def _intervals(self, sums: Sequence[int], limits):
        """At a prefix of :meth:`_nodes`, the last coordinate's interval
        at each x of the span of coordinate n - 2 (x = 0 alone if n = 1):
        ``(lo2, width, nlos, his)``, x = lo2 .. lo2 + width - 1 and the
        last coordinate -nlo .. hi.  Each form's room H - s_F - a_F * x
        is a ``range`` over the span, and room // b_F bounds the last
        coordinate above if b_F > 0 and, negated, below if b_F < 0
        (global); locally the bound is the max over the forms, as a form
        with s_F > H has a negative room.  A global form with b_F = 0
        bounds nothing: the span keeps its room >= 0."""
        n = self.n
        top, cap, _ = limits
        last = self._columns[-1]
        if n == 1:
            lo2, hi2, column = 0, 0, (0,) * len(last)
        else:
            lo2, hi2 = self._span(sums, n - 2, limits)
            column = self._columns[n - 2]
        width = hi2 + 1 - lo2
        if width <= 0:
            return lo2, 0, (), ()
        rooms = [
            (range(top - s - a * lo2, top - s - a * (hi2 + 1), -a) if a
             else repeat(top - s, width), b)
            for s, a, b in zip(sums, column, last)
        ]
        caps = repeat(cap, width)
        if self.mode == GLOBAL:
            his = [map(floordiv, room, repeat(b)) for room, b in rooms if b > 0]
            nlos = [map(floordiv, room, repeat(-b)) for room, b in rooms if b < 0]
            return (lo2, width, map(min, repeat(0, width), *nlos) if nlos else repeat(0, width),
                    map(min, caps, *his) if his else caps)
        his = [map(floordiv, room, repeat(b)) for room, b in rooms]
        return lo2, width, repeat(0, width), map(min, caps, map(max, *his) if len(his) > 1 else his[0])

    def _walk(self, height: int, weights: Optional[Sequence[int]] = None) -> dict:
        """The points with nu(v) <= height from one walk of the region, as
        {nu * L: codes} (their codes under ``weights``, in
        ``itertools.product`` order) or without ``weights`` as
        {nu * L: count}, keys ascending.  Along an interval of
        :meth:`_intervals` each form is a ``range``, and so are the codes;
        a value is the forms' max (global) or min (local)."""
        n = self.n
        limits = self._limits(height)
        pick = max if self.mode == GLOBAL else min
        last = self._columns[-1]
        column = self._columns[n - 2] if n > 1 else (0,) * len(last)
        w2, w1 = (weights[n - 2] if n > 1 else 0, weights[-1]) if weights else (0, 0)
        groups = defaultdict(list) if weights else Counter()
        for code, sums in self._nodes(limits, weights or (0,) * n):
            lo2, width, nlos, his = self._intervals(sums, limits)
            # the forms' partial sums at each x of the span
            starts = zip(*[range(s + a * lo2, s + a * (lo2 + width), a) if a else repeat(s, width)
                           for s, a in zip(sums, column)])
            base = code + w2 * lo2
            for sp, lo, stop in zip(starts, map(neg, nlos), map(add, his, repeat(1))):
                if lo < stop:
                    lines = [range(s + b * lo, s + b * stop, b) if b else repeat(s, stop - lo)
                             for s, b in zip(sp, last)]
                    keys = map(pick, *lines) if len(lines) > 1 else lines[0]
                    if weights:
                        for c, key in zip(range(base + w1 * lo, base + w1 * stop, w1), keys):
                            groups[key].append(c)
                    else:
                        groups.update(keys)
                base += w2
        return {key: groups[key] for key in sorted(groups)}

    def _number(self, height: int) -> int:
        """The number of points with nu(v) <= height: the sum of the
        lengths of the region's :meth:`_intervals`; no point is built."""
        limits = self._limits(height)
        number = 0
        for _, sums in self._nodes(limits, (0,) * self.n):
            _, width, nlos, his = self._intervals(sums, limits)
            number += width + sum(map(max, repeat(-1, width), map(add, his, nlos)))
        return number

    @functools.cached_property
    def _codes(self) -> dict:
        """The census: {nu * L: codes} of the points with nu(v) <= n, under
        :attr:`code_weights`, from one walk; built on first read."""
        return self._walk(self.n, self.code_weights)

    @functools.cached_property
    def _histogram(self) -> dict:
        """{nu * L: count} of the points with nu(v) <= n: the sizes of
        :attr:`_codes` once they are walked, else a count-only
        :meth:`_walk`, which builds no code; built on first read."""
        codes = self.__dict__.get("_codes")
        if codes is None:
            return self._walk(self.n)
        return {key: len(group) for key, group in codes.items()}

    def _below(self, groups: dict, height: int) -> dict:
        """The groups of the census ``groups`` with nu <= height."""
        top = height * self.value_scale
        return {key: group for key, group in groups.items() if key <= top}

    def _points(self, height: int) -> dict:
        """{nu * L: points} with nu(v) <= height, decoded from
        :attr:`_codes`, or above n from a walk kept by no one."""
        radix = self._radix(height)
        groups = (self._below(self._codes, height) if height <= self.n
                  else self._walk(height, _code_weights(self.n, radix)))
        return {key: _decode(codes, self.n, radix) for key, codes in groups.items()}

    def lattice_count(self, ell: int) -> int:
        """Number of lattice points v >= 0 with nu(v) <= ell: from the
        histogram up to n, above it from interval lengths."""
        _check_height(ell)
        if ell > self.n:
            return self._number(ell)
        return sum(self._below(self._histogram, ell).values())

    def value_histogram(self, bound: int) -> dict:
        """Multiset of Newton values <= bound, as {Fraction: multiplicity}."""
        _check_height(bound)
        groups = self._below(self._histogram, bound) if bound <= self.n else self._walk(bound)
        scale = self.value_scale
        return {Fraction(key, scale): count for key, count in groups.items()}

    def points_by_value(self, bound: int) -> dict:
        """Lattice points grouped by Newton value, for values <= bound."""
        _check_height(bound)
        scale = self.value_scale
        return {Fraction(key, scale): pts for key, pts in self._points(bound).items()}

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
    facets of conv(supp p) + R^n_{>=0}, those that hold no direction e_i.
    """
    check_convenient(p)
    n = p.nvars
    support = tuple(sorted(p.terms))
    if p.mode == GLOBAL:
        pts = list(dict.fromkeys(((0,) * n,) + support))
        directions = ()
        forbidden = 1 << pts.index((0,) * n)
    else:
        pts = support
        directions = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        forbidden = ((1 << n) - 1) << len(pts)

    hull_facets = enumerate_facets(pts, n, directions)
    if not hull_facets:
        raise InternalCheckError("support is not full dimensional")

    nb_hull = [hf for hf in hull_facets if not hf.contact & forbidden]
    if not nb_hull:
        raise InternalCheckError("no Newton-boundary facet found")

    # a hull facet is a primitive integer ray (h, c), so the denominator
    # of its level-one form h / c is |c|: L is the lcm of the |c|, and
    # L * h / c = h * (L // c) is the scaled form, whose sign comes out
    # right in local mode, where c < 0
    for hf in nb_hull:
        c = hf.level
        if p.mode == GLOBAL:
            if c <= 0:
                raise InternalCheckError("origin-avoiding facet at level <= 0")
        else:
            if c >= 0:
                raise InternalCheckError("compact facet with outward level >= 0")
            if any(h >= 0 for h in hf.normal):
                raise InternalCheckError("compact facet without strictly positive normal")
    scale = lcm(*(abs(hf.level) for hf in nb_hull))

    # the model vertices are the hull vertices on the Newton boundary,
    # sorted; model vertex k is hull point hull_index[k]
    boundary = functools.reduce(or_, (hf.contact for hf in nb_hull))
    hull_index = sorted(_bits(boundary & hull_vertices(len(pts), hull_facets)),
                        key=pts.__getitem__)
    vertices = tuple(pts[i] for i in hull_index)

    # every hull facet's contact as the mask of the model vertices on it
    masks = [
        sum(1 << k for k, i in enumerate(hull_index) if hf.contact >> i & 1)
        for hf in hull_facets
    ]
    # the facet forms sorted by L * u, which is the order of the u as L > 0
    forms = sorted(
        (tuple(h * (scale // hf.level) for h in hf.normal), mask)
        for hf, mask in zip(hull_facets, masks) if not hf.contact & forbidden
    )
    model = PolytopeModel(
        mode=p.mode,
        n=n,
        vertices=vertices,
        value_scale=scale,
        scaled_forms=[form for form, _ in forms],
        facet_masks=tuple(mask for _, mask in forms),
        # the walls: every hull facet as a bitmask over the model vertices
        walls=tuple(set(masks)),
    )

    # sanity: the defining inequalities really hold on the support, and
    # every model vertex, a support point, sits at level one
    values = {a: model._scaled_value(a) for a in support}
    for a, val in values.items():
        if p.mode == GLOBAL and val > scale:
            raise InternalCheckError(f"support point {a} outside the polytope")
        if p.mode == LOCAL and val < scale:
            raise InternalCheckError(f"support point {a} below the Newton boundary")
    for v in vertices:
        if values[v] != scale:
            raise InternalCheckError(f"vertex {v} does not sit at level one")
    return model
