"""Ehrhart delta-vectors, Ehrhart polynomials, Hodge-Deligne polynomials
and orbifold cohomology dimensions.

The delta-vector comes out of the toric Newton spectrum by bucketing the
exponents into the half-open intervals (k-1, k], and independently out
of the lattice-point counts L(0..n) by the standard inversion of the
Ehrhart generating identity; the two must agree.  On a simplicial fan,
the spectrum is also recovered from the box points: every lattice point
of the union of the half-open boxes contributes the relative
Hodge-Deligne polynomial of its smallest cone shifted by its Newton
value, and the coefficient at alpha is the dimension of the
degree-2*alpha orbifold cohomology of the stack of the fan.  That union
is the disjoint union of the open boxes of the cones, and the points of
one open box share their smallest cone, so each cone's polynomial is
built once and no point's cone is looked up.

A cone's Hodge-Deligne polynomials E_sigma and E*_sigma are read off the
star counts of the face lattice (:attr:`PolytopeModel.face_stars`), one
pass over the lattice per model.  The orbifold sum is the
:func:`newtonspec.spectrum.star_sum` of the box formula with other
weights: on a simplicial fan the triangulation is the face lattice, and
the two sums differ only in their star counts, those of the face lattice
here and those of the triangulation there, so the orbifold check of
``check`` compares those two star counts over one histogram.  The
per-point terms of ``orbifold`` and the box-point union read the points
of the top simplices' boxes (:meth:`PolytopeModel.box_points`), each
point grouped by its open box as :attr:`PolytopeModel.open_boxes`
groups it; no other face's box is walked.  The delta-vector from the
lattice counts reads the census alone, and stays independent of the
boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import List, Sequence, Tuple

from .errors import ExponentRangeError, NegativeDeltaError, NotSimplicialError
from .polytope import PolytopeModel
from .series import SpectrumSeries
from .spectrum import star_polynomial, star_sum

Vec = Tuple[int, ...]


@dataclass(frozen=True)
class DeltaVector:
    """Numerator coefficients of the Ehrhart generating series."""

    entries: Tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.entries) - 1

    def total(self) -> int:
        return sum(self.entries)

    def __str__(self) -> str:
        return str(SpectrumSeries(enumerate(self.entries), 1))

    def to_json(self) -> list:
        return list(self.entries)


def delta_from_spectrum(s: SpectrumSeries, n: int) -> DeltaVector:
    """delta_k = number of spectrum exponents in the interval (k-1, k]."""
    den = s.denominator
    entries = [0] * (n + 1)
    for num, c in s.numerators():
        if num < 0:
            raise ExponentRangeError(f"negative spectrum exponent {Fraction(num, den)}")
        k = -(-num // den)  # ceil(num / den)
        if k > n:
            raise ExponentRangeError(
                f"spectrum exponent {Fraction(num, den)} exceeds the dimension {n}"
            )
        entries[k] += c
    return DeltaVector(tuple(entries))


def delta_from_counts(model: PolytopeModel) -> DeltaVector:
    """delta-vector by inverting the generating identity on L(0), ..., L(n)."""
    n = model.n
    scale = model.value_scale
    # one census at height n: a point of value nu counts in L(ell) from ell = ceil(nu) on
    first = [0] * (n + 1)
    for key, count in model._histogram.items():
        first[-(-key // scale)] += count
    counts = list(accumulate(first))
    entries = []
    for k in range(n + 1):
        val = sum((-1) ** j * comb(n + 1, j) * counts[k - j] for j in range(k + 1))
        if val < 0:
            raise NegativeDeltaError(f"delta_{k} = {val} < 0; lattice counts are wrong")
        entries.append(val)
    return DeltaVector(tuple(entries))


@dataclass(frozen=True)
class EhrhartPolynomial:
    """L(z) = sum_k delta_k * C(z + n - k, n), kept in the binomial basis."""

    delta: DeltaVector

    @property
    def n(self) -> int:
        return self.delta.n

    def evaluate(self, ell: int) -> int:
        n = self.n
        return sum(
            d * comb(ell + n - k, n)
            for k, d in enumerate(self.delta.entries)
            if ell + n - k >= 0
        )

    def __str__(self) -> str:
        n = self.n
        parts = []
        for k, d in enumerate(self.delta.entries):
            if d == 0:
                continue
            shift = n - k
            arg = "z" if shift == 0 else f"z+{shift}"
            term = f"C({arg},{n})"
            parts.append(term if d == 1 else f"{d} {term}")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> list:
        n = self.n
        return [
            {"coefficient": d, "shift": n - k, "order": n}
            for k, d in enumerate(self.delta.entries)
            if d != 0
        ]


def ehrhart_polynomial(delta: DeltaVector) -> EhrhartPolynomial:
    return EhrhartPolynomial(delta)


# ---------------------------------------------------------------------------
# Hodge-Deligne polynomials and orbifold dimensions
# ---------------------------------------------------------------------------


def hodge_deligne(model: PolytopeModel, v: Sequence[int], relative: bool = False) -> SpectrumSeries:
    """Alternating cone count over the fan cones containing sigma(v).

    ``relative`` restricts the sum to the cones not contained in the
    coordinate hyperplanes; the zero cone is a member of the full fan
    only.  For v = 0 this is the (relative) Hodge-Deligne polynomial of
    the toric variety of the fan itself.  The sum of (z - 1)^(n - 1 -
    dim f) over the faces f that contain sigma(v) is read off the star
    counts of the face lattice, taken once per model, at the vertex
    bitmask of sigma(v), 0 for the zero cone.
    """
    v = model._exponent(v)
    sigma = model._cone_mask(v) if any(v) else 0
    every, outside = model.face_stars[sigma]
    counts = list(outside if relative else every)
    if not relative and not sigma:
        # the zero cone belongs to the full fan only
        counts[model.n] = 1
    return star_polynomial(counts)


def _open_box_points(model: PolytopeModel) -> dict:
    """The points of each open box of the triangulation, ``{G: [BoxPoint]}``,
    G the simplex's vertex bitmask, from the boxes of the top simplices.

    A box point v = sum q_l * b_l lies in the open box of the simplex
    spanned by the vertices with q_l > 0, so the boxes of the top
    simplices hold every open box; each is taken from the first top
    simplex that holds it, as in :attr:`PolytopeModel.open_boxes`.  On a
    simplicial fan the triangulation is the face lattice, G is the
    smallest cone of its points and the origin is the open box of the
    zero cone, mask 0.
    """
    boxes: dict = {}
    for piece in model._top_simplices:
        found: dict = {}
        for bp in model.box_points(model._face(sum(1 << i for i in piece), len(piece) - 1)):
            g = sum(1 << i for i, x in zip(piece, bp.dq) if x)
            if g not in boxes:
                found.setdefault(g, []).append(bp)
        boxes.update(found)
    return boxes


def box_point_union(model: PolytopeModel) -> List[Tuple[Vec, int]]:
    """The union of the half-open boxes of all faces outside the
    coordinate hyperplanes, as (point, nu * value_scale) pairs sorted by
    value and then point.  Every face lies in a facet, so the union is
    the disjoint union of the open boxes of all faces, read off the boxes
    of the top simplices.  The fan must be simplicial."""
    _require_simplicial(model)
    return sorted(
        ((bp.point, bp.value) for points in _open_box_points(model).values() for bp in points),
        key=lambda pv: (pv[1], pv[0]),
    )


def _require_simplicial(model: PolytopeModel) -> None:
    if not model.simplicial_fan:
        raise NotSimplicialError("orbifold dimensions need a simplicial fan")


def orbifold_contributions(model: PolytopeModel) -> List[Tuple[Vec, SpectrumSeries]]:
    """Per-box-point terms E*_v(z) * z^{nu(v)}, sorted by (value, point).

    E*_v is the relative Hodge-Deligne polynomial of the smallest cone of
    v, the face whose open box holds v, built once per cone from the star
    counts of the face lattice.  The fan must be simplicial.
    """
    _require_simplicial(model)
    stars = model.face_stars
    scale = model.value_scale
    out = []
    for g, points in _open_box_points(model).items():
        e_rel = star_polynomial(stars[g][1])
        out.extend((bp.value, bp.point, e_rel) for bp in points)
    out.sort(key=lambda t: t[:2])
    return [(point, e_rel.shift(value, scale)) for value, point, e_rel in out]


def orbifold_dimensions(model: PolytopeModel) -> SpectrumSeries:
    """Graded dimensions of the orbifold cohomology of the stacky fan.

    The sum over the cones sigma of E*_sigma(z) times the sum of
    z^{nu(v)} over the open box of sigma: a :func:`star_sum` of the open
    boxes, the triangulation of a simplicial fan being its face lattice,
    each weighted by the relative star counts of its cone in the face
    lattice.  Coefficient-for-coefficient equal to the toric Newton
    spectrum on simplicial fans.  The fan must be simplicial.
    """
    _require_simplicial(model)
    stars = model.face_stars
    return star_sum(model, lambda g: stars[g][1])
