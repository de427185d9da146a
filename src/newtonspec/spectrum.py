"""Toric Newton spectrum, spectrum at infinity, Milnor numbers.

The toric Newton spectrum comes from the box formula, summed over the
simplices of the pulling triangulation of the Newton boundary that lie
outside the coordinate hyperplanes.  nu is linear on the cone over each
simplex and every vertex sits at level one, so the formula holds on any
fan (Stapledon's weighted Ehrhart theory).  Every box sum reads the
model's one walk of the open boxes of the top simplices
(:attr:`PolytopeModel.open_boxes`): a half-open box is the disjoint
union of the open boxes of its simplex's faces, so the formula is the
sum of each open box's value histogram times the weights of the
simplices that contain it, its star in the triangulation.  Every box
sum, the orbifold sum of :mod:`newtonspec.ehrhart` included, is one
:func:`star_sum`: the histogram of each open box G times
sum_k c_k (z - 1)^k, c the star counts of G, each weight built once
per distinct count tuple.  Only the counts differ from sum to sum.

Two routes stay independent of the boxes, and ``check`` and the tests
compare each with the box formula.  The generating-series oracle,
(1-z)^n times the sum of z^{nu(v)} over the lattice points with
nu(v) <= n, counts the census, which reads the facet forms alone; the
Koszul route (:func:`newtonspec.graded.koszul_hilbert_series`) takes
the ranks of the relation matrices degree by degree.

The spectrum at infinity (global mode) and the local singularity
spectrum (local mode) are the alternating sum of the toric spectra of
the coordinate restrictions.  A restriction's Newton boundary is the
part of p's in its coordinate subspace, so one pass over the simplices
S of p's triangulation sums them all, S counting for the restriction to
the coordinates where it does not vanish: the same histogram, with
signed weights.  The Milnor number is the mass of that series, cross
checked against the alternating sum of normalized volumes
(Kouchnirenko), by determinants over the same simplices, the
unrestricted volume being the model's normalized volume.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from typing import Callable, Optional, Sequence

from . import linalg
from .errors import MismatchError, TruncationError
from .polytope import PolytopeModel, _bits
from .series import SpectrumSeries


def star_polynomial(counts: Sequence[int]) -> SpectrumSeries:
    """The sum of counts[k] * (z - 1)^k, expanded binomially: the weight
    of an open box from the star counts of its simplex or cone."""
    return SpectrumSeries(
        ((j, count * comb(k, j) * (-1) ** (k - j))
         for k, count in enumerate(counts) if count for j in range(k + 1)),
        1,
    )


def star_sum(model: PolytopeModel, star_counts: Callable[[int], Sequence[int]],
             constant: int = 0) -> SpectrumSeries:
    """The sum of OB_G(z) * sum_k c_k (z - 1)^k over the open boxes G of
    :attr:`PolytopeModel.open_boxes`, c = ``star_counts(G)``, plus
    ``constant``.  Each weight is built once per distinct count tuple.
    The series draws its terms one at a time, so no list holds them."""
    scale = model.value_scale
    weights: dict = {}   # a count tuple -> its weight's terms over L
    boxes = []
    for g, values in model.open_boxes.items():
        counts = tuple(star_counts(g))
        weight = weights.get(counts)
        if weight is None:
            weight = weights[counts] = list(star_polynomial(counts).numerators(scale))
        boxes.append((values, weight))
    terms = ((v + e, count * c) for values, weight in boxes
             for v, count in values.items() for e, c in weight)
    return SpectrumSeries(chain([(0, constant)], terms), scale)


def _box_sum(model: PolytopeModel, restrictions: bool) -> SpectrumSeries:
    """Sums (-1)^|Z| (z-1)^(n-|Z|-1-dim S) * sum_{v in Box(S)} z^{nu(v)}
    over the simplices S of the triangulation, Z the coordinates on which
    S vanishes: over those with Z empty, or with ``restrictions`` over all
    of them and (-1)^n.

    Box(S) is the disjoint union of the open boxes of the faces G of S,
    so the sum is a :func:`star_sum`: each simplex S in the star of G
    (:attr:`PolytopeModel.triangulation_stars`) counts (-1)^|Z| at
    k = n - |Z| - 1 - dim S.
    """
    n = model.n
    stars = model.triangulation_stars

    def signed_counts(g: int) -> list:
        counts = [0] * n
        for (zeros, dim), number in stars[g].items():
            if restrictions or not zeros:
                counts[n - zeros - 1 - dim] += (-1) ** zeros * number
        return counts

    return star_sum(model, signed_counts, (-1) ** n if restrictions else 0)


def toric_spectrum_box(model: PolytopeModel) -> SpectrumSeries:
    """Toric Newton spectrum via box points of the boundary triangulation:
    the box formula over the simplices not in a coordinate hyperplane."""
    return _box_sum(model, restrictions=False)


def _truncated_product(counts: dict, n: int, scale: int) -> SpectrumSeries:
    """(1-z)^n times the sum of count * z^(e / scale) over ``counts``,
    {e: count} with e >= 0, cut to the exponents <= n: only the terms of
    e times the j-th term of (1-z)^n with e + j * scale <= n * scale are
    built."""
    top = n * scale
    row = [(j * scale, (-1) ** j * comb(n, j)) for j in range(n + 1)]
    return SpectrumSeries(
        ((e + step, count * w) for e, count in counts.items()
         for step, w in row[:max(0, (top - e) // scale + 1)]),
        scale,
    )


def toric_spectrum_oracle(model: PolytopeModel) -> SpectrumSeries:
    """Toric Newton spectrum via the truncated generating series.

    Computes (1-z)^n * sum_{nu(v) <= T} z^{nu(v)} at T = n and keeps the
    exponents <= T.  The coefficient at z^e involves only the values
    e - j for j = 0..n, all <= e, so every kept coefficient equals that of
    the full lattice sum; as all exponents lie in [0, n], the kept part is
    the exact spectrum.  Only the kept terms are built
    (:func:`_truncated_product`).  It must be nonnegative with mass equal
    to the normalized volume, or :class:`TruncationError` is raised: a
    spectrum term lost above T would show in the mass.  The counts are
    the census histogram, which reads the facet forms alone.
    """
    n = model.n
    mu = model.normalized_volume()
    kept = _truncated_product(model._histogram, n, model.value_scale)
    if not (kept.is_nonnegative() and kept.eval_at_one() == mu):
        raise TruncationError(
            f"generating series at truncation {n} is not a spectrum of mass {mu}: {kept}"
        )
    return kept


def toric_spectrum(model: PolytopeModel) -> SpectrumSeries:
    """The toric Newton spectrum, by the box formula."""
    return toric_spectrum_box(model)


def spectrum_at_infinity(model: PolytopeModel) -> SpectrumSeries:
    """Spectrum at infinity (global) or local singularity spectrum (local).

    Alternating sum of the toric Newton spectra of all proper coordinate
    restrictions, the restriction to every variable contributing (-1)^n:
    the box formula over every simplex of the triangulation.
    """
    return _box_sum(model, restrictions=True)


def milnor_number(model: PolytopeModel, _at_infinity: Optional[SpectrumSeries] = None) -> int:
    """Milnor number by two independent routes that must agree.

    (a) the mass of the spectrum at infinity / local spectrum and
    (b) the alternating sum of normalized volumes of the coordinate
    restrictions (the classical volume formula), with the empty
    restriction counting 1.  A restriction's volume is the sum of |det|
    over its top simplices, those S with dim S = n - 1 - |Z|, on the
    coordinates outside Z; with Z empty it is the model's normalized
    volume.  A caller that already holds the spectrum at infinity passes
    it in.
    """
    if _at_infinity is None:
        _at_infinity = spectrum_at_infinity(model)
    via_spectrum = _at_infinity.eval_at_one()
    n = model.n
    via_volumes = (-1) ** n + model.normalized_volume()
    for mask, zeros in model._simplices:
        if zeros and mask.bit_count() == n - len(zeros):
            rows = [[x for j, x in enumerate(model.vertices[i]) if j not in zeros]
                    for i in _bits(mask)]
            via_volumes += (-1) ** len(zeros) * abs(linalg.int_det(rows))
    if via_spectrum != via_volumes:
        raise MismatchError(
            f"Milnor number mismatch: spectrum mass {via_spectrum} != "
            f"alternating volume sum {via_volumes}"
        )
    return via_spectrum


def boundary_lattice_points(model: PolytopeModel) -> int:
    """Number of lattice points with Newton value exactly one."""
    return model._histogram.get(model.value_scale, 0)
