"""Toric Newton spectrum, spectrum at infinity, Milnor numbers.

The toric Newton spectrum comes from the box formula, summed over the
simplices of the pulling triangulation of the Newton boundary that lie
outside the coordinate hyperplanes.  nu is linear on the cone over each
simplex and every vertex sits at level one, so the formula holds on any
fan (Stapledon's weighted Ehrhart theory).  The generating-series
oracle, (1-z)^n times the sum of z^{nu(v)} over the lattice points with
nu(v) <= n, is an independent check run by ``check`` and the tests.

The spectrum at infinity (global mode) and the local singularity
spectrum (local mode) are the alternating sum of the toric spectra of
the coordinate restrictions.  A restriction's Newton boundary is the
part of p's in its coordinate subspace, so one pass over the simplices
S of p's triangulation sums them all, S counting for the restriction to
the coordinates where it does not vanish.  The Milnor number is the mass
of that series, cross checked against the alternating sum of normalized
volumes (Kouchnirenko), by determinants over the same simplices.
"""

from __future__ import annotations

from typing import Optional

from . import linalg
from .errors import MismatchError, TruncationError
from .polytope import PolytopeModel
from .series import SpectrumSeries, z_minus_one_pow


def _box_sum(model: PolytopeModel, restrictions: bool) -> SpectrumSeries:
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
    for simplex in model.triangulation():
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


def toric_spectrum_box(model: PolytopeModel) -> SpectrumSeries:
    """Toric Newton spectrum via box points of the boundary triangulation:
    the box formula over the simplices not in a coordinate hyperplane."""
    return _box_sum(model, restrictions=False)


def toric_spectrum_oracle(model: PolytopeModel) -> SpectrumSeries:
    """Toric Newton spectrum via the truncated generating series.

    Computes (1-z)^n * sum_{nu(v) <= T} z^{nu(v)} at T = n and keeps the
    exponents <= T.  The coefficient at z^e involves only the values
    e - j for j = 0..n, all <= e, so every kept coefficient equals that of
    the full lattice sum; as all exponents lie in [0, n], the kept part is
    the exact spectrum.  It must be nonnegative with mass equal to the
    normalized volume, or :class:`TruncationError` is raised: a spectrum
    term lost above T would show in the mass.  The census counts are read
    off the points the Koszul route stores at height n, when it has run.
    """
    n = model.n
    mu = model.normalized_volume()
    partial = SpectrumSeries(model._counts(n), model.value_scale)
    kept = partial.mul_one_minus_z_pow(n).truncate_above(n)
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
    coordinates outside Z.  A caller that already holds the spectrum at
    infinity passes it in.
    """
    if _at_infinity is None:
        _at_infinity = spectrum_at_infinity(model)
    via_spectrum = _at_infinity.eval_at_one()
    n = model.n
    via_volumes = (-1) ** n
    for simplex in model.triangulation():
        zeros = model._zero_coordinates(sum(1 << i for i in simplex.vertex_indices))
        if simplex.dim == n - 1 - len(zeros):
            rows = [[x for j, x in enumerate(model.vertices[i]) if j not in zeros]
                    for i in simplex.vertex_indices]
            via_volumes += (-1) ** len(zeros) * abs(linalg.int_det(rows))
    if via_spectrum != via_volumes:
        raise MismatchError(
            f"Milnor number mismatch: spectrum mass {via_spectrum} != "
            f"alternating volume sum {via_volumes}"
        )
    return via_spectrum


def boundary_lattice_points(model: PolytopeModel) -> int:
    """Number of lattice points with Newton value exactly one."""
    return model._counts(1).get(model.value_scale, 0)
