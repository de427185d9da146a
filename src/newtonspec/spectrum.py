"""Toric Newton spectrum, spectrum at infinity, Milnor numbers.

Two independent routes compute the toric Newton spectrum of a convenient
nondegenerate polynomial from its polytope model:

* the box formula: a signed sum of half-open-parallelepiped weight
  polynomials over the faces of the Newton boundary not contained in
  coordinate hyperplanes (needs those faces to be simplices), and
* the generating-series oracle: (1-z)^n times the lattice sum of
  z^{nu(v)} over the points with nu(v) <= n + 1.  The coefficient at z^e
  of that product only uses Newton values <= e, so it is exact for every
  e <= n + 1, and every spectrum exponent lies in [0, n]: one lattice
  scan gives the whole spectrum.

The spectrum at infinity (global mode) and the local singularity
spectrum (local mode) follow by inclusion-exclusion over coordinate
restrictions, and the Milnor number is the mass of that series, cross
checked against the alternating sum of normalized volumes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .errors import MismatchError, NotSimplicialError, TruncationError
from .poly import Poly, restrict
from .polytope import PolytopeModel, build_model
from .series import SpectrumSeries, z_minus_one_pow


def toric_spectrum_box(model: PolytopeModel) -> SpectrumSeries:
    """Toric Newton spectrum via box points of Newton-boundary faces.

    Sums (z-1)^(n-1-dim F) * sum_{v in Box(F)} z^{nu(v)} over the faces F
    of the Newton boundary not contained in a coordinate hyperplane.
    """
    bad = [
        model.faces[i].vertex_indices
        for i in model.f_of_p
        if not model.faces[i].is_simplex
    ]
    if bad:
        raise NotSimplicialError(
            f"non-simplex face(s) {bad} prevent the box formula; use the oracle"
        )
    total = SpectrumSeries()
    n = model.n
    for i in model.f_of_p:
        face = model.faces[i]
        weight = z_minus_one_pow(n - 1 - face.dim)
        box_sum = SpectrumSeries((bp.nu, 1) for bp in model.box_points(face))
        total = total + weight * box_sum
    return total


def toric_spectrum_oracle(
    model: PolytopeModel, max_truncation: Optional[int] = None
) -> SpectrumSeries:
    """Toric Newton spectrum via the truncated generating series.

    Computes (1-z)^n * sum_{nu(v) <= T} z^{nu(v)} at T = n + 1 and keeps
    the exponents <= T.  The coefficient at z^e involves only the values
    e - j for j = 0..n, all <= e, so every kept coefficient equals that of
    the full lattice sum; as all exponents lie in [0, n], the kept part is
    the exact spectrum.  It must be nonnegative with mass equal to the
    normalized volume.  A ``max_truncation`` below n + 1 cannot hold the
    scan and raises :class:`TruncationError`, as does a failed mass check.
    """
    n = model.n
    t = n + 1
    if max_truncation is not None and max_truncation < t:
        raise TruncationError(
            f"the exact scan needs truncation {t}, above the cap {max_truncation}"
        )
    mu = model.normalized_volume()
    partial = SpectrumSeries(model.value_histogram(t))
    kept = partial.mul_one_minus_z_pow(n).truncate_above(t)
    if not (kept.is_nonnegative() and kept.eval_at_one() == mu):
        raise TruncationError(
            f"generating series at truncation {t} is not a spectrum of mass {mu}: {kept}"
        )
    return kept


def toric_spectrum(
    model: PolytopeModel, max_truncation: Optional[int] = None
) -> Tuple[SpectrumSeries, str]:
    """The spectrum together with the route used ('box' or 'oracle')."""
    if all(model.faces[i].is_simplex for i in model.f_of_p):
        return toric_spectrum_box(model), "box"
    return toric_spectrum_oracle(model, max_truncation), "oracle"


def _restriction_models(p: Poly) -> Dict[tuple, PolytopeModel]:
    """Models of every proper coordinate restriction, keyed by zero set."""
    models = {}
    for size in range(p.nvars):
        for subset in itertools.combinations(range(p.nvars), size):
            models[subset] = build_model(restrict(p, subset))
    return models


def spectrum_at_infinity(
    p: Poly,
    max_truncation: Optional[int] = None,
    _models: Optional[Dict[tuple, PolytopeModel]] = None,
) -> SpectrumSeries:
    """Spectrum at infinity (global) or local singularity spectrum (local).

    Alternating sum of the toric Newton spectra of all proper coordinate
    restrictions, the restriction to every variable contributing (-1)^n.
    """
    models = _restriction_models(p) if _models is None else _models
    total = SpectrumSeries()
    for subset, model in models.items():
        term = toric_spectrum(model, max_truncation)[0]
        total = total + term * ((-1) ** len(subset))
    total = total + SpectrumSeries.one() * ((-1) ** p.nvars)
    return total


def milnor_number(p: Poly, max_truncation: Optional[int] = None) -> int:
    """Milnor number by two independent routes that must agree.

    (a) the mass of the spectrum at infinity / local spectrum and
    (b) the alternating sum of normalized volumes of the coordinate
    restrictions (the classical volume formula), with the empty
    restriction counting 1.
    """
    models = _restriction_models(p)
    via_spectrum = spectrum_at_infinity(p, max_truncation, _models=models).eval_at_one()
    via_volumes = (-1) ** p.nvars
    for subset, model in models.items():
        via_volumes += (-1) ** len(subset) * model.normalized_volume()
    if via_spectrum != via_volumes:
        raise MismatchError(
            f"Milnor number mismatch: spectrum mass {via_spectrum} != "
            f"alternating volume sum {via_volumes}"
        )
    return via_spectrum


def boundary_lattice_points(model: PolytopeModel) -> int:
    """Number of lattice points with Newton value exactly one."""
    return model.value_histogram(1).get(Fraction(1), 0)
