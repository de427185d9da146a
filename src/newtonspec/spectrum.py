"""Toric Newton spectrum, spectrum at infinity, Milnor numbers.

The toric Newton spectrum comes from the box formula, summed over the
simplices of the pulling triangulation of the Newton boundary that lie
outside the coordinate hyperplanes.  nu is linear on the cone over each
simplex and every vertex sits at level one, so the formula holds on any
fan (Stapledon's weighted Ehrhart theory).  The generating-series
oracle, (1-z)^n times the sum of z^{nu(v)} over the lattice points with
nu(v) <= n + 1, is an independent check run by ``check`` and the tests.

The spectrum at infinity (global mode) and the local singularity
spectrum (local mode) follow by inclusion-exclusion over coordinate
restrictions, and the Milnor number is the mass of that series, cross
checked against the alternating sum of normalized volumes.
"""

from __future__ import annotations

import itertools
from math import lcm
from typing import Dict, Optional

from .errors import MismatchError, TruncationError
from .poly import Poly, restrict
from .polytope import PolytopeModel, build_model
from .series import SpectrumSeries, z_minus_one_pow


def toric_spectrum_box(model: PolytopeModel) -> SpectrumSeries:
    """Toric Newton spectrum via box points of the boundary triangulation.

    Sums (z-1)^(n-1-dim S) * sum_{v in Box(S)} z^{nu(v)} over the
    simplices S of the triangulation not contained in a coordinate
    hyperplane.  The exponents are summed as integers over L, the
    model's ``value_scale``.
    """
    n = model.n
    scale = model.value_scale
    terms = []
    for simplex in model.triangulation():
        if simplex.in_coordinate_hyperplane:
            continue
        weight = list(z_minus_one_pow(n - 1 - simplex.dim).numerators(scale))
        terms.extend(
            (bp.value + e, c) for bp in model.box_points(simplex) for e, c in weight
        )
    return SpectrumSeries(terms, scale)


def toric_spectrum_oracle(model: PolytopeModel) -> SpectrumSeries:
    """Toric Newton spectrum via the truncated generating series.

    Computes (1-z)^n * sum_{nu(v) <= T} z^{nu(v)} at T = n + 1 and keeps
    the exponents <= T.  The coefficient at z^e involves only the values
    e - j for j = 0..n, all <= e, so every kept coefficient equals that of
    the full lattice sum; as all exponents lie in [0, n], the kept part is
    the exact spectrum.  It must be nonnegative with mass equal to the
    normalized volume, or :class:`TruncationError` is raised.
    """
    n = model.n
    t = n + 1
    mu = model.normalized_volume()
    partial = SpectrumSeries(
        {key: len(pts) for key, pts in model._census(t).items()}, model.value_scale
    )
    kept = partial.mul_one_minus_z_pow(n).truncate_above(t)
    if not (kept.is_nonnegative() and kept.eval_at_one() == mu):
        raise TruncationError(
            f"generating series at truncation {t} is not a spectrum of mass {mu}: {kept}"
        )
    return kept


def toric_spectrum(model: PolytopeModel) -> SpectrumSeries:
    """The toric Newton spectrum, by the box formula."""
    return toric_spectrum_box(model)


def _restriction_models(p: Poly) -> Dict[tuple, PolytopeModel]:
    """Models of every proper coordinate restriction, keyed by zero set;
    the empty zero set keys the model of p itself, built first so a
    polynomial with no variables is rejected as in build_model."""
    models = {(): build_model(p)}
    for size in range(1, p.nvars):
        for subset in itertools.combinations(range(p.nvars), size):
            models[subset] = build_model(restrict(p, subset))
    return models


def spectrum_at_infinity(
    p: Poly, _models: Optional[Dict[tuple, PolytopeModel]] = None
) -> SpectrumSeries:
    """Spectrum at infinity (global) or local singularity spectrum (local).

    Alternating sum of the toric Newton spectra of all proper coordinate
    restrictions, the restriction to every variable contributing (-1)^n.
    The terms are summed over the lcm of the spectra's denominators.
    """
    models = _restriction_models(p) if _models is None else _models
    spectra = [((-1) ** len(subset), toric_spectrum(model)) for subset, model in models.items()]
    den = lcm(*(s.denominator for _, s in spectra))
    terms = [(0, (-1) ** p.nvars)]
    for sign, s in spectra:
        terms.extend((k, sign * c) for k, c in s.numerators(den))
    return SpectrumSeries(terms, den)


def milnor_number(
    p: Poly,
    _models: Optional[Dict[tuple, PolytopeModel]] = None,
    _at_infinity: Optional[SpectrumSeries] = None,
) -> int:
    """Milnor number by two independent routes that must agree.

    (a) the mass of the spectrum at infinity / local spectrum and
    (b) the alternating sum of normalized volumes of the coordinate
    restrictions (the classical volume formula), with the empty
    restriction counting 1.  A caller that already holds the restriction
    models and the spectrum at infinity of p passes them in.
    """
    models = _restriction_models(p) if _models is None else _models
    if _at_infinity is None:
        _at_infinity = spectrum_at_infinity(p, _models=models)
    via_spectrum = _at_infinity.eval_at_one()
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
    return len(model._census(1).get(model.value_scale, ()))
