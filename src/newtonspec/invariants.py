"""Runtime invariant suite backing the ``check`` subcommand.

Each check recomputes one identity the theory promises and reports
pass/fail.  Checks that only make sense on simplicial fans are skipped
(and reported as such) when the fan is not simplicial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .ehrhart import (
    delta_from_counts,
    delta_from_spectrum,
    ehrhart_polynomial,
    hodge_deligne,
    orbifold_dimensions,
)
from .errors import NewtonSpecError
from .graded import koszul_hilbert_series
from .poly import Poly
from .series import SpectrumSeries
from .spectrum import (
    _restriction_models,
    boundary_lattice_points,
    milnor_number,
    spectrum_at_infinity,
    toric_spectrum,
    toric_spectrum_oracle,
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    skipped: bool = False


def run_checks(p: Poly) -> List[CheckResult]:
    results: List[CheckResult] = []

    def add(name, ok, detail=""):
        results.append(CheckResult(name, bool(ok), detail))

    def skip(name, why):
        results.append(CheckResult(name, True, why, skipped=True))

    models = _restriction_models(p)
    model = models[()]
    n = model.n
    mu = model.normalized_volume()
    spectrum = toric_spectrum(model)
    oracle = toric_spectrum_oracle(model)

    if model.simplicial_fan:
        add("box formula equals generating-series oracle", spectrum == oracle,
            f"box {spectrum} vs oracle {oracle}")
    else:
        skip("box formula equals generating-series oracle", "fan not simplicial")

    koszul = koszul_hilbert_series(p, model)
    add("oracle equals per-degree linear algebra", koszul == oracle,
        f"linear algebra {koszul} vs oracle {oracle}")

    add("spectrum mass equals normalized volume", spectrum.eval_at_one() == mu,
        f"mass {spectrum.eval_at_one()} vs volume {mu}")
    add("exponent zero has multiplicity one", spectrum.coefficient(0) == 1)

    if model.simplicial_fan:
        add("exponents lie in [0, n)",
            all(0 <= e < n for e in spectrum.exponents()))
    else:
        skip("exponents lie in [0, n)", "fan not simplicial")

    sub_one = SpectrumSeries(
        {e: m for e, m in model.value_histogram(1).items() if e < 1}
    )
    add("sub-one part counts lattice points below the boundary",
        spectrum.restrict_below(1) == sub_one)

    boundary = boundary_lattice_points(model)
    add("coefficient of z counts boundary lattice points minus n",
        spectrum.coefficient(1) == boundary - n,
        f"coefficient {spectrum.coefficient(1)} vs {boundary} - {n}")

    at_inf = spectrum_at_infinity(p, _models=models)
    add("spectrum at infinity has positive exponents",
        all(e > 0 for e in at_inf.exponents()))
    add("spectrum at infinity is symmetric about n/2", at_inf.reflect(n) == at_inf,
        f"{at_inf} vs reflected {at_inf.reflect(n)}")
    try:
        mu_f = milnor_number(p, _models=models, _at_infinity=at_inf)
        add("Milnor number routes agree", True, f"mu = {mu_f}")
    except NewtonSpecError as exc:
        add("Milnor number routes agree", False, str(exc))

    d_spec = delta_from_spectrum(spectrum, n)
    d_counts = delta_from_counts(model)
    add("delta from spectrum equals delta from counts",
        d_spec == d_counts, f"{d_spec.entries} vs {d_counts.entries}")
    add("delta_0 = 1 and total delta = normalized volume",
        d_spec.entries[0] == 1 and d_spec.total() == mu)
    ehr = ehrhart_polynomial(d_counts)
    add("Ehrhart polynomial matches direct counting",
        all(ehr.evaluate(ell) == model.lattice_count(ell) for ell in range(n + 2)))

    if model.simplicial_fan:
        e0 = hodge_deligne(model, (0,) * n, relative=False)
        e0_rel = hodge_deligne(model, (0,) * n, relative=True)
        add("Hodge-Deligne duality z^n E0(1/z) = E0*",
            e0.reflect(n) == e0_rel, f"{e0} vs relative {e0_rel}")
        orb = orbifold_dimensions(model)
        add("orbifold dimensions equal the spectrum", orb == spectrum,
            f"{orb} vs {spectrum}")
        shifts_ok = True
        for i in model.f_of_p:
            face = model.faces[i]
            for bp in model.box_points(face):
                for j in range(n - face.dim):
                    if spectrum.coefficient(bp.nu + j) < 1:
                        shifts_ok = False
        add("integral shifts of box values stay in the spectrum", shifts_ok)
    else:
        skip("Hodge-Deligne duality z^n E0(1/z) = E0*", "fan not simplicial")
        skip("orbifold dimensions equal the spectrum", "fan not simplicial")
        skip("integral shifts of box values stay in the spectrum", "fan not simplicial")

    return results
