"""Runtime invariant suite backing the ``check`` subcommand.

Each check recomputes one identity the theory promises and reports
pass/fail.  Checks that only make sense on simplicial fans are skipped
(and reported as such) when the fan is not simplicial.

The box formula, the spectrum at infinity, the orbifold sum and the
integral-shift check all read one value histogram of the open boxes
(:attr:`PolytopeModel.open_boxes`).  So the orbifold check compares two
star counts over that one histogram: those of the face lattice (the
relative Hodge-Deligne polynomials) against those of the triangulation
(the box formula's weights); it is no separate walk of the boxes.  The
independent routes are the generating-series oracle, which counts the
lattice points below the Newton boundary from the facet forms alone,
and the Koszul route, which takes ranks of the relation matrices; each
is compared with the box formula.
"""

from __future__ import annotations

from typing import Callable, List, Union

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
from .polytope import build_model
from .series import SpectrumSeries
from .spectrum import (
    boundary_lattice_points,
    milnor_number,
    spectrum_at_infinity,
    toric_spectrum,
    toric_spectrum_oracle,
)


class CheckResult:
    """One check's outcome.  ``detail`` is a str or a function that
    builds it; a function runs when the detail is first read, so text
    output, which prints the details of FAIL and SKIP lines only, formats
    no series for a passing check."""

    __slots__ = ("name", "ok", "skipped", "_detail")

    def __init__(self, name: str, ok: bool, detail: Union[str, Callable[[], str]] = "",
                 skipped: bool = False):
        self.name = name
        self.ok = ok
        self.skipped = skipped
        self._detail = detail

    @property
    def detail(self) -> str:
        if callable(self._detail):
            self._detail = self._detail()
        return self._detail

    def _fields(self) -> tuple:
        return self.name, self.ok, self.detail, self.skipped

    def __eq__(self, other) -> bool:
        if not isinstance(other, CheckResult):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "CheckResult(name={!r}, ok={!r}, detail={!r}, skipped={!r})".format(
            *self._fields())


def run_checks(p: Poly) -> List[CheckResult]:
    results: List[CheckResult] = []

    def add(name, ok, detail=""):
        results.append(CheckResult(name, bool(ok), detail))

    def skip(name, why):
        results.append(CheckResult(name, True, why, skipped=True))

    model = build_model(p)
    n = model.n
    scale = model.value_scale
    mu = model.normalized_volume()
    spectrum = toric_spectrum(model)
    koszul = koszul_hilbert_series(p, model)
    oracle = toric_spectrum_oracle(model)

    if model.simplicial_fan:
        add("box formula equals generating-series oracle", spectrum == oracle,
            lambda: f"box {spectrum} vs oracle {oracle}")
    else:
        skip("box formula equals generating-series oracle", "fan not simplicial")

    add("oracle equals per-degree linear algebra", koszul == oracle,
        lambda: f"linear algebra {koszul} vs oracle {oracle}")

    add("spectrum mass equals normalized volume", spectrum.eval_at_one() == mu,
        lambda: f"mass {spectrum.eval_at_one()} vs volume {mu}")
    add("exponent zero has multiplicity one", spectrum.coefficient(0) == 1)

    if model.simplicial_fan:
        add("exponents lie in [0, n)",
            all(0 <= k < n * spectrum.denominator for k, _ in spectrum.numerators()))
    else:
        skip("exponents lie in [0, n)", "fan not simplicial")

    sub_one = SpectrumSeries(
        {key: count for key, count in model._histogram.items() if key < scale}, scale
    )
    add("sub-one part counts lattice points below the boundary",
        spectrum.restrict_below(1) == sub_one)

    boundary = boundary_lattice_points(model)
    add("coefficient of z counts boundary lattice points minus n",
        spectrum.coefficient(1) == boundary - n,
        lambda: f"coefficient {spectrum.coefficient(1)} vs {boundary} - {n}")

    at_inf = spectrum_at_infinity(model)
    add("spectrum at infinity has positive exponents",
        all(k > 0 for k, _ in at_inf.numerators()))
    add("spectrum at infinity is symmetric about n/2", at_inf.reflect(n) == at_inf,
        lambda: f"{at_inf} vs reflected {at_inf.reflect(n)}")
    try:
        mu_f = milnor_number(model, _at_infinity=at_inf)
        add("Milnor number routes agree", True, lambda: f"mu = {mu_f}")
    except NewtonSpecError as exc:
        add("Milnor number routes agree", False, str(exc))

    d_spec = delta_from_spectrum(spectrum, n)
    d_counts = delta_from_counts(model)
    add("delta from spectrum equals delta from counts",
        d_spec == d_counts, lambda: f"{d_spec.entries} vs {d_counts.entries}")
    add("delta_0 = 1 and total delta = normalized volume",
        d_spec.entries[0] == 1 and d_spec.total() == mu)
    ehr = ehrhart_polynomial(d_counts)
    add("Ehrhart polynomial matches direct counting",
        all(ehr.evaluate(ell) == model.lattice_count(ell) for ell in range(n + 2)))

    if model.simplicial_fan:
        e0 = hodge_deligne(model, (0,) * n, relative=False)
        e0_rel = hodge_deligne(model, (0,) * n, relative=True)
        add("Hodge-Deligne duality z^n E0(1/z) = E0*",
            e0.reflect(n) == e0_rel, lambda: f"{e0} vs relative {e0_rel}")
        orb = orbifold_dimensions(model)
        add("orbifold dimensions equal the spectrum", orb == spectrum,
            lambda: f"{orb} vs {spectrum}")
        # a value of the open box of G recurs at + j for j < n - dim S, S
        # any simplex outside the coordinate hyperplanes that contains G
        stars = model.triangulation_stars
        shifts_ok = True
        for g, values in model.open_boxes.items():
            low = min((dim for zeros, dim in stars[g] if not zeros), default=n)
            for value in values:
                for j in range(n - low):
                    if spectrum.coefficient(value + j * scale, scale) < 1:
                        shifts_ok = False
        add("integral shifts of box values stay in the spectrum", shifts_ok)
    else:
        skip("Hodge-Deligne duality z^n E0(1/z) = E0*", "fan not simplicial")
        skip("orbifold dimensions equal the spectrum", "fan not simplicial")
        skip("integral shifts of box values stay in the spectrum", "fan not simplicial")

    return results
