"""Exact spectra and lattice combinatorics of Newton polytopes.

From a convenient polynomial (or power-series germ) the package builds
the Newton polytope or polyhedron with exact rational arithmetic and
computes the toric Newton spectrum by three independent routes, the
spectrum at infinity / local singularity spectrum, Milnor numbers,
graded-quotient product tables, orbifold cohomology dimensions and the
Ehrhart delta-vector.
"""

from .ehrhart import (
    DeltaVector,
    EhrhartPolynomial,
    box_point_union,
    delta_from_counts,
    delta_from_spectrum,
    ehrhart_polynomial,
    hodge_deligne,
    orbifold_contributions,
    orbifold_dimensions,
)
from .errors import (
    DimensionMismatchError,
    ExponentRangeError,
    HintError,
    InputError,
    InternalCheckError,
    MismatchError,
    NegativeDeltaError,
    NewtonSpecError,
    NotConvenientError,
    NotSimplexError,
    NotSimplicialError,
    PolynomialSyntaxError,
    TruncationError,
)
from .graded import (
    GradedBasis,
    GradedClass,
    b_product,
    koszul_hilbert_series,
    leading_classes,
    product_table,
    quotient_basis,
)
from .invariants import CheckResult, run_checks
from .poly import (
    GLOBAL,
    LOCAL,
    Poly,
    check_convenient,
    monomial_text,
    parse_monomial,
    parse_polynomial,
)
from .polytope import BoxPoint, Face, FacetForm, PolytopeModel, build_model
from .series import SpectrumSeries, one_minus_z_pow, z_minus_one_pow
from .spectrum import (
    boundary_lattice_points,
    milnor_number,
    spectrum_at_infinity,
    toric_spectrum,
    toric_spectrum_box,
    toric_spectrum_oracle,
)

__version__ = "0.1.0"
