"""Shared fixtures: the worked examples and a randomized corpus.

The corpus fixture computes every route once per entry (model, box
formula, generating-series oracle, per-degree linear algebra, spectrum
at infinity, Milnor number, delta-vectors, orbifold dimensions where the
fan is simplicial) so the cross-route and property tests can share the
work.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

import pytest

from newtonspec import (
    GLOBAL,
    LOCAL,
    InputError,
    Poly,
    PolytopeModel,
    SpectrumSeries,
    build_model,
    delta_from_counts,
    delta_from_spectrum,
    koszul_hilbert_series,
    milnor_number,
    orbifold_dimensions,
    parse_polynomial,
    spectrum_at_infinity,
    toric_spectrum_box,
    toric_spectrum_oracle,
)

CORPUS_SEED = 20250811
N_TWO_VAR = 36
N_THREE_VAR = 16

# hand-built supports whose hulls have a four-vertex facet; coefficients
# are randomized to stay Newton nondegenerate
NON_SIMPLICIAL_SUPPORTS = [
    [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)],
    [(2, 0, 0), (0, 2, 0), (2, 0, 2), (0, 2, 2), (0, 0, 3)],
    [(1, 0, 0), (0, 2, 0), (1, 0, 2), (0, 2, 2), (0, 0, 3)],
    [(3, 0, 0), (0, 3, 0), (0, 0, 2), (3, 0, 1), (0, 3, 1)],
]


# convenient polynomials in four variables; the last has a non-simplicial fan
FOUR_VARIABLE_POLYS = [
    "u^4 + v^4 + w^4 + x^4",
    "3*u^3 + 5*v^2 + 7*w^3 + 11*x^4 + 13*u*v*x^2 + 17*u^2*w",
    "2*u^2 + 3*v^3 + 5*w^4 + 7*x^2 + 11*u*v*w + 13*v*w*x",
]

# local germs (power series at the origin) in two and three variables
LOCAL_GERMS = [
    "x^5 + x^2*y^2 + y^5",
    "x^4 + y^5 + z^6 + x*y*z^2 + x^2*y^2",
]


def series(*terms) -> SpectrumSeries:
    """Build a series from (exponent, coefficient) pairs; exponents may
    be strings like '1/2'."""
    return SpectrumSeries({Fraction(e): c for e, c in terms})


def random_convenient_poly(rng: random.Random, n: int) -> Poly:
    names = tuple("uvw"[:n])
    terms = {}
    for i in range(n):
        e = [0] * n
        e[i] = rng.randint(1, 6)
        terms[tuple(e)] = Fraction(rng.randint(1, 999983))
    for _ in range(rng.randint(1, n + 2)):
        v = tuple(rng.randint(0, 6) for _ in range(n))
        if any(v):
            terms[v] = Fraction(rng.randint(1, 999983))
    return Poly(names=names, terms=terms, mode=GLOBAL)


def restrict(p: Poly, zero_set: Iterable[int]) -> Poly:
    """Set the variables with indices in ``zero_set`` to zero.

    Keeps the terms whose exponents vanish on ``zero_set`` and re-indexes
    them over the surviving variables.  Restricting away every variable
    is rejected; the caller owns that convention.  The package reads every
    restriction off one triangulation; the tests build the restrictions'
    own models from this as the reference.
    """
    zeros = frozenset(zero_set)
    bad = [i for i in zeros if not 0 <= i < p.nvars]
    if bad:
        raise InputError(f"variable index {bad[0]} out of range")
    if len(zeros) == p.nvars:
        raise InputError("cannot restrict away every variable")
    keep = [i for i in range(p.nvars) if i not in zeros]
    terms = {}
    for vec, coeff in p.terms.items():
        if all(vec[i] == 0 for i in zeros):
            terms[tuple(vec[i] for i in keep)] = coeff
    return Poly(names=tuple(p.names[i] for i in keep), terms=terms, mode=p.mode)

@dataclass
class CorpusEntry:
    poly: Poly
    model: PolytopeModel
    mu: int
    oracle: SpectrumSeries
    koszul: SpectrumSeries
    box: SpectrumSeries
    orbifold: Optional[SpectrumSeries]
    at_infinity: SpectrumSeries
    milnor: int
    delta_spec: tuple
    delta_counts: tuple


def _compute_entry(p: Poly) -> CorpusEntry:
    model = build_model(p)
    oracle = toric_spectrum_oracle(model)
    orbifold = None
    if model.simplicial_fan:
        orbifold = orbifold_dimensions(model)
    return CorpusEntry(
        poly=p,
        model=model,
        mu=model.normalized_volume(),
        oracle=oracle,
        koszul=koszul_hilbert_series(p, model),
        box=toric_spectrum_box(model),
        orbifold=orbifold,
        at_infinity=spectrum_at_infinity(model),
        milnor=milnor_number(model),
        delta_spec=delta_from_spectrum(oracle, model.n).entries,
        delta_counts=delta_from_counts(model).entries,
    )


def acceptance_polys():
    """The 56 polynomials of the acceptance corpus, in corpus order."""
    rng = random.Random(CORPUS_SEED)
    polys = [random_convenient_poly(rng, 2) for _ in range(N_TWO_VAR)]
    polys += [random_convenient_poly(rng, 3) for _ in range(N_THREE_VAR)]
    for sup in NON_SIMPLICIAL_SUPPORTS:
        terms = {v: Fraction(rng.randint(1, 999983)) for v in sup}
        polys.append(Poly(names=("u", "v", "w"), terms=terms, mode=GLOBAL))
    return polys


@pytest.fixture(scope="session")
def corpus():
    return [_compute_entry(p) for p in acceptance_polys()]


@pytest.fixture(scope="session")
def square_poly():
    return parse_polynomial("u^2 + u^2*v^2 + v^2")


@pytest.fixture(scope="session")
def square_model(square_poly):
    return build_model(square_poly)


@pytest.fixture(scope="session")
def threed_poly():
    return parse_polynomial("u + v + w + u^2*v^2*w^2 + v^2*w^2")


@pytest.fixture(scope="session")
def threed_model(threed_poly):
    return build_model(threed_poly)


@pytest.fixture(scope="session")
def quintic_poly():
    return parse_polynomial("x^5 + x^2*y^2 + y^5", mode=LOCAL)


@pytest.fixture(scope="session")
def quintic_model(quintic_poly):
    return build_model(quintic_poly)


SQUARE_SPECTRUM = (("0", 1), ("1/2", 3), ("1", 3), ("3/2", 1))
SQUARE_AT_INFINITY = (("1/2", 1), ("1", 3), ("3/2", 1))
THREED_SPECTRUM = (("0", 1), ("1/2", 2), ("1", 3), ("3/2", 3), ("2", 2), ("5/2", 1))
THREED_AT_INFINITY = (("1/2", 1), ("1", 2), ("3/2", 2), ("2", 2), ("5/2", 1))
QUINTIC_SPECTRUM = (
    ("0", 1), ("1/5", 2), ("2/5", 2), ("1/2", 1), ("3/5", 2), ("7/10", 2),
    ("4/5", 2), ("9/10", 2), ("1", 1), ("11/10", 2), ("13/10", 2), ("3/2", 1),
)
QUINTIC_AT_INFINITY = (
    ("1/2", 1), ("7/10", 2), ("9/10", 2), ("1", 1), ("11/10", 2),
    ("13/10", 2), ("3/2", 1),
)
