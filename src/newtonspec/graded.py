"""The graded ring of the Newton filtration and its quotient by the
logarithmic-derivative relations.

Monomial classes multiply by the cone rule: the product of two classes
is the class of the product monomial when the exponents lie in a common
fan cone (the Newton value is additive there) and zero otherwise.  The
rule is read off cone keys (``PolytopeModel.cone_key``): two exponents
share a cone when their facet masks meet, and the product's degree is
the sum of their scaled Newton values, so the sum is never evaluated.
The relation classes are the leading parts of u_i * df/du_i.  Each is
scaled once to primitive integers, with the facet mask of each term,
and each degree's relations are sparse integer rows ``{col: int}``
(``_relation_rows``).  Two routes read them.  The Koszul route
(``koszul_hilbert_series``) takes each degree's dimension from the rank
alone, the pivot count of the forward elimination ``linalg.echelon``: a
third, linear-algebra route to the toric Newton spectrum.  Only
``quotient_basis`` back substitutes (``linalg.rref``): it keeps each
degree's reduced rows, the only ``Fraction`` rows, in a
:class:`DegreeBlock`, and a product's normal form is looked up in the
reduced rows of its degree's block, so structure-constant tables need
no further elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, lcm
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import DimensionMismatchError, HintError, TruncationError
from .poly import Poly, monomial_text
from .polytope import PolytopeModel
from .series import SpectrumSeries

Vec = Tuple[int, ...]


@dataclass(frozen=True)
class GradedClass:
    """A homogeneous element: rational combination of monomial classes.

    ``degree`` is the common Newton value of all monomials present, or
    None for the zero class.
    """

    terms: Tuple[Tuple[Vec, Fraction], ...]
    degree: Optional[Fraction]

    @classmethod
    def zero(cls) -> "GradedClass":
        return cls(terms=(), degree=None)

    @classmethod
    def of_monomial(cls, vec: Vec, degree: Fraction, coeff: Fraction = Fraction(1)) -> "GradedClass":
        if coeff == 0:
            return cls.zero()
        return cls(terms=((tuple(vec), Fraction(coeff)),), degree=degree)

    @classmethod
    def from_dict(cls, data: Dict[Vec, Fraction], degree) -> "GradedClass":
        items = tuple(sorted((v, c) for v, c in data.items() if c != 0))
        if not items:
            return cls.zero()
        return cls(terms=items, degree=degree)

    def is_zero(self) -> bool:
        return not self.terms

    def render(self, names: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        parts = []
        for vec, coeff in self.terms:
            mono = monomial_text(vec, names)
            mag = abs(coeff)
            if mono == "1":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)


def b_product(model: PolytopeModel, m1: Sequence[int], m2: Sequence[int]) -> GradedClass:
    """Product of two monomial classes in the graded ring.

    The class of the sum exponent when m1 and m2 share a cone, else zero.
    """
    key1, mask1 = model.cone_key(m1)
    key2, mask2 = model.cone_key(m2)
    if not mask1 & mask2:
        return GradedClass.zero()
    total = tuple(a + b for a, b in zip(m1, m2))
    return GradedClass.of_monomial(total, Fraction(key1 + key2, model.value_scale))


def leading_classes(p: Poly, model: PolytopeModel) -> List[GradedClass]:
    """Degree-one classes of the logarithmic derivatives u_i * df/du_i.

    Only the terms sitting on the Newton boundary (value exactly one)
    survive in the graded piece of degree one.
    """
    out = []
    for i in range(p.nvars):
        data: Dict[Vec, Fraction] = {}
        for vec, coeff in p.terms.items():
            if vec[i] == 0:
                continue
            if model.newton_value(vec) == 1:
                data[vec] = data.get(vec, Fraction(0)) + coeff * vec[i]
        out.append(GradedClass.from_dict(data, Fraction(1)))
    return out


# ---------------------------------------------------------------------------
# per-degree reduction blocks
# ---------------------------------------------------------------------------


@dataclass
class DegreeBlock:
    """Row-reduced relation data for a single degree of the quotient.

    Built once per degree by ``_build_block``; ``reduce`` reads normal
    forms off the reduced rows and performs no row operation.
    """

    degree: Fraction
    monomials: List[Vec]                 # column order used by the reduction
    index: Dict[Vec, int]
    rows: List[List[Fraction]]           # reduced row echelon relation rows
    pivots: Dict[int, int]               # pivot column -> its row in ``rows``
    basis: List[Vec]                     # non-pivot columns, in column order

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec: Vec, coeff: Fraction) -> Dict[Vec, Fraction]:
        """Express coeff * [vec] in the basis modulo the relation rows.

        A basis monomial is its own normal form.  A pivot monomial's row
        has 1 at its pivot and 0 at every other pivot, so the row says
        [vec] = -(row at the basis columns).
        """
        col = self.index[vec]
        r = self.pivots.get(col)
        if r is None:
            return {vec: Fraction(coeff)}
        row = self.rows[r]
        return {
            self.monomials[j]: -coeff * x for j, x in enumerate(row) if x and j != col
        }


def _leading_terms(model, leading):
    """Each leading class as a list of ``(vec, coeff, mask)`` terms.

    The coefficients are scaled once to primitive integers, which leaves
    the row space of the relations unchanged, and each term carries its
    facet mask.
    """
    out = []
    for cls in leading:
        den = lcm(*(c.denominator for _, c in cls.terms))
        coeffs = [c.numerator * (den // c.denominator) for _, c in cls.terms]
        g = gcd(*coeffs)
        out.append([
            (vec, x // g, model.cone_key(vec)[1])
            for (vec, _), x in zip(cls.terms, coeffs)
        ])
    return out


def _relation_rows(model, leading, monomials_here, monomials_prev, hint=None):
    """A block's column order and its relation rows.

    The columns are the monomials of the degree by total degree and then
    exponent, with the hint's monomials last.  The rows are the leading
    terms (``_leading_terms``) times the monomials one degree down, as
    sparse ``{col: int}`` rows; a term and a monomial share a cone when
    their facet masks meet.  Distinct terms land in distinct columns, so
    no entry cancels.
    """
    if hint is None:
        ordered = sorted(monomials_here, key=lambda m: (sum(m), m))
    else:
        hint_set = set(hint)
        ordered = sorted(
            (m for m in monomials_here if m not in hint_set), key=lambda m: (sum(m), m)
        ) + list(hint)
    index = {m: i for i, m in enumerate(ordered)}
    prev = [(m, model.cone_key(m)[1]) for m in monomials_prev]
    rows = []
    for terms in leading:
        for m_prev, prev_mask in prev:
            row = {
                index[tuple(map(add, vec, m_prev))]: c
                for vec, c, mask in terms if mask & prev_mask
            }
            if row:
                rows.append(row)
    return ordered, index, rows


def _build_block(model, leading, degree, monomials_here, monomials_prev, hint=None):
    ordered, index, raw = _relation_rows(
        model, leading, monomials_here, monomials_prev, hint
    )
    rows, pivot_cols = linalg.rref(raw, len(ordered))
    pivots = {col: r for r, col in enumerate(pivot_cols)}
    basis = [m for i, m in enumerate(ordered) if i not in pivots]
    return DegreeBlock(
        degree=degree,
        monomials=ordered,
        index=index,
        rows=rows,
        pivots=pivots,
        basis=basis,
    )


# ---------------------------------------------------------------------------
# quotient basis and product table
# ---------------------------------------------------------------------------


@dataclass
class GradedBasis:
    """Per-degree bases of the graded quotient with reduction data."""

    poly: Poly
    model: PolytopeModel
    spectrum: SpectrumSeries
    blocks: Dict[Fraction, DegreeBlock]
    elements: List[Vec]                  # basis monomials in table order

    def total_dimension(self) -> int:
        return sum(b.dim for b in self.blocks.values())


def quotient_basis(
    p: Poly,
    model: PolytopeModel,
    basis_hint: Optional[Sequence[Vec]] = None,
    spectrum: Optional[SpectrumSeries] = None,
) -> GradedBasis:
    """Monomial bases of the graded quotient, degree by degree.

    For every degree in the spectrum's support, the relation subspace
    generated in that degree is row reduced and the non-pivot monomials
    are taken as the basis; the dimension must match the spectrum
    coefficient.  A hint fixes the basis instead: the hint monomials are
    placed last in the column order, so the reduction must find all its
    pivots among the other monomials, and the surviving columns are
    exactly the hint.
    """
    if spectrum is None:
        from .spectrum import toric_spectrum

        spectrum = toric_spectrum(model)
    leading = _leading_terms(model, leading_classes(p, model))
    max_degree = spectrum.max_exponent()
    monomials = model.points_by_value(int(ceil(max_degree)))

    hint_by_degree: Dict[Fraction, List[Vec]] = {}
    if basis_hint is not None:
        total_expected = spectrum.eval_at_one()
        if len(basis_hint) != total_expected:
            raise HintError(
                f"basis hint lists {len(basis_hint)} monomials, expected {total_expected}"
            )
        seen = set()
        for vec in basis_hint:
            vec = tuple(vec)
            if vec in seen:
                raise HintError(f"hint monomial {monomial_text(vec, p.names)} is listed twice")
            seen.add(vec)
            deg = model.newton_value(vec)
            if spectrum.coefficient(deg) == 0:
                raise HintError(
                    f"hint monomial {vec} has degree {deg} outside the spectrum"
                )
            hint_by_degree.setdefault(deg, []).append(vec)

    blocks: Dict[Fraction, DegreeBlock] = {}
    for degree, expected in spectrum.items():
        here = monomials.get(degree, [])
        prev = monomials.get(degree - 1, [])
        hint = hint_by_degree.get(degree)
        if hint is not None:
            here_set = set(here)
            missing = [m for m in hint if m not in here_set]
            if missing:
                raise HintError(f"hint monomial {missing[0]} has no class of degree {degree}")
            if len(hint) != expected:
                raise HintError(
                    f"hint gives {len(hint)} monomials at degree {degree}, expected {expected}"
                )
        block = _build_block(model, leading, degree, here, prev, hint)
        if block.dim != expected:
            raise DimensionMismatchError(
                f"quotient dimension {block.dim} at degree {degree} does not match "
                f"spectrum coefficient {expected}"
            )
        if hint is not None and set(block.basis) != set(hint):
            raise HintError(
                f"hint monomials at degree {degree} do not span the quotient"
            )
        blocks[degree] = block

    if basis_hint is not None:
        elements = [tuple(v) for v in basis_hint]
    else:
        elements = []
        for degree in sorted(blocks):
            elements.extend(blocks[degree].basis)
    return GradedBasis(poly=p, model=model, spectrum=spectrum, blocks=blocks, elements=elements)


def reduce_product(basis: GradedBasis, m1: Vec, m2: Vec) -> GradedClass:
    """The product of two basis classes, expressed in the basis."""
    raw = b_product(basis.model, m1, m2)
    if raw.is_zero():
        return raw
    degree = raw.degree
    block = basis.blocks.get(degree)
    if block is None or block.dim == 0:
        return GradedClass.zero()
    (vec, coeff), = raw.terms
    return GradedClass.from_dict(block.reduce(vec, coeff), degree)


def product_table(basis: GradedBasis) -> List[List[GradedClass]]:
    """Structure-constant table over the basis monomials.

    Symmetric, with the degree of every nonzero entry equal to the sum of
    the operand degrees; entries whose degree falls outside the spectrum
    support are zero.  Each element's cone key is computed once.  The
    elements are walked in ascending scaled degree, each paired with
    itself and the ones after it, until the degree sum passes the top
    block; a pair whose masks meet is reduced in the block of its degree
    sum, and every other entry is one shared zero class.
    """
    model = basis.model
    elements = basis.elements
    keys = [model.cone_key(x) for x in elements]
    order = sorted(range(len(elements)), key=lambda i: keys[i][0])
    blocks = {block.degree * model.value_scale: block for block in basis.blocks.values()}
    top = max(blocks, default=-1)
    zero = GradedClass.zero()
    table = [[zero] * len(elements) for _ in elements]
    for pos, i in enumerate(order):
        key_i, mask_i = keys[i]
        x = elements[i]
        for j in order[pos:]:
            key_j, mask_j = keys[j]
            if key_i + key_j > top:
                break
            block = blocks.get(key_i + key_j)
            if block is None or not mask_i & mask_j:
                continue
            total = tuple(a + b for a, b in zip(x, elements[j]))
            table[i][j] = table[j][i] = GradedClass.from_dict(
                block.reduce(total, Fraction(1)), block.degree
            )
    return table


def multiply_in_basis(basis: GradedBasis, cls: GradedClass, vec: Vec) -> GradedClass:
    """Multiply a basis combination by one basis monomial, reduced."""
    acc: Dict[Vec, Fraction] = {}
    degree = None
    for m, c in cls.terms:
        part = reduce_product(basis, m, vec)
        if part.is_zero():
            continue
        degree = part.degree
        for v2, c2 in part.terms:
            acc[v2] = acc.get(v2, Fraction(0)) + c * c2
    return GradedClass.from_dict(acc, degree)


# ---------------------------------------------------------------------------
# independent Hilbert-series route
# ---------------------------------------------------------------------------


def koszul_hilbert_series(p: Poly, model: PolytopeModel) -> SpectrumSeries:
    """Hilbert series of the graded quotient by pure linear algebra.

    Over the Newton values <= n (a degree's relations only use it and the
    degree below, and every exponent lies in [0, n]), each degree's
    dimension is its number of monomials minus the rank of its relation
    rows, the same integer rows ``quotient_basis`` reduces.  The rank is
    the pivot count of the forward elimination alone
    (``linalg.echelon``); no row is back substituted and no ``Fraction``
    row is built.  The rank does not depend on the column order, so the
    default order serves.  The mass must be the normalized volume, else
    :class:`TruncationError`.  Uses neither the box formula nor the
    oracle, so it serves as an independent check.
    """
    mu = model.normalized_volume()
    leading = _leading_terms(model, leading_classes(p, model))
    monomials = model.points_by_value(model.n)
    dims: Dict[Fraction, int] = {}
    for degree in sorted(monomials):
        here = monomials[degree]
        prev = monomials.get(degree - 1, [])
        _, _, rows = _relation_rows(model, leading, here, prev)
        dim = len(here) - len(linalg.echelon(rows))
        if dim:
            dims[degree] = dim
    total = sum(dims.values())
    if total != mu:
        raise TruncationError(
            f"quotient dimensions sum to {total}, not the volume {mu}; "
            "the input looks Newton degenerate"
        )
    return SpectrumSeries(dims)
