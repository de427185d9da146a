"""The graded ring of the Newton filtration and its quotient by the
logarithmic-derivative relations.

Monomial classes multiply by the cone rule: the product of two classes
is the class of the product monomial when the exponents lie in a common
fan cone (the Newton value is additive there) and zero otherwise.  The
rule is read off cone keys (``PolytopeModel.cone_key``): two exponents
share a cone when their facet masks meet, and the product's degree is
the sum of their scaled Newton values, so the sum is never evaluated.
The relation classes are the leading parts of u_i * df/du_i.  Each is
scaled once to primitive integers, and each degree's relations are
sparse integer rows ``{col: int}`` over integer monomial codes
(``PolytopeModel.code_weights``), the form in which the census hands
out its points; sums of codes are the codes of the product monomials,
so no exponent tuple is added.  One builder, ``_relation_rows``, makes
them and takes each row of one entry as a pivot of its column, peeled
from the other rows (the singleton pivots of structured Gaussian
elimination).  Two routes read it.  The Koszul route
(``koszul_hilbert_series``) takes each degree's dimension from the rank
alone, the singletons plus the pivot count of the forward elimination
``linalg.echelon`` of the rows left: a third, linear-algebra route to
the toric Newton spectrum.  Only ``quotient_basis`` back substitutes
(``linalg.back_substitute`` of ``linalg.echelon``, on the integer rows),
in its column order, with a hint last: it keeps each degree's reduced
rows, the same sparse ``{pivot col: row}`` shape with ``Fraction``
entries, in a :class:`DegreeBlock`, and a product's normal form is read
off the nonzeros of one reduced row of its degree's block, so
structure-constant tables need no further elimination and no dense row
is built.  ``product_rows`` walks the pairs once, keys the blocks by the
cone keys' integer degree nu * L and reduces each distinct product
monomial once: the monomial fixes its degree, so a memo that lives for
one call, keyed by an integer code of the monomial, hands its class to
every cell whose operands sum to it.  It keeps only the nonzero cells of
the upper triangle, as sparse rows; ``product_table`` spreads them over
a dense grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import islice
from math import ceil
from operator import add, mul
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import DimensionMismatchError, HintError, TruncationError
from .poly import Poly, monomial_text
from .polytope import PolytopeModel, _decode
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
        """The zero class: one shared instance, as the class is frozen."""
        return _ZERO

    @classmethod
    def of_monomial(cls, vec: Vec, degree: Fraction, coeff: Fraction = Fraction(1)) -> "GradedClass":
        if coeff == 0:
            return cls.zero()
        return cls(terms=((tuple(vec), Fraction(coeff)),), degree=degree)

    @classmethod
    def from_dict(cls, data: Dict[Vec, Fraction], degree) -> "GradedClass":
        items = tuple(sorted((v, c) for v, c in data.items() if c != 0))
        if not items:
            return _ZERO
        return cls(terms=items, degree=degree)

    def is_zero(self) -> bool:
        return not self.terms

    def render(self, names: Sequence[str]) -> str:
        """The class as text; each magnitude is written from the
        numerator and denominator, as ``str(Fraction)`` writes it."""
        if not self.terms:
            return "0"
        parts = []
        for vec, coeff in self.terms:
            num, den = coeff.numerator, coeff.denominator
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            mono = monomial_text(vec, names)
            body = mag if mono == "1" else mono if mag == "1" else f"{mag}*{mono}"
            if parts:
                parts.append(("+ " if num > 0 else "- ") + body)
            else:
                parts.append(body if num > 0 else "-" + body)
        return " ".join(parts)


_ZERO = GradedClass(terms=(), degree=None)


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
    survive in the graded piece of degree one; the test reads the scaled
    value nu * L in the integers.
    """
    out = []
    for i in range(p.nvars):
        data: Dict[Vec, Fraction] = {}
        for vec, coeff in p.terms.items():
            if vec[i] == 0:
                continue
            if model._scaled_value(vec) == model.value_scale:
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
    rows: Dict[int, Dict[int, Fraction]]  # ``linalg.rref``: pivot col -> its row
    basis: List[Vec]                     # non-pivot columns, in column order

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec: Vec, coeff: Fraction) -> Dict[Vec, Fraction]:
        """Express coeff * [vec] in the basis modulo the relation rows.

        A basis monomial is its own normal form.  A pivot monomial's
        sparse row has 1 at its pivot and no other pivot column, so the
        row says [vec] = -(its nonzeros at the basis columns).
        """
        col = self.index[vec]
        row = self.rows.get(col)
        if row is None:
            return {vec: Fraction(coeff)}
        return {self.monomials[j]: -coeff * x for j, x in row.items() if j != col}


def _codes(weights, monomials):
    return [sum(map(mul, weights, m)) for m in monomials]


def _leading_terms(leading, weights):
    """Each leading class as a list of ``(code, coeff)`` terms.

    The coefficients are scaled once to primitive integers
    (``linalg.primitive_row``; a class has no zero term), which leaves the
    row space of the relations unchanged.
    """
    return [
        list(zip(_codes(weights, [v for v, _ in cls.terms]),
                 linalg.primitive_row([c for _, c in cls.terms]).values()))
        for cls in leading
    ]


def _relation_rows(leading, here, prev):
    """One degree's relation rows over monomial codes, singletons peeled.

    ``here`` is the set of the codes of the degree's monomials and
    ``prev`` holds those of the degree below.  A row is a leading class
    (``_leading_terms``) times a monomial m of ``prev``: the entries
    ``{code(t) + code(m): c}`` over the terms t that share a cone with m.
    A term has value one, so t and m share a cone exactly when
    nu(t + m) = nu(m) + 1, that is when t + m is a monomial of this
    degree; each such sum, and each monomial of the degree, has
    coordinates below the code's radix, so the test is whether
    code(t) + code(m) is in ``here``.  Distinct terms land in distinct
    columns, so no entry cancels.

    A row with one entry puts e_c in the row space, so column c is a
    pivot of every elimination, with e_c as its row in the reduced
    echelon form (the singleton pivots of structured Gaussian
    elimination, LaMacchia and Odlyzko, 1991).  Such a column is taken as
    its row is built, dropped from the rows built after it and peeled
    from the others until no new singleton appears; a class of one term
    gives only singletons, found by one set intersection.  Returns the
    singleton columns and the rows left, which miss them: the rank is the
    number of singletons plus the rank of the rows left.
    """
    singles = set()
    rows = []
    for terms in leading:
        if len(terms) == 1:
            (t, _), = terms
            singles.update(here.intersection(map(t.__add__, prev)))
            continue
        for code in prev:
            row = {j: c for t, c in terms if (j := t + code) in here and j not in singles}
            if len(row) > 1:
                rows.append(row)
            else:
                singles.update(row)
    while True:
        found = len(singles)
        kept = []
        for row in rows:
            if not singles.isdisjoint(row):
                row = {j: x for j, x in row.items() if j not in singles}
            if len(row) > 1:
                kept.append(row)
            else:
                singles.update(row)
        rows = kept
        if len(singles) == found:
            return singles, rows


def _build_block(leading, degree, monomials, codes, prev, last=()):
    """The block of one degree, from its monomials, their ``codes`` and
    the codes ``prev`` of the degree below.  Its columns are the
    monomials in code order, by total degree and then exponent, with the
    hint's codes ``last`` last; the singleton columns of
    ``_relation_rows`` are pivots whose reduced rows are unit rows, and
    the integer rows left go to ``linalg.echelon`` and then
    ``linalg.back_substitute``."""
    by_code = dict(zip(codes, monomials))
    order = sorted(by_code.keys() - set(last)) + list(last)
    column = {code: i for i, code in enumerate(order)}
    singles, raw = _relation_rows(leading, set(codes), prev)
    rows = linalg.back_substitute(
        linalg.echelon([{column[j]: x for j, x in row.items()} for row in raw]))
    rows.update((column[j], {column[j]: Fraction(1)}) for j in singles)
    ordered = [by_code[code] for code in order]
    return DegreeBlock(
        degree=degree,
        monomials=ordered,
        index={m: i for i, m in enumerate(ordered)},
        rows=rows,
        basis=[m for i, m in enumerate(ordered) if i not in rows],
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

    @cached_property
    def cone_keys(self) -> List[Tuple[int, int]]:
        """``model.cone_key`` of each element, in table order: the
        gradings nu * L and facet masks that the table's walk reads."""
        return [self.model.cone_key(x) for x in self.elements]


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

    Dimensions are checked only at the spectrum's degrees, so a
    Newton-degenerate input whose quotient is too large at some other
    degree passes unseen: ``u^2+v^2+2*u*v`` gets a basis of 4 monomials,
    the volume, where ``check`` finds the quotient dimensions summing to
    6.  Seeing it would take a rank at every other degree of the census.
    """
    if spectrum is None:
        from .spectrum import toric_spectrum

        spectrum = toric_spectrum(model)
    weights = model.code_weights
    leading = _leading_terms(leading_classes(p, model), weights)
    scale = model.value_scale
    # the census's code groups and the hint's monomials, keyed by the
    # integers nu * L
    height = int(ceil(spectrum.max_exponent()))
    groups = model._point_codes(height)

    hint_by_key: Dict[int, List[Vec]] = {}
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
                    f"hint monomial {monomial_text(vec, p.names)} has degree {deg} "
                    "outside the spectrum"
                )
            hint_by_key.setdefault(model.cone_key(vec)[0], []).append(vec)

    degrees = [(degree, expected, degree.numerator * (scale // degree.denominator))
               for degree, expected in spectrum.items()]
    # the blocks' monomials are the one place that reads exponents: the
    # codes of every degree, decoded in one pass
    decoded = iter(_decode([code for *_, key in degrees for code in groups.get(key, ())],
                           model.n, model._radix(height)))
    blocks: Dict[Fraction, DegreeBlock] = {}
    for degree, expected, key in degrees:
        codes = groups.get(key, [])
        here = list(islice(decoded, len(codes)))
        hint = hint_by_key.get(key)
        if hint is not None:
            here_set = set(here)
            missing = [m for m in hint if m not in here_set]
            if missing:
                raise HintError(
                    f"hint monomial {monomial_text(missing[0], p.names)} has no class "
                    f"of degree {degree}"
                )
            if len(hint) != expected:
                raise HintError(
                    f"hint gives {len(hint)} monomials at degree {degree}, expected {expected}"
                )
        last = () if hint is None else _codes(weights, hint)
        block = _build_block(leading, degree, here, codes, groups.get(key - scale, ()), last)
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


def product_rows(basis: GradedBasis) -> List[Dict[int, GradedClass]]:
    """The nonzero cells of the upper triangle of the symmetric product
    table, as sparse rows: row i is ``{j: class}`` over the j >= i whose
    product of elements i and j is not zero.

    A nonzero entry's degree is the sum of the operand degrees, and one
    outside the spectrum support is zero.  The blocks are keyed by the
    integer scaled degree nu * L of ``GradedBasis.cone_keys``.  The
    elements are walked in ascending scaled degree, each paired with
    itself and the ones after it, until the degree sum passes the top
    block.  A pair whose masks meet has a product monomial, which fixes
    the degree, so a call-local memo maps each product monomial to its
    class: the block reduces a monomial once, and every cell whose
    operands sum to it holds the same object.  The memo is keyed by the
    integer monomial codes of the relation rows (``code_weights``): a
    product in a block has Newton value at most n, so the code of the
    product monomial is the sum of its operands' codes, and the
    exponent-sum tuple is built only on a memo miss.  A zero normal
    form, like every pair the walk skips, leaves no cell.
    """
    model = basis.model
    elements = basis.elements
    scale = model.value_scale
    keys = basis.cone_keys
    codes = _codes(model.code_weights, elements)
    order = sorted(range(len(elements)), key=lambda i: keys[i][0])
    walk = [(*keys[i], codes[i], i) for i in order]
    blocks = {
        degree.numerator * (scale // degree.denominator): block
        for degree, block in basis.blocks.items()
    }
    top = max(blocks, default=-1)
    zero = GradedClass.zero()
    rows: List[Dict[int, GradedClass]] = [{} for _ in elements]
    normal_forms: Dict[int, GradedClass] = {}
    for pos, (key_i, mask_i, code_i, i) in enumerate(walk):
        row = rows[i]
        for key_j, mask_j, code_j, j in walk[pos:]:
            key = key_i + key_j
            if key > top:
                break
            if not mask_i & mask_j:
                continue
            block = blocks.get(key)
            if block is None:
                continue
            code = code_i + code_j
            cls = normal_forms.get(code)
            if cls is None:
                total = tuple(map(add, elements[i], elements[j]))
                cls = normal_forms[code] = GradedClass.from_dict(
                    block.reduce(total, 1), block.degree
                )
            if cls is zero:
                continue
            if i <= j:
                row[j] = cls
            else:
                rows[j][i] = cls
    return rows


def product_table(basis: GradedBasis) -> List[List[GradedClass]]:
    """Structure-constant table over the basis monomials: the dense
    symmetric grid of ``product_rows``, each other cell the zero class."""
    zero = GradedClass.zero()
    table = [[zero] * len(basis.elements) for _ in basis.elements]
    for i, row in enumerate(product_rows(basis)):
        for j, cls in row.items():
            table[i][j] = table[j][i] = cls
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
    rows, the rows ``quotient_basis`` reduces, over the integer monomial
    codes of ``PolytopeModel.code_weights``: the census hands its points
    out as these codes, and no exponent tuple is built.  The degrees are
    the census's integer keys nu * L, so the degree below is the key
    minus L.  The rank is the number of singleton columns that
    ``_relation_rows`` peels plus the pivot count of the forward
    elimination (``linalg.echelon``) of the rows left, fed shortest first:
    a rank does not depend on the pivot order, no row is back substituted
    and no ``Fraction`` row is built.  The elimination stays per degree,
    which bounds the rows held at once.  The mass must be the normalized
    volume, else :class:`TruncationError`.  Uses neither the box formula
    nor the oracle, so it serves as an independent check.
    """
    mu = model.normalized_volume()
    leading = _leading_terms(leading_classes(p, model), model.code_weights)
    scale = model.value_scale
    dims: Dict[int, int] = {}
    groups = model._point_codes(model.n)
    for key, here in groups.items():
        singles, rows = _relation_rows(leading, set(here), groups.get(key - scale, ()))
        dim = len(here) - len(singles) - len(linalg.echelon(sorted(rows, key=len)))
        if dim:
            dims[key] = dim
    total = sum(dims.values())
    if total != mu:
        raise TruncationError(
            f"quotient dimensions sum to {total}, not the volume {mu}; "
            "the input looks Newton degenerate"
        )
    return SpectrumSeries(dims, scale)
