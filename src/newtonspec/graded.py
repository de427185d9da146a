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
(``PolytopeModel.encode``), the form in which the census hands out its
points; sums of codes are the codes of the product monomials, so no
exponent tuple is added.  One builder, ``_relation_rows``, makes
them and takes each row of one entry as a pivot of its column, peeled
from the other rows (the singleton pivots of structured Gaussian
elimination).  Two routes read it.  The Koszul route
(``koszul_hilbert_series``) takes each degree's dimension from the rank
alone, the singletons plus the pivot count of the forward elimination
``linalg.echelon`` of the rows left: a third, linear-algebra route to
the toric Newton spectrum.  ``quotient_basis`` keeps, per degree of the
toric Newton spectrum (keyed by the integer nu * L), a
:class:`DegreeBlock` over the codes, holding only what a normal form
reads: its singleton columns, whose normal form is zero, the reduced
rows of the pivots of the rows left, and a unit class per basis column.
A block whose singletons close it has no row left and costs no
elimination; only the rows left go to ``linalg.echelon`` and
``linalg.back_substitute``, with a hint last in the column order.  Only
the basis codes are decoded to exponents (``PolytopeModel.decode``), in
one batch, and each basis element gets one unit class, its monomial
with coefficient one.  One method,
``DegreeBlock.normal_form``, reads a normal form off a block by the
code of its monomial: a basis code gives that element's unit class, a
singleton code zero, and only a pivot code builds a class, off its
reduced row.  ``product_rows`` walks the pairs once, on each element's
``PolytopeModel.cone_key``, and reads each product's normal form by the
code of the product monomial, the sum of its operands' codes, memoised
for the call, so no exponent tuple is summed and no ``Fraction`` is
multiplied.  It keeps only the nonzero cells of the upper triangle, as
sparse rows; ``product_table`` spreads them over a dense grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import DimensionMismatchError, HintError, TruncationError
from .poly import Poly, monomial_text
from .polytope import PolytopeModel
from .series import SpectrumSeries, exponent_text
from .spectrum import toric_spectrum

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

_ONE = Fraction(1)


class DegreeBlock:
    """Row-reduced relation data for a single degree of the quotient, over
    the integer monomial codes of its columns: only what a normal form
    reads.

    Every column is a singleton of ``_relation_rows`` (``singles``: its
    normal form is zero), a pivot of the rows left (``pivots``: its
    reduced row ``{code: Fraction}``, 1 at the pivot) or a basis column.
    ``units`` maps each basis code, in column order, to its monomial's
    class with coefficient one, built once and shared by every product
    that lands on it.  ``normal_form`` is the one reader of a normal
    form; ``reduce`` scales its class.
    """

    def __init__(self, model, degree, singles, pivots, units):
        self.degree = degree
        self.units = units               # basis code -> its unit class
        self.singles = singles           # singleton codes
        self.pivots = pivots             # pivot code -> its reduced row
        self._model = model

    @property
    def dim(self) -> int:
        return len(self.units)

    def normal_form(self, code: int) -> GradedClass:
        """The class of the block's monomial of code ``code`` in the basis,
        read off the reduced rows with no row operation.

        A basis code gives its unit class, the object ``units`` holds, and
        a singleton the shared zero class.  A pivot's reduced row has 1 at
        its pivot and no other pivot or singleton column, so the row says
        the monomial is minus its nonzeros at the basis columns.  A code
        that is not a column of the block raises ``KeyError``.
        """
        unit = self.units.get(code)
        if unit is not None:
            return unit
        if code in self.singles:
            return _ZERO
        row = self.pivots[code]
        terms = tuple(sorted((self.units[j].terms[0][0], -x)
                             for j, x in row.items() if j != code))
        return GradedClass(terms, self.degree) if terms else _ZERO

    def reduce(self, vec: Vec, coeff: Fraction) -> Dict[Vec, Fraction]:
        """Express coeff * [vec] in the basis modulo the relation rows, as
        ``{basis monomial: coefficient}``; ``vec`` is a monomial of the
        block's degree (:meth:`normal_form`)."""
        cls = self.normal_form(self._model.encode(vec))
        return {m: coeff * x for m, x in cls.terms}


def _leading_terms(p, model):
    """The classes of ``leading_classes`` as lists of ``(code, coeff)``
    terms over the monomial codes, each scaled to primitive integers,
    which leaves the row space of the relations unchanged.

    Each term of the Newton boundary (scaled value L) is found once, and
    its coefficient read once as an integer over the least common
    denominator of them all, so no ``Fraction`` is multiplied; the terms
    of a class are in exponent order, as in ``leading_classes``.
    """
    scale = model.value_scale
    boundary = sorted((vec, c) for vec, c in p.terms.items()
                      if model._scaled_value(vec) == scale)
    den = lcm(*[c.denominator for _, c in boundary])
    terms = [(vec, model.encode(vec), c.numerator * (den // c.denominator))
             for vec, c in boundary]
    out = []
    for i in range(p.nvars):
        row = [(code, x * vec[i]) for vec, code, x in terms if vec[i]]
        g = gcd(*[x for _, x in row])
        out.append([(code, x // g) for code, x in row] if g > 1 else row)
    return out


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


def _build_block(leading, codes, prev, last):
    """The reduction of one degree, from the ``codes`` of its monomials and
    the codes ``prev`` of the degree below: ``(singles, pivots, basis)``.
    The columns are in code order, by total degree and then exponent, with
    the hint's codes ``last`` (empty without a hint) last.  The singleton
    columns of ``_relation_rows`` are pivots whose reduced rows are unit
    rows, so only the integer rows left, when there are any, go through a
    column map to ``linalg.echelon`` and ``linalg.back_substitute``;
    ``pivots`` holds their reduced rows over the codes.  The basis codes
    are the columns that are neither, in column order."""
    here = set(codes)
    order = sorted(here - set(last)) + list(last) if last else sorted(codes)
    singles, raw = _relation_rows(leading, here, prev)
    pivots = {}
    if raw:
        column = {code: i for i, code in enumerate(order)}
        reduced = linalg.back_substitute(
            linalg.echelon([{column[j]: x for j, x in row.items()} for row in raw]))
        pivots = {order[col]: {order[j]: x for j, x in row.items()}
                  for col, row in reduced.items()}
    basis = [code for code in order if code not in singles and code not in pivots]
    return singles, pivots, basis


# ---------------------------------------------------------------------------
# quotient basis and product table
# ---------------------------------------------------------------------------


@dataclass
class GradedBasis:
    """Per-degree bases of the graded quotient with reduction data.

    ``by_key`` holds the blocks in ascending degree, keyed by the integer
    degree nu * L.  ``codes``, ``keys`` and ``units`` run parallel to
    ``elements``: each element's monomial code, the integer degree of its
    block and its unit class, the one its block's ``units`` holds.
    """

    model: PolytopeModel
    by_key: Dict[int, DegreeBlock]
    elements: List[Vec]                  # basis monomials in table order
    codes: List[int]
    keys: List[int]
    units: List[GradedClass]


def quotient_basis(
    p: Poly,
    model: PolytopeModel,
    basis_hint: Optional[Sequence[Vec]] = None,
) -> GradedBasis:
    """Monomial bases of the graded quotient, degree by degree.

    For every degree in the support of the toric Newton spectrum
    (``toric_spectrum``), the relation subspace generated in that degree
    is row reduced and the non-pivot monomials are taken as the basis;
    the dimension must match the spectrum coefficient.  A hint fixes the
    basis instead: the hint monomials are placed last in the column
    order, so the reduction must find all its pivots among the other
    monomials, and the surviving columns are exactly the hint.  The
    degrees are the spectrum's integer numerators nu * L, the keys of the
    census's code groups; each block reduces over the codes, and only the
    basis codes are decoded, in one pass.  The table order is ascending
    degree, or the hint's order; either way each element is read off its
    block's unit class.

    Dimensions are checked only at the spectrum's degrees, so a
    Newton-degenerate input whose quotient is too large at some other
    degree passes unseen: ``u^2+v^2+2*u*v`` gets a basis of 4 monomials,
    the volume, where ``check`` finds the quotient dimensions summing to
    6.  Seeing it would take a rank at every other degree of the census.
    """
    spectrum = toric_spectrum(model)
    leading = _leading_terms(p, model)
    scale = model.value_scale
    groups = model._codes

    # the hint's (key, code) pairs in its order, and its (monomial, code)
    # pairs per key
    picks: List[Tuple[int, int]] = []
    hint_by_key: Dict[int, List[Tuple[Vec, int]]] = {}
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
            key = model.cone_key(vec)[0]
            if spectrum.coefficient(key, scale) == 0:
                raise HintError(
                    f"hint monomial {monomial_text(vec, p.names)} has degree "
                    f"{exponent_text(key, scale)} outside the spectrum"
                )
            code = model.encode(vec)
            picks.append((key, code))
            hint_by_key.setdefault(key, []).append((vec, code))

    reductions = []
    for key, expected in spectrum.numerators(scale):
        degree = Fraction(key, scale)
        codes = groups.get(key, ())
        hint = hint_by_key.get(key)
        last = ()
        if hint is not None:
            # a hint monomial has a spectrum degree, so nu <= n: each coordinate
            # is at most n * max_coord, below the radix, and codes holds its code
            last = [code for _, code in hint]
            if len(hint) != expected:
                raise HintError(
                    f"hint gives {len(hint)} monomials at degree {degree}, expected {expected}"
                )
        singles, pivots, basis = _build_block(
            leading, codes, groups.get(key - scale, ()), last)
        if len(basis) != expected:
            raise DimensionMismatchError(
                f"quotient dimension {len(basis)} at degree {degree} does not match "
                f"spectrum coefficient {expected}"
            )
        if hint is not None and set(basis) != set(last):
            raise HintError(
                f"hint monomials at degree {degree} do not span the quotient"
            )
        reductions.append((key, degree, singles, pivots, basis))

    # the basis codes of every degree, decoded in one pass: the only
    # exponents the blocks read
    decoded = iter(model.decode([code for *_, basis in reductions for code in basis]))
    blocks: Dict[int, DegreeBlock] = {}
    for key, degree, singles, pivots, basis in reductions:
        units = {code: GradedClass(((vec, _ONE),), degree)
                 for code, vec in zip(basis, islice(decoded, len(basis)))}
        blocks[key] = DegreeBlock(model, degree, singles, pivots, units)

    if basis_hint is None:
        picks = [(key, code) for key, block in blocks.items() for code in block.units]
    units = [blocks[key].units[code] for key, code in picks]
    return GradedBasis(model=model, by_key=blocks,
                       elements=[unit.terms[0][0] for unit in units],
                       codes=[code for _, code in picks], keys=[key for key, _ in picks],
                       units=units)


def reduce_product(basis: GradedBasis, m1: Vec, m2: Vec) -> GradedClass:
    """The product of two basis classes, expressed in the basis: zero
    when m1 and m2 share no cone or their degree has no block, else the
    block's normal form of the product monomial, whose code is the sum
    of theirs."""
    model = basis.model
    (key1, mask1), (key2, mask2) = model.cone_key(m1), model.cone_key(m2)
    block = basis.by_key.get(key1 + key2)
    if block is None or not mask1 & mask2:
        return GradedClass.zero()
    return block.normal_form(model.encode(m1) + model.encode(m2))


def product_rows(basis: GradedBasis) -> List[Dict[int, GradedClass]]:
    """The nonzero cells of the upper triangle of the symmetric product
    table, as sparse rows: row i is ``{j: class}`` over the j >= i whose
    product of elements i and j is not zero.

    A nonzero entry's degree is the sum of the operand degrees, and one
    outside the spectrum support is zero.  The blocks are keyed by the
    integer degree nu * L of each element's ``PolytopeModel.cone_key``,
    which also gives its facet mask.  The elements are
    walked in ascending degree, each paired with itself and the ones
    after it, until the degree sum passes the top block.  A pair whose
    masks meet has a product monomial, which fixes the degree; a product
    in a block has Newton value at most n, so its integer code is the sum
    of its operands' codes (``GradedBasis.codes``), and no exponent is
    summed.  The normal form is ``DegreeBlock.normal_form`` of that code,
    memoised for the call, so each code is read once and every cell whose
    operands sum to it holds the same object; a basis code gives the
    element's unit class, the object ``GradedBasis.units`` holds.  A zero
    normal form, like every pair the walk skips, leaves no cell.
    """
    keys = [basis.model.cone_key(vec) for vec in basis.elements]
    codes = basis.codes
    order = sorted(range(len(codes)), key=basis.keys.__getitem__)
    walk = [(*keys[i], codes[i], i) for i in order]
    blocks = basis.by_key
    top = max(blocks, default=-1)
    zero = GradedClass.zero()
    normal_forms: Dict[int, GradedClass] = {}
    rows: List[Dict[int, GradedClass]] = [{} for _ in codes]
    for pos, (key_i, mask_i, code_i, i) in enumerate(walk):
        row = rows[i]
        for key_j, mask_j, code_j, j in walk[pos:]:
            key = key_i + key_j
            if key > top:
                break
            if not mask_i & mask_j:
                continue
            code = code_i + code_j
            cls = normal_forms.get(code)
            if cls is None:
                block = blocks.get(key)
                if block is None:
                    continue
                cls = normal_forms[code] = block.normal_form(code)
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
    codes of ``PolytopeModel.encode``: the census hands its points
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
    leading = _leading_terms(p, model)
    scale = model.value_scale
    dims: Dict[int, int] = {}
    groups = model._codes
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
