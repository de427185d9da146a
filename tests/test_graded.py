"""Graded ring products, Koszul relation classes and quotient bases."""

import hashlib
import io
import random
import sys
from datetime import timedelta
from unittest import mock
from fractions import Fraction
from math import gcd, lcm
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonspec import (
    GLOBAL,
    LOCAL,
    DimensionMismatchError,
    GradedClass,
    HintError,
    InputError,
    Poly,
    SpectrumSeries,
    b_product,
    build_model,
    koszul_hilbert_series,
    leading_classes,
    monomial_text,
    parse_monomial,
    parse_polynomial,
    product_table,
    quotient_basis,
)
from newtonspec import linalg
from newtonspec.cli import main
from newtonspec import graded
from newtonspec.graded import DegreeBlock, multiply_in_basis, product_rows, reduce_product

from conftest import FOUR_VARIABLE_POLYS, LOCAL_GERMS, random_convenient_poly

HINT = ["1", "u*v", "u^2*v^2", "u^3*v^3", "u", "v", "u^2*v", "u*v^2"]

# the known 8x8 structure-constant table of this example over HINT; "-m" means the
# class of m with coefficient -1
EXPECTED_TABLE = [
    ["1", "u*v", "u^2*v^2", "u^3*v^3", "u", "v", "u^2*v", "u*v^2"],
    ["u*v", "u^2*v^2", "u^3*v^3", "0", "u^2*v", "u*v^2", "0", "0"],
    ["u^2*v^2", "u^3*v^3", "0", "0", "0", "0", "0", "0"],
    ["u^3*v^3", "0", "0", "0", "0", "0", "0", "0"],
    ["u", "u^2*v", "0", "0", "-u^2*v^2", "0", "-u^3*v^3", "0"],
    ["v", "u*v^2", "0", "0", "0", "-u^2*v^2", "0", "-u^3*v^3"],
    ["u^2*v", "0", "0", "0", "-u^3*v^3", "0", "0", "0"],
    ["u*v^2", "0", "0", "0", "0", "-u^3*v^3", "0", "0"],
]


@pytest.fixture(scope="module")
def square_basis(square_poly, square_model):
    hint = [parse_monomial(t, square_poly.names) for t in HINT]
    return quotient_basis(square_poly, square_model, basis_hint=hint)


def expected_class(text, names, model):
    if text == "0":
        return GradedClass.zero()
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:]
    vec = parse_monomial(text, names)
    return GradedClass.of_monomial(vec, model.newton_value(vec), Fraction(sign))


def test_zero_class_is_one_instance():
    zero = GradedClass.zero()
    assert GradedClass.zero() is zero
    assert GradedClass.from_dict({}, Fraction(1)) is zero
    assert GradedClass.from_dict({(1, 0): Fraction(0)}, Fraction(1)) is zero
    assert GradedClass.of_monomial((1, 0), Fraction(1), Fraction(0)) is zero
    assert zero.is_zero() and zero.degree is None and zero.render(("u", "v")) == "0"


def test_b_product_examples(square_model):
    m = square_model
    got = b_product(m, (1, 0), (1, 1))
    assert got.terms == (((2, 1), Fraction(1)),) and got.degree == 1

    identity = b_product(m, (0, 0), (2, 1))
    assert identity.terms == (((2, 1), Fraction(1)),)

    assert b_product(m, (1, 0), (0, 1)).is_zero()


def test_leading_classes_square(square_poly, square_model):
    f1, f2 = leading_classes(square_poly, square_model)
    assert dict(f1.terms) == {(2, 0): 2, (2, 2): 2}
    assert dict(f2.terms) == {(2, 2): 2, (0, 2): 2}
    assert f1.degree == 1


def test_leading_classes_linear():
    p = parse_polynomial("u + v")
    m = build_model(p)
    f1, f2 = leading_classes(p, m)
    assert dict(f1.terms) == {(1, 0): 1}
    assert dict(f2.terms) == {(0, 1): 1}


def test_interior_monomial_contributes_nothing():
    # u*v has value 1/2 < 1, so it drops out of the degree-one classes
    p = parse_polynomial("u^2 + u^2*v^2 + v^2 + u*v")
    m = build_model(p)
    f1, f2 = leading_classes(p, m)
    assert dict(f1.terms) == {(2, 0): 2, (2, 2): 2}
    assert dict(f2.terms) == {(2, 2): 2, (0, 2): 2}


def test_quotient_basis_accepts_reference_hint(square_basis, square_model):
    gradings = [square_model.newton_value(v) for v in square_basis.elements]
    assert gradings == [
        Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
        Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(1),
    ]
    assert len(square_basis.elements) == 8


def test_quotient_dimension_at_degree_one(square_poly, square_model):
    basis = quotient_basis(square_poly, square_model)
    block = basis.by_key[square_model.value_scale]
    assert len(block.monomials) == 5
    assert len(block.rows) == 2
    assert block.dim == 3


def test_quotient_basis_standard_simplex():
    p = parse_polynomial("u1 + u2 + u3")
    basis = quotient_basis(p, build_model(p))
    assert basis.elements == [(0, 0, 0)]


def test_bad_hint_rejected(square_poly, square_model):
    # u^2 and u^2*v^2 are dependent modulo the relations
    hint_texts = ["1", "u*v", "u^2*v^2", "u^3*v^3", "u", "v", "u^2*v", "u^2"]
    hint = [parse_monomial(t, square_poly.names) for t in hint_texts]
    with pytest.raises(HintError):
        quotient_basis(square_poly, square_model, basis_hint=hint)


def test_wrong_length_hint_rejected(square_poly, square_model):
    hint = [parse_monomial(t, square_poly.names) for t in ["1", "u*v"]]
    with pytest.raises(HintError):
        quotient_basis(square_poly, square_model, basis_hint=hint)


def test_repeated_hint_monomial_rejected(square_poly, square_model):
    hint_texts = ["1", "u*v", "u^2*v^2", "u^3*v^3", "u", "u", "u^2*v", "u*v^2"]
    hint = [parse_monomial(t, square_poly.names) for t in hint_texts]
    with pytest.raises(HintError, match="u is listed twice"):
        quotient_basis(square_poly, square_model, basis_hint=hint)


def test_hint_monomial_outside_the_spectrum_is_named_as_text():
    p = parse_polynomial("u^2 + v^2")
    hint = [parse_monomial(t, p.names) for t in ["1", "u", "v", "u^5"]]
    with pytest.raises(HintError, match=r"u\^5 has degree 5/2 outside the spectrum"):
        quotient_basis(p, build_model(p), basis_hint=hint)


# (u+v)^3 is Newton degenerate: on its one facet it vanishes to order 3
# along u = -v, so the quotient at degree 4/3 is larger than the toric
# Newton spectrum says
CUBE_OF_SUM = "u^3+v^3+3*u^2*v+3*u*v^2"
CUBE_OF_SUM_MISMATCH = "quotient dimension 2 at degree 4/3 does not match spectrum coefficient 1"


def test_degenerate_input_raises_dimension_mismatch():
    p = parse_polynomial(CUBE_OF_SUM)
    with pytest.raises(DimensionMismatchError, match=f"^{CUBE_OF_SUM_MISMATCH}$"):
        quotient_basis(p, build_model(p))


def test_degenerate_input_exits_2_from_product_table(capsys):
    assert main(["product-table", CUBE_OF_SUM]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert CUBE_OF_SUM_MISMATCH in err


def test_reference_product_table(square_basis, square_poly, square_model):
    table = product_table(square_basis)
    for i, row in enumerate(table):
        for j, got in enumerate(row):
            want = expected_class(
                EXPECTED_TABLE[i][j], square_poly.names, square_model
            )
            assert got == want, (HINT[i], HINT[j])


def test_table_is_commutative_and_unital(square_basis):
    table = product_table(square_basis)
    size = len(square_basis.elements)
    for i in range(size):
        for j in range(size):
            assert table[i][j] == table[j][i]
    for j, vec in enumerate(square_basis.elements):
        assert table[0][j] == GradedClass.of_monomial(
            vec, square_basis.model.newton_value(vec)
        )


def test_table_degrees_are_additive(square_basis, square_model):
    table = product_table(square_basis)
    for i, x in enumerate(square_basis.elements):
        dx = square_model.newton_value(x)
        for j, y in enumerate(square_basis.elements):
            entry = table[i][j]
            if not entry.is_zero():
                assert entry.degree == dx + square_model.newton_value(y)


def test_associativity_on_square(square_basis):
    elements = square_basis.elements
    table = product_table(square_basis)
    index = {v: i for i, v in enumerate(elements)}

    def prod(cls, vec):
        return multiply_in_basis(square_basis, cls, vec)

    for x in elements:
        for y in elements:
            xy = table[index[x]][index[y]]
            for w in elements:
                yw = table[index[y]][index[w]]
                assert prod(xy, w) == prod(yw, x)


def product_monomial(basis, x, y):
    """The monomial of x * y when the pair shares a cone and its degree
    has a block, else None."""
    raw = b_product(basis.model, x, y)
    if raw.is_zero():
        return None
    (total, _), = raw.terms
    return total if basis.model.cone_key(total)[0] in basis.by_key else None


def assert_table_is_pairwise(basis, rows=None):
    """Every entry of the given rows (all rows by default) equals the
    product reduced pair by pair, and so does its mirror entry.  Cells
    whose operands sum to the same monomial hold the same object, and
    every zero cell holds the one shared zero class."""
    table = product_table(basis)
    elements = basis.elements
    assert [len(row) for row in table] == [len(elements)] * len(elements)
    zero = GradedClass.zero()
    cells = {}
    for i in range(len(elements)) if rows is None else rows:
        x = elements[i]
        for j, y in enumerate(elements):
            got = table[i][j]
            want = reduce_product(basis, x, y)
            assert got == want == table[j][i], (x, y)
            assert got is table[j][i], (x, y)
            if want.is_zero():
                assert got is zero, (x, y)
            total = product_monomial(basis, x, y)
            if total is not None:
                assert cells.setdefault(total, got) is got, (x, y)


def test_product_table_equals_pairwise_products_on_corpus(corpus):
    # tables of more than 100 elements check 24 seeded rows in full, to
    # stay within the suite's time
    rng = random.Random(9)
    for entry in corpus:
        basis = quotient_basis(entry.poly, entry.model)
        size = len(basis.elements)
        rows = None if size <= 100 else rng.sample(range(size), 24)
        assert_table_is_pairwise(basis, rows)


def test_product_table_equals_pairwise_products_on_local_germ():
    p = parse_polynomial(LOCAL_GERMS[1], mode=LOCAL)
    assert_table_is_pairwise(quotient_basis(p, build_model(p)))


def test_product_table_equals_pairwise_products_with_hint(square_basis, square_model):
    # the hint's degrees are not in ascending order
    degrees = [square_model.newton_value(v) for v in square_basis.elements]
    assert degrees != sorted(degrees)
    assert_table_is_pairwise(square_basis)


@pytest.mark.parametrize("text", FOUR_VARIABLE_POLYS)
def test_product_table_equals_pairwise_products_in_four_variables(text):
    p = parse_polynomial(text)
    assert_table_is_pairwise(quotient_basis(p, build_model(p)))


@settings(max_examples=30, deadline=timedelta(seconds=20))
@given(st.integers(0, 2**32), st.sampled_from([2, 3]), st.sampled_from([GLOBAL, LOCAL]),
       st.booleans())
def test_product_table_equals_pairwise_products_on_random_supports(seed, n, mode, hinted):
    # a hint, here the default basis shuffled, is placed last in each
    # block's column order and sets the table's element order; a local
    # germ has other blocks, unit classes and cone masks than a global
    # polynomial of the same support
    rng = random.Random(seed)
    p = random_convenient_poly(rng, n)
    p = Poly(names=p.names, terms=p.terms, mode=mode)
    model = build_model(p)
    basis = quotient_basis(p, model)
    if hinted:
        hint = list(basis.elements)
        rng.shuffle(hint)
        basis = quotient_basis(p, model, basis_hint=hint)
        assert basis.elements == hint
    size = len(basis.elements)
    assert_table_is_pairwise(basis, None if size <= 60 else rng.sample(range(size), 12))


def assert_rows_are_upper_triangle(basis):
    """``product_rows`` holds exactly the nonzero cells of the upper
    triangle of ``product_table``, as the very objects the table holds,
    and a second call gives equal rows."""
    calls = []

    def recorded(b):
        calls.append(product_rows(b))
        return calls[-1]

    with mock.patch.object(graded, "product_rows", recorded):
        table = product_table(basis)
    [rows] = calls
    assert len(rows) == len(table) == len(basis.elements)
    # the walk's keys come from the blocks, and only the masks are evaluated
    assert basis.cone_keys == [basis.model.cone_key(x) for x in basis.elements]
    for i, (row, cells) in enumerate(zip(rows, table)):
        nonzero = {j: cls for j, cls in enumerate(cells[i:], i) if not cls.is_zero()}
        assert row.keys() == nonzero.keys(), i
        assert all(row[j] is cls for j, cls in nonzero.items()), i
    assert product_rows(basis) == rows


def test_product_rows_are_the_nonzero_upper_triangle_on_corpus(corpus):
    for entry in corpus:
        assert_rows_are_upper_triangle(
            quotient_basis(entry.poly, entry.model))


@pytest.mark.parametrize("text", LOCAL_GERMS)
def test_product_rows_are_the_nonzero_upper_triangle_on_local_germs(text):
    p = parse_polynomial(text, mode=LOCAL)
    assert_rows_are_upper_triangle(quotient_basis(p, build_model(p)))


def test_product_rows_are_the_nonzero_upper_triangle_with_hint(square_basis):
    # the hint is not in ascending degree, so the walk meets pairs (i, j)
    # with i > j, whose cell goes to row j
    assert_rows_are_upper_triangle(square_basis)


@settings(max_examples=30, deadline=timedelta(seconds=20))
@given(st.integers(0, 2**32), st.sampled_from([2, 3]), st.sampled_from([GLOBAL, LOCAL]),
       st.booleans())
def test_product_rows_are_the_nonzero_upper_triangle_on_random_supports(seed, n, mode, hinted):
    rng = random.Random(seed)
    p = random_convenient_poly(rng, n)
    p = Poly(names=p.names, terms=p.terms, mode=mode)
    model = build_model(p)
    basis = quotient_basis(p, model)
    if hinted:
        hint = list(basis.elements)
        rng.shuffle(hint)
        basis = quotient_basis(p, model, basis_hint=hint)
    assert_rows_are_upper_triangle(basis)


def _reference_render(cls, names):
    """``GradedClass.render`` as it was written with ``Fraction``
    arithmetic: ``str`` of each magnitude and a sign test on the
    coefficient."""
    if not cls.terms:
        return "0"
    parts = []
    for vec, coeff in cls.terms:
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


_NONZERO_RATIONALS = st.fractions(max_denominator=12).filter(bool) | st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(10**30, 7), Fraction(-3, 10**20)])


@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _NONZERO_RATIONALS, max_size=5))
def test_render_equals_fraction_reference(data):
    names = ("u", "v", "w")
    cls = GradedClass.from_dict(data, Fraction(1))
    assert cls.render(names) == _reference_render(cls, names)


def test_default_basis_dimensions_match_spectrum(corpus):
    # greedy bases exist and have the spectrum's per-degree dimensions
    for entry in corpus[:12]:
        basis = quotient_basis(entry.poly, entry.model)
        dims = {key: block.dim for key, block in basis.by_key.items()}
        assert dims == dict(entry.oracle.numerators(entry.model.value_scale)), entry.poly


def test_koszul_dimensions_equal_quotient_blocks_on_corpus(corpus):
    # the two routes share the relation rows but not the elimination: the
    # Koszul route counts the pivots of the forward elimination alone,
    # quotient_basis back substitutes
    for entry in corpus:
        basis = quotient_basis(entry.poly, entry.model)
        dims = {block.degree: block.dim for block in basis.by_key.values()}
        assert dims == dict(entry.koszul.items()), entry.poly


def assert_normal_forms_read_the_columns(basis):
    """``DegreeBlock.normal_form`` on every column of every block: a basis
    code gives the block's unit class itself, a singleton the shared zero
    class, a pivot a class over the basis monomials; a code of a
    neighbouring census degree raises ``KeyError``; and ``reduce`` scales
    the class."""
    model = basis.model
    zero = GradedClass.zero()
    census = list(model._codes)
    basis_vecs = {unit.terms[0][0] for unit in basis.units}
    for block in basis.by_key.values():
        assert set(block.units) | block.singles | set(block.pivots) == set(block._order)
        for code, unit in block.units.items():
            assert block.normal_form(code) is unit
        for code in block.singles:
            assert block.normal_form(code) is zero
        for code in block.pivots:
            cls = block.normal_form(code)
            assert cls is zero or cls.degree == block.degree
            assert {vec for vec, _ in cls.terms} <= basis_vecs
        at = census.index(block.key)
        for other in census[max(at - 1, 0):at] + census[at + 1:at + 2]:
            with pytest.raises(KeyError):
                block.normal_form(model._codes[other][0])
        for vec, code in zip(block.monomials, block._order):
            terms = block.normal_form(code).terms
            for k in (1, Fraction(-3, 2)):
                assert block.reduce(vec, k) == {m: k * x for m, x in terms}, (vec, k)


def test_normal_form_reads_every_column_on_corpus(corpus):
    for entry in corpus:
        assert_normal_forms_read_the_columns(quotient_basis(entry.poly, entry.model))


@pytest.mark.parametrize("text", LOCAL_GERMS)
def test_normal_form_reads_every_column_on_local_germs(text):
    p = parse_polynomial(text, mode=LOCAL)
    assert_normal_forms_read_the_columns(quotient_basis(p, build_model(p)))


@pytest.mark.parametrize("v", [(1,), (1, 1, 1), (-1, 3), (-1, 0)])
def test_products_refuse_a_malformed_vector(square_basis, v):
    # (-1, 0) times (1, 0) was the class of 1 at degree 0
    for other in [(1, 0), (0, 0)]:
        with pytest.raises(InputError):
            b_product(square_basis.model, v, other)
        with pytest.raises(InputError):
            reduce_product(square_basis, other, v)


def test_normal_forms_lie_on_the_basis_and_differ_by_relations(corpus):
    for entry in corpus[:12]:
        basis = quotient_basis(entry.poly, entry.model)
        for block in basis.by_key.values():
            rank = len(block.rows)
            for m in block.monomials:
                normal = block.reduce(m, 1)
                assert set(normal) <= set(block.basis), (entry.poly, m)
                diff = {block.index[m]: Fraction(1)}
                for vec, coeff in normal.items():
                    col = block.index[vec]
                    diff[col] = diff.get(col, Fraction(0)) - coeff
                stacked = list(block.rows.values()) + [diff]
                assert len(linalg.rref(stacked)) == rank, (entry.poly, m)


def _reference_leading_terms(model, leading):
    """``graded._leading_terms`` as it was before the monomial codes, kept
    verbatim as part of the reference: ``(vec, coeff, mask)`` terms."""
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


def _reference_relation_rows(model, leading, monomials_here, monomials_prev, hint=None):
    """``graded._relation_rows`` as it was before the monomial codes, kept
    verbatim as the reference: tuple sums, a column-index dict and the cone
    masks, and no singleton peeled."""
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


def _reference_koszul(p, model):
    """The per-degree Koszul dimensions as computed before: each degree's
    monomial count less the rank ``linalg.echelon`` gives its reference
    rows."""
    leading = _reference_leading_terms(model, leading_classes(p, model))
    monomials = model.points_by_value(model.n)
    dims = {}
    for degree, here in monomials.items():
        prev = monomials.get(degree - 1, [])
        _, _, rows = _reference_relation_rows(model, leading, here, prev)
        dims[degree] = len(here) - len(linalg.echelon(rows))
    return SpectrumSeries(dims)


def _assert_blocks_equal_reference(p, model, basis, hint=None):
    """Each block's columns and reduced rows equal those of the reference
    rows reduced by ``linalg.rref``, with the hint last if one is given."""
    leading = _reference_leading_terms(model, leading_classes(p, model))
    monomials = model.points_by_value(model.n)
    for block in basis.by_key.values():
        degree = block.degree
        block_hint = None if hint is None else [
            m for m in hint if model.newton_value(m) == degree]
        ordered, index, rows = _reference_relation_rows(
            model, leading, monomials[degree], monomials.get(degree - 1, []), block_hint)
        assert block.monomials == ordered, (p, degree)
        assert block.index == index, (p, degree)
        assert block.rows == linalg.rref(rows), (p, degree)


def _assert_koszul_equals_reference(p):
    model = build_model(p)
    assert koszul_hilbert_series(p, model) == _reference_koszul(p, model), p


def test_koszul_equals_reference_on_corpus(corpus):
    for entry in corpus:
        assert entry.koszul == _reference_koszul(entry.poly, entry.model), entry.poly


@pytest.mark.parametrize("text", FOUR_VARIABLE_POLYS)
def test_koszul_equals_reference_in_four_variables(text):
    _assert_koszul_equals_reference(parse_polynomial(text))


@pytest.mark.parametrize("text", LOCAL_GERMS)
def test_koszul_equals_reference_on_local_germs(text):
    _assert_koszul_equals_reference(parse_polynomial(text, mode=LOCAL))


@settings(max_examples=40, deadline=timedelta(seconds=20))
@given(st.integers(0, 2**32), st.sampled_from([1, 2, 3]), st.sampled_from([GLOBAL, LOCAL]))
def test_koszul_equals_reference_on_random_supports(seed, n, mode):
    p = random_convenient_poly(random.Random(seed), n)
    _assert_koszul_equals_reference(Poly(names=p.names, terms=p.terms, mode=mode))


def test_blocks_equal_reference_reduction_on_corpus(corpus):
    rng = random.Random(5)
    for entry in corpus:
        basis = quotient_basis(entry.poly, entry.model)
        _assert_blocks_equal_reference(entry.poly, entry.model, basis)
        hint = list(basis.elements)
        rng.shuffle(hint)
        hinted = quotient_basis(entry.poly, entry.model, basis_hint=hint)
        _assert_blocks_equal_reference(entry.poly, entry.model, hinted, hint)


@settings(max_examples=30, deadline=timedelta(seconds=20))
@given(st.integers(0, 2**32), st.sampled_from([2, 3]), st.sampled_from([GLOBAL, LOCAL]),
       st.booleans())
def test_blocks_equal_reference_reduction_on_random_supports(seed, n, mode, hinted):
    rng = random.Random(seed)
    p = random_convenient_poly(rng, n)
    p = Poly(names=p.names, terms=p.terms, mode=mode)
    model = build_model(p)
    basis = quotient_basis(p, model)
    hint = None
    if hinted:
        hint = list(basis.elements)
        rng.shuffle(hint)
        basis = quotient_basis(p, model, basis_hint=hint)
    _assert_blocks_equal_reference(p, model, basis, hint)


# corpus entries 38, 40, 47 and 55 (the last has a non-simplicial fan),
# then inputs in four and five variables, where the blocks are largest,
# with the sha256 of their product-table stdout
PINNED_TABLES = [
    ("211958*w^4 + 197789*v^3 + 220640*v^5*w^3 + 617618*u^4", "u,v,w",
     "c4564adad2e619aebaf7b6b6bdc6f7dfe45d6804a960542399c2cf01dd455bde"),
    ("357426*w^2 + 395934*v^2*w^4 + 616058*v^5 + 921299*v^6*w^6 + 567927*u^2*v^3*w"
     " + 308783*u^3*v^2*w^2 + 576578*u^4", "u,v,w",
     "408e6f6427204af4f6c9d6f11919e84032140cc8caf7ed142a9b595c66a39a8e"),
    ("212925*w + 552604*v^2*w + 988761*v^4 + 722193*u^4*v*w^2 + 274109*u^5", "u,v,w",
     "29def3d8d5f0f350b603ef392c96844590ebbc9fc84818059b3ea38ab1f918a7"),
    ("274840*w^2 + 253705*v^3 + 693798*v^3*w + 977841*u^3 + 383720*u^3*w", "u,v,w",
     "72b545351d05e7fead4f6575db9eb00054271ef0c2c4cdb2c81532422477156b"),
    ("u^4+v^3+w^3+x^2+u*v*w*x", "u,v,w,x",
     "2d402c589c53bab3fe124caab2e054a4d7c7dfeb4124a14dec175d8afabcda76"),
    ("u^3+v^3+w^3+x^3+y^2", "u,v,w,x,y",
     "8bf296701b37220aed952a712fff0b8680eb34b006a7386c32c218a0d838a8da"),
    ("u^5+v^5+w^5+x^5", "u,v,w,x",
     "19064919b18fbb38c829d68fb64336188816691bbade36f1748c8985f9974985"),
]


@pytest.mark.parametrize(
    "text,names,digest", PINNED_TABLES, ids=[f"{t}-{d}" for t, _, d in PINNED_TABLES]
)
def test_product_table_output_is_pinned(capsys, text, names, digest):
    assert main(["product-table", text, "--vars", names]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# non-integer coefficients: the relation rows are scaled to integers
# before elimination, and the second table has rational normal forms
PINNED_RATIONAL_TABLES = [
    ("1/2*u^3 + 2/3*v^3 + 5/7*u*v",
     "1de99b9590f6263c231213e179e434c97915199de8557afa7c032b8b39664948"),
    ("1/2*u^3 + 2/3*v^3 + 5/7*w^3 + 3/4*u*v*w",
     "df95efb97fb623ff82ea62701278de53d3364b91fc6badfd2ae657686e2b92b0"),
]


@pytest.mark.parametrize("text,digest", PINNED_RATIONAL_TABLES)
def test_product_table_with_rational_coefficients_is_pinned(capsys, text, digest):
    assert main(["product-table", text]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_local_product_table_is_pinned(capsys):
    assert main(["product-table", "--local", "x^5 + x^2*y^2 + y^5"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0e7fad92b50f7aed6e959a11b6dc639987e220fbe8a0e4a699cffa510a43156a")


def test_product_table_reduces_and_renders_each_class_once(monkeypatch, capsys):
    # the table reads the normal form of each distinct product code once,
    # by DegreeBlock.normal_form, and calls no DegreeBlock.reduce, and the
    # command renders each distinct class that is not a basis element's own
    # class once, where one per pair would take thousands of calls on these
    # inputs
    reduce, normal_form, render = DegreeBlock.reduce, DegreeBlock.normal_form, GradedClass.render
    calls = {"reduce": 0, "normal_form": 0, "render": 0}

    def counted_reduce(self, vec, coeff):
        calls["reduce"] += 1
        return reduce(self, vec, coeff)

    def counted_normal_form(self, code):
        calls["normal_form"] += 1
        return normal_form(self, code)

    def counted_render(self, names):
        calls["render"] += 1
        return render(self, names)

    cases = [("u^4+v^4+w^4+x^4", "u,v,w,x")] + [(t, n) for t, n, _ in PINNED_TABLES[:4]]
    for text, names in cases:
        p = parse_polynomial(text, var_order=names.split(","))
        basis = quotient_basis(p, build_model(p))
        rendered = _rendered_classes(basis)
        products = {total for x in basis.elements for y in basis.elements
                    if (total := product_monomial(basis, x, y)) is not None}
        monkeypatch.setattr(DegreeBlock, "reduce", counted_reduce)
        monkeypatch.setattr(DegreeBlock, "normal_form", counted_normal_form)
        monkeypatch.setattr(GradedClass, "render", counted_render)
        calls.update(reduce=0, normal_form=0, render=0)
        product_table(basis)
        assert calls["reduce"] == 0, (text, calls)
        assert calls["normal_form"] == len(products), (text, calls, len(products))
        assert main(["product-table", text, "--vars", names]) == 0
        capsys.readouterr()
        assert calls["render"] == len(rendered), (text, calls, len(rendered))
        monkeypatch.undo()


def _rendered_classes(basis):
    """The distinct nonzero classes of ``product_rows`` (by identity) that
    are not a basis element's own unit class: the ones the command
    renders."""
    units = {id(unit) for unit in basis.units}
    assert len(units) == len(basis.elements)
    for unit, vec in zip(basis.units, basis.elements):
        assert unit.terms == ((vec, 1),), vec
    classes = {id(cls): cls for row in product_rows(basis) for cls in row.values()}
    return [cls for key, cls in classes.items() if key not in units]


def test_blocks_eliminate_only_rows_left_by_the_peeling(monkeypatch, corpus):
    # linalg.echelon and back_substitute run once for each block whose
    # relation rows outlive the singleton peeling, and for no other block
    counts = {"echelon": 0, "back_substitute": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(linalg, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(linalg, name, counted)
    surviving = blocks = 0
    for entry in corpus:
        model = entry.model
        basis = quotient_basis(entry.poly, model)
        leading = graded._leading_terms(entry.poly, model)
        groups = model._codes
        scale = model.value_scale
        for block in basis.by_key.values():
            _, rows = graded._relation_rows(
                leading, set(groups[block.key]), groups.get(block.key - scale, ()))
            surviving += bool(rows)
            blocks += 1
    monkeypatch.undo()
    assert counts == {"echelon": surviving, "back_substitute": surviving}
    # most blocks are closed by their singletons
    assert 0 < surviving < blocks // 5, (surviving, blocks)


def test_product_table_renders_only_non_unit_classes_on_corpus(monkeypatch, corpus, capsys):
    # a cell whose product is a basis element is written as that element's
    # label; GradedClass.render runs once per other distinct nonzero class
    render = GradedClass.render
    count = [0]

    def counted_render(self, names):
        count[0] += 1
        return render(self, names)

    for entry in corpus:
        basis = quotient_basis(entry.poly, entry.model)
        want = len(_rendered_classes(basis))
        monkeypatch.setattr(GradedClass, "render", counted_render)
        count[0] = 0
        argv = ["product-table", str(entry.poly), "--vars", ",".join(entry.poly.names)]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.undo()
        assert count[0] == want, (entry.poly, count[0], want)


def _reference_table_text(basis, names):
    """The product-table text as the command built it before streaming:
    every cell rendered into a dense grid of strings, the column widths
    taken over all cells, and every line built before any is printed."""
    table = product_table(basis)
    labels = [monomial_text(v, names) for v in basis.elements]
    gradings = [str(basis.model.newton_value(v)) for v in basis.elements]
    entries = [[cls.render(names) for cls in row] for row in table]
    lines = [
        "basis: " + ", ".join(labels),
        "grading: " + ", ".join(gradings),
    ]
    widths = [max(len(lbl), *map(len, col)) for lbl, col in zip(labels, zip(*entries))]
    head = max(len(lbl) for lbl in labels)
    lines.append(" " * head + " | " + " | ".join(map(str.ljust, labels, widths)))
    for lbl, row in zip(labels, entries):
        lines.append(lbl.ljust(head) + " | " + " | ".join(map(str.ljust, row, widths)))
    return "".join(line + "\n" for line in lines)


def table_argv(p, hint=None):
    """The product-table call on p's text, with its variable order, mode
    and, when given, the hint as --basis."""
    argv = ["product-table", str(p), "--vars", ",".join(p.names)]
    if p.mode == LOCAL:
        argv.append("--local")
    if hint is not None:
        argv += ["--basis", ",".join(monomial_text(v, p.names) for v in hint)]
    return argv


def assert_text_is_reference(capsys, p, model=None, hint=None):
    model = model or build_model(p)
    basis = quotient_basis(p, model, basis_hint=hint)
    assert main(table_argv(p, hint)) == 0
    assert capsys.readouterr().out == _reference_table_text(basis, p.names), str(p)


def test_streamed_text_equals_dense_reference_on_corpus(corpus, capsys):
    for entry in corpus:
        assert_text_is_reference(capsys, entry.poly, entry.model)


@pytest.mark.parametrize("text", LOCAL_GERMS)
def test_streamed_text_equals_dense_reference_on_local_germs(capsys, text):
    assert_text_is_reference(capsys, parse_polynomial(text, mode=LOCAL))


def test_streamed_text_equals_dense_reference_with_hints(corpus, capsys, square_poly):
    # the square's hint is not in ascending degree; the corpus hints are
    # the default bases shuffled
    hint = [parse_monomial(t, square_poly.names) for t in HINT]
    assert_text_is_reference(capsys, square_poly, hint=hint)
    rng = random.Random(5)
    for entry in corpus[::7]:
        hint = list(quotient_basis(entry.poly, entry.model).elements)
        rng.shuffle(hint)
        assert_text_is_reference(capsys, entry.poly, entry.model, hint)


@pytest.mark.parametrize("n", [2, 3])
def test_streamed_text_equals_dense_reference_on_random_supports(capsys, n):
    for seed in range(12):
        rng = random.Random(f"table-text:{n}:{seed}")
        p = random_convenient_poly(rng, n)
        model = build_model(p)
        assert_text_is_reference(capsys, p, model)
        hint = list(quotient_basis(p, model).elements)
        rng.shuffle(hint)
        assert_text_is_reference(capsys, p, model, hint)


# sha256 of the --json stdout of product-table, one call with a hint
PINNED_JSON_TABLES = [
    (["u^3+v^3+w^3+u*v*w"],
     "84fb95e86e764573aea57491a0dac257aa6f0d061137b9d43a67451c30eab29a"),
    (["u^2+u^2*v^2+v^2", "--basis", ",".join(HINT)],
     "e4445d3cbe5f531cb6b5967d1a198501fa85e9020aa252d2f49a8422c92fdfae"),
]


@pytest.mark.parametrize("args,digest", PINNED_JSON_TABLES)
def test_product_table_json_is_pinned(capsys, args, digest):
    assert main(["product-table", "--json", *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _WriteRecorder(io.StringIO):
    """A stdout that keeps the length of its longest single write."""

    longest = 0

    def write(self, text):
        self.longest = max(self.longest, len(text))
        return super().write(text)


@pytest.mark.parametrize("args", [
    ["u^4+v^4+w^4+x^4"],
    ["u^2+u^2*v^2+v^2", "--basis", ",".join(HINT)],
])
def test_product_table_text_is_written_line_by_line(monkeypatch, args):
    # no write holds more than one line, so the text is never held whole
    out = _WriteRecorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["product-table", *args]) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) > 3
    assert out.longest <= max(map(len, lines)) + 1


@pytest.mark.parametrize("text,mode,hinted", [
    ("u^20+v^3", GLOBAL, False),
    ("u^12+u^3*v+v^4", GLOBAL, False),
    ("u^12+u^3*v+v^4", GLOBAL, True),
    ("u^10+u*v*w+v^3+w^2", GLOBAL, False),
    ("x^12 + x^3*y + y^4", LOCAL, False),
])
def test_product_table_is_pairwise_with_uneven_exponents(text, mode, hinted):
    # the memo's integer codes take their radix from the largest exponent
    # of the basis; with one digit too few, u^12+u^3*v+v^4, the
    # three-variable input and the germ get wrong cells.  The hint puts
    # the elements that hold the largest exponents first
    p = parse_polynomial(text, mode=mode)
    model = build_model(p)
    basis = quotient_basis(p, model)
    if hinted:
        hint = sorted(basis.elements, key=max, reverse=True)
        basis = quotient_basis(p, model, basis_hint=hint)
        assert basis.elements == hint
    assert_table_is_pairwise(basis)
