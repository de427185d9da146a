"""Graded ring products, Koszul relation classes and quotient bases."""

import hashlib
import random
from fractions import Fraction

import pytest

from newtonspec import (
    LOCAL,
    DimensionMismatchError,
    GradedClass,
    HintError,
    b_product,
    build_model,
    leading_classes,
    parse_monomial,
    parse_polynomial,
    product_table,
    quotient_basis,
)
from newtonspec import linalg
from newtonspec.cli import main
from newtonspec.graded import multiply_in_basis, reduce_product

from conftest import LOCAL_GERMS, series

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
    assert square_basis.total_dimension() == 8


def test_quotient_dimension_at_degree_one(square_poly, square_model):
    basis = quotient_basis(square_poly, square_model)
    block = basis.blocks[Fraction(1)]
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


def test_wrong_spectrum_raises_dimension_mismatch(square_poly, square_model):
    with pytest.raises(DimensionMismatchError):
        quotient_basis(
            square_poly, square_model,
            spectrum=series(("0", 1), ("1/2", 4), ("1", 2), ("3/2", 1)),
        )


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


def assert_table_is_pairwise(basis, rows=None):
    """Every entry of the given rows (all rows by default) equals the
    product reduced pair by pair, and so does its mirror entry."""
    table = product_table(basis)
    elements = basis.elements
    assert [len(row) for row in table] == [len(elements)] * len(elements)
    for i in range(len(elements)) if rows is None else rows:
        x = elements[i]
        for j, y in enumerate(elements):
            want = reduce_product(basis, x, y)
            assert table[i][j] == want == table[j][i], (basis.poly, x, y)


def test_product_table_equals_pairwise_products_on_corpus(corpus):
    # tables of more than 100 elements check 24 seeded rows in full, to
    # stay within the suite's time
    rng = random.Random(9)
    for entry in corpus:
        basis = quotient_basis(entry.poly, entry.model, spectrum=entry.box)
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


def test_default_basis_dimensions_match_spectrum(corpus):
    # greedy bases exist and have the spectrum's per-degree dimensions
    for entry in corpus[:12]:
        basis = quotient_basis(entry.poly, entry.model, spectrum=entry.oracle)
        for degree, coeff in entry.oracle.items():
            assert basis.blocks[degree].dim == coeff


def test_koszul_dimensions_equal_quotient_blocks_on_corpus(corpus):
    # the two routes share the relation rows but not the elimination: the
    # Koszul route counts the pivots of the forward elimination alone,
    # quotient_basis back substitutes
    for entry in corpus:
        basis = quotient_basis(entry.poly, entry.model, spectrum=entry.box)
        dims = {degree: block.dim for degree, block in basis.blocks.items()}
        assert dims == dict(entry.koszul.items()), entry.poly


def test_normal_forms_lie_on_the_basis_and_differ_by_relations(corpus):
    for entry in corpus[:12]:
        basis = quotient_basis(entry.poly, entry.model, spectrum=entry.oracle)
        for block in basis.blocks.values():
            rank = len(block.pivots)
            for m in block.monomials:
                normal = block.reduce(m, 1)
                assert set(normal) <= set(block.basis), (entry.poly, m)
                diff = [Fraction(0)] * len(block.monomials)
                diff[block.index[m]] += 1
                for vec, coeff in normal.items():
                    diff[block.index[vec]] -= coeff
                stacked = block.rows + [diff]
                assert len(linalg.rref(stacked, len(block.monomials))[1]) == rank, (
                    entry.poly, m)


# corpus entries 38, 40, 47 and 55 (the last has a non-simplicial fan) with
# the sha256 of their product-table stdout
PINNED_TABLES = [
    ("211958*w^4 + 197789*v^3 + 220640*v^5*w^3 + 617618*u^4",
     "c4564adad2e619aebaf7b6b6bdc6f7dfe45d6804a960542399c2cf01dd455bde"),
    ("357426*w^2 + 395934*v^2*w^4 + 616058*v^5 + 921299*v^6*w^6 + 567927*u^2*v^3*w"
     " + 308783*u^3*v^2*w^2 + 576578*u^4",
     "408e6f6427204af4f6c9d6f11919e84032140cc8caf7ed142a9b595c66a39a8e"),
    ("212925*w + 552604*v^2*w + 988761*v^4 + 722193*u^4*v*w^2 + 274109*u^5",
     "29def3d8d5f0f350b603ef392c96844590ebbc9fc84818059b3ea38ab1f918a7"),
    ("274840*w^2 + 253705*v^3 + 693798*v^3*w + 977841*u^3 + 383720*u^3*w",
     "72b545351d05e7fead4f6575db9eb00054271ef0c2c4cdb2c81532422477156b"),
]


@pytest.mark.parametrize("text,digest", PINNED_TABLES)
def test_product_table_output_is_pinned(capsys, text, digest):
    assert main(["product-table", text, "--vars", "u,v,w"]) == 0
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
