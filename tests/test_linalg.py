"""Exact kernels against a dense rational reference elimination."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from newtonspec import linalg


def _dense_rref(rows, ncols):
    """The dense rational elimination that the sparse ``rref`` replaced,
    kept verbatim as the reference."""
    work = [list(map(Fraction, r)) for r in rows]
    pivot_cols = []
    row_at = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(row_at, len(work)):
            if work[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[row_at], work[pivot_row] = work[pivot_row], work[row_at]
        inv = 1 / work[row_at][col]
        work[row_at] = [x * inv for x in work[row_at]]
        for i in range(len(work)):
            if i != row_at and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[row_at])]
        pivot_cols.append(col)
        row_at += 1
        if row_at == len(work):
            break
    return work[:row_at], pivot_cols


def _integer_rows(rows):
    """Each row as ``{col: int}``: its entries times the lcm of their
    denominators, zero entries left out."""
    out = []
    for row in rows:
        den = lcm(*(Fraction(x).denominator for x in row))
        out.append({j: int(x * den) for j, x in enumerate(row) if x})
    return out


def _random_matrix(rng, nrows, ncols, rank_cap=None):
    """Integer rows; with ``rank_cap`` they are combinations of that many rows."""
    if rank_cap is None:
        return [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
    basis = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rank_cap)]
    rows = []
    for _ in range(nrows):
        coeffs = [rng.randint(-3, 3) for _ in basis]
        rows.append([sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(ncols)])
    return rows


def _matrices():
    rng = random.Random(20261018)
    out = [([], 1), ([], 3), ([[0, 0, 0]], 3), ([[0, 0], [0, 0]], 2)]
    for _ in range(300):
        ncols = rng.randint(1, 6)
        nrows = rng.randint(0, 7)           # wide, square and tall
        cap = rng.choice([None, None, 0, 1, max(ncols - 2, 0), ncols - 1])
        rows = _random_matrix(rng, nrows, ncols, cap)
        if rows and rng.random() < 0.3:
            rows[rng.randrange(len(rows))] = [0] * ncols
        out.append((rows, ncols))
    return out


MATRICES = _matrices()


def _rref_kernel(rows, ncols):
    reduced, pivots = _dense_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return None
    vec = [Fraction(0)] * ncols
    vec[free[0]] = Fraction(1)
    for row, p in zip(reduced, pivots):
        vec[p] = -row[free[0]]
    return vec


def test_matrices_cover_every_shape():
    ranks = [len(_dense_rref(rows, ncols)[1]) for rows, ncols in MATRICES]
    assert any(len(rows) == 0 for rows, _ in MATRICES)
    assert any(len(rows) > ncols for rows, ncols in MATRICES)
    assert any(0 < len(rows) < ncols for rows, ncols in MATRICES)
    assert any(r < min(len(rows), ncols) for r, (rows, ncols) in zip(ranks, MATRICES))
    assert sum(r == ncols - 1 for r, (_, ncols) in zip(ranks, MATRICES)) >= 50


def test_rank_matches_rref():
    for rows, ncols in MATRICES:
        assert linalg.rank(rows, ncols) == len(_dense_rref(rows, ncols)[1]), rows


def test_nullspace_vector_is_an_integer_kernel_vector():
    for rows, ncols in MATRICES:
        vec = linalg.nullspace_vector(rows, ncols)
        expected = _rref_kernel(rows, ncols)
        if len(_dense_rref(rows, ncols)[1]) != ncols - 1:
            assert vec is None and expected is None, rows
            continue
        assert all(type(x) is int for x in vec), rows
        assert any(vec), rows
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows), rows
        # parallel to the rational kernel vector: every 2x2 minor vanishes
        assert all(vec[i] * expected[j] == vec[j] * expected[i]
                   for i in range(ncols) for j in range(ncols)), rows


def test_nullspace_of_no_rows_in_one_column():
    assert linalg.nullspace_vector([], 1) == [1]


def test_rank_and_nullspace_make_no_fractions(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Fraction built in an integer kernel")

    monkeypatch.setattr(linalg, "Fraction", refuse)
    assert linalg.rank([[2, 4, 6], [1, 2, 3], [0, 1, 1]], 3) == 2
    assert linalg.nullspace_vector([[1, 2, 3], [0, 1, 1]], 3) == [-1, -1, 1]
    assert len(linalg.echelon([{0: 2, 1: 4, 2: 6}, {0: 1, 1: 2, 2: 3}, {1: 1, 2: 1}])) == 2


def _leibniz_det(rows):
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _squares():
    rng = random.Random(20261019)
    out = [[], [[0]], [[-3]], [[0, 1], [1, 0]], [[0, 2, 1], [0, 0, 3], [4, 5, 6]]]
    for _ in range(150):
        n = rng.randint(1, 5)
        cap = rng.choice([None, None, None, n - 1, max(n - 2, 0)])
        rows = _random_matrix(rng, n, n, cap)
        if rng.random() < 0.3:
            rows[0][0] = 0                  # the first pivot needs a row swap
        out.append(rows)
    return out


SQUARES = _squares()


def test_int_det_matches_leibniz():
    dets = []
    for rows in SQUARES:
        det = _leibniz_det(rows)
        assert linalg.int_det(rows) == det, rows
        dets.append(det)
    assert any(d == 0 for d in dets) and any(d < 0 for d in dets) and any(d > 0 for d in dets)
    assert sum(1 for rows, d in zip(SQUARES, dets) if d and rows and rows[0][0] == 0) >= 10


def _sparse_matrices():
    """Mostly-zero rational rows shaped like the graded blocks."""
    rng = random.Random(20261020)
    out = [([], 4), ([[0, 0, 0, 0]], 4), ([[Fraction(1, 2), 0, 3]], 3)]
    for _ in range(320):
        ncols = rng.randint(1, 24)
        nrows = rng.choice([0, rng.randint(1, ncols), rng.randint(ncols, 2 * ncols + 2)])
        density = rng.choice([0.05, 0.1, 0.25, 0.5])
        cap = rng.choice([None, None, rng.randint(1, ncols)])
        base = [
            [rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows if cap is None else cap)
        ]
        rows = []
        for _ in range(nrows):
            if cap is None:
                row = base[len(rows)]
            else:                       # combinations of two of the cap rows
                row = [0] * ncols
                for b in rng.sample(base, min(2, cap)):
                    c = rng.randint(-2, 2)
                    row = [x + c * y for x, y in zip(row, b)]
            if rng.random() < 0.4:
                den = rng.choice([2, 3, 7, 12])
                row = [Fraction(x, rng.choice([1, den])) for x in row]
            rows.append(row)
        if rows and rng.random() < 0.3:
            rows[rng.randrange(len(rows))] = [0] * ncols
        if rows and rng.random() < 0.3:
            rows.append(list(rng.choice(rows)))
        out.append((rows, ncols))
    return out


SPARSE = _sparse_matrices()


@pytest.fixture(scope="module")
def sparse_reference():
    return [_dense_rref(rows, ncols) for rows, ncols in SPARSE]


def test_sparse_matrices_cover_every_shape(sparse_reference):
    ranks = [len(pivots) for _, pivots in sparse_reference]
    assert len(SPARSE) >= 300
    assert sum(len(rows) == 0 for rows, _ in SPARSE) >= 10
    assert sum(len(rows) > ncols for rows, ncols in SPARSE) >= 50
    assert sum(0 < len(rows) < ncols for rows, ncols in SPARSE) >= 50
    assert sum(r < min(len(rows), ncols) for r, (rows, ncols) in zip(ranks, SPARSE)) >= 50
    assert sum(any(type(x) is Fraction and x.denominator > 1 for row in rows for x in row)
               for rows, _ in SPARSE) >= 50
    assert sum(any(not any(row) for row in rows) for rows, _ in SPARSE) >= 50
    assert sum(len({tuple(r) for r in rows}) < len(rows) for rows, _ in SPARSE) >= 50
    nonzero = sum(bool(x) for rows, _ in SPARSE for row in rows for x in row)
    assert nonzero < 0.4 * sum(len(row) for rows, _ in SPARSE for row in rows)


def test_rref_equals_dense_rational_elimination(sparse_reference):
    cases = list(zip(SPARSE, sparse_reference))
    cases += [(m, _dense_rref(*m)) for m in MATRICES]
    for (rows, ncols), expected in cases:
        got = linalg.rref(rows, ncols)
        assert got == expected, (rows, ncols)
        assert all(type(x) is Fraction for row in got[0] for x in row), rows
        # the forward elimination alone gives the rank
        assert len(linalg.echelon(_integer_rows(rows))) == len(expected[1]), rows
        # the same rows given as {col: entry} mappings
        sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
        assert linalg.rref(sparse, ncols) == expected, rows


def test_solve_unique():
    a = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    assert linalg.solve_unique(a, [1, 2, 3]) == [Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)]
    halves = [[Fraction(1, 2), 0], [0, Fraction(2, 3)]]
    assert linalg.solve_unique(halves, [1, 1]) == [2, Fraction(3, 2)]
    assert linalg.solve_unique([[0, 1], [1, 0]], [5, 7]) == [7, 5]      # needs a row swap
    assert linalg.solve_unique([[1, 2], [2, 4]], [1, 2]) is None        # underdetermined
    assert linalg.solve_unique([[1, 2], [2, 4]], [1, 3]) is None        # inconsistent
