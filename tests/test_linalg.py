"""Integer kernels against the rational reference ``rref``."""

import random
from fractions import Fraction

from newtonspec import linalg


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
    reduced, pivots = linalg.rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return None
    vec = [Fraction(0)] * ncols
    vec[free[0]] = Fraction(1)
    for row, p in zip(reduced, pivots):
        vec[p] = -row[free[0]]
    return vec


def test_matrices_cover_every_shape():
    ranks = [len(linalg.rref(rows, ncols)[1]) for rows, ncols in MATRICES]
    assert any(len(rows) == 0 for rows, _ in MATRICES)
    assert any(len(rows) > ncols for rows, ncols in MATRICES)
    assert any(0 < len(rows) < ncols for rows, ncols in MATRICES)
    assert any(r < min(len(rows), ncols) for r, (rows, ncols) in zip(ranks, MATRICES))
    assert sum(r == ncols - 1 for r, (_, ncols) in zip(ranks, MATRICES)) >= 50


def test_rank_matches_rref():
    for rows, ncols in MATRICES:
        assert linalg.rank(rows, ncols) == len(linalg.rref(rows, ncols)[1]), rows


def test_nullspace_vector_is_an_integer_kernel_vector():
    for rows, ncols in MATRICES:
        vec = linalg.nullspace_vector(rows, ncols)
        expected = _rref_kernel(rows, ncols)
        if len(linalg.rref(rows, ncols)[1]) != ncols - 1:
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
