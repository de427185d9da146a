"""Exact linear algebra on small dense matrices.

Two kinds of kernel live here.  ``rank``, ``nullspace_vector`` and
``int_det`` take integer matrices and stay in the integers: they use
Bareiss's fraction-free elimination, in which every entry is a minor of
the input and each division is exact.  ``rref`` and ``solve_unique``
work over the rationals, on lists of lists of ``fractions.Fraction`` (or
ints, which Fraction arithmetic absorbs).  The matrices involved are
tiny -- n is the number of variables of the input polynomial -- so
plain dense elimination is both exact and fast enough.
"""

from fractions import Fraction


def rref(rows, ncols):
    """Row reduce in place-free fashion.

    Returns ``(reduced_rows, pivot_cols)`` where ``reduced_rows`` contains
    only the nonzero rows in reduced row echelon form and ``pivot_cols``
    lists the pivot column of each row.  Columns are scanned left to
    right, so the pivot set is the greedy one for the given column order.
    """
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


def _bareiss(rows, ncols, above):
    """Fraction-free elimination of integer rows, pivots chosen as in rref.

    Returns ``(pivot_rows, pivot_cols, d)``.  Every row below a pivot is
    cleared in its column; with ``above`` the rows above are cleared too
    (fraction-free Gauss-Jordan), and then each pivot entry equals ``d``,
    up to sign the minor on the pivot rows and columns, and ``pivot_rows``
    is d times the reduced row echelon form.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    pivot_cols = []
    prev = 1
    row_at = 0
    for col in range(ncols):
        for pivot_row in range(row_at, nrows):
            if work[pivot_row][col]:
                break
        else:
            continue
        work[row_at], work[pivot_row] = work[pivot_row], work[row_at]
        prow = work[row_at]
        p = prow[col]
        for i in range(0 if above else row_at + 1, nrows):
            if i != row_at:
                f = work[i][col]
                work[i] = [(a * p - f * b) // prev for a, b in zip(work[i], prow)]
        prev = p
        pivot_cols.append(col)
        row_at += 1
    return work[:row_at], pivot_cols, prev


def rank(rows, ncols):
    """Rank of an integer matrix, by fraction-free elimination.

    Every caller (the full-dimension check of ``build_model``, affine
    dimensions of faces and the row choice of ``box_points``) passes
    integer rows.
    """
    return len(_bareiss(rows, ncols, above=False)[1])


def nullspace_vector(rows, ncols):
    """An integer kernel vector of integer rows when the kernel is
    one-dimensional, else None.

    The vector is d times the one ``rref`` gives (free entry d, pivot
    entries minus the reduced rows' free column), where d is the pivot
    minor of the fraction-free Gauss-Jordan form.
    """
    reduced, pivots, d = _bareiss(rows, ncols, above=True)
    if len(pivots) != ncols - 1:
        return None
    f = next(c for c in range(ncols) if c not in pivots)
    vec = [0] * ncols
    vec[f] = d
    for row, p in zip(reduced, pivots):
        vec[p] = -row[f]
    return vec


def solve_unique(a_rows, b):
    """Solve a square system A x = b; None if A is singular."""
    n = len(a_rows)
    aug = [list(map(Fraction, row)) + [Fraction(bi)] for row, bi in zip(a_rows, b)]
    reduced, pivots = rref(aug, n + 1)
    if n in pivots:
        return None  # inconsistent
    if len(pivots) != n:
        return None  # underdetermined
    sol = [Fraction(0)] * n
    for row, p in zip(reduced, pivots):
        sol[p] = row[n]
    return sol


def int_det(rows):
    """Determinant of a square integer matrix (Bareiss, fraction free)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
