"""Exact linear algebra, all of it fraction-free.

``rank``, ``nullspace_vector`` and ``int_det`` take small dense integer
matrices -- n is the number of variables of the input polynomial -- and
use Bareiss's elimination, in which every entry is a minor of the input
and each division is exact.  ``bareiss`` is the integer elimination
behind these three, and ``box_points`` calls it directly.

The graded blocks are Macaulay-style matrices of the logarithmic-
derivative relations: hundreds of columns with a few percent of their
entries nonzero.  They have one sparse eliminator, in the manner of the
sparse pivoting of Faugere's F4 on Macaulay matrices.  ``echelon`` is
its forward half: it eliminates sparse integer rows ``{col: int}``
against leftmost-column pivots, and its pivot count is the rank, which
is all the Koszul route reads.  ``rref`` scales rational rows to
primitive integers, runs ``echelon`` and then back substitutes; only
``quotient_basis`` needs that, and ``Fraction`` appears only in its
result.  ``solve_unique`` solves a small square system through
``rref``; nothing in the package calls it any more, and it remains only
for the benchmark's layer tracer, which patches it by name, and for its
own test.
"""

from fractions import Fraction
from math import gcd, lcm


def rref(rows, ncols):
    """Reduced row echelon form of rational rows, by sparse fraction-free
    elimination.

    ``rows`` holds ints or Fractions, each row either a sequence of
    ``ncols`` entries or a ``{col: entry}`` mapping.  Returns
    ``(reduced_rows, pivot_cols)`` where ``reduced_rows`` contains only
    the nonzero rows in reduced row echelon form, as lists of ``ncols``
    Fractions, and ``pivot_cols`` lists the pivot column of each row.
    ``echelon`` does the forward elimination on sparse primitive integer
    rows, so the pivot set is the greedy one for the given column order,
    and as the reduced row echelon form of a row space is unique, the
    result is the one dense rational elimination gives.  Back
    substitution then runs from the rightmost pivot leftwards, and only
    the last step divides each row by its pivot.
    """
    pivot_of = echelon(map(_primitive_row, rows))
    pivot_cols = sorted(pivot_of)
    for col in reversed(pivot_cols):
        # the pivot rows to the right are reduced: clearing one of their
        # pivots brings in no other pivot column
        row = pivot_of[col]
        for j in [j for j in row if j != col and j in pivot_of]:
            row = _clear(row, pivot_of[j], j)
        pivot_of[col] = row
    zero = Fraction(0)
    reduced = []
    for col in pivot_cols:
        row = pivot_of[col]
        p = row[col]
        dense = [zero] * ncols
        for j, x in row.items():
            dense[j] = Fraction(x, p)
        reduced.append(dense)
    return reduced, pivot_cols


def echelon(rows):
    """The forward half of ``rref``: ``{pivot col: int row}``.

    ``rows`` are integer rows ``{col: int}`` with no zero entry.  An
    incoming row's leftmost entry is cleared against the pivot row of
    that column until it has none, and then it becomes the pivot row of
    that column.  The number of pivots is the rank.  No row is back
    substituted and no ``Fraction`` is built.
    """
    pivot_of = {}
    for row in rows:
        while row:
            col = min(row)
            prow = pivot_of.get(col)
            if prow is None:
                pivot_of[col] = row
                break
            row = _clear(row, prow, col)
    return pivot_of


def _primitive_row(r):
    """A row of ints or Fractions as ``{col: int}``: its nonzero entries
    times the lcm of their denominators, divided by their gcd."""
    pairs = r.items() if isinstance(r, dict) else enumerate(r)
    entries = [(j, x) for j, x in pairs if x]
    den = lcm(*(x.denominator for _, x in entries))
    row = {j: x.numerator * (den // x.denominator) for j, x in entries}
    return _divide_content(row)


def _clear(row, prow, col):
    """The primitive integer row a * row - b * prow with no entry at ``col``."""
    g = gcd(prow[col], row[col])
    a, b = prow[col] // g, row[col] // g
    out = {j: a * x for j, x in row.items()}
    for j, x in prow.items():
        y = out.get(j, 0) - b * x
        if y:
            out[j] = y
        else:
            del out[j]
    return _divide_content(out)


def _divide_content(row):
    g = gcd(*row.values())
    if g > 1:
        return {j: x // g for j, x in row.items()}
    return row


def bareiss(rows, ncols, above):
    """Fraction-free elimination of integer rows, pivots chosen as in rref.

    Returns ``(pivot_rows, pivot_cols, d, sign)``.  Every row below a
    pivot is cleared in its column; with ``above`` the rows above are
    cleared too (fraction-free Gauss-Jordan), and then each pivot entry
    equals ``d``, and ``pivot_rows`` is d times the reduced row echelon
    form.  ``d`` is the minor on the pivot columns of the rows in their
    swapped order, and ``sign`` is the parity of the row swaps, so on a
    square matrix of full rank the determinant is ``sign * d``.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    pivot_cols = []
    prev = 1
    sign = 1
    row_at = 0
    for col in range(ncols):
        for pivot_row in range(row_at, nrows):
            if work[pivot_row][col]:
                break
        else:
            continue
        if pivot_row != row_at:
            work[row_at], work[pivot_row] = work[pivot_row], work[row_at]
            sign = -sign
        prow = work[row_at]
        p = prow[col]
        for i in range(0 if above else row_at + 1, nrows):
            if i != row_at:
                f = work[i][col]
                work[i] = [(a * p - f * b) // prev for a, b in zip(work[i], prow)]
        prev = p
        pivot_cols.append(col)
        row_at += 1
    return work[:row_at], pivot_cols, prev, sign


def rank(rows, ncols):
    """Rank of an integer matrix, by fraction-free elimination.

    Every caller (the full-dimension check of ``build_model`` and affine
    dimensions of faces) passes integer rows.
    """
    return len(bareiss(rows, ncols, above=False)[1])


def nullspace_vector(rows, ncols):
    """An integer kernel vector of integer rows when the kernel is
    one-dimensional, else None.

    The vector is d times the one ``rref`` gives (free entry d, pivot
    entries minus the reduced rows' free column), where d is the pivot
    minor of the fraction-free Gauss-Jordan form.
    """
    reduced, pivots, d, _ = bareiss(rows, ncols, above=True)
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
    _, pivots, d, sign = bareiss(rows, n, above=False)
    return sign * d if len(pivots) == n else 0
