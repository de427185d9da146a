"""Exact linear algebra, all of it fraction-free.

``rank``, ``nullspace_vector`` and ``int_det`` take small dense integer
matrices -- n is the number of variables of the input polynomial -- and
use Bareiss's elimination, in which every entry is a minor of the input
and each division is exact.  ``bareiss`` is the integer elimination
behind the first two; ``int_det`` has its own, for square matrices
only, which stops at the last pivot.

The graded blocks are Macaulay-style matrices of the logarithmic-
derivative relations: hundreds of columns with a few percent of their
entries nonzero.  They have one sparse eliminator, in the manner of the
sparse pivoting of Faugere's F4 on Macaulay matrices, and one row
format, ``{pivot col: {col: entry}}`` with no zero entry.  ``echelon``
is its forward half: it eliminates sparse integer rows against
leftmost-column pivots, and its pivot count is the rank, which is all
the Koszul route reads of the rows its singleton pivots leave.
``back_substitute`` is the other half: it clears each pivot row's
other pivot columns and divides the row by its pivot, so its rows are
the same sparse rows with ``Fraction`` entries; only
``quotient_basis`` needs that, and its relation rows are integers
already, so it runs the two halves itself.  ``rref`` is the two halves
after scaling rational rows to primitive integers.  ``solve_unique``
reads the solution of a small square system off the last column of
``rref``'s rows; nothing in the package calls it any more, and it remains only
for the benchmark's layer tracer, which patches it by name, and for its
own test.
"""

from fractions import Fraction
from math import gcd, lcm


def rref(rows):
    """Reduced row echelon form of rational rows, as ``{pivot col: row}``.

    ``rows`` holds ints or Fractions, each row either a sequence or a
    ``{col: entry}`` mapping.  The result is
    ``back_substitute(echelon(...))`` of the rows scaled to primitive
    integers: one sparse row ``{col: Fraction}`` per pivot column, in
    ascending pivot order, with 1 at its pivot, no other pivot column
    and no zero entry.  ``echelon`` does the forward elimination, so the
    pivot set is the greedy one for the given column order, and as the
    reduced row echelon form of a row space is unique, the result is the
    one dense rational elimination gives.
    """
    return back_substitute(echelon(map(_primitive_row, rows)))


def back_substitute(pivot_of):
    """``echelon``'s ``{pivot col: int row}`` in reduced row echelon
    form, ``{pivot col: {col: Fraction}}`` in ascending pivot order.

    Back substitution runs from the rightmost pivot leftwards, and only
    the last step divides each row by its pivot, so the result does not
    depend on the content of a row.  ``pivot_of`` is left unchanged.
    """
    pivot_of = dict(pivot_of)
    for col in sorted(pivot_of, reverse=True):
        # the pivot rows to the right are reduced: clearing one of their
        # pivots brings in no other pivot column
        row = pivot_of[col]
        for j in [j for j in row if j != col and j in pivot_of]:
            row = _clear(row, pivot_of[j], j)
        pivot_of[col] = row
    return {
        col: {j: Fraction(x, row[col]) for j, x in row.items()}
        for col, row in sorted(pivot_of.items())
    }


def echelon(rows):
    """The forward half of ``rref``: ``{pivot col: int row}``.

    ``rows`` are integer rows ``{col: int}``, primitive or not, with no
    zero entry.  An incoming row's leftmost entry is cleared against the
    pivot row of that column until it has none, and then it becomes the
    pivot row of that column.  The number of pivots is the rank.  No row
    is back substituted and no ``Fraction`` is built.
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

    Its one caller in the package, the search for affinely independent
    points that starts ``hull.enumerate_facets``, passes integer rows.
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
    reduced = rref(list(row) + [bi] for row, bi in zip(a_rows, b))
    if list(reduced) != list(range(n)):
        return None  # singular: underdetermined or inconsistent
    return [reduced[i].get(n, Fraction(0)) for i in range(n)]


def int_det(rows):
    """Determinant of a square integer matrix, by fraction-free elimination.

    Bareiss's elimination on the square matrix alone: each step takes the
    first row with a nonzero leading entry as the pivot row and leaves the
    others' trailing entries (a * p - f * b) / d, exact minors of the
    input, with d the previous pivot; a row whose leading entry f is 0 is
    only scaled.  The matrix shrinks by a row and a column a step, and the
    last pivot is the determinant up to the sign of the row moves.  A step
    with no pivot means the matrix is singular.  The rows are read, never
    changed.
    """
    work = list(rows)
    sign = prev = 1
    while work:
        for i, prow in enumerate(work):
            if prow[0]:
                break
        else:
            return 0
        del work[i]
        if i % 2:
            sign = -sign   # the pivot row moved up past i rows
        p, tail = prow[0], prow[1:]
        below = []
        for row in work:
            f = row[0]
            if f:
                below.append([(a * p - f * b) // prev for a, b in zip(row[1:], tail)])
            else:
                below.append([a * p // prev for a in row[1:]])
        work = below
        prev = p
    return sign * prev
