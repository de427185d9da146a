"""Exact linear algebra, all of it fraction-free.

One integer step, ``add_row``, eliminates every row space in the
package: an incoming sparse row ``{col: int}`` has its leftmost entry
cleared against that column's pivot row until none matches, and what is
left becomes a pivot row, in the manner of the sparse pivoting of
Faugere's F4 on Macaulay matrices.  ``echelon`` is a loop of it, and
its pivot count is the rank: ``rank`` and the Koszul route read that,
``nullspace_vector`` back substitutes the pivot rows in the integers,
and the hull's simplex seed calls ``add_row`` one point at a time.
``back_substitute`` clears each pivot row's other pivot columns and
divides it by its pivot, which gives the same sparse rows with
``Fraction`` entries; only ``quotient_basis`` needs them.  ``rref`` is
the two halves after scaling the rows to primitive integers
(``primitive_row``).  ``solve_unique`` reads a small square system's
solution off ``rref``; nothing in the package calls it, and it remains
for the benchmark's layer tracer, which patches it by name, and for its
own test.  Only ``int_det`` keeps Bareiss's elimination, as its last
pivot is the determinant, and ``polytope._diagonal_form`` its own, as it
keeps the unimodular row operations.
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
    return back_substitute(echelon(map(primitive_row, rows)))


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
    """The forward half of ``rref``: ``{pivot col: int row}``, each row
    taken in by ``add_row``.

    ``rows`` are integer rows ``{col: int}``, primitive or not, with no
    zero entry.  The number of pivots is the rank.  No row is back
    substituted and no ``Fraction`` is built.
    """
    pivot_of = {}
    for row in rows:
        add_row(pivot_of, row)
    return pivot_of


def add_row(pivot_of, row):
    """Take the integer row ``{col: int}`` into ``echelon``'s pivot rows.

    The row's leftmost entry is cleared against the pivot row of that
    column until no pivot row matches, and what is left becomes the pivot
    row of its leftmost column.  Returns True when the row was
    independent of the pivot rows, which then grow by one; else
    ``pivot_of`` is left as it was.
    """
    while row:
        col = min(row)
        prow = pivot_of.get(col)
        if prow is None:
            pivot_of[col] = row
            return True
        row = _clear(row, prow, col)
    return False


def primitive_row(r):
    """A row of ints or Fractions as ``{col: int}``: its nonzero entries
    times the lcm of their denominators, divided by their gcd."""
    pairs = r.items() if isinstance(r, dict) else enumerate(r)
    entries = [(j, x) for j, x in pairs if x]
    den = lcm(*(x.denominator for _, x in entries))
    row = {j: x.numerator * (den // x.denominator) for j, x in entries}
    return _divide_content(row)


def _sparse(r):
    return {j: x for j, x in enumerate(r) if x}


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


def rank(rows, ncols):
    """Rank of an integer matrix: the pivot count of ``echelon`` on its
    rows as sparse rows."""
    return len(echelon(map(_sparse, rows)))


def nullspace_vector(rows, ncols):
    """An integer kernel vector of integer rows when the kernel is
    one-dimensional, else None.

    ``echelon``'s pivot rows are solved in the integers, from the
    rightmost pivot leftwards, with 1 at the free column: before a pivot's
    entry is solved the vector is scaled by p / gcd(p, s), where p is the
    pivot and s the sum of the row's other entries times the vector, so
    that the entry -s / gcd(p, s) is an integer.  The vector is some
    integer multiple of the one ``rref`` gives, not a fixed one.
    """
    pivot_of = echelon(map(_sparse, rows))
    if len(pivot_of) != ncols - 1:
        return None
    vec = [0] * ncols
    vec[next(c for c in range(ncols) if c not in pivot_of)] = 1
    for col in sorted(pivot_of, reverse=True):
        row = pivot_of[col]
        s = sum(x * vec[j] for j, x in row.items())   # vec[col] is still 0
        g = gcd(row[col], s)
        k = row[col] // g
        if k != 1:
            vec = [k * x for x in vec]
        vec[col] = -s // g
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
