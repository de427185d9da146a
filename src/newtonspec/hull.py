"""Exact convex hull of points plus a cone of directions, by double description.

A point p is its homogeneous row (p, -1), a direction d its row (d, 0),
and a facet <h, x> <= c its ray (h, c); a row lies on, inside or outside
the facet as their dot product is 0, negative or positive.  The facets
of a simplex come first: its rows are the first n + 1 that
``linalg.add_row`` takes in, and each facet is the kernel vector of n of
them.  Then one row at a time goes in, each cutting off the facets it
sees and joining the adjacent pairs it separates.  A facet is its
primitive integer (normal, level) and the bitmask of the rows on it;
adjacency is read from those masks, so after the simplex every step is
an integer dot product, a combination of two facets or a mask test.

The masks leave the module as they are, as each :class:`HullFacet`'s
contact and as the :func:`hull_vertices` mask; no set is built.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import List, NamedTuple, Sequence, Tuple

from . import linalg

Vec = Tuple[int, ...]


class HullFacet(NamedTuple):
    """A facet <normal, x> <= level of the hull, (normal, level) primitive
    integers; bit i of ``contact`` is set when row i lies on it."""

    normal: Vec
    level: int
    contact: int


def enumerate_facets(points: Sequence[Vec], n: int, directions: Sequence[Vec] = ()) -> List[HullFacet]:
    """All facets of conv(points) + cone(directions), with outward normals
    and contact masks.

    The double description method (Fukuda and Prodon, 1996), in the
    integers, with no ``Fraction``.  A facet is the ray r = (h, c) of the
    cone of inequalities <h, x> <= c valid on the rows seen so far, kept
    as its primitive integer vector together with its tight set, the
    bitmask of the seen rows on it: rows 0 to len(points) - 1 are the
    points, the rest the directions.  The cone starts from the facets of
    a simplex on the first n + 1 independent rows; each other row q then
    goes in, in index order.  With s = <r, q>, the rays with s > 0 are
    dropped and those with s = 0 gain q in their tight sets.  Each
    dropped ray r+ and kept ray r- with s < 0 that are adjacent give the
    new ray s+ * r- - s- * r+, on which q is tight.  Two rays are
    adjacent when their common tight set holds at least n - 1 rows and
    lies in the tight set of no third ray: one scan of the tight sets
    counts the rays that hold it and stops at the third.  At the end each
    tight set is a contact mask.  The ray (0, ..., 0, 1), tight on the
    directions alone, is the face at infinity and is left out.  Facets
    are sorted by (h, c); without n + 1 independent rows there are none.
    """
    rows = [tuple(p) + (-1,) for p in points] + [tuple(d) + (0,) for d in directions]
    pivot_of: dict = {}
    simplex = []
    for i, q in enumerate(rows):
        if linalg.add_row(pivot_of, {j: x for j, x in enumerate(q) if x}):
            simplex.append(i)
            if len(simplex) == n + 1:
                break
    else:
        return []
    rays = []   # (h + (c,), tight set)
    for j in simplex:
        face = [i for i in simplex if i != j]
        r = linalg.nullspace_vector([rows[i] for i in face], n + 1)
        g = gcd(*r)
        if sum(map(mul, r, rows[j])) > 0:
            g = -g   # flip r so that the simplex lies in <h, x> <= c
        rays.append((tuple(x // g for x in r), sum(1 << i for i in face)))
    for i, q in enumerate(rows):
        if i in simplex:
            continue
        bit = 1 << i
        above, below, kept = [], [], []
        for r, tight in rays:
            s = sum(map(mul, r, q))
            if s > 0:
                above.append((s, r, tight))
            elif s < 0:
                below.append((s, r, tight))
                kept.append((r, tight))
            else:
                kept.append((r, tight | bit))
        tights = [t for _, t in rays]
        for s_up, r_up, t_up in above:
            for s_down, r_down, t_down in below:
                common = t_up & t_down
                if common.bit_count() < n - 1:
                    continue
                # both rays hold common, and distinct facets have distinct
                # tight sets, so a third holder means they are not adjacent
                holders = 0
                for t in tights:
                    if t & common == common:
                        holders += 1
                        if holders > 2:
                            break
                else:
                    r = [s_up * a - s_down * b for a, b in zip(r_down, r_up)]
                    g = gcd(*r)
                    kept.append((tuple(x // g for x in r), common | bit))
        rays = kept
    return [HullFacet(r[:-1], r[-1], tight) for r, tight in sorted(rays) if any(r[:-1])]


def hull_vertices(npts: int, facets: Sequence[HullFacet]) -> int:
    """The bitmask of the hull's vertices: the points i where the facets
    through i meet in i alone."""
    verts = 0
    for i in range(npts):
        common = -1
        for f in facets:
            if f.contact >> i & 1:
                common &= f.contact
        if common == 1 << i:
            verts |= common
    return verts
