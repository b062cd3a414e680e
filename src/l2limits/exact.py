"""Sparse exact rank computation over the rationals.

Betti numbers must not depend on floating-point rank decisions, so boundary
ranks are computed by fraction-free Gaussian elimination (Bareiss, *Math.
Comp.* 22, 1968) with a minimum-fill pivot heuristic.  Entries stay Python
ints throughout: a row is eliminated as ``(pv/g)·row − (a/g)·pivot_row`` with
g = gcd(pv, a), and a row that had to be scaled is divided by the gcd of its
entries, which bounds the growth of its entries.  Every integer row is a
positive multiple of the row rational elimination would hold, so the sparsity
pattern and the pivot choices are the same.  ``spectral.boundary_rank``
needs no elimination for d_1, whose rank is |V| minus the number of
components.
"""

from __future__ import annotations

import heapq
from math import gcd


def rational_rank(rows) -> int:
    """Rank over the rationals of a sparse integer matrix.

    ``rows`` is an iterable of ``{column: int}`` dicts; a column is any
    hashable, ordered key.  Elimination works on a private copy, so the
    input is left untouched.
    """
    live: dict[int, dict] = {}
    for i, row in enumerate(rows):
        nonzero = {c: v for c, v in row.items() if v}
        if nonzero:
            live[i] = nonzero
    col_rows: dict = {}
    for i, row in live.items():
        for c in row:
            col_rows.setdefault(c, set()).add(i)

    heap = [(len(row), i) for i, row in live.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        nnz, i = heapq.heappop(heap)
        row = live.get(i)
        if row is None or len(row) != nnz:
            if row is not None:
                heapq.heappush(heap, (len(row), i))
            continue
        # pivot column: fewest other live rows touching it
        pivot_col = min(row, key=lambda c: (len(col_rows[c]), c))
        pivot_val = row[pivot_col]
        rank += 1
        del live[i]
        for c in row:
            col_rows[c].discard(i)
        targets = list(col_rows[pivot_col])
        for j in targets:
            other = live[j]
            a = other[pivot_col]
            g = gcd(pivot_val, a)
            scale, factor = pivot_val // g, a // g
            if scale < 0:
                scale, factor = -scale, -factor
            if scale != 1:
                for c in other:
                    other[c] *= scale
            for c, v in row.items():
                cur = other.get(c)
                if cur is None:
                    other[c] = -factor * v
                    col_rows[c].add(j)
                else:
                    cur -= factor * v
                    if cur:
                        other[c] = cur
                    else:
                        del other[c]
                        col_rows[c].discard(j)
            if not other:
                del live[j]
                continue
            if scale != 1:
                common = gcd(*other.values())
                if common != 1:
                    for c in other:
                        other[c] //= common
            heapq.heappush(heap, (len(other), j))
    return rank
