"""Sparse exact rank computation over the rationals.

Betti numbers must not depend on floating-point rank decisions, so boundary
ranks are computed by fraction-free Gaussian elimination (Bareiss, *Math.
Comp.* 22, 1968).  Free columns go first: a column held by one live row is
an elementary collapse, and pivoting that row on it fills nothing and
touches no other row, so a complex that collapses (a torus with a triangle
removed, say) is ranked with no fill at all.  Only when no column is free
does the next pivot come from a minimum-fill heuristic: the shortest row,
on its column held by the fewest rows.  Entries stay Python
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

    # columns held by one live row; a stale one is skipped when popped
    free = [c for c, held in col_rows.items() if len(held) == 1]
    heap = None
    rank = 0
    while True:
        while free:
            held = col_rows[free.pop()]
            if len(held) != 1:
                continue
            i = held.pop()
            rank += 1
            for c in live.pop(i):
                held = col_rows[c]
                held.discard(i)
                if len(held) == 1:
                    free.append(c)
        if not live:
            return rank
        if heap is None:
            heap = [(len(row), i) for i, row in live.items()]
            heapq.heapify(heap)
        while True:
            nnz, i = heapq.heappop(heap)
            row = live.get(i)
            if row is not None:
                if len(row) == nnz:
                    break
                heapq.heappush(heap, (len(row), i))
        # pivot column: fewest other live rows touching it
        pivot_col = min(row, key=lambda c: (len(col_rows[c]), c))
        pivot_val = row[pivot_col]
        rank += 1
        del live[i]
        targets = col_rows[pivot_col]
        targets.discard(i)
        for j in list(targets):
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
        # the row leaves its columns only now, so a column is free when it
        # ends the elimination held by one row, not in passing
        for c in row:
            held = col_rows[c]
            held.discard(i)
            if len(held) == 1:
                free.append(c)
