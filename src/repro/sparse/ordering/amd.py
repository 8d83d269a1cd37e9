"""Approximate minimum-degree (AMD) fill-reducing ordering.

A from-scratch quotient-graph minimum-degree implementation in the spirit of
Amestoy–Davis–Duff.  Eliminated variables become *elements*; the clique a
variable elimination would create is represented implicitly by the element,
and degrees are recomputed approximately (element sizes are summed without
subtracting overlaps, which is exactly the "approximate" in AMD).

The elimination loop runs on plain Python lists and sets (indexing a NumPy
array one scalar at a time costs more than the set work it guards).  It is
the ordering for small/medium matrices and for the leaves of nested
dissection; large problems should use
:func:`repro.sparse.ordering.nested_dissection.nd_ordering`.
"""

from __future__ import annotations

import heapq

import numpy as np
import scipy.sparse as sp

from repro.util import check_sparse_square


def amd_ordering(a: sp.spmatrix) -> np.ndarray:
    """Return an approximate-minimum-degree permutation of symmetric *a*.

    ``perm[k]`` is the original index of the variable eliminated at step *k*,
    i.e. ``a[perm][:, perm]`` is the reordered matrix.
    """
    n = check_sparse_square(a, "a")
    if n == 0:
        return np.arange(0, dtype=np.intp)
    acsr = a.tocsr()
    indptr, indices = acsr.indptr.tolist(), acsr.indices.tolist()
    # Structural adjacency without the diagonal.
    adj: list[set[int]] = []
    for i in range(n):
        row = set(indices[indptr[i] : indptr[i + 1]])
        row.discard(i)
        adj.append(row)

    elems: list[set[int]] = [set() for _ in range(n)]  # elements adjacent to var
    elem_nodes: dict[int, set[int]] = {}  # element id -> boundary variables
    alive = [True] * n
    degree = [len(s) for s in adj]

    heap: list[tuple[int, int]] = [(d, i) for i, d in enumerate(degree)]
    heapq.heapify(heap)
    order: list[int] = []

    for _ in range(n):
        # Lazy-deletion pop: skip dead or stale entries.
        while True:
            d, p = heapq.heappop(heap)
            if alive[p] and d == degree[p]:
                break
        order.append(p)
        alive[p] = False

        # Boundary of the new element: direct neighbours plus the boundaries
        # of all adjacent elements (which are hereby absorbed).
        lp = {i for i in adj[p] if alive[i]}
        for e in elems[p]:
            lp.update(i for i in elem_nodes[e] if alive[i])
        lp.discard(p)
        absorbed = elems[p]
        for e in absorbed:
            del elem_nodes[e]
        elem_nodes[p] = lp
        adj[p] = set()
        elems[p] = set()

        lp_size = len(lp)
        for i in lp:
            ai = adj[i]
            ai.difference_update(lp)
            ai.discard(p)
            ei = elems[i]
            ei.difference_update(absorbed)
            ei.add(p)
            # Approximate external degree: direct neighbours plus element
            # boundary sizes (overlaps intentionally overcounted).
            d_i = len(ai) + (lp_size - 1)
            for e in ei:
                if e != p:
                    d_i += len(elem_nodes[e]) - 1
            degree[i] = d_i
            heapq.heappush(heap, (d_i, i))

    return np.asarray(order, dtype=np.intp)
