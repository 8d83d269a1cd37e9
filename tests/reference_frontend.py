"""Reference oracles for the unstructured front end: the per-element and
per-column loops the library's array code is checked against.

The library builds facet tables on one int64 key per facet, sweeps only
the partition frontier, derives symbolic factors with ``lexsort`` and
orders leaves on plain Python containers; these straightforward
versions — row-wise ``np.unique``, full index-order scans, per-column
slicing and NumPy-indexed AMD — are kept beside the tests only, as the
exact references those fast paths must reproduce byte for byte.
"""

from __future__ import annotations

import heapq

import numpy as np
import scipy.sparse as sp

from repro.part.meshes import element_facets
from repro.part.partitioner import DEFAULT_IMBALANCE, _stays_connected
from repro.sparse.symbolic import SymbolicFactor
from repro.util import check_sparse_square, cholesky_flops, require


def element_dual_graph(elements: np.ndarray) -> sp.csr_matrix:
    """Facet-sharing element adjacency through a row-wise ``np.unique``."""
    ne = elements.shape[0]
    facets, owners = element_facets(elements)
    _, inverse = np.unique(facets, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    order = np.argsort(inverse, kind="stable")
    inv_sorted = inverse[order]
    own_sorted = owners[order]
    dup = np.flatnonzero(inv_sorted[1:] == inv_sorted[:-1])
    a, b = own_sorted[dup], own_sorted[dup + 1]
    data = np.ones(a.size, dtype=np.float64)
    adj = sp.coo_matrix((data, (a, b)), shape=(ne, ne))
    adj = adj + adj.T
    return adj.tocsr()


def boundary_nodes_from_elements(elements: np.ndarray) -> np.ndarray:
    """Nodes on a facet owned by one element, through a row-wise ``np.unique``."""
    facets, _ = element_facets(elements)
    uniq, counts = np.unique(facets, axis=0, return_counts=True)
    free = uniq[counts == 1]
    return np.unique(free).astype(np.intp)


def refine_partition(
    graph: sp.csr_matrix,
    owner: np.ndarray,
    n_parts: int,
    imbalance: float = DEFAULT_IMBALANCE,
    max_sweeps: int = 8,
) -> np.ndarray:
    """Cut-reducing sweeps that try every element in index order."""
    owner = owner.copy()
    counts = np.bincount(owner, minlength=n_parts)
    cap = int(np.ceil(owner.size / n_parts * (1.0 + imbalance)))
    for _ in range(max_sweeps):
        moved = 0
        for e in range(owner.size):
            target = _best_move(
                graph, owner, counts, cap, e, require_positive_gain=True
            )
            if target < 0:
                continue
            counts[owner[e]] -= 1
            counts[target] += 1
            owner[e] = target
            moved += 1
        if moved == 0:
            break
    return owner


def rebalance_partition(
    graph: sp.csr_matrix,
    owner: np.ndarray,
    n_parts: int,
    imbalance: float = DEFAULT_IMBALANCE,
    max_sweeps: int = 8,
) -> np.ndarray:
    """Cap-driven sweeps that try every element of an over-full part."""
    owner = owner.copy()
    counts = np.bincount(owner, minlength=n_parts)
    cap = int(np.ceil(owner.size / n_parts * (1.0 + imbalance)))
    for _ in range(max_sweeps):
        if not np.any(counts > cap):
            break
        moved = 0
        for e in range(owner.size):
            if counts[owner[e]] <= cap:
                continue
            target = _best_move(
                graph, owner, counts, cap, e, require_positive_gain=False
            )
            if target < 0:
                continue
            counts[owner[e]] -= 1
            counts[target] += 1
            owner[e] = target
            moved += 1
        if moved == 0:
            break
    return owner


def _best_move(
    graph: sp.csr_matrix,
    owner: np.ndarray,
    counts: np.ndarray,
    cap: int,
    e: int,
    require_positive_gain: bool,
) -> int:
    """Admissible best target of element *e* through ``np.unique`` counts."""
    own = owner[e]
    indptr, indices = graph.indptr, graph.indices
    neighbour_parts = owner[indices[indptr[e]:indptr[e + 1]]]
    if counts[own] <= 1 or not np.any(neighbour_parts != own):
        return -1
    parts, links = np.unique(neighbour_parts, return_counts=True)
    own_links = int(links[parts == own].sum())
    floor = 1 if require_positive_gain else -own_links
    best_gain, best_part = floor - 1, -1
    for p, link in zip(parts, links):
        if p == own:
            continue
        if counts[p] >= cap and (
            require_positive_gain or counts[p] + 1 >= counts[own]
        ):
            continue
        gain = int(link) - own_links
        if gain > best_gain:
            best_gain, best_part = gain, int(p)
    if best_part >= 0 and not _stays_connected(graph, owner, e):
        return -1
    return best_part


def _fundamental_supernodes(parent: np.ndarray, col_counts: np.ndarray) -> np.ndarray:
    n = parent.size
    if n == 0:
        return np.asarray([0], dtype=np.intp)
    starts = [0]
    for j in range(n - 1):
        if not (parent[j] == j + 1 and col_counts[j] == col_counts[j + 1] + 1):
            starts.append(j + 1)
    starts.append(n)
    return np.asarray(starts, dtype=np.intp)


def symbolic_from_pattern(
    indptr: np.ndarray, indices: np.ndarray, n: int
) -> SymbolicFactor:
    """Symbolic factor of a sorted-CSC pattern, one column and one row at a time."""
    indptr = np.asarray(indptr, dtype=np.intp)
    indices = np.asarray(indices, dtype=np.intp)
    require(indptr.shape == (n + 1,), "indptr must have n + 1 entries")
    parent = np.full(n, -1, dtype=np.intp)
    for j in range(n):
        col = indices[indptr[j] : indptr[j + 1]]
        below = col[col > j]
        if below.size:
            parent[j] = below[0]
    col_counts = np.asarray(np.diff(indptr), dtype=np.int64)

    lr = sp.csc_matrix(
        (np.ones(indices.size, dtype=np.float64), indices, indptr), shape=(n, n)
    ).tocsr()
    lr.sort_indices()
    rows: list[np.ndarray] = []
    indptr_list: list[int] = [0]
    nnz_below = 0
    for i in range(n):
        cols = lr.indices[lr.indptr[i] : lr.indptr[i + 1]]
        patt = np.asarray(cols[cols < i], dtype=np.intp)
        rows.append(patt)
        nnz_below += patt.size
        indptr_list.append(nnz_below)

    return SymbolicFactor(
        n=n,
        parent=parent,
        col_counts=col_counts,
        nnz_l=int(col_counts.sum()),
        flops=cholesky_flops(col_counts),
        row_indptr=np.asarray(indptr_list, dtype=np.intp),
        row_indices=np.concatenate(rows) if rows else np.empty(0, dtype=np.intp),
        supernodes=_fundamental_supernodes(parent, col_counts),
    )


def factor_pattern_csc(sym: SymbolicFactor) -> sp.csc_matrix:
    """Pattern of ``L`` (diagonal included) assembled row by row through COO."""
    n = sym.n
    rows = []
    cols = []
    for i in range(n):
        patt = sym.row(i)
        rows.append(np.full(patt.size + 1, i, dtype=np.intp))
        cols.append(np.append(patt, i))
    rows_arr = np.concatenate(rows) if rows else np.empty(0, dtype=np.intp)
    cols_arr = np.concatenate(cols) if cols else np.empty(0, dtype=np.intp)
    data = np.ones(rows_arr.size, dtype=np.float64)
    return sp.csc_matrix((data, (rows_arr, cols_arr)), shape=(n, n))


def amd_ordering(a: sp.spmatrix) -> np.ndarray:
    """Approximate minimum degree with NumPy ``degree`` / ``alive`` / ``order``."""
    n = check_sparse_square(a, "a")
    if n == 0:
        return np.arange(0, dtype=np.intp)
    acsr = a.tocsr()
    adj: list[set[int]] = []
    for i in range(n):
        row = acsr.indices[acsr.indptr[i] : acsr.indptr[i + 1]]
        adj.append({int(j) for j in row if j != i})

    elems: list[set[int]] = [set() for _ in range(n)]
    elem_nodes: dict[int, set[int]] = {}
    alive = np.ones(n, dtype=bool)
    degree = np.fromiter((len(s) for s in adj), count=n, dtype=np.int64)

    heap: list[tuple[int, int]] = [(int(degree[i]), i) for i in range(n)]
    heapq.heapify(heap)
    order = np.empty(n, dtype=np.intp)

    for k in range(n):
        while True:
            d, p = heapq.heappop(heap)
            if alive[p] and d == degree[p]:
                break
        order[k] = p
        alive[p] = False

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
            d_i = len(ai) + (lp_size - 1)
            for e in ei:
                if e != p:
                    d_i += len(elem_nodes[e]) - 1
            degree[i] = d_i
            heapq.heappush(heap, (d_i, i))

    return order
