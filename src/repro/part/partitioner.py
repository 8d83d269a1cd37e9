"""METIS-like partitioning of the element dual graph (pure NumPy/SciPy).

:func:`repro.dd.partition.partition_elements` assigns elements to a regular
grid of boxes — exact for structured box meshes, useless for the
unstructured meshes of :mod:`repro.part.meshes` or non-rectangular
domains.  This module is the general-purpose replacement, following the
classic multilevel-partitioner recipe at single level:

1. **Dual graph** (:func:`element_dual_graph`): elements are vertices,
   facet-sharing pairs are edges — the graph METIS partitions.
2. **Recursive bisection** — either coordinate bisection (``"rcb"``: split
   along the widest centroid axis) or spectral bisection (``"spectral"``:
   split by the Fiedler vector of the subgraph Laplacian, with a
   deterministic start vector and an RCB fallback).
3. **Connectivity repair** (:func:`repair_connectivity`): stray components
   of a part are reassigned to the neighbour they touch most, so every
   part is connected in the dual graph (FETI subdomains with several
   islands would have larger kernels than their builder assumes), then
   cap-driven **rebalancing** (:func:`rebalance_partition`) trims parts
   the repair overfilled.
4. **Greedy boundary refinement** (:func:`refine_partition`): a
   Kernighan–Lin-style sweep moving boundary elements to the neighbouring
   part with the highest positive edge-cut gain, subject to the balance
   cap and a connectivity guard — the cut can only decrease.

:func:`partition_mesh` runs the pipeline and reports edge cut and balance;
:func:`repro.dd.decompose` accepts ``partitioner="rcb"|"spectral"`` to use
it end-to-end.  Everything is deterministic under a fixed *seed*.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.fem.mesh import Mesh
from repro.obs import get_tracer
from repro.util import require

#: Graph-partitioning methods of :func:`partition_mesh` (``repro.dd.decompose``
#: additionally accepts ``"boxes"`` for the structured grid path).
PARTITION_METHODS = ("rcb", "spectral")

#: Default balance slack: no part may exceed ``ceil(ideal * (1 + imbalance))``.
DEFAULT_IMBALANCE = 0.1

#: Subgraphs smaller than this use coordinate bisection even under
#: ``method="spectral"`` (an eigensolve on a handful of vertices is noise).
_SPECTRAL_MIN = 8


def element_dual_graph(mesh: Mesh) -> sp.csr_matrix:
    """Symmetric adjacency of elements sharing a facet (edge in 2-D, face in 3-D)."""
    from repro.part.meshes import element_facets, facet_keys

    elements = mesh.elements
    ne = elements.shape[0]
    facets, owners = element_facets(elements)
    keys = facet_keys(facets)
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    own_sorted = owners[order]
    dup = np.flatnonzero(keys_sorted[1:] == keys_sorted[:-1])
    a, b = own_sorted[dup], own_sorted[dup + 1]
    data = np.ones(a.size, dtype=np.float64)
    adj = sp.coo_matrix((data, (a, b)), shape=(ne, ne))
    adj = adj + adj.T
    return adj.tocsr()


def edge_cut(graph: sp.spmatrix, owner: np.ndarray) -> int:
    """Number of dual-graph edges whose endpoints lie in different parts."""
    coo = sp.triu(graph, k=1).tocoo()
    return int(np.count_nonzero(owner[coo.row] != owner[coo.col]))


def partition_balance(owner: np.ndarray, n_parts: int) -> float:
    """Largest part size over the ideal size (1.0 = perfectly balanced)."""
    counts = np.bincount(owner, minlength=n_parts)
    ideal = owner.size / n_parts
    return float(counts.max() / ideal) if owner.size else 0.0


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of one :func:`partition_mesh` call.

    ``owner[e]`` is the part of element *e*; ``edge_cut``/``balance`` are
    the standard partition-quality metrics (cut dual edges, max part size
    over ideal); ``counts`` the per-part element counts.
    """

    owner: np.ndarray
    n_parts: int
    method: str
    edge_cut: int
    balance: float
    counts: np.ndarray
    refined: bool
    seed: int

    def summary(self) -> str:
        return (
            f"{self.n_parts} parts ({self.method}"
            f"{', refined' if self.refined else ''}): edge cut {self.edge_cut}, "
            f"balance {self.balance:.3f}, sizes {int(self.counts.min())}"
            f"..{int(self.counts.max())}"
        )


def _bisection_sizes(n_items: int, parts: int) -> tuple[int, int, int]:
    """Split *parts* into halves and size the left item block proportionally."""
    left_parts = parts // 2
    right_parts = parts - left_parts
    n_left = int(round(n_items * left_parts / parts))
    # Each side must keep at least one element per part it still owes.
    n_left = min(max(n_left, left_parts), n_items - right_parts)
    return left_parts, right_parts, n_left


def _rcb_key(centroids: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Coordinate along the widest axis of the subset's centroid cloud."""
    sub = centroids[idx]
    extents = sub.max(axis=0) - sub.min(axis=0)
    return sub[:, int(np.argmax(extents))]


def _fiedler_key(
    graph: sp.csr_matrix, centroids: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Fiedler vector of the subgraph Laplacian (RCB key as fallback).

    The start vector is the mean-free RCB coordinate — deterministic, and
    generically rich in the Fiedler direction, so repeated runs converge to
    the same (up to sign — irrelevant for a split) vector.
    """
    rcb = _rcb_key(centroids, idx)
    if idx.size < _SPECTRAL_MIN:
        return rcb
    sub = graph[idx][:, idx]
    degree = np.asarray(sub.sum(axis=1)).ravel()
    lap = sp.diags(degree) - sub
    v0 = rcb - rcb.mean()
    norm = np.linalg.norm(v0)
    if norm == 0.0:
        return rcb
    try:
        _, vectors = sp.linalg.eigsh(lap.tocsc(), k=2, sigma=-1e-3, v0=v0 / norm)
    except Exception:  # eigensolver failure: keep the geometric split
        return rcb
    fiedler = vectors[:, 1]
    # Fix the sign so the key (and the resulting split) is deterministic.
    anchor = np.flatnonzero(np.abs(fiedler) > 1e-12)
    if anchor.size and fiedler[anchor[0]] < 0:
        fiedler = -fiedler
    return fiedler


def _bisect(
    graph: sp.csr_matrix,
    centroids: np.ndarray,
    method: str,
    owner: np.ndarray,
    idx: np.ndarray,
    parts: int,
    next_label: int,
) -> int:
    if parts == 1:
        owner[idx] = next_label
        return next_label + 1
    left_parts, right_parts, n_left = _bisection_sizes(idx.size, parts)
    with get_tracer().span(
        "part.bisect", n_elements=int(idx.size), parts=parts, method=method
    ):
        key = _rcb_key(centroids, idx) if method == "rcb" else _fiedler_key(
            graph, centroids, idx
        )
        order = np.argsort(key, kind="stable")
    next_label = _bisect(
        graph, centroids, method, owner, idx[order[:n_left]], left_parts, next_label
    )
    return _bisect(
        graph, centroids, method, owner, idx[order[n_left:]], right_parts, next_label
    )


def _part_members(owner: np.ndarray, part: int) -> np.ndarray:
    return np.flatnonzero(owner == part)


def repair_connectivity(
    graph: sp.csr_matrix,
    owner: np.ndarray,
    n_parts: int,
    imbalance: float = DEFAULT_IMBALANCE,
    max_passes: int = 10,
) -> np.ndarray:
    """Reassign stray components so every part is dual-graph connected.

    For each part with several components, every component except the
    largest moves wholesale to a neighbouring part — the one it shares the
    most dual edges with among those a balance cap (``ceil(ideal * (1 +
    imbalance))``) still admits, or the overall most-connected neighbour
    when every candidate is full (connectivity beats balance; the
    refinement's rebalance phase trims the excess afterwards where
    single-element moves allow).  Moving a whole component into a part it
    touches cannot disconnect the target, so a few passes reach a fixed
    point.
    """
    owner = owner.copy()
    cap = int(np.ceil(owner.size / n_parts * (1.0 + imbalance)))
    for _ in range(max_passes):
        changed = False
        part_counts = np.bincount(owner, minlength=n_parts)
        for part in range(n_parts):
            members = _part_members(owner, part)
            if members.size <= 1:
                continue
            n_comp, comp = connected_components(
                graph[members][:, members], directed=False
            )
            if n_comp <= 1:
                continue
            sizes = np.bincount(comp)
            keep = int(np.argmax(sizes))
            for c in range(n_comp):
                if c == keep:
                    continue
                stray = members[comp == c]
                neighbour_owner = owner[graph[stray].indices]
                neighbour_owner = neighbour_owner[neighbour_owner != part]
                if neighbour_owner.size == 0:
                    continue  # isolated island: nothing adjacent to join
                links = np.bincount(neighbour_owner, minlength=n_parts)
                fits = links * (part_counts + stray.size <= cap)
                target = int(np.argmax(fits)) if fits.any() else int(np.argmax(links))
                owner[stray] = target
                part_counts[part] -= stray.size
                part_counts[target] += stray.size
                changed = True
        if not changed:
            break
    return owner


def _stays_connected(graph: sp.csr_matrix, owner: np.ndarray, element: int) -> bool:
    """Would the element's part remain connected without it?"""
    part = owner[element]
    members = _part_members(owner, part)
    rest = members[members != element]
    if rest.size <= 1:
        return True
    n_comp, _ = connected_components(graph[rest][:, rest], directed=False)
    return n_comp == 1


def refine_partition(
    graph: sp.csr_matrix,
    owner: np.ndarray,
    n_parts: int,
    imbalance: float = DEFAULT_IMBALANCE,
    max_sweeps: int = 8,
) -> np.ndarray:
    """Greedy KL-style boundary refinement: strictly cut-reducing moves only.

    Boundary elements are visited in index order; one moves to the
    neighbouring part with the largest *positive* gain (dual edges gained
    minus lost) provided the target stays under the balance cap
    (``ceil(ideal * (1 + imbalance))``), the source keeps at least one
    element, and the source part stays connected.  Every accepted move
    lowers the edge cut by at least one, so the refined cut is never worse
    than the input's and the sweeps terminate.
    """
    return _frontier_sweeps(graph, owner, n_parts, imbalance, max_sweeps, rebalance=False)


def rebalance_partition(
    graph: sp.csr_matrix,
    owner: np.ndarray,
    n_parts: int,
    imbalance: float = DEFAULT_IMBALANCE,
    max_sweeps: int = 8,
) -> np.ndarray:
    """Push over-full parts back under the balance cap.

    Connectivity repair moves whole components, so a part can exceed
    ``ceil(ideal * (1 + imbalance))``.  This phase moves boundary elements
    of over-full parts to the adjacent part they are most connected to
    (best gain of *any* sign, connectivity guarded) until every part fits
    or no guarded single-element move remains — parts pinched into
    articulation chains may stay slightly above the cap, which
    :func:`partition_mesh` reports honestly in ``balance``.
    """
    return _frontier_sweeps(graph, owner, n_parts, imbalance, max_sweeps, rebalance=True)


def _frontier_sweeps(
    graph: sp.csr_matrix,
    owner: np.ndarray,
    n_parts: int,
    imbalance: float,
    max_sweeps: int,
    rebalance: bool,
) -> np.ndarray:
    """Index-order sweeps of single-element moves over the partition frontier.

    Only an element with a neighbour in another part can move, and that
    changes only when the element or a neighbour moves.  So each sweep
    starts from the boundary mask and, after a move, queues the mover's
    not-yet-visited neighbours: it visits and moves exactly what a scan of
    every element would.  *rebalance* only moves elements of over-full
    parts, at a gain of any sign (see :func:`_best_move`).
    """
    owner = owner.copy()
    counts = np.bincount(owner, minlength=n_parts)
    cap = int(np.ceil(owner.size / n_parts * (1.0 + imbalance)))
    indptr, indices = graph.indptr, graph.indices
    rows = np.repeat(np.arange(owner.size), np.diff(indptr))
    for _ in range(max_sweeps):
        if rebalance and not np.any(counts > cap):
            break
        queued = np.zeros(owner.size, dtype=bool)
        queued[rows[owner[rows] != owner[indices]]] = True
        frontier = np.flatnonzero(queued).tolist()  # ascending: a valid heap
        moved = 0
        while frontier:
            e = heapq.heappop(frontier)
            if rebalance and counts[owner[e]] <= cap:
                continue
            target = _best_move(graph, owner, counts, cap, e, not rebalance)
            if target < 0:
                continue
            counts[owner[e]] -= 1
            counts[target] += 1
            owner[e] = target
            moved += 1
            for nb in indices[indptr[e]:indptr[e + 1]].tolist():
                if nb > e and not queued[nb]:
                    queued[nb] = True
                    heapq.heappush(frontier, nb)
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
    """Best target part for element *e*, or -1 when no admissible move exists.

    Cut-reducing sweeps (*require_positive_gain*) respect the cap strictly;
    rebalance moves may also target an at-cap part when that still strictly
    shrinks the over-full source.  Either way the source must keep at least
    one element and stay dual-graph connected.
    """
    own = int(owner[e])
    links = Counter(owner[graph.indices[graph.indptr[e]:graph.indptr[e + 1]]].tolist())
    own_links = links.pop(own, 0)
    if counts[own] <= 1 or not links:
        return -1
    floor = 1 if require_positive_gain else -own_links
    best_gain, best_part = floor - 1, -1
    for p in sorted(links):  # ascending: ties keep the smallest part
        if counts[p] >= cap and (
            require_positive_gain or counts[p] + 1 >= counts[own]
        ):
            continue
        gain = links[p] - own_links
        if gain > best_gain:
            best_gain, best_part = gain, p
    if best_part >= 0 and not _stays_connected(graph, owner, e):
        return -1
    return best_part


def partition_mesh(
    mesh: Mesh,
    n_parts: int,
    method: str = "rcb",
    refine: bool = True,
    imbalance: float = DEFAULT_IMBALANCE,
    seed: int = 0,
) -> PartitionResult:
    """Partition *mesh*'s elements into *n_parts* connected, balanced parts.

    Recursive bisection (*method*: coordinate ``"rcb"`` or spectral
    ``"spectral"``) over the element dual graph, followed by connectivity
    repair, cap-driven rebalancing and — with *refine* (default) — a
    greedy boundary refinement that can only lower the edge cut (so the
    refined cut is never worse than ``refine=False``'s).  Deterministic
    for fixed inputs
    (*seed* is recorded for provenance and reserved for randomized
    refinements; the current pipeline draws no random numbers).
    """
    require(method in PARTITION_METHODS, f"unknown partition method {method!r}")
    require(n_parts >= 1, "n_parts must be >= 1")
    require(
        n_parts <= mesh.n_elements,
        f"cannot split {mesh.n_elements} elements into {n_parts} parts",
    )
    require(imbalance >= 0.0, "imbalance must be >= 0")
    tracer = get_tracer()
    with tracer.span(
        "part.partition", n_elements=mesh.n_elements, n_parts=n_parts, method=method
    ):
        owner, counts, graph = _partition_stages(
            mesh, n_parts, method, refine, imbalance, tracer
        )
    return PartitionResult(
        owner=owner,
        n_parts=n_parts,
        method=method,
        edge_cut=edge_cut(graph, owner),
        balance=partition_balance(owner, n_parts),
        counts=counts,
        refined=refine,
        seed=seed,
    )


def _partition_stages(mesh, n_parts, method, refine, imbalance, tracer):
    """The staged partition pipeline, each stage a ``part.*`` span."""
    with tracer.span("part.dual_graph"):
        graph = element_dual_graph(mesh)
    n_comp, _ = connected_components(graph, directed=False)
    # The connected-parts guarantee is only meaningful on a connected mesh:
    # islands can neither be repaired into their part's component nor
    # detected downstream (FETI subdomains with several islands have larger
    # kernels than their builder assumes), so refuse loudly.
    require(
        n_comp == 1,
        f"mesh dual graph has {n_comp} connected components; partition each "
        "component separately (partition_mesh guarantees connected parts "
        "only on a connected mesh)",
    )
    centroids = mesh.coords[mesh.elements].mean(axis=1)
    owner = np.empty(mesh.n_elements, dtype=np.intp)
    _bisect(graph, centroids, method, owner, np.arange(mesh.n_elements), n_parts, 0)
    with tracer.span("part.repair"):
        owner = repair_connectivity(graph, owner, n_parts, imbalance=imbalance)
    with tracer.span("part.rebalance"):
        owner = rebalance_partition(graph, owner, n_parts, imbalance=imbalance)
    if refine:
        with tracer.span("part.refine"):
            owner = refine_partition(graph, owner, n_parts, imbalance=imbalance)
    counts = np.bincount(owner, minlength=n_parts)
    require(int(counts.min()) >= 1, "partition produced an empty part")
    return owner, counts, graph


__all__ = [
    "DEFAULT_IMBALANCE",
    "PARTITION_METHODS",
    "PartitionResult",
    "edge_cut",
    "element_dual_graph",
    "partition_balance",
    "partition_mesh",
    "rebalance_partition",
    "refine_partition",
    "repair_connectivity",
]
