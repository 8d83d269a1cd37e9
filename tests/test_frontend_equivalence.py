"""The array-code front end equals its loop references byte for byte.

Dual graph, boundary nodes, refined / rebalanced owners, nested-dissection
permutations, symbolic factors and factor-pattern CSCs are compared with
the per-element and per-column loops of :mod:`reference_frontend` over
the mesh zoo, both graph partitioners and union patterns.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.fem import heat_problem
from repro.part import (
    boundary_nodes_from_elements,
    element_dual_graph,
    facet_keys,
    make_mesh,
    partition_mesh,
    rebalance_partition,
    refine_partition,
    repair_connectivity,
)
from repro.part.partitioner import _bisect
from repro.sparse import cholesky
from repro.sparse.canonical import pattern_union
from repro.sparse.ordering import amd as amd_module
from repro.sparse.ordering import nested_dissection
from repro.sparse.symbolic import (
    factor_pattern_csc,
    symbolic_factorize,
    symbolic_from_factor,
    symbolic_from_pattern,
)
from tests import reference_frontend as ref

#: (mesh, cells, seed) of the zoo cases; small enough for tier-1.
ZOO = [
    ("square", 8, 0),
    ("cube", 4, 0),
    ("jittered", 10, 0),
    ("jittered", 10, 1),
    ("jittered", 10, 2),
    ("lshape", 8, 0),
    ("strip", 4, 0),
]
ZOO_IDS = [f"{name}{cells}-s{seed}" for name, cells, seed in ZOO]


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_csr(a: sp.spmatrix, b: sp.spmatrix) -> bool:
    return (
        a.format == b.format
        and a.shape == b.shape
        and all(
            _same_array(getattr(a, f), getattr(b, f))
            for f in ("indptr", "indices", "data")
        )
    )


def _same_symbolic(a, b) -> bool:
    fields = ("parent", "col_counts", "row_indptr", "row_indices", "supernodes")
    return (
        a.n == b.n
        and a.nnz_l == b.nnz_l
        and a.flops == b.flops
        and all(_same_array(getattr(a, f), getattr(b, f)) for f in fields)
        and a.pattern_digest() == b.pattern_digest()
    )


@pytest.mark.parametrize("case", ZOO, ids=ZOO_IDS)
def test_dual_graph_and_boundary_match_rowwise_unique(case):
    mesh = make_mesh(case[0], case[1], case[2])
    assert _same_csr(element_dual_graph(mesh), ref.element_dual_graph(mesh.elements))
    assert _same_array(
        boundary_nodes_from_elements(mesh.elements),
        ref.boundary_nodes_from_elements(mesh.elements),
    )


@pytest.mark.parametrize("method", ["rcb", "spectral"])
@pytest.mark.parametrize("case", ZOO, ids=ZOO_IDS)
def test_frontier_sweeps_match_full_scans(case, method):
    """Rebalance and refine on the bisection + repair owners, at the default
    cap and at a zero-slack cap that forces many rebalance moves."""
    mesh = make_mesh(case[0], case[1], case[2])
    n_parts = 6
    graph = element_dual_graph(mesh)
    centroids = mesh.coords[mesh.elements].mean(axis=1)
    owner = np.empty(mesh.n_elements, dtype=np.intp)
    _bisect(graph, centroids, method, owner, np.arange(mesh.n_elements), n_parts, 0)
    for imbalance in (0.1, 0.0):
        repaired = repair_connectivity(graph, owner, n_parts, imbalance=imbalance)
        balanced = rebalance_partition(graph, repaired, n_parts, imbalance=imbalance)
        assert _same_array(
            balanced, ref.rebalance_partition(graph, repaired, n_parts, imbalance)
        )
        assert _same_array(
            refine_partition(graph, balanced, n_parts, imbalance=imbalance),
            ref.refine_partition(graph, balanced, n_parts, imbalance),
        )
    # Refinement straight from the raw bisection, and rebalance of an owner
    # whose last part is merged into the one before (many frontier moves).
    assert _same_array(
        refine_partition(graph, owner, n_parts),
        ref.refine_partition(graph, owner, n_parts),
    )
    merged = np.where(owner == n_parts - 1, n_parts - 2, owner)
    for imbalance in (0.1, 0.0):
        assert _same_array(
            rebalance_partition(graph, merged, n_parts, imbalance=imbalance),
            ref.rebalance_partition(graph, merged, n_parts, imbalance),
        )


def test_repair_returns_an_island_to_the_part_around_it():
    """A one-element island joins the only part it touches (one gather of
    the stray component's neighbour owners)."""
    mesh = make_mesh("square", 6, 0)
    graph = element_dual_graph(mesh)
    owner = partition_mesh(mesh, 2).owner.copy()
    interior = [
        e for e in range(mesh.n_elements)
        if np.all(owner[graph[e].indices] == owner[e])
    ]
    island = interior[len(interior) // 2]
    home = owner[island]
    owner[island] = 1 - home  # an island of the other part inside its home
    repaired = repair_connectivity(graph, owner, 2, imbalance=1.0)
    assert repaired[island] == home
    assert np.count_nonzero(repaired != owner) == 1


def _stiffness(mesh) -> sp.csr_matrix:
    return heat_problem(mesh).k.tocsr()


@pytest.mark.parametrize("case", ZOO, ids=ZOO_IDS)
def test_nd_and_amd_permutations_match_numpy_indexed_amd(case, monkeypatch):
    mesh = make_mesh(case[0], case[1], case[2])
    k = _stiffness(mesh)
    assert _same_array(amd_module.amd_ordering(k), ref.amd_ordering(k))
    fast = nested_dissection.nd_ordering(k, coords=mesh.coords, leaf_size=24)
    monkeypatch.setattr(nested_dissection, "amd_ordering", ref.amd_ordering)
    slow = nested_dissection.nd_ordering(k, coords=mesh.coords, leaf_size=24)
    assert _same_array(fast, slow)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_amd_tiny_orders(n):
    a = sp.csr_matrix(np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1))
    assert _same_array(amd_module.amd_ordering(a), ref.amd_ordering(a))


@pytest.mark.parametrize("case", ZOO, ids=ZOO_IDS)
def test_symbolic_factor_matches_per_column_loops(case):
    mesh = make_mesh(case[0], case[1], case[2])
    k = _stiffness(mesh) + sp.identity(mesh.n_nodes)
    factor = cholesky(k)
    lc = factor.l.tocsc()
    lc.sort_indices()
    fast = symbolic_from_factor(factor.l)
    assert _same_symbolic(fast, ref.symbolic_from_pattern(lc.indptr, lc.indices, k.shape[0]))
    sym = symbolic_factorize(k.tocsc()[factor.perm][:, factor.perm])
    assert _same_csr(factor_pattern_csc(sym), ref.factor_pattern_csc(sym))
    assert _same_csr(factor_pattern_csc(fast), ref.factor_pattern_csc(fast))


def test_symbolic_factor_matches_on_union_patterns():
    """Unions of the factor patterns of a jittered decomposition's pieces —
    the padded path's input, not closed under fill."""
    mesh = make_mesh("jittered", 10, 1)
    result = partition_mesh(mesh, 4)
    ls = []
    for part in range(4):
        nodes = np.unique(mesh.elements[result.owner == part])
        k = _stiffness(mesh)[nodes][:, nodes] + sp.identity(nodes.size)
        ls.append(cholesky(k).l)
    n_max = max(l.shape[0] for l in ls)
    for members in (ls, ls[:2], ls[1:]):
        union = pattern_union(members, (n_max, n_max), force_diagonal=True)
        fast = symbolic_from_pattern(union.indptr, union.indices, n_max)
        slow = ref.symbolic_from_pattern(union.indptr, union.indices, n_max)
        assert _same_symbolic(fast, slow)
        assert _same_csr(factor_pattern_csc(fast), ref.factor_pattern_csc(fast))


@pytest.mark.parametrize("n", [0, 1])
def test_symbolic_factor_matches_at_orders_zero_and_one(n):
    indptr = np.arange(n + 1, dtype=np.intp)
    indices = np.arange(n, dtype=np.intp)
    fast = symbolic_from_pattern(indptr, indices, n)
    assert _same_symbolic(fast, ref.symbolic_from_pattern(indptr, indices, n))
    assert _same_csr(factor_pattern_csc(fast), ref.factor_pattern_csc(fast))


@settings(max_examples=60, deadline=None)
@given(
    rows=arrays(
        np.int64,
        st.tuples(st.integers(0, 40), st.integers(1, 4)),
        elements=st.integers(0, 30),
    )
)
def test_facet_key_order_is_lexicographic_row_order(rows):
    keys = facet_keys(rows)
    by_key = np.argsort(keys, kind="stable")
    by_rows = np.lexsort(rows.T[::-1])
    assert np.array_equal(by_key, by_rows)
    # Equal keys exactly when equal rows.
    assert np.unique(keys).size == np.unique(rows, axis=0).shape[0]


def test_facet_keys_refuse_an_int64_overflow():
    with pytest.raises(ValueError, match="int64"):
        facet_keys(np.array([[0, 1, 2**22]]))


def test_jittered_union_partition_is_pinned():
    """The perf workload's partition: 18 432 triangles into 48 rcb parts."""
    mesh = make_mesh("jittered", 96, 0)
    result = partition_mesh(mesh, 48, method="rcb")
    assert result.edge_cut == 1216
