"""Unstructured workloads: mesh zoo + METIS-like dual-graph partitioning.

The first workload family where batch grouping is *not* free: meshes with
jittered nodes, random cell splits or non-rectangular domains
(:mod:`repro.part.meshes`), decomposed by a recursive-bisection graph
partitioner with boundary refinement (:mod:`repro.part.partitioner`)
instead of the structured box grid.  Subdomains of such decompositions are
at best *approximately* congruent, which is exactly the regime the
rotation-invariant signatures of :mod:`repro.sparse.canonical` price —
see ``docs/unstructured.md``.
"""

from repro.part.meshes import (
    MESH_ZOO,
    boundary_nodes_from_elements,
    element_facets,
    facet_keys,
    jittered_square_mesh,
    lshape_mesh,
    make_mesh,
    strip_with_holes_mesh,
    submesh,
)
from repro.part.partitioner import (
    DEFAULT_IMBALANCE,
    PARTITION_METHODS,
    PartitionResult,
    edge_cut,
    element_dual_graph,
    partition_balance,
    partition_mesh,
    rebalance_partition,
    refine_partition,
    repair_connectivity,
)

__all__ = [
    "MESH_ZOO",
    "boundary_nodes_from_elements",
    "element_facets",
    "facet_keys",
    "jittered_square_mesh",
    "lshape_mesh",
    "make_mesh",
    "strip_with_holes_mesh",
    "submesh",
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
