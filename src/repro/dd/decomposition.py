"""Top-level decomposition of a heat-transfer problem into FETI subdomains."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dd.cluster import Cluster, make_clusters
from repro.dd.interface import build_interface, check_gluing_consistency
from repro.dd.partition import partition_elements, subdomain_grid_for
from repro.dd.subdomain import Subdomain, build_subdomain
from repro.fem.heat_transfer import HeatProblem
from repro.util import require


@dataclass
class Decomposition:
    """A problem torn into subdomains with gluing constraints.

    The decomposed system is the block system (2) of the paper:
    block-diagonal ``K`` of the local ``K_i``, gluing ``B`` with
    ``n_multipliers`` rows, and constraint right-hand side ``c = 0``
    (continuity with homogeneous Dirichlet data).
    """

    problem: HeatProblem
    subdomains: list[Subdomain]
    n_multipliers: int
    clusters: list[Cluster]
    gluing: str
    #: Quality report of the graph partitioner (``None`` for box grids);
    #: see :class:`repro.part.partitioner.PartitionResult`.
    partition: object | None = None

    @property
    def n_subdomains(self) -> int:
        return len(self.subdomains)

    def gather_dual(self, local_contribs: list[np.ndarray]) -> np.ndarray:
        """Sum per-subdomain dual contributions into a global dual vector.

        Contributions may be vectors ``(m_i,)`` or multi-RHS panels
        ``(m_i, k)``; the gathered result matches their trailing shape.
        """
        trailing = ()
        for contrib in local_contribs:
            if contrib.ndim > 1:
                trailing = contrib.shape[1:]
                break
        out = np.zeros((self.n_multipliers, *trailing))
        for sub, contrib in zip(self.subdomains, local_contribs):
            out[sub.multiplier_ids] += contrib
        return out

    def scatter_dual(self, lam: np.ndarray) -> list[np.ndarray]:
        """Restrict a global dual vector to each subdomain's multipliers."""
        return [lam[sub.multiplier_ids] for sub in self.subdomains]

    def expand_solution(self, u_locals: list[np.ndarray]) -> np.ndarray:
        """Assemble a global nodal field from per-subdomain solutions.

        Shared nodes are averaged — after FETI convergence the copies agree
        up to solver tolerance, so averaging is a no-op within tolerance.
        """
        n = self.problem.n_dofs
        acc = np.zeros(n)
        cnt = np.zeros(n)
        for sub, u in zip(self.subdomains, u_locals):
            acc[sub.free_nodes] += u
            cnt[sub.free_nodes] += 1.0
        out = np.zeros(n)
        nz = cnt > 0
        out[nz] = acc[nz] / cnt[nz]
        return out

    def check_consistency(self) -> bool:
        """Validate the gluing against a continuous test field."""
        return check_gluing_consistency(self.subdomains, self.n_multipliers)


def decompose(
    problem: HeatProblem,
    grid: tuple[int, ...] | None = None,
    n_subdomains: int | None = None,
    n_clusters: int = 1,
    gluing: str = "redundant",
    partitioner: str = "boxes",
    seed: int = 0,
) -> Decomposition:
    """Tear *problem* into subdomains with Lagrange-multiplier gluing.

    Exactly one of *grid* / *n_subdomains* must be given.  With the default
    ``partitioner="boxes"`` elements are binned on a regular box grid —
    exact for structured box meshes; empty subdomains (possible when the
    grid is finer than the mesh) are dropped.  ``partitioner="rcb"`` /
    ``"spectral"`` instead run the METIS-like dual-graph partitioner of
    :mod:`repro.part.partitioner` (recursive coordinate or spectral
    bisection + boundary refinement) — the right choice for the
    unstructured meshes of :mod:`repro.part.meshes` and non-rectangular
    domains, where boxes would produce wildly unbalanced or disconnected
    subdomains.  A *grid* given with a graph partitioner only sets the part
    count (its product); the partition quality report lands in
    ``Decomposition.partition``.

    The element matrices are computed once for the whole mesh
    (``problem.element_matrices()``, with the problem's own conductivity and
    source) and gathered per subdomain; the global system is not assembled,
    and nothing of element count outlives the call.
    """
    require(
        (grid is None) != (n_subdomains is None),
        "specify exactly one of grid= or n_subdomains=",
    )
    mesh = problem.mesh
    partition_report = None
    if partitioner == "boxes":
        if grid is None:
            grid = subdomain_grid_for(n_subdomains, mesh.dim)
        element_owner = partition_elements(mesh, grid)
    else:
        from repro.part.partitioner import partition_mesh

        n_parts = int(np.prod(grid)) if n_subdomains is None else n_subdomains
        partition_report = partition_mesh(
            mesh, n_parts, method=partitioner, seed=seed
        )
        element_owner = partition_report.owner

    # One element pass for the whole mesh; each subdomain gathers its rows.
    ke, fe = problem.element_matrices()
    dirichlet_mask = np.zeros(mesh.n_nodes, dtype=bool)
    dirichlet_mask[problem.dirichlet_nodes] = True
    global_to_local = np.empty(mesh.n_nodes, dtype=np.intp)
    by_owner = np.argsort(element_owner, kind="stable")
    bounds = np.cumsum(np.bincount(element_owner))[:-1]
    subdomains: list[Subdomain] = []
    for element_ids in np.split(by_owner, bounds):
        if element_ids.size == 0:
            continue
        subdomains.append(
            build_subdomain(
                mesh, len(subdomains), element_ids, ke[element_ids], fe[element_ids],
                dirichlet_mask, global_to_local,
            )
        )
    del ke, fe
    require(len(subdomains) >= 1, "decomposition produced no subdomains")

    n_multipliers = build_interface(subdomains, mesh.n_nodes, gluing=gluing)
    clusters = make_clusters(len(subdomains), min(n_clusters, len(subdomains)))
    return Decomposition(
        problem=problem,
        subdomains=subdomains,
        n_multipliers=n_multipliers,
        clusters=clusters,
        gluing=gluing,
        partition=partition_report,
    )


__all__ = ["Decomposition", "decompose"]
