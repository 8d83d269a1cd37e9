"""Per-subdomain data: local stiffness, load, kernel, gluing.

A :class:`Subdomain` owns everything FETI needs locally: the SPSD matrix
``K_i`` restricted to its free DOFs, the local load, the kernel basis
``R_i`` (floating subdomains), the fixing-node regularization, and — filled
in by :mod:`repro.dd.interface` — the transposed gluing matrix ``B_i^T``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.fem.assembly import scatter_load, scatter_stiffness
from repro.fem.mesh import Mesh
from repro.sparse import choose_fixing_dofs, constant_nullspace, regularize


@dataclass
class Subdomain:
    """One FETI subdomain (free-DOF local numbering).

    Attributes
    ----------
    index:
        Subdomain id within the decomposition.
    element_ids:
        Mesh element indices owned by this subdomain.
    nodes:
        Global mesh nodes of the subdomain (sorted; includes Dirichlet).
    free_nodes:
        Global mesh nodes backing the local DOFs (Dirichlet removed).
    k:
        Local SPSD stiffness on free DOFs.
    f:
        Local load on free DOFs.
    coords:
        Coordinates of the free DOFs (for orderings / fixing nodes).
    floating:
        True when the subdomain has no Dirichlet DOF (singular ``k``).
    r:
        Kernel basis of ``k`` (``(n, kdim)``; empty for non-floating).
    bt:
        ``(n, m_i)`` transposed local gluing matrix (set by the interface
        builder).
    multiplier_ids:
        Global Lagrange-multiplier ids of the columns of *bt*.
    """

    index: int
    element_ids: np.ndarray
    nodes: np.ndarray
    free_nodes: np.ndarray
    k: sp.csr_matrix
    f: np.ndarray
    coords: np.ndarray
    floating: bool
    r: np.ndarray
    bt: sp.csc_matrix | None = None
    multiplier_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))

    @property
    def n_dofs(self) -> int:
        return self.k.shape[0]

    @property
    def n_multipliers(self) -> int:
        return 0 if self.bt is None else self.bt.shape[1]

    @property
    def kernel_dim(self) -> int:
        return self.r.shape[1]

    def regularized(self, rho: float | None = None) -> sp.csr_matrix:
        """Fixing-node regularization ``K_reg`` (identity op when SPD)."""
        if not self.floating:
            return self.k
        fixing = choose_fixing_dofs(self.k, self.kernel_dim, coords=self.coords)
        return regularize(self.k, fixing, rho=rho)


def build_subdomain(
    mesh: Mesh,
    index: int,
    element_ids: np.ndarray,
    ke: np.ndarray,
    fe: np.ndarray,
    dirichlet_mask: np.ndarray,
    global_to_local: np.ndarray,
) -> Subdomain:
    """Assemble one subdomain from its element set.

    *ke* / *fe* are the element matrices of *element_ids* (gathered by the
    caller from one element pass over the mesh); *dirichlet_mask* flags the
    constrained mesh nodes and *global_to_local* is an ``intp`` scratch
    array of mesh-node length — both shared by every subdomain of a
    decomposition, the scratch is overwritten on the subdomain's nodes.
    """
    element_ids = np.asarray(element_ids, dtype=np.intp)
    elements = mesh.elements[element_ids]
    nodes = np.unique(elements)
    global_to_local[nodes] = np.arange(nodes.size)
    conn = global_to_local[elements]
    k = scatter_stiffness(conn, nodes.size, ke)
    f = scatter_load(conn, nodes.size, fe)

    local_free_mask = ~dirichlet_mask[nodes]
    free_nodes = nodes[local_free_mask]
    floating = bool(local_free_mask.all())
    if not floating:
        # Restrict *after* the duplicates are summed: the order of that sum
        # depends on everything in the row, constrained columns included.
        free_local = np.flatnonzero(local_free_mask)
        k = sp.csr_matrix(k[free_local][:, free_local])
        f = f[free_local]
    r = constant_nullspace(free_nodes.size) if floating else np.empty((free_nodes.size, 0))
    return Subdomain(
        index=index,
        element_ids=element_ids,
        nodes=nodes,
        free_nodes=free_nodes,
        k=k,
        f=f,
        coords=mesh.coords[free_nodes],
        floating=floating,
        r=r,
    )


__all__ = ["Subdomain", "build_subdomain"]
