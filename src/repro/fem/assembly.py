"""Global sparse assembly of P1 systems (vectorized COO scatter)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fem.element import p1_load, p1_stiffness
from repro.fem.mesh import Mesh
from repro.util import require


def scatter_stiffness(conn: np.ndarray, n: int, ke: np.ndarray) -> sp.csr_matrix:
    """Sum element matrices *ke* ``(n_el, d+1, d+1)`` into an ``n x n`` CSR
    matrix through the connectivity *conn* ``(n_el, d+1)``."""
    d1 = conn.shape[1]
    rows = np.repeat(conn, d1, axis=1).ravel()
    cols = np.tile(conn, (1, d1)).ravel()
    k = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    k.sum_duplicates()
    return k


def scatter_load(conn: np.ndarray, n: int, fe: np.ndarray) -> np.ndarray:
    """Sum element vectors *fe* ``(n_el, d+1)`` into a length-*n* vector."""
    f = np.zeros(n)
    np.add.at(f, conn.ravel(), fe.ravel())
    return f


def _connectivity(
    mesh: Mesh, nodes: np.ndarray | None, el: np.ndarray
) -> tuple[np.ndarray, int]:
    """Connectivity of *el* in the numbering of *nodes* (global when ``None``)."""
    if nodes is None:
        return el, mesh.n_nodes
    nodes = np.asarray(nodes, dtype=np.intp)
    global_to_local = np.full(mesh.n_nodes, -1, dtype=np.intp)
    global_to_local[nodes] = np.arange(nodes.size)
    conn = global_to_local[el]
    require(bool((conn >= 0).all()), "elements reference nodes outside subset")
    return conn, nodes.size


def assemble_stiffness(
    mesh: Mesh,
    conductivity: float | np.ndarray = 1.0,
    nodes: np.ndarray | None = None,
    elements: np.ndarray | None = None,
) -> sp.csr_matrix:
    """Assemble the global (or subdomain-local) stiffness matrix.

    Parameters
    ----------
    mesh:
        The mesh providing coordinates and connectivity.
    conductivity:
        Scalar or per-element diffusion coefficient.
    nodes:
        When given, assemble in the *local* numbering of this node subset;
        *elements* must then also be given and reference only these nodes.
    elements:
        Element subset (indices into ``mesh.elements``) to assemble.
    """
    el = mesh.elements if elements is None else mesh.elements[elements]
    if isinstance(conductivity, np.ndarray) and elements is not None:
        conductivity = conductivity[elements]
    ke = p1_stiffness(mesh.coords, el, conductivity)
    conn, n = _connectivity(mesh, nodes, el)
    return scatter_stiffness(conn, n, ke)


def assemble_load(
    mesh: Mesh,
    source: float | np.ndarray = 1.0,
    nodes: np.ndarray | None = None,
    elements: np.ndarray | None = None,
) -> np.ndarray:
    """Assemble the global (or subdomain-local) load vector."""
    el = mesh.elements if elements is None else mesh.elements[elements]
    if isinstance(source, np.ndarray) and elements is not None:
        source = source[elements]
    fe = p1_load(mesh.coords, el, source)
    conn, n = _connectivity(mesh, nodes, el)
    return scatter_load(conn, n, fe)


def eliminate_dirichlet(
    k: sp.csr_matrix,
    f: np.ndarray,
    dirichlet: np.ndarray,
    values: np.ndarray | float = 0.0,
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Eliminate Dirichlet DOFs by restriction to the free set.

    Returns ``(k_ff, f_f - k_fd @ g, free)`` where *free* are the remaining
    DOF indices.  Homogeneous by default.
    """
    n = k.shape[0]
    dirichlet = np.asarray(dirichlet, dtype=np.intp)
    mask = np.ones(n, dtype=bool)
    mask[dirichlet] = False
    free = np.flatnonzero(mask)
    k_ff = sp.csr_matrix(k[free][:, free])
    rhs = f[free].astype(np.float64, copy=True)
    g = np.broadcast_to(np.asarray(values, dtype=np.float64), dirichlet.shape)
    if dirichlet.size and np.any(g != 0.0):
        rhs -= k[free][:, dirichlet] @ g
    return k_ff, rhs, free


__all__ = ["assemble_stiffness", "assemble_load", "eliminate_dirichlet"]
