"""Heat-transfer model problems — the paper's evaluation workload (§4).

A scalar diffusion equation on the unit square / unit cube, uniformly
discretized with P1 triangles / tetrahedra, unit source, homogeneous
Dirichlet condition on a chosen set of boundary faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.fem.assembly import eliminate_dirichlet, scatter_load, scatter_stiffness
from repro.fem.element import p1_element_matrices
from repro.fem.mesh import Mesh, unit_cube_mesh, unit_square_mesh
from repro.util import require


@dataclass(frozen=True)
class HeatProblem:
    """A heat-transfer problem, stored as what defines it.

    The mesh, the constrained nodes and the two coefficients are the data;
    :meth:`element_matrices` computes the element stiffness / load from one
    geometry pass (what :func:`repro.dd.decompose` consumes — a torn problem
    never needs the global system).  ``k`` and ``f``, the global system on
    *all* mesh nodes, are assembled on first read and kept: use
    :meth:`reduced` for the SPD free-DOF system and :meth:`solve_direct`
    for the reference solution.
    """

    mesh: Mesh
    dirichlet_nodes: np.ndarray
    conductivity: float | np.ndarray = 1.0
    source: float | np.ndarray = 1.0

    @property
    def n_dofs(self) -> int:
        return self.mesh.n_nodes

    def element_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Element stiffness ``(n_el, d+1, d+1)`` and load ``(n_el, d+1)``
        of the whole mesh.  Computed on every call, never retained: the
        arrays are as large as the dense stacks the assembly peaks on."""
        return p1_element_matrices(
            self.mesh.coords, self.mesh.elements, self.conductivity, self.source
        )

    @cached_property
    def _system(self) -> tuple[sp.csr_matrix, np.ndarray]:
        ke, fe = self.element_matrices()
        conn, n = self.mesh.elements, self.mesh.n_nodes
        return scatter_stiffness(conn, n, ke), scatter_load(conn, n, fe)

    @property
    def k(self) -> sp.csr_matrix:
        """Global stiffness on all mesh nodes (assembled on first read)."""
        return self._system[0]

    @property
    def f(self) -> np.ndarray:
        """Global load on all mesh nodes (assembled on first read)."""
        return self._system[1]

    def reduced(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """Return the SPD system on free DOFs: ``(K_ff, f_f, free)``."""
        return eliminate_dirichlet(self.k, self.f, self.dirichlet_nodes)

    def solve_direct(self) -> np.ndarray:
        """Reference direct solution (zeros on the Dirichlet boundary)."""
        k_ff, f_f, free = self.reduced()
        u = np.zeros(self.n_dofs)
        u[free] = sp.linalg.spsolve(k_ff.tocsc(), f_f)
        return u


def heat_transfer_2d(
    nx: int,
    ny: int | None = None,
    dirichlet: tuple[str, ...] = ("left",),
    conductivity: float | np.ndarray = 1.0,
    source: float | np.ndarray = 1.0,
) -> HeatProblem:
    """2-D heat transfer on the unit square (triangles)."""
    mesh = unit_square_mesh(nx, ny)
    return _build(mesh, dirichlet, conductivity, source)


def heat_transfer_3d(
    nx: int,
    ny: int | None = None,
    nz: int | None = None,
    dirichlet: tuple[str, ...] = ("left",),
    conductivity: float | np.ndarray = 1.0,
    source: float | np.ndarray = 1.0,
) -> HeatProblem:
    """3-D heat transfer on the unit cube (tetrahedra)."""
    mesh = unit_cube_mesh(nx, ny, nz)
    return _build(mesh, dirichlet, conductivity, source)


def heat_problem(
    mesh: Mesh,
    dirichlet: tuple[str, ...] = (),
    conductivity: float | np.ndarray = 1.0,
    source: float | np.ndarray = 1.0,
) -> HeatProblem:
    """Heat transfer on an arbitrary simplicial *mesh*.

    The generic entry point behind :func:`heat_transfer_2d` /
    :func:`heat_transfer_3d`, for meshes that are not the unit box — e.g.
    the jittered / L-shaped / perforated meshes of :mod:`repro.part.meshes`
    (whose extra ``"boundary"`` group constrains the whole boundary at
    once).  *dirichlet* names boundary groups of the mesh; an empty tuple
    gives the floating problem.
    """
    return _build(mesh, tuple(dirichlet), conductivity, source)


def _build(
    mesh: Mesh,
    dirichlet: tuple[str, ...],
    conductivity: float | np.ndarray,
    source: float | np.ndarray,
) -> HeatProblem:
    for name in dirichlet:
        require(
            name in mesh.boundary_groups,
            f"unknown boundary group {name!r}; available: {sorted(mesh.boundary_groups)}",
        )
    if dirichlet:
        nodes = np.unique(
            np.concatenate([mesh.boundary_groups[name] for name in dirichlet])
        )
    else:
        nodes = np.empty(0, dtype=np.intp)
    return HeatProblem(
        mesh=mesh, dirichlet_nodes=nodes, conductivity=conductivity, source=source
    )


__all__ = ["HeatProblem", "heat_problem", "heat_transfer_2d", "heat_transfer_3d"]
