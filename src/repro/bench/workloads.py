"""Benchmark workloads: single floating subdomains across the paper's size
ladders (§4).

The paper evaluates per-subdomain kernel times on heat-transfer subdomains
of a uniformly discretized square/cube, with the subdomain count scaled so
the global problem stays ~8.4M (2-D) / ~1.1M (3-D) unknowns.  Since all
per-subdomain quantities depend only on the subdomain, the benches build a
*single* interior (floating) subdomain per size: a pure-Neumann unit
square/cube with one Lagrange multiplier per boundary node (its whole
surface glued to neighbours, like any interior subdomain of a large grid).

Workloads are cached per (dim, cells) — the factorization is by far the
most expensive part of constructing one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.fem.heat_transfer import heat_problem
from repro.fem.mesh import unit_cube_mesh, unit_square_mesh
from repro.sparse import (
    cholesky,
    choose_fixing_dofs,
    choose_fixing_dofs_by_kernel,
    choose_fixing_nodes,
    regularize,
)
from repro.sparse.cholesky import CholeskyFactor
from repro.util import require

#: The paper's 2-D DOF ladder (Fig. 10 labels).  Sizes above ~66k are only
#: swept with ``paper_scale=True``.
PAPER_DOFS_2D = [98, 162, 288, 578, 1152, 2178, 4232, 8450, 16562, 33282, 66248]
PAPER_DOFS_2D_FULL = PAPER_DOFS_2D + [132098, 263538]

#: The paper's 3-D DOF ladder — perfect cubes 4^3 .. 41^3.
PAPER_DOFS_3D = [64, 125, 216, 343, 729, 1331, 2744, 4913, 9261, 17576, 35937]
PAPER_DOFS_3D_FULL = PAPER_DOFS_3D + [68921]


@dataclass
class KernelWorkload:
    """One benchmark subdomain: factor + gluing, ready for assembly."""

    dim: int
    n_dofs: int
    n_multipliers: int
    factor: CholeskyFactor
    bt: sp.csc_matrix
    k_reg: sp.csr_matrix
    coords: np.ndarray
    f: np.ndarray

    @property
    def label(self) -> str:
        return f"{self.dim}D/{self.n_dofs}"


def cells_for_dofs(dim: int, target_dofs: int) -> int:
    """Cells per axis so the node count best approximates *target_dofs*."""
    require(dim in (2, 3), "dim must be 2 or 3")
    require(target_dofs >= (2**dim), "target too small")
    n = max(1, round(target_dofs ** (1.0 / dim)) - 1)
    # Check the neighbours for the closest node count.
    best = min(
        (abs((c + 1) ** dim - target_dofs), c) for c in (n - 1, n, n + 1) if c >= 1
    )
    return best[1]


_CACHE: dict[tuple[int, int], KernelWorkload] = {}


def make_workload(dim: int, target_dofs: int, use_cache: bool = True) -> KernelWorkload:
    """Build (or fetch) the floating benchmark subdomain closest to
    *target_dofs* unknowns."""
    cells = cells_for_dofs(dim, target_dofs)
    key = (dim, cells)
    if use_cache and key in _CACHE:
        return _CACHE[key]

    mesh = unit_square_mesh(cells) if dim == 2 else unit_cube_mesh(cells)
    problem = heat_problem(mesh)  # floating; k and f come from one element pass
    k, f = problem.k, problem.f
    coords = mesh.coords
    fixing = choose_fixing_dofs(k, 1, coords=coords)
    k_reg = regularize(k, fixing)
    factor = cholesky(k_reg, ordering="nd", coords=coords)

    boundary = mesh.boundary_nodes()
    m = boundary.size
    # One multiplier per boundary node; alternate signs like the +1/-1
    # convention of the real gluing (sign is irrelevant to the kernels).
    signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    bt = sp.csc_matrix(
        (signs, (boundary, np.arange(m))), shape=(mesh.n_nodes, m)
    )
    wl = KernelWorkload(
        dim=dim,
        n_dofs=mesh.n_nodes,
        n_multipliers=m,
        factor=factor,
        bt=bt,
        k_reg=k_reg,
        coords=coords,
        f=f,
    )
    if use_cache:
        _CACHE[key] = wl
    return wl


def clear_workload_cache() -> None:
    """Drop all cached workloads (memory hygiene for long bench sessions)."""
    _CACHE.clear()


def make_elasticity_workload(
    dim: int, target_dofs: int, use_cache: bool = True
) -> KernelWorkload:
    """A floating *elasticity* benchmark subdomain (kernel dim 3 / 6).

    Same shape as :func:`make_workload` but with vector displacement DOFs
    and rigid-body-mode kernels — exercises the multi-dimensional kernel
    paths (regularization with several fixing DOFs, wider ``R_i``).
    """
    from repro.fem.elasticity import assemble_body_force, assemble_elasticity

    require(dim in (2, 3), "dim must be 2 or 3")
    cells = cells_for_dofs(dim, max(target_dofs // dim, 2**dim))
    key = (dim + 10, cells)  # separate cache namespace from heat transfer
    if use_cache and key in _CACHE:
        return _CACHE[key]

    mesh = unit_square_mesh(cells) if dim == 2 else unit_cube_mesh(cells)
    k = assemble_elasticity(mesh)
    f = assemble_body_force(mesh, np.eye(dim)[-1] * -1.0)  # downward gravity
    coords = np.repeat(mesh.coords, dim, axis=0)  # per-DOF coordinates
    # Exactly kernel_dim fixing DOFs picked from the rigid-body-mode basis:
    # this makes K_reg^{-1} an *exact* generalized inverse of K (see
    # repro.sparse.regularization.choose_fixing_dofs_by_kernel).
    from repro.fem.elasticity import rigid_body_modes

    fixing = choose_fixing_dofs_by_kernel(rigid_body_modes(mesh.coords))
    k_reg = regularize(k, fixing)
    factor = cholesky(k_reg, ordering="nd", coords=coords)

    boundary_nodes = mesh.boundary_nodes()
    bdofs = (boundary_nodes[:, None] * dim + np.arange(dim)[None, :]).ravel()
    m = bdofs.size
    signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    bt = sp.csc_matrix((signs, (bdofs, np.arange(m))), shape=(k.shape[0], m))
    wl = KernelWorkload(
        dim=dim,
        n_dofs=k.shape[0],
        n_multipliers=m,
        factor=factor,
        bt=bt,
        k_reg=k_reg,
        coords=coords,
        f=f,
    )
    if use_cache:
        _CACHE[key] = wl
    return wl


def size_ladder(dim: int, paper_scale: bool = False, cap: int | None = None) -> list[int]:
    """The DOF ladder for a dimension, optionally extended/capped."""
    require(dim in (2, 3), "dim must be 2 or 3")
    if dim == 2:
        ladder = PAPER_DOFS_2D_FULL if paper_scale else PAPER_DOFS_2D
    else:
        ladder = PAPER_DOFS_3D_FULL if paper_scale else PAPER_DOFS_3D
    if cap is not None:
        ladder = [s for s in ladder if s <= cap]
    return list(ladder)


__all__ = [
    "KernelWorkload",
    "make_workload",
    "make_elasticity_workload",
    "cells_for_dofs",
    "size_ladder",
    "clear_workload_cache",
    "PAPER_DOFS_2D",
    "PAPER_DOFS_3D",
    "PAPER_DOFS_2D_FULL",
    "PAPER_DOFS_3D_FULL",
]
