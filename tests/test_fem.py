"""Tests for meshes, P1 elements and assembly."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem import (
    assemble_load,
    assemble_stiffness,
    eliminate_dirichlet,
    heat_transfer_2d,
    heat_transfer_3d,
    p1_element_matrices,
    p1_gradients,
    p1_load,
    p1_stiffness,
    unit_cube_mesh,
    unit_square_mesh,
)


def test_square_mesh_counts():
    m = unit_square_mesh(5, 3)
    assert m.n_nodes == 6 * 4
    assert m.n_elements == 2 * 5 * 3
    assert m.dim == 2


def test_cube_mesh_counts():
    m = unit_cube_mesh(3, 2, 4)
    assert m.n_nodes == 4 * 3 * 5
    assert m.n_elements == 6 * 3 * 2 * 4
    assert m.dim == 3


def test_mesh_rejects_bad_sizes():
    with pytest.raises(ValueError):
        unit_square_mesh(0)
    with pytest.raises(ValueError):
        unit_cube_mesh(2, 0, 1)


def test_square_boundary_groups():
    m = unit_square_mesh(4)
    assert m.boundary_groups["left"].size == 5
    assert m.boundary_groups["right"].size == 5
    # Left boundary nodes have x == 0.
    assert np.all(m.coords[m.boundary_groups["left"], 0] == 0.0)
    assert np.all(m.coords[m.boundary_groups["right"], 0] == 1.0)
    corners = set(m.boundary_groups["left"]) & set(m.boundary_groups["bottom"])
    assert len(corners) == 1


def test_cube_boundary_groups_cover_surface():
    m = unit_cube_mesh(3)
    surface = m.boundary_nodes()
    interior = (3 + 1 - 2) ** 3
    assert surface.size == m.n_nodes - interior


def test_triangle_areas_sum_to_one():
    m = unit_square_mesh(6, 4)
    _, areas = p1_gradients(m.coords, m.elements)
    assert np.isclose(areas.sum(), 1.0)


def test_tet_volumes_sum_to_one():
    m = unit_cube_mesh(3, 2, 2)
    _, vols = p1_gradients(m.coords, m.elements)
    assert np.isclose(vols.sum(), 1.0)


def test_gradients_partition_of_unity():
    """Basis-function gradients sum to zero within each element."""
    m = unit_cube_mesh(2)
    grads, _ = p1_gradients(m.coords, m.elements)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-13)


def test_degenerate_element_rejected():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])  # collinear
    with pytest.raises(ValueError, match="degenerate"):
        p1_gradients(coords, np.array([[0, 1, 2]]))


def test_local_stiffness_rows_sum_to_zero():
    """Constants are in the kernel of every element stiffness."""
    m = unit_square_mesh(3)
    ke = p1_stiffness(m.coords, m.elements)
    assert np.allclose(ke.sum(axis=2), 0.0, atol=1e-13)


def test_local_stiffness_spsd():
    m = unit_cube_mesh(2)
    ke = p1_stiffness(m.coords, m.elements)
    for e in range(0, m.n_elements, 7):
        w = np.linalg.eigvalsh(ke[e])
        assert w.min() > -1e-12


@pytest.mark.parametrize("per_element", [False, True], ids=["scalar", "per-element"])
@pytest.mark.parametrize("mesh", [unit_square_mesh(5, 3), unit_cube_mesh(3)], ids=["2d", "3d"])
def test_one_pass_element_matrices_equal_the_two_pass_functions_bitwise(mesh, per_element):
    rng = np.random.default_rng(mesh.dim)
    kappa = 0.5 + rng.random(mesh.n_elements) if per_element else 2.5
    source = rng.standard_normal(mesh.n_elements) if per_element else 3.0
    ke, fe = p1_element_matrices(mesh.coords, mesh.elements, kappa, source)
    want_ke = p1_stiffness(mesh.coords, mesh.elements, kappa)
    want_fe = p1_load(mesh.coords, mesh.elements, source)
    assert ke.dtype == want_ke.dtype and np.array_equal(ke, want_ke)
    assert fe.dtype == want_fe.dtype and np.array_equal(fe, want_fe)
    # ... and an element's matrices do not depend on which others share the pass
    some = np.arange(0, mesh.n_elements, 3)
    kappa_some, source_some = (kappa[some], source[some]) if per_element else (kappa, source)
    assert np.array_equal(ke[some], p1_stiffness(mesh.coords, mesh.elements[some], kappa_some))
    assert np.array_equal(fe[some], p1_load(mesh.coords, mesh.elements[some], source_some))


def test_stiffness_scaling_with_conductivity():
    m = unit_square_mesh(4)
    k1 = assemble_stiffness(m, 1.0)
    k2 = assemble_stiffness(m, 2.5)
    assert np.allclose((k2 - 2.5 * k1).data if (k2 - 2.5 * k1).nnz else [0], 0)


def test_global_stiffness_symmetric_and_kernel():
    m = unit_square_mesh(5)
    k = assemble_stiffness(m)
    assert (abs(k - k.T)).max() < 1e-13
    ones = np.ones(m.n_nodes)
    assert np.abs(k @ ones).max() < 1e-12  # pure Neumann kernel


def test_load_total_mass():
    m = unit_square_mesh(5)
    f = assemble_load(m, source=3.0)
    assert np.isclose(f.sum(), 3.0)  # integral of constant source over domain


def test_per_element_source_array():
    m = unit_square_mesh(3)
    src = np.zeros(m.n_elements)
    src[0] = 1.0
    f = assemble_load(m, source=src)
    _, areas = p1_gradients(m.coords, m.elements)
    assert np.isclose(f.sum(), areas[0])


def test_subdomain_local_assembly_matches_restriction():
    m = unit_square_mesh(4)
    elements = np.arange(6)
    nodes = np.unique(m.elements[elements])
    k_local = assemble_stiffness(m, nodes=nodes, elements=elements)
    # Assemble globally with only those elements, restrict.
    mask_mesh = unit_square_mesh(4)
    ke = p1_stiffness(m.coords, m.elements[elements])
    d1 = 3
    conn = m.elements[elements]
    rows = np.repeat(conn, d1, axis=1).ravel()
    cols = np.tile(conn, (1, d1)).ravel()
    k_glob = sp.coo_matrix(
        (ke.ravel(), (rows, cols)), shape=(m.n_nodes, m.n_nodes)
    ).tocsr()
    assert np.allclose(
        k_local.toarray(), k_glob[nodes][:, nodes].toarray(), atol=1e-14
    )


def test_assembly_rejects_foreign_nodes():
    m = unit_square_mesh(4)
    with pytest.raises(ValueError, match="outside"):
        assemble_stiffness(m, nodes=np.array([0, 1]), elements=np.array([0]))


def test_eliminate_dirichlet_homogeneous():
    p = heat_transfer_2d(4, dirichlet=("left",))
    k_ff, f_f, free = p.reduced()
    assert k_ff.shape[0] == free.size == p.n_dofs - 5
    w = np.linalg.eigvalsh(k_ff.toarray())
    assert w.min() > 0  # SPD after elimination


def test_eliminate_dirichlet_inhomogeneous():
    m = unit_square_mesh(3)
    k = assemble_stiffness(m)
    f = assemble_load(m)
    bdry = m.boundary_groups["left"]
    k_ff, rhs, free = eliminate_dirichlet(k, f, bdry, values=2.0)
    # Solving with lifted values reproduces u == 2 on an equilibrium problem
    # with zero source: check shape/consistency only here.
    assert rhs.shape == (free.size,)
    assert not np.allclose(rhs, f[free])  # lifting changed the RHS


def test_heat_2d_solution_properties():
    p = heat_transfer_2d(8, dirichlet=("left", "right", "top", "bottom"))
    u = p.solve_direct()
    assert np.allclose(u[p.dirichlet_nodes], 0.0)
    assert u.max() > 0 and u.min() >= -1e-12  # discrete maximum principle
    centre = np.argmin(np.linalg.norm(p.mesh.coords - 0.5, axis=1))
    assert u[centre] == pytest.approx(u.max(), rel=0.2)


def test_heat_2d_matches_manufactured_solution():
    """u = sin(pi x) sin(pi y) with f = 2 pi^2 u converges at O(h^2)."""
    errs = []
    for n in (8, 16):
        p = heat_transfer_2d(n, dirichlet=("left", "right", "top", "bottom"))
        x, y = p.mesh.coords[:, 0], p.mesh.coords[:, 1]
        exact = np.sin(np.pi * x) * np.sin(np.pi * y)
        k_ff, _, free = p.reduced()
        # consistent load for the manufactured solution
        from repro.fem.assembly import assemble_load

        f = 2 * np.pi**2 * _project_source(p, exact)
        u = np.zeros(p.n_dofs)
        u[free] = sp.linalg.spsolve(k_ff.tocsc(), f[free])
        errs.append(np.abs(u - exact).max())
    assert errs[1] < errs[0] / 2.5  # ~4x for O(h^2)


def _project_source(p, values):
    """Consistent load vector of a nodal source field (mass-lumped)."""
    from repro.fem.element import p1_gradients

    _, areas = p1_gradients(p.mesh.coords, p.mesh.elements)
    f = np.zeros(p.n_dofs)
    d1 = p.mesh.elements.shape[1]
    contrib = (areas / d1)[:, None] * values[p.mesh.elements]
    np.add.at(f, p.mesh.elements.ravel(), contrib.ravel())
    return f


def test_heat_3d_solution_finite():
    p = heat_transfer_3d(3, dirichlet=("left",))
    u = p.solve_direct()
    assert np.isfinite(u).all()
    assert np.allclose(u[p.dirichlet_nodes], 0.0)


def test_heat_unknown_boundary_group():
    with pytest.raises(ValueError, match="unknown boundary group"):
        heat_transfer_2d(3, dirichlet=("north",))


def test_heat_no_dirichlet_is_singular_system():
    p = heat_transfer_2d(3, dirichlet=())
    assert p.dirichlet_nodes.size == 0
    ones = np.ones(p.n_dofs)
    assert np.abs(p.k @ ones).max() < 1e-12


@settings(max_examples=10, deadline=None)
@given(nx=st.integers(2, 8), ny=st.integers(2, 8))
def test_property_2d_stiffness_kernel_and_symmetry(nx, ny):
    m = unit_square_mesh(nx, ny)
    k = assemble_stiffness(m)
    assert np.abs(k @ np.ones(m.n_nodes)).max() < 1e-11
    assert (abs(k - k.T)).max() < 1e-12


@settings(max_examples=6, deadline=None)
@given(n=st.integers(1, 4))
def test_property_3d_volumes(n):
    m = unit_cube_mesh(n)
    _, vols = p1_gradients(m.coords, m.elements)
    assert np.isclose(vols.sum(), 1.0)
    assert vols.min() > 0
