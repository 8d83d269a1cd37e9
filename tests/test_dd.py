"""Tests for partitioning, subdomains, gluing and decomposition."""

from __future__ import annotations

import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dd import (
    Cluster,
    Subdomain,
    build_interface,
    check_gluing_consistency,
    decompose,
    make_clusters,
    partition_elements,
    subdomain_grid_for,
)
from repro.fem import (
    assemble_load,
    assemble_stiffness,
    heat_transfer_2d,
    heat_transfer_3d,
    unit_square_mesh,
)


def test_partition_covers_all_elements():
    m = unit_square_mesh(8)
    owner = partition_elements(m, (2, 2))
    assert owner.size == m.n_elements
    assert set(owner.tolist()) == {0, 1, 2, 3}
    counts = np.bincount(owner)
    assert counts.min() == counts.max()  # balanced on a uniform mesh


def test_partition_3d_grid():
    from repro.fem import unit_cube_mesh

    m = unit_cube_mesh(4)
    owner = partition_elements(m, (2, 2, 2))
    assert len(set(owner.tolist())) == 8


def test_partition_validates_grid():
    m = unit_square_mesh(4)
    with pytest.raises(ValueError):
        partition_elements(m, (2,))
    with pytest.raises(ValueError):
        partition_elements(m, (0, 2))


def test_subdomain_grid_for():
    assert subdomain_grid_for(4, 2) == (2, 2)
    assert subdomain_grid_for(5, 2) == (3, 3)
    assert subdomain_grid_for(8, 3) == (2, 2, 2)
    with pytest.raises(ValueError):
        subdomain_grid_for(0, 2)


def test_make_clusters_balanced():
    clusters = make_clusters(10, 3)
    sizes = [c.size for c in clusters]
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1
    all_ids = np.concatenate([c.subdomain_ids for c in clusters])
    assert sorted(all_ids.tolist()) == list(range(10))


def test_make_clusters_validates():
    with pytest.raises(ValueError):
        make_clusters(3, 4)
    with pytest.raises(ValueError):
        make_clusters(0, 1)


def test_decompose_requires_exactly_one_spec():
    p = heat_transfer_2d(4)
    with pytest.raises(ValueError):
        decompose(p)
    with pytest.raises(ValueError):
        decompose(p, grid=(2, 2), n_subdomains=4)


def test_floating_flags():
    p = heat_transfer_2d(8, dirichlet=("left",))
    dec = decompose(p, grid=(2, 2))
    # The two subdomains touching the left face are pinned, the others float.
    floating = sorted(s.floating for s in dec.subdomains)
    assert floating == [False, False, True, True]
    for s in dec.subdomains:
        assert s.kernel_dim == (1 if s.floating else 0)
        if s.floating:
            assert np.abs(s.k @ s.r).max() < 1e-12


def _per_element_coefficients():
    rng = np.random.default_rng(7)
    n_elements = unit_square_mesh(12).n_elements
    return heat_transfer_2d(
        12,
        dirichlet=("left",),
        conductivity=1.0 + rng.random(n_elements),
        source=rng.standard_normal(n_elements),
    )


@pytest.mark.parametrize(
    "build",
    [lambda: heat_transfer_2d(10, dirichlet=("left",)), _per_element_coefficients],
    ids=["uniform", "per-element-coefficients"],
)
def test_local_stiffness_sums_to_global(build):
    p = build()
    dec = decompose(p, grid=(2, 3))
    k_ff, f_f, free = p.reduced()
    g2l = -np.ones(p.n_dofs, dtype=np.intp)
    g2l[free] = np.arange(free.size)
    acc = np.zeros((free.size, free.size))
    f_acc = np.zeros(free.size)
    for s in dec.subdomains:
        li = g2l[s.free_nodes]
        assert (li >= 0).all()
        acc[np.ix_(li, li)] += s.k.toarray()
        f_acc[li] += s.f
    assert np.allclose(acc, k_ff.toarray(), rtol=0, atol=1e-12)
    assert np.allclose(f_acc, f_f, rtol=0, atol=1e-12)


@pytest.mark.parametrize("gluing", ["redundant", "chain"])
def test_gluing_consistency(gluing):
    p = heat_transfer_2d(9, dirichlet=("left",))
    dec = decompose(p, grid=(3, 3), gluing=gluing)
    assert dec.check_consistency()
    assert dec.n_multipliers > 0


def test_redundant_has_more_multipliers_than_chain():
    p = heat_transfer_2d(8, dirichlet=("left",))
    dec_r = decompose(p, grid=(2, 2), gluing="redundant")
    dec_c = decompose(p, grid=(2, 2), gluing="chain")
    # They differ only at cross points (nodes shared by 4 subdomains).
    assert dec_r.n_multipliers > dec_c.n_multipliers


def test_unknown_gluing_rejected():
    p = heat_transfer_2d(4)
    with pytest.raises(ValueError, match="unknown gluing"):
        decompose(p, grid=(2, 2), gluing="mortar")


def test_bt_shape_and_signs():
    p = heat_transfer_2d(6, dirichlet=("left",))
    dec = decompose(p, grid=(2, 1), gluing="chain")
    s0, s1 = dec.subdomains
    assert s0.bt.shape == (s0.n_dofs, s0.n_multipliers)
    # Chain gluing between exactly two subdomains: +1 rows in the lower
    # indexed one, -1 in the other; one multiplier per shared node.
    assert np.all(s0.bt.data == 1.0)
    assert np.all(s1.bt.data == -1.0)
    assert np.array_equal(s0.multiplier_ids, s1.multiplier_ids)


def test_saddle_point_solution_matches_direct():
    """Direct solve of the torn block system == direct solve of the global
    problem (chain gluing keeps the saddle system nonsingular)."""
    p = heat_transfer_2d(12, dirichlet=("left",))
    dec = decompose(p, grid=(3, 2), gluing="chain")
    ks = sp.block_diag([s.k for s in dec.subdomains], format="csr")
    offs = np.cumsum([0] + [s.n_dofs for s in dec.subdomains])
    rows, cols, vals = [], [], []
    for i, s in enumerate(dec.subdomains):
        bt = s.bt.tocoo()
        rows.extend(s.multiplier_ids[bt.col].tolist())
        cols.extend((offs[i] + bt.row).tolist())
        vals.extend(bt.data.tolist())
    b = sp.csr_matrix((vals, (rows, cols)), shape=(dec.n_multipliers, offs[-1]))
    sys = sp.bmat([[ks, b.T], [b, None]], format="csc")
    rhs = np.concatenate(
        [np.concatenate([s.f for s in dec.subdomains]), np.zeros(dec.n_multipliers)]
    )
    sol = sp.linalg.spsolve(sys, rhs)
    u_locals = [sol[offs[i] : offs[i + 1]] for i in range(dec.n_subdomains)]
    u = dec.expand_solution(u_locals)
    assert np.allclose(u, p.solve_direct(), atol=1e-9)


def test_gather_scatter_dual_roundtrip(rng):
    p = heat_transfer_2d(8, dirichlet=("left",))
    dec = decompose(p, grid=(2, 2))
    lam = rng.standard_normal(dec.n_multipliers)
    locals_ = dec.scatter_dual(lam)
    assert all(
        np.array_equal(loc, lam[s.multiplier_ids])
        for loc, s in zip(locals_, dec.subdomains)
    )
    # Each multiplier belongs to exactly two subdomains.
    counts = np.zeros(dec.n_multipliers)
    for s in dec.subdomains:
        counts[s.multiplier_ids] += 1
    assert np.all(counts == 2)


def test_3d_decomposition():
    p = heat_transfer_3d(4, dirichlet=("left",))
    dec = decompose(p, grid=(2, 2, 1))
    assert dec.n_subdomains == 4
    assert dec.check_consistency()
    assert any(s.floating for s in dec.subdomains)


def test_n_subdomains_interface():
    p = heat_transfer_2d(8, dirichlet=("left",))
    dec = decompose(p, n_subdomains=4)
    assert dec.n_subdomains == 4


def test_regularized_is_spd():
    p = heat_transfer_2d(8, dirichlet=("left",))
    dec = decompose(p, grid=(2, 2))
    from repro.sparse import cholesky

    for s in dec.subdomains:
        f = cholesky(s.regularized(), ordering="amd")  # must not raise
        assert f.n == s.n_dofs


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(4, 12),
    px=st.integers(1, 3),
    py=st.integers(1, 3),
)
def test_property_decomposition_consistency(n, px, py):
    p = heat_transfer_2d(n, dirichlet=("left",))
    dec = decompose(p, grid=(px, py))
    assert dec.check_consistency()
    covered = np.concatenate([s.element_ids for s in dec.subdomains])
    assert sorted(covered.tolist()) == list(range(p.mesh.n_elements))


# ---------------------------------------------------------------------------
# The front end is one element pass + gathers + a vectorised gluing; these
# references rebuild the same data the slow, obviously-right way and must
# agree bit for bit.


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


def _same_sparse_bits(got, want):
    return (
        type(got) is type(want)
        and got.shape == want.shape
        and all(_same_bits(getattr(got, a), getattr(want, a)) for a in ("data", "indices", "indptr"))
    )


def _reference_subdomain(problem, element_ids):
    """``nodes, free_nodes, K_i, f_i`` assembled per subdomain from the
    public FEM functions: scatter on all local nodes, then restrict."""
    mesh = problem.mesh
    nodes = np.unique(mesh.elements[element_ids])
    k_all = assemble_stiffness(mesh, problem.conductivity, nodes=nodes, elements=element_ids)
    f_all = assemble_load(mesh, problem.source, nodes=nodes, elements=element_ids)
    free_local = np.flatnonzero(~np.isin(nodes, problem.dirichlet_nodes))
    k = sp.csr_matrix(k_all[free_local][:, free_local])
    return nodes, nodes[free_local], k, f_all[free_local]


def _reference_interface(free_nodes, gluing):
    """The gluing as a Python loop over every free DOF (the implementation
    before it was vectorised): ``n_multipliers`` and, per subdomain,
    ``(B_i^T, multiplier_ids)``."""
    owners = defaultdict(list)
    for pos, nodes in enumerate(free_nodes):
        for local, node in enumerate(nodes):
            owners[int(node)].append((pos, local))
    rows = [[] for _ in free_nodes]
    cols = [[] for _ in free_nodes]
    vals = [[] for _ in free_nodes]
    mult_ids = [[] for _ in free_nodes]
    next_multiplier = 0
    for node in sorted(owners):
        sharers = sorted(owners[node])
        if len(sharers) < 2:
            continue
        if gluing == "chain":
            pairs = list(zip(sharers[:-1], sharers[1:]))
        else:
            pairs = [
                (sharers[a], sharers[b])
                for a in range(len(sharers))
                for b in range(a + 1, len(sharers))
            ]
        for (pos_a, loc_a), (pos_b, loc_b) in pairs:
            for pos, loc, val in ((pos_a, loc_a, 1.0), (pos_b, loc_b, -1.0)):
                rows[pos].append(loc)
                cols[pos].append(len(mult_ids[pos]))
                vals[pos].append(val)
                mult_ids[pos].append(next_multiplier)
            next_multiplier += 1
    out = []
    for pos, nodes in enumerate(free_nodes):
        shape = (len(nodes), len(mult_ids[pos]))
        bt = sp.csc_matrix((vals[pos], (rows[pos], cols[pos])), shape=shape)
        out.append((bt, np.asarray(mult_ids[pos], dtype=np.intp)))
    return next_multiplier, out


def _zoo(name):
    from repro.fem import heat_problem
    from repro.part import make_mesh

    mesh = make_mesh(name, 12, 3)
    return heat_problem(mesh, dirichlet=("boundary",) if name != "jittered" else ("left",))


FRONT_END_CASES = {
    "2d-4x4-floating": (lambda: heat_transfer_2d(16, dirichlet=()), dict(grid=(4, 4))),
    "2d-4x4-left": (lambda: heat_transfer_2d(16, dirichlet=("left",)), dict(grid=(4, 4))),
    "2d-4x4-left-right": (
        lambda: heat_transfer_2d(16, dirichlet=("left", "right")),
        dict(grid=(4, 4)),
    ),
    "3d-2x2x2-floating": (lambda: heat_transfer_3d(6, dirichlet=()), dict(grid=(2, 2, 2))),
    "3d-2x2x2-left": (lambda: heat_transfer_3d(6, dirichlet=("left",)), dict(grid=(2, 2, 2))),
    "grid-finer-than-mesh": (lambda: heat_transfer_2d(3, dirichlet=("left",)), dict(grid=(5, 5))),
    "per-element-coefficients": (_per_element_coefficients, dict(grid=(3, 2))),
    **{
        f"{mesh}-{partitioner}": (
            lambda mesh=mesh: _zoo(mesh),
            dict(n_subdomains=6, partitioner=partitioner, seed=1),
        )
        for mesh in ("jittered", "lshape", "strip")
        for partitioner in ("rcb", "spectral")
    },
}


@pytest.mark.parametrize("gluing", ["redundant", "chain"])
@pytest.mark.parametrize("case", FRONT_END_CASES)
def test_front_end_equals_per_subdomain_reference_bitwise(case, gluing):
    build, how = FRONT_END_CASES[case]
    problem = build()
    dec = decompose(problem, gluing=gluing, **how)
    mesh = problem.mesh
    owner = dec.partition.owner if dec.partition is not None else partition_elements(mesh, how["grid"])
    element_sets = [np.flatnonzero(owner == i) for i in range(int(owner.max()) + 1)]
    element_sets = [ids for ids in element_sets if ids.size]  # empty boxes are dropped
    assert len(element_sets) == dec.n_subdomains
    if case == "grid-finer-than-mesh":
        assert dec.n_subdomains < 25

    for sub, element_ids in zip(dec.subdomains, element_sets):
        nodes, free_nodes, k, f = _reference_subdomain(problem, element_ids)
        assert _same_bits(sub.element_ids, element_ids)
        assert _same_bits(sub.nodes, nodes)
        assert _same_bits(sub.free_nodes, free_nodes)
        assert _same_sparse_bits(sub.k, k)
        assert _same_bits(sub.f, f)
        assert _same_bits(sub.coords, mesh.coords[free_nodes])
        assert sub.floating == (free_nodes.size == nodes.size)

    n_multipliers, glued = _reference_interface([s.free_nodes for s in dec.subdomains], gluing)
    assert dec.n_multipliers == n_multipliers and type(dec.n_multipliers) is int
    for sub, (bt, multiplier_ids) in zip(dec.subdomains, glued):
        assert _same_sparse_bits(sub.bt, bt)
        assert _same_bits(sub.multiplier_ids, multiplier_ids)
    assert dec.check_consistency()


def _stub_subdomain(index, free_nodes):
    n = free_nodes.size
    return Subdomain(
        index=index,
        element_ids=np.empty(0, dtype=np.intp),
        nodes=free_nodes,
        free_nodes=free_nodes,
        k=sp.csr_matrix((n, n)),
        f=np.zeros(n),
        coords=np.zeros((n, 2)),
        floating=True,
        r=np.ones((n, 1)),
    )


@settings(max_examples=40, deadline=None)
@given(
    n_parts=st.integers(2, 9),
    n_nodes=st.integers(1, 40),
    shared=st.floats(0.0, 1.0),
    gluing=st.sampled_from(["redundant", "chain"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_vectorised_interface_equals_reference_loop(
    n_parts, n_nodes, shared, gluing, seed
):
    """Random node ownership — every node in 1 part, or (with probability
    *shared*) in 2..8 of them — glued by the vectorised builder and by the
    reference loop: same ``B_i^T``, same multiplier numbering."""
    rng = np.random.default_rng(seed)
    members = [[] for _ in range(n_parts)]
    for node in rng.choice(4 * n_nodes, size=n_nodes, replace=False):
        n_sharers = rng.integers(2, min(8, n_parts) + 1) if rng.random() < shared else 1
        for part in rng.choice(n_parts, size=n_sharers, replace=False):
            members[part].append(node)
    subs = [
        _stub_subdomain(i, np.sort(np.asarray(nodes, dtype=np.intp)))
        for i, nodes in enumerate(members)
    ]
    n_multipliers = build_interface(subs, 4 * n_nodes, gluing=gluing)
    want_n, want = _reference_interface([s.free_nodes for s in subs], gluing)
    assert n_multipliers == want_n
    for sub, (bt, multiplier_ids) in zip(subs, want):
        assert _same_sparse_bits(sub.bt, bt)
        assert _same_bits(sub.multiplier_ids, multiplier_ids)
    assert check_gluing_consistency(subs, n_multipliers)


# ---------------------------------------------------------------------------
# The global system is assembled when somebody reads it, and not before.


def _count_geometry_passes(monkeypatch):
    import repro.fem.element as element

    passes = []
    real = element.p1_gradients

    def counted(coords, elements):
        passes.append(len(elements))
        return real(coords, elements)

    monkeypatch.setattr(element, "p1_gradients", counted)
    return passes


def _live_block_sizes():
    return {trace.size for trace in tracemalloc.take_snapshot().traces}


def test_pipeline_never_assembles_the_global_system(monkeypatch):
    from repro.batch import BatchAssembler, items_from_decomposition
    from repro.core import default_config

    passes = _count_geometry_passes(monkeypatch)
    problem = heat_transfer_3d(6, dirichlet=())
    n_elements = problem.mesh.n_elements
    ke_bytes = n_elements * 4 * 4 * 8

    assert problem.n_dofs == problem.mesh.n_nodes
    assert repr(problem).startswith("HeatProblem(")
    assert passes == []

    tracemalloc.start()
    try:
        held = problem.element_matrices()  # the probe sees a live (ke, fe) ...
        assert held[0].nbytes == ke_bytes and ke_bytes in _live_block_sizes()
        del held
        del passes[:]
        dec = decompose(problem, grid=(2, 2, 2))
        assert ke_bytes not in _live_block_sizes()  # ... and none after decompose
    finally:
        tracemalloc.stop()
    result = BatchAssembler(default_config("gpu", 3)).assemble_batch(
        items_from_decomposition(dec)
    )
    assert len(result.results) == 8
    assert passes == [n_elements]  # one geometry pass: decompose's
    assert not {"_system", "k", "f"} & set(vars(problem))

    k, f = problem.k, problem.f
    assert passes == [n_elements, n_elements]  # one more for K and f together
    assert problem.k is k and problem.f is f
    assert passes == [n_elements, n_elements]
    assert _same_sparse_bits(k, assemble_stiffness(problem.mesh, problem.conductivity))
    assert _same_bits(f, assemble_load(problem.mesh, problem.source))
