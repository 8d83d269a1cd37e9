"""Rotation-invariant signatures, near-match pricing, extent snapping."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.canonical import (
    canonical_frame,
    canonical_relabeling,
    canonical_signature,
    inertia_alignment,
    near_signature,
    rotation_coords,
    rotation_signature,
)


def _cloud(n=40, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 2))
    feats = (rng.random(n) < 0.3).astype(np.int64)
    return pts, feats


def _rot(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


# --- satellite: symmetry-aware extent snapping --------------------------------


def test_snapping_merges_fractional_extent_mirrors():
    """A mirror pair whose y-extent is fractional in quanta previously split
    into two conservative classes; extent snapping merges them."""
    tol = 0.25
    a = np.array([[0.0, 0.0], [0.5, 0.4], [1.0, 0.61]])
    b = a.copy()
    b[:, 1] = 0.61 - a[:, 1]  # mirror in y
    # the historical behaviour: signatures split
    assert canonical_signature(a, tolerance=tol, snap_extents=False) != \
        canonical_signature(b, tolerance=tol, snap_extents=False)
    # snapped (default): the mirror symmetry is recovered
    assert canonical_signature(a, tolerance=tol) == \
        canonical_signature(b, tolerance=tol)


def test_snapping_ignores_sub_quantum_axes():
    """An axis flat up to numerical noise must not be resolved at noise
    precision: sub-quantum jitter still cannot split a class."""
    pts = np.array([[0.0, 0.0], [0.4, 0.0], [1.0, 0.0]])
    noisy = pts.copy()
    noisy[1, 1] = 1e-12  # jitter far below the quantum
    a = canonical_frame(pts)
    b = canonical_frame(noisy)
    assert np.array_equal(a.lattice, b.lattice)
    assert canonical_signature(pts) == canonical_signature(noisy)


def test_snapping_is_identity_on_integral_lattices():
    grid = np.array(
        [[x, y] for x in range(5) for y in range(5)], dtype=np.float64
    ) * 0.05
    snapped = canonical_frame(grid)
    raw = canonical_frame(grid, snap_extents=False)
    assert np.array_equal(snapped.lattice, raw.lattice)
    assert snapped.axis_quanta is not None and raw.axis_quanta is None


def test_snapping_keeps_floating_grid_class_counts():
    """The floating 5x5 collapse (9 exact / 3 canonical classes) must be
    unchanged by the snapping — it only *adds* symmetry."""
    from repro.batch import BatchAssembler, items_from_decomposition
    from repro.core import default_config
    from repro.dd import decompose
    from repro.fem import heat_transfer_2d

    problem = heat_transfer_2d(15, dirichlet=())
    dec = decompose(problem, grid=(5, 5))
    items = items_from_decomposition(dec)
    res = BatchAssembler(config=default_config("gpu", 2)).assemble_batch(
        items, execute=False
    )
    assert res.stats.n_groups == 3
    assert res.stats.n_exact_groups == 9
    assert res.stats.n_geometric_groups == 3


# --- inertia alignment --------------------------------------------------------


def test_inertia_alignment_refuses_degenerate_spectra():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert inertia_alignment(square) is None
    aligned, rotated = rotation_coords(square)
    assert not rotated and np.array_equal(aligned, square)


def test_inertia_alignment_orders_moments_descending():
    pts, _ = _cloud(seed=5)
    pts[:, 0] *= 3.0  # x clearly dominant
    axes = inertia_alignment(pts)
    assert axes is not None
    aligned, rotated = rotation_coords(pts)
    assert rotated
    var = aligned.var(axis=0)
    assert var[0] > var[1]
    assert np.allclose(axes.T @ axes, np.eye(2), atol=1e-12)


# --- rotation signature -------------------------------------------------------


def test_rotation_signature_invariant_under_rigid_motion():
    pts, feats = _cloud(seed=7)
    ref = rotation_signature(pts, feats)
    for theta in (0.3, 1.234, 2.9):
        moved = pts @ _rot(theta).T + np.array([5.0, -2.0])
        assert rotation_signature(moved, feats) == ref
    mirrored = pts * np.array([-1.0, 1.0])
    assert rotation_signature(mirrored, feats) == ref
    # the axis-aligned signature cannot see through a free rotation
    assert canonical_signature(pts @ _rot(0.7341).T, feats) != \
        canonical_signature(pts, feats)


def test_rotation_signature_separates_different_labels_and_shapes():
    pts, feats = _cloud(seed=9)
    other = feats.copy()
    other[np.flatnonzero(other == 0)[:3]] = 1
    assert rotation_signature(pts, feats) != rotation_signature(pts, other)
    stretched = pts * np.array([2.0, 1.0])
    assert rotation_signature(stretched, feats) != rotation_signature(pts, feats)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=50),
    theta=st.floats(min_value=-3.1, max_value=3.1),
    tx=st.floats(min_value=-5.0, max_value=5.0),
)
def test_rotation_signature_invariance_hypothesis(seed, theta, tx):
    pts, feats = _cloud(n=25, seed=seed)
    moved = pts @ _rot(theta).T + np.array([tx, 0.5 * tx])
    assert rotation_signature(moved, feats) == rotation_signature(pts, feats)


# --- near signature -----------------------------------------------------------


def test_near_signature_rigid_and_scale_invariant():
    pts, feats = _cloud(seed=11)
    ref = near_signature(pts, feats)
    assert near_signature(pts @ _rot(1.1).T * 2.5 + 7.0, feats) == ref


def test_near_signature_groups_approximate_congruence_but_splits_shapes():
    pts, feats = _cloud(n=60, seed=13)
    wiggled = pts + np.random.default_rng(1).normal(scale=1e-3, size=pts.shape)
    assert near_signature(wiggled, feats) == near_signature(pts, feats)
    anisotropic = pts * np.array([4.0, 1.0])
    assert near_signature(anisotropic, feats) != near_signature(pts, feats)
    # size buckets: 3x the points is a different class
    tripled = np.vstack([pts, pts + 10.0, pts - 10.0])
    assert near_signature(tripled) != near_signature(pts)


def test_near_signature_validates():
    pts, _ = _cloud()
    with pytest.raises(ValueError):
        near_signature(pts, size_tolerance=0.0)
    with pytest.raises(ValueError):
        near_signature(pts, radial_bins=-1)


# --- rotations in the canonical relabeling ------------------------------------


def test_relabeling_rotations_merge_rotated_congruent_subdomains():
    """Two congruent glued subdomains at 90° share a rotation-relabeled
    signature; with rotations off they only merge because 90° is an axis
    permutation — so use an oblique angle to show the difference."""
    rng = np.random.default_rng(17)
    pts = rng.uniform(size=(30, 2))
    pts[:, 0] *= 2.0  # stable inertia spectrum
    k = sp.random(30, 30, density=0.2, random_state=3)
    k = (k + k.T + sp.eye(30)).tocsr()
    bt = sp.random(30, 8, density=0.2, random_state=4, format="csc")
    bt.data[:] = 1.0
    theta = 0.7341
    moved = pts @ _rot(theta).T + 3.0

    plain = canonical_relabeling(pts, k=k, bt=bt)
    plain_moved = canonical_relabeling(moved, k=k, bt=bt)
    assert plain.signature != plain_moved.signature

    rot = canonical_relabeling(pts, k=k, bt=bt, rotations=True)
    rot_moved = canonical_relabeling(moved, k=k, bt=bt, rotations=True)
    assert rot.signature == rot_moved.signature
    # the relabeling is still a pure permutation pair (invertible map)
    assert np.array_equal(np.sort(rot.dof_perm), np.arange(30))
    assert np.array_equal(np.sort(rot.col_perm), np.arange(8))


def test_relabeling_rotations_safe_on_degenerate_spectra():
    """Isotropic (structured-box) subdomains keep the axis-aligned frame, so
    rotations=True is a no-op for them."""
    grid = np.array(
        [[x, y] for x in range(4) for y in range(4)], dtype=np.float64
    )
    k = sp.eye(16, format="csr")
    bt = sp.eye(16, format="csc")[:, :5]
    a = canonical_relabeling(grid, k=k, bt=bt, rotations=True)
    b = canonical_relabeling(grid, k=k, bt=bt, rotations=False)
    assert np.array_equal(a.dof_perm, b.dof_perm)


# --- engine + planner integration --------------------------------------------


def _unstructured_items(n_parts=8, cells=16, seed=0):
    from repro.batch import items_from_decomposition
    from repro.dd import decompose
    from repro.fem import heat_problem
    from repro.part import jittered_square_mesh

    mesh = jittered_square_mesh(cells, jitter=0.25, seed=seed)
    dec = decompose(
        heat_problem(mesh), n_subdomains=n_parts, partitioner="rcb", seed=seed
    )
    return dec, items_from_decomposition(dec)


def test_engine_near_mode_groups_unstructured_pricing():
    from repro.batch import BatchAssembler
    from repro.core import default_config

    dec, items = _unstructured_items()
    cfg = default_config("gpu", 2)
    near = BatchAssembler(config=cfg, signature_mode="near").assemble_batch(
        items, execute=False
    )
    frame = BatchAssembler(config=cfg, signature_mode="frame").assemble_batch(
        items, execute=False
    )
    # exact classes are all singletons on a jittered mesh...
    assert near.stats.n_exact_groups == dec.n_subdomains
    assert near.stats.singleton_share == 1.0
    # ...the frame signature cannot group them either, but near pricing can
    assert frame.stats.n_geometric_groups == dec.n_subdomains
    assert near.stats.n_geometric_groups < dec.n_subdomains
    with pytest.raises(ValueError):
        BatchAssembler(config=cfg, signature_mode="exact")


def test_plan_population_near_signature():
    from repro.feti.planner import plan_population

    dec, items = _unstructured_items()
    members = [(it.factor, it.bt) for it in items]
    coords = [it.coords for it in items]
    near = plan_population(
        members, dim=2, expected_iterations=40, coords=coords, signature="near"
    )
    frame = plan_population(
        members, dim=2, expected_iterations=40, coords=coords, signature="frame"
    )
    assert near.n_members == frame.n_members == dec.n_subdomains
    assert near.n_groups < frame.n_groups
    assert all(near.chosen_for(i) for i in range(near.n_members))
    with pytest.raises(ValueError):
        plan_population(
            members, dim=2, expected_iterations=40, coords=coords, signature="bogus"
        )


def test_stats_grouping_efficiency_line():
    from repro.batch import BatchStats

    stats = BatchStats(n_subdomains=12, n_groups=4, n_singleton_groups=1)
    assert stats.members_per_group == 3.0
    assert stats.singleton_share == 0.25
    assert "1/4" in stats.summary()
    empty = BatchStats()
    assert empty.members_per_group == 0.0 and empty.singleton_share == 0.0
    assert "grouping:" not in empty.summary()
