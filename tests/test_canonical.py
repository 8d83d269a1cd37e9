"""Canonical frames: translation invariance of the regularization/ordering/
fingerprint path, and value-independent factor/regularization structure."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import factor_fingerprint, geometric_fingerprint
from repro.dd import decompose
from repro.fem import heat_transfer_2d
from repro.feti.operator import factorize_subdomain
from repro.sparse import (
    CanonicalFrame,
    canonical_coords,
    canonical_frame,
    canonical_signature,
    cholesky,
    choose_fixing_dofs,
    choose_fixing_nodes,
    conform_to_symbolic,
    frame_digest,
    nd_ordering,
    orientation_transforms,
    regularize,
)
from repro.sparse.cholesky import CholeskyFactor
from tests.conftest import grid_coords, laplacian_2d, random_spd
from tests.reference_factor import native_cholesky

#: Offsets bounded so translation jitter (~eps * |offset|) stays far below
#: the canonical quantum (tolerance * subdomain size); see canonical.py.
OFFSETS = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@pytest.fixture(scope="module")
def floating_subdomain():
    problem = heat_transfer_2d(12, dirichlet=())
    dec = decompose(problem, grid=(3, 3))
    return dec.subdomains[4]  # the interior subdomain


# ---------------------------------------------------------------------------
# canonical frame basics
# ---------------------------------------------------------------------------


def test_canonical_frame_lattice_and_coords():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    frame = canonical_frame(coords)
    assert isinstance(frame, CanonicalFrame)
    assert frame.n_points == 3 and frame.dim == 2
    assert frame.scale == 2.0
    assert np.array_equal(frame.lattice.min(axis=0), [0, 0])
    cc = frame.coords()
    # Uniform scaling preserves geometry: relative positions survive.
    assert np.argmax(np.linalg.norm(cc - cc[0], axis=1)) == 2


def test_canonical_frame_exact_translation():
    coords = grid_coords(4, 3)
    a = canonical_frame(coords)
    b = canonical_frame(coords + np.array([17.0, -3.5]))
    assert np.array_equal(a.lattice, b.lattice)
    assert a.digest() == b.digest()
    assert np.array_equal(canonical_coords(coords), canonical_coords(coords + 5.0))


def test_canonical_frame_empty_and_degenerate():
    empty = canonical_frame(np.empty((0, 2)))
    assert empty.n_points == 0 and empty.digest()
    point = canonical_frame(np.array([[3.0, 4.0]]))
    assert np.array_equal(point.lattice, [[0, 0]])


def test_canonical_frame_validates():
    with pytest.raises(ValueError, match="tolerance"):
        canonical_frame(np.zeros((2, 2)), tolerance=2.0)
    with pytest.raises(ValueError, match="finite"):
        canonical_frame(np.array([[np.nan, 0.0]]))


def test_canonical_frame_quantization_merges_jitter():
    coords = grid_coords(3, 3)
    jittered = coords + 1e-12 * np.arange(18).reshape(9, 2)
    assert frame_digest(coords) == frame_digest(jittered)
    # Distinct geometry (beyond the tolerance) stays distinct.
    assert frame_digest(coords) != frame_digest(coords * np.array([1.5, 1.0]))


# ---------------------------------------------------------------------------
# canonical signature (orientation invariance)
# ---------------------------------------------------------------------------


def test_orientation_transforms_counts():
    assert len(orientation_transforms(1)) == 2
    assert len(orientation_transforms(2)) == 8
    assert len(orientation_transforms(3)) == 48
    with pytest.raises(ValueError):
        orientation_transforms(4)


def test_canonical_signature_rigid_symmetry_invariance():
    coords = grid_coords(4, 3).astype(np.float64)
    feats = np.arange(12) % 3
    base = canonical_signature(coords, feats)
    flipped = coords * np.array([-1.0, 1.0]) + np.array([9.0, 2.0])
    swapped = coords[:, ::-1] - 4.0
    assert canonical_signature(flipped, feats) == base
    assert canonical_signature(swapped, feats) == base
    # Features are part of the identity.
    assert canonical_signature(coords, feats + 1) != base
    # And so is the labelled geometry, not just the point multiset.
    perm = np.random.default_rng(0).permutation(12)
    assert canonical_signature(coords[perm], feats[perm]) == base
    assert canonical_signature(coords[perm], feats) != base


# ---------------------------------------------------------------------------
# translation invariance of the decision path (property tests)
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(dx=OFFSETS, dy=OFFSETS)
def test_property_fixing_dofs_translation_invariant(floating_subdomain, dx, dy):
    sub = floating_subdomain
    offset = np.array([dx, dy])
    base = choose_fixing_dofs(sub.k, sub.kernel_dim, coords=sub.coords)
    moved = choose_fixing_dofs(sub.k, sub.kernel_dim, coords=sub.coords + offset)
    assert np.array_equal(base, moved)


@settings(max_examples=25, deadline=None)
@given(dx=OFFSETS, dy=OFFSETS)
def test_property_nd_permutation_translation_invariant(floating_subdomain, dx, dy):
    sub = floating_subdomain
    kreg = regularize(sub.k, choose_fixing_dofs(sub.k, sub.kernel_dim, coords=sub.coords))
    offset = np.array([dx, dy])
    base = nd_ordering(kreg, coords=sub.coords, leaf_size=8)
    moved = nd_ordering(kreg, coords=sub.coords + offset, leaf_size=8)
    assert np.array_equal(base, moved)


@settings(max_examples=40, deadline=None)
@given(dx=OFFSETS, dy=OFFSETS)
def test_property_fingerprints_translation_invariant(floating_subdomain, dx, dy):
    sub = floating_subdomain
    offset = np.array([dx, dy])
    assert (
        geometric_fingerprint(sub.coords, sub.bt).key
        == geometric_fingerprint(sub.coords + offset, sub.bt).key
    )


@settings(max_examples=10, deadline=None)
@given(dx=OFFSETS, dy=OFFSETS)
def test_property_factor_fingerprint_translation_invariant(floating_subdomain, dx, dy):
    sub = floating_subdomain
    moved = replace(sub, coords=sub.coords + np.array([dx, dy]))
    fp = factor_fingerprint(factorize_subdomain(sub), sub.bt)
    fp_moved = factor_fingerprint(factorize_subdomain(moved), moved.bt)
    assert fp.key == fp_moved.key


def test_choose_fixing_nodes_translation_invariant():
    coords = grid_coords(5, 4)
    base = choose_fixing_nodes(coords, 3, dofs_per_node=2)
    moved = choose_fixing_nodes(coords + np.array([41.0, -7.25]), 3, dofs_per_node=2)
    assert np.array_equal(base, moved)


# ---------------------------------------------------------------------------
# rigid mesh translation: bitwise-identical Schur complements
# ---------------------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(ox=st.integers(min_value=-16, max_value=16), oy=st.integers(min_value=-16, max_value=16))
def test_property_rigid_mesh_translation_bitwise_sc(ox, oy):
    """Translating the whole mesh by a dyadic offset leaves every assembled
    Schur complement bitwise identical (dyadic offsets + power-of-two mesh
    spacing keep coordinate differences exact in floating point, and the
    canonical frame keeps fixing DOFs and permutations fixed)."""
    from repro.core import SchurAssembler, default_config

    offset = np.array([ox * 0.25, oy * 0.25])
    problem = heat_transfer_2d(8, dirichlet=())
    dec = decompose(problem, grid=(2, 2))
    mesh2 = replace(problem.mesh, coords=problem.mesh.coords + offset)
    dec2 = decompose(replace(problem, mesh=mesh2), grid=(2, 2))

    asm = SchurAssembler(config=default_config("gpu", 2))
    for sub, sub2 in zip(dec.subdomains, dec2.subdomains):
        f1 = factorize_subdomain(sub)
        f2 = factorize_subdomain(sub2)
        assert np.array_equal(f1.perm, f2.perm)
        res1 = asm.assemble(f1, sub.bt)
        res2 = asm.assemble(f2, sub2.bt)
        assert np.array_equal(res1.f, res2.f)


# ---------------------------------------------------------------------------
# value-independent structure: regularize and conform_to_symbolic
# ---------------------------------------------------------------------------


def test_regularize_preserves_explicit_zeros():
    """The K_reg pattern must not depend on whether an entry is exactly 0.0
    or 1e-17 — SciPy's sparse ``+`` would prune the former."""
    base = laplacian_2d(3, 3).tolil()
    base[0, 8] = base[8, 0] = 1.0
    a = sp.csr_matrix(base.tocsr())
    b = a.copy()
    a.data = a.data.copy()
    b.data = b.data.copy()
    (za,) = np.flatnonzero((a.indices == 8) & (np.repeat(np.arange(9), np.diff(a.indptr)) == 0))
    a.data[za] = 0.0  # exact zero
    b.data[za] = 1e-17  # jittered "zero"
    ra = regularize(a, np.array([0]), rho=1.0).tocsc()
    rb = regularize(b, np.array([0]), rho=1.0).tocsc()
    assert np.array_equal(ra.indptr, rb.indptr)
    assert np.array_equal(ra.indices, rb.indices)
    assert ra.nnz == a.nnz  # union pattern, nothing pruned


def test_conform_to_symbolic_matches_native_pattern():
    a = random_spd(40, 0.1, seed=3)
    sup = cholesky(a, ordering="amd", conform=True)
    nat = native_cholesky(a, ordering="amd")
    ls, ln = sup.l.tocsc(), nat.l.tocsc()
    assert np.array_equal(ls.indptr, ln.indptr)
    assert np.array_equal(ls.indices, ln.indices)
    assert np.allclose(ls.toarray(), ln.toarray(), atol=1e-10)
    # Solves are unaffected by the explicit zeros.
    rhs = np.arange(40, dtype=np.float64)
    assert np.allclose(sup.solve(rhs), nat.solve(rhs), atol=1e-8)
    # Conforming an already-symbolic factor is the identity.
    ap = sp.csc_matrix(a.tocsr()[sup.perm][:, sup.perm])
    again = conform_to_symbolic(sup.l.tocsc(), ap)
    assert again.nnz == sup.l.nnz


def test_factor_fingerprint_ignores_tied_perm_relabeling():
    """Permutations that differ but produce the same stored-L pattern and
    the same permuted gluing pattern must share a fingerprint — the cached
    artifacts are computed from exactly those two patterns."""
    n = 12
    factor = cholesky(sp.csr_matrix(sp.eye(n)), ordering="natural")
    relabeled = CholeskyFactor(
        l=factor.l,
        perm=np.roll(factor.perm, 1),  # diagonal L: any perm, same pattern
        flops=factor.flops,
        engine=factor.engine,
    )
    bt_uniform = sp.csc_matrix(np.ones((n, 2)))  # rows identical: perm-proof
    assert (
        factor_fingerprint(factor, bt_uniform).key
        == factor_fingerprint(relabeled, bt_uniform).key
    )
    bt_distinct = sp.csc_matrix(np.eye(n)[:, :3])  # rows distinct: perm matters
    assert (
        factor_fingerprint(factor, bt_distinct).key
        != factor_fingerprint(relabeled, bt_distinct).key
    )


# ---------------------------------------------------------------------------
# geometric fingerprint on a real decomposition
# ---------------------------------------------------------------------------


def test_geometric_fingerprint_merges_mirror_classes():
    problem = heat_transfer_2d(12, dirichlet=())
    dec = decompose(problem, grid=(3, 3))
    keys = [geometric_fingerprint(s.coords, s.bt).key for s in dec.subdomains]
    # 3x3 floating grid: 4 corners + 4 edges + 1 interior -> 3 classes.
    assert len(set(keys)) == 3
    corners = {keys[i] for i in (0, 2, 6, 8)}
    edges = {keys[i] for i in (1, 3, 5, 7)}
    assert len(corners) == 1 and len(edges) == 1
    assert corners != edges != {keys[4]}


def test_geometric_fingerprint_validates():
    with pytest.raises(ValueError, match="sparse"):
        geometric_fingerprint(np.zeros((3, 2)), np.zeros((3, 1)))
    with pytest.raises(ValueError, match="one row per DOF"):
        geometric_fingerprint(np.zeros((2, 2)), sp.csc_matrix((3, 1)))
