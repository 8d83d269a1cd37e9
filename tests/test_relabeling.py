"""Canonical relabeling: invertibility under every rigid symmetry, and
exact artifact sharing across mirror classes.

The contract under test (see ``docs/batching.md``): for each of the 8 axis
perm/flip symmetries of the square, ``CanonicalRelabeling`` composed with
its inverse is the identity on DOFs, matrices and gluing columns; members
of one mirror class relabel onto bit-equal patterns, share one executed
batch group, and their un-relabeled Schur complements match per-member
assembly at tight tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchAssembler,
    factor_fingerprint,
)
from repro.batch.engine import items_from_decomposition
from repro.core import SchurAssembler, default_config
from repro.dd import decompose
from repro.fem import heat_transfer_2d
from repro.feti.operator import factorize_subdomain
from repro.feti.planner import plan_population
from repro.sparse import (
    CanonicalRelabeling,
    canonical_relabeling,
    orientation_transforms,
    quantize_pattern,
)
from tests.conftest import grid_coords, laplacian_2d

RTOL, ATOL = 1e-9, 1e-10

#: Dyadic offsets keep translated coordinates exact in floating point.
OFFSETS = st.integers(min_value=-64, max_value=64)

SYMMETRIES_2D = orientation_transforms(2)


def _labelled_problem(nx: int = 5, ny: int = 3, seed: int = 0):
    """Grid coordinates, a geometric stiffness and a one-entry-per-column
    gluing matrix whose multiplicities break the point-set symmetry enough
    to make the relabeling non-trivial.

    The 5x3 extents (4 and 2) divide the canonical quantum count exactly,
    so the quantized lattice is bit-symmetric under every flip — the
    regime where orientation canonicalization is exact (see
    :mod:`repro.sparse.canonical`); non-integral extents split classes
    conservatively instead.
    """
    coords = grid_coords(nx, ny).astype(np.float64)
    n = coords.shape[0]
    k = laplacian_2d(nx, ny).tocsr()
    rng = np.random.default_rng(seed)
    glued = rng.permutation(n)[: n // 2]
    cols = []
    for d in glued:
        col = np.zeros(n)
        col[d] = 1.0 if rng.random() < 0.5 else -1.0
        cols.append(col)
    bt = sp.csc_matrix(np.column_stack(cols)) if cols else sp.csc_matrix((n, 0))
    return coords, k, bt


@pytest.mark.parametrize("perm,signs", SYMMETRIES_2D)
@settings(max_examples=12, deadline=None)
@given(dx=OFFSETS, dy=OFFSETS)
def test_property_relabeling_roundtrip_all_symmetries(perm, signs, dx, dy):
    """apply ∘ unapply is the identity on DOFs, matrices, gluing columns and
    Schur complements, for coordinates under every axis perm/flip."""
    coords, k, bt = _labelled_problem()
    moved = coords[:, perm] * np.asarray(signs, dtype=np.float64) + np.array(
        [dx, dy], dtype=np.float64
    )
    rel = canonical_relabeling(moved, k=k, bt=bt)
    assert isinstance(rel, CanonicalRelabeling)
    n, m = rel.n_dofs, rel.n_cols
    assert (n, m) == bt.shape

    # DOF vector roundtrip.
    v = np.arange(n, dtype=np.float64)
    assert np.array_equal(rel.unapply_vector(rel.apply_vector(v)), v)
    assert np.array_equal(rel.dof_perm[rel.dof_inverse()], np.arange(n))
    assert np.array_equal(rel.col_perm[rel.col_inverse()], np.arange(m))

    # Matrix roundtrip (no quantization so values survive bit-for-bit).
    k_c = rel.apply_matrix(k, quantize=False)
    k_back = k_c.tocsr()[rel.dof_inverse()][:, rel.dof_inverse()]
    assert (k_back != k).nnz == 0

    # Gluing roundtrip on rows *and* columns.
    bt_c = rel.apply_bt(bt)
    bt_back = bt_c.tocsr()[rel.dof_inverse()].tocsc()[:, rel.col_inverse()]
    assert (bt_back != bt).nnz == 0

    # SC roundtrip: unapply_sc inverts the column relabeling exactly.
    f = np.arange(m * m, dtype=np.float64).reshape(m, m)
    f = f + f.T
    f_can = f[np.ix_(rel.col_perm, rel.col_perm)]
    assert np.array_equal(rel.unapply_sc(f_can), f)


@settings(max_examples=10, deadline=None)
@given(
    transform=st.sampled_from(SYMMETRIES_2D),
    dx=OFFSETS,
    dy=OFFSETS,
)
def test_property_signature_invariant_under_symmetries(transform, dx, dy):
    """The relabeling signature is one orientation-canonical class key:
    invariant under every rigid symmetry of the labelled point set."""
    perm, signs = transform
    coords, _, bt = _labelled_problem()
    base = canonical_relabeling(coords, bt=bt)
    moved = coords[:, perm] * np.asarray(signs, dtype=np.float64) + np.array(
        [dx, dy], dtype=np.float64
    )
    rel = canonical_relabeling(moved, bt=bt)
    assert rel.signature == base.signature
    # The relabeled gluing patterns coincide bit-for-bit.
    a, b = base.apply_bt(bt).tocsc(), rel.apply_bt(bt).tocsc()
    a.sort_indices(), b.sort_indices()
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


def test_quantize_pattern_drops_only_below_tolerance():
    a = sp.csr_matrix(np.array([[2.0, 1e-17], [1e-17, 1.0]]))
    q = quantize_pattern(a)
    assert q.nnz == 2 and np.array_equal(q.toarray(), np.diag([2.0, 1.0]))
    exact = quantize_pattern(a, value_tolerance=0.0)
    assert exact.nnz == 4  # zero tolerance keeps the tiny entries
    assert quantize_pattern(sp.csr_matrix((3, 3))).nnz == 0
    with pytest.raises(ValueError, match="sparse"):
        quantize_pattern(np.eye(2))


def test_relabeling_validates_shapes():
    coords, k, bt = _labelled_problem()
    rel = canonical_relabeling(coords, k=k, bt=bt)
    with pytest.raises(ValueError, match="shape mismatch"):
        rel.apply_matrix(sp.eye(3, format="csr"))
    with pytest.raises(ValueError, match="shape mismatch"):
        rel.apply_bt(sp.csc_matrix((3, 1)))
    with pytest.raises(ValueError, match="n_cols"):
        rel.unapply_sc(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="one row per DOF"):
        canonical_relabeling(coords[:-1], bt=bt)


# ---------------------------------------------------------------------------
# mirror classes on a real decomposition: shared artifacts, allclose SCs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def floating_3x3():
    problem = heat_transfer_2d(12, dirichlet=())
    return decompose(problem, grid=(3, 3))


def test_mirror_members_share_canonical_fingerprints(floating_3x3):
    dec = floating_3x3
    subs = dec.subdomains
    rels = [canonical_relabeling(s.coords, k=s.k, bt=s.bt) for s in subs]
    # Corner subdomains 0/2/6/8 form one canonical class, edges another.
    corner_sigs = {rels[i].signature for i in (0, 2, 6, 8)}
    edge_sigs = {rels[i].signature for i in (1, 3, 5, 7)}
    assert len(corner_sigs) == 1 and len(edge_sigs) == 1
    assert corner_sigs != edge_sigs != {rels[4].signature}

    # Canonical-frame factors of one class share pattern; factor_fingerprint
    # with the relabeling collides, without it stays apart.
    factors = [
        factorize_subdomain(subs[i], relabeling=rels[i]) for i in (0, 2, 6, 8)
    ]
    canon = {
        factor_fingerprint(f, subs[i].bt, relabeling=rels[i]).key
        for f, i in zip(factors, (0, 2, 6, 8))
    }
    exact = {
        factor_fingerprint(f, subs[i].bt).key for f, i in zip(factors, (0, 2, 6, 8))
    }
    assert len(canon) == 1 and len(exact) == 4


def test_canonical_factor_solves_the_subdomain(floating_3x3):
    """The canonical-frame factor (perm composed back to original DOFs) is a
    genuine factorization of the canonically regularized subdomain matrix:
    K x = b residuals stay small on the regularized operator's range."""
    sub = floating_3x3.subdomains[0]
    rel = canonical_relabeling(sub.coords, k=sub.k, bt=sub.bt)
    factor = factorize_subdomain(sub, relabeling=rel)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(sub.n_dofs)
    x = factor.solve(b)
    # factor.solve applies K_reg^{-1}; verify against the explicitly
    # reconstructed regularized matrix in the canonical frame.
    from repro.sparse import choose_fixing_dofs, regularize

    k_c = rel.apply_matrix(sub.k)
    fixing = choose_fixing_dofs(k_c, sub.kernel_dim, coords=rel.coords())
    k_reg_c = regularize(k_c, fixing)
    k_reg = k_reg_c.tocsr()[rel.dof_inverse()][:, rel.dof_inverse()]
    assert np.allclose(k_reg @ x, b, atol=1e-8 * max(1.0, np.abs(b).max()))


def test_mirror_classes_execute_as_shared_groups(floating_3x3):
    """The ISSUE acceptance property at 3x3 scale: mirror-class members run
    through one stacked group and their un-relabeled SCs match per-member
    assembly."""
    items = items_from_decomposition(floating_3x3)
    cfg = default_config("gpu", 2)
    batch = BatchAssembler(config=cfg).assemble_batch(items, execution="grouped")
    assert batch.stats.n_groups == 3 and batch.stats.n_exact_groups == 9
    assert batch.stats.n_grouped == 9
    assert len(batch.stats.group_launches) == 3
    ref = SchurAssembler(config=cfg)
    for it, res in zip(items, batch.results):
        expect = ref.assemble(it.factor, it.bt).f
        scale = max(1.0, float(np.abs(expect).max(initial=0.0)))
        assert np.allclose(res.f, expect, rtol=RTOL, atol=ATOL * scale)


def test_mirror_classes_share_in_3d():
    """Kuhn-tetrahedra adjacency is not symmetric under all 48 transforms,
    but the quantized-K-aware minimizer still collapses the 8 octants of a
    floating 2x2x2 decomposition into one canonical group — with SCs
    matching per-member assembly."""
    from repro.fem import heat_transfer_3d

    problem = heat_transfer_3d(6, dirichlet=())
    dec = decompose(problem, grid=(2, 2, 2))
    items = items_from_decomposition(dec)
    cfg = default_config("gpu", 3)
    batch = BatchAssembler(config=cfg).assemble_batch(items, execution="grouped")
    assert batch.stats.n_exact_groups == 8
    assert batch.stats.n_groups == 1
    assert batch.stats.n_grouped == 8
    ref = SchurAssembler(config=cfg)
    for it, res in zip(items, batch.results):
        expect = ref.assemble(it.factor, it.bt).f
        scale = max(1.0, float(np.abs(expect).max(initial=0.0)))
        assert np.allclose(res.f, expect, rtol=RTOL, atol=ATOL * scale)


def test_plan_population_accepts_relabelings(floating_3x3):
    items = items_from_decomposition(floating_3x3)
    members = [(it.factor, it.bt) for it in items]
    rels = [it.relabeling for it in items]
    pop = plan_population(members, dim=2, expected_iterations=30, relabelings=rels)
    assert pop.n_groups == 3
    geo = plan_population(
        members,
        dim=2,
        expected_iterations=30,
        coords=[it.coords for it in items],
    )
    assert [pop.chosen_for(i) for i in range(9)] == [
        geo.chosen_for(i) for i in range(9)
    ]
    with pytest.raises(ValueError, match="one entry"):
        plan_population(members, dim=2, expected_iterations=30, relabelings=rels[:-1])


def test_items_from_decomposition_canonicalize_flag(floating_3x3):
    canonical = items_from_decomposition(floating_3x3)
    plain = items_from_decomposition(floating_3x3, canonicalize=False)
    assert all(it.relabeling is not None for it in canonical)
    assert all(it.relabeling is None for it in plain)
    batch = BatchAssembler(config=default_config("gpu", 2)).assemble_batch(
        plain, execute=False
    )
    assert batch.stats.n_groups == batch.stats.n_exact_groups == 9
    assert batch.stats.mirrors_shared == 0
