"""Tests for the simulated GPU substrate: specs, cost model, kernels, runtime."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import (
    A100_40GB,
    EPYC_7763_CORE,
    PCIE4_X16,
    DeviceSpec,
    Executor,
    KernelCost,
    MemoryPool,
    OutOfDeviceMemoryError,
    cpu_executor,
    csx_bytes,
    dense_bytes,
    gpu_executor,
)
from repro.gpu import kernels
from repro.sparse import StackedCSC, cholesky
from repro.util import trsm_dense_flops
from tests.conftest import random_spd


# ---------------------------------------------------------------------------
# specs and cost model
# ---------------------------------------------------------------------------


def test_device_spec_validation():
    with pytest.raises(ValueError):
        DeviceSpec("x", "tpu", 1e9, 1e9, 0, 0.5, 1, 0.5, 1e9)
    with pytest.raises(ValueError):
        A100_40GB.with_overrides(peak_flops=-1)
    spec = A100_40GB.with_overrides(launch_overhead=0.0)
    assert spec.launch_overhead == 0.0
    assert A100_40GB.launch_overhead > 0  # original untouched


def test_transfer_time_monotone():
    assert PCIE4_X16.time(0) == PCIE4_X16.latency
    assert PCIE4_X16.time(2e9) > PCIE4_X16.time(1e9)
    with pytest.raises(ValueError):
        PCIE4_X16.time(-1)


def test_kernel_cost_validation():
    with pytest.raises(ValueError):
        KernelCost(flops=-1)
    with pytest.raises(ValueError):
        KernelCost(bytes_moved=-1)


def test_cost_addition_accumulates():
    a = KernelCost(flops=100, bytes_moved=10, launches=1, char_dim=10)
    b = KernelCost(flops=300, bytes_moved=30, launches=2, char_dim=50)
    c = a + b
    assert c.flops == 400 and c.bytes_moved == 40 and c.launches == 3
    assert 10 < c.char_dim < 50  # flop-weighted


def test_time_on_launch_floor():
    tiny = KernelCost(flops=1, bytes_moved=1, launches=1, char_dim=1)
    assert tiny.time_on(A100_40GB) >= A100_40GB.launch_overhead


def test_time_on_compute_asymptote():
    big = KernelCost(flops=1e15, bytes_moved=1.0, launches=1, char_dim=1e6)
    t = big.time_on(A100_40GB)
    ideal = 1e15 / (A100_40GB.peak_flops * A100_40GB.eff_max)
    assert t == pytest.approx(ideal, rel=0.01)


def test_time_on_memory_bound():
    # Lots of bytes, no flops: time == bytes / bandwidth.
    c = KernelCost(flops=0, bytes_moved=1.555e12, launches=0, char_dim=1)
    assert c.time_on(A100_40GB) == pytest.approx(1.0, rel=1e-6)


def test_sparse_discount_applies():
    dense = KernelCost(flops=1e12, bytes_moved=0, launches=0, char_dim=1e5, sparse=False)
    sparse = KernelCost(flops=1e12, bytes_moved=0, launches=0, char_dim=1e5, sparse=True)
    assert sparse.time_on(A100_40GB) > 5 * dense.time_on(A100_40GB)


def test_gpu_beats_cpu_large_loses_small():
    big = KernelCost(
        flops=trsm_dense_flops(30_000, 6_000),
        bytes_moved=dense_bytes((30_000, 6_000)),
        char_dim=6_000,
    )
    assert big.time_on(EPYC_7763_CORE) > 50 * big.time_on(A100_40GB)
    # At tiny sizes the two are within an order of magnitude (launch bound).
    small = KernelCost(flops=1e4, bytes_moved=1e4, char_dim=8)
    ratio = small.time_on(A100_40GB) / small.time_on(EPYC_7763_CORE)
    assert ratio > 0.3


def test_byte_helpers():
    assert dense_bytes((10, 10)) == 800
    assert dense_bytes((2, 3), (4, 5)) == (6 + 20) * 8
    assert csx_bytes(100, 10) == 100 * 12 + 11 * 4


# ---------------------------------------------------------------------------
# kernels: numerics + cost
# ---------------------------------------------------------------------------


# The kernels take stacked operands only; a single matrix is the stack of
# one (``x[None]`` is a view, so in-place results land in ``x``).


@pytest.fixture
def factor():
    return cholesky(random_spd(80, density=0.06, seed=2), ordering="amd")


def _stack(*mats):
    return StackedCSC.from_matrices(list(mats))


def _scaled(a, factor):
    """Same pattern, distinct values."""
    out = a.copy()
    out.data = out.data * factor
    return out


def test_kernel_trsm_dense(factor, rng):
    ld = factor.l.toarray()
    x = rng.standard_normal((80, 7))
    x0 = x.copy()
    cost = kernels.trsm_dense(ld[None], x[None])
    assert np.allclose(factor.l @ x, x0, atol=1e-9)
    assert cost.flops == trsm_dense_flops(80, 7)
    cost_t = kernels.trsm_dense(ld[None], x[None], trans=True)
    assert cost_t.flops == cost.flops


def test_kernel_trsm_sparse(factor, rng):
    x = rng.standard_normal((80, 7))
    x0 = x.copy()
    cost = kernels.trsm_sparse(_stack(factor.l), x[None])
    assert np.allclose(factor.l @ x, x0, atol=1e-9)
    assert cost.sparse


@pytest.mark.parametrize("trans", [False, True])
def test_kernel_trsm_stack_of_three_matches_stacks_of_one(factor, rng, trans):
    """G = 1 (library routine) vs a slice of G = 3 (blocked substitution):
    distinct values on one pattern, same solutions, 3x the cost, 1 launch."""
    ls = [_scaled(factor.l, s) for s in (1.0, 1.3, 0.7)]
    x3 = rng.standard_normal((3, 80, 7))
    for kernel, operand in (
        (kernels.trsm_sparse, lambda mats: _stack(*mats)),
        (kernels.trsm_dense, lambda mats: np.stack([a.toarray() for a in mats])),
    ):
        got = x3.copy()
        cost3 = kernel(operand(ls), got, trans=trans)
        for g in range(3):
            ref = x3[g : g + 1].copy()
            cost1 = kernel(operand(ls[g : g + 1]), ref, trans=trans)
            assert np.allclose(got[g], ref[0], rtol=1e-9, atol=1e-10)
        assert cost3.flops == 3 * cost1.flops
        assert cost3.bytes_moved == 3 * cost1.bytes_moved
        assert cost3.launches == cost1.launches == 1


def test_kernel_trsm_sparse_prebuilt_solver_is_bitwise(factor, rng):
    from repro.sparse.triangular import TriangularSolver

    x = rng.standard_normal((1, 80, 4))
    fresh, cached = x.copy(), x.copy()
    kernels.trsm_sparse(_stack(factor.l), fresh)
    kernels.trsm_sparse(_stack(factor.l), cached, solver=TriangularSolver(factor.l))
    assert np.array_equal(fresh, cached)


def test_kernel_syrk(rng):
    y = rng.standard_normal((40, 12))
    c = np.ones((12, 12))
    cost = kernels.syrk(y[None], c[None], alpha=2.0, beta=1.0)
    assert np.allclose(c, 1.0 + 2.0 * y.T @ y, atol=1e-10)
    assert cost.flops == pytest.approx(40 * 12 * 13)
    c2 = np.full((12, 12), 9.0)
    kernels.syrk(y[None], c2[None], beta=0.0)
    assert np.allclose(c2, y.T @ y)


def test_kernel_gemm(rng):
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((7, 3))
    c = rng.standard_normal((5, 3))
    c0 = c.copy()
    cost = kernels.gemm(a[None], b[None], c[None], alpha=-1.0, beta=1.0)
    assert np.allclose(c, c0 - a @ b, atol=1e-12)
    assert cost.flops == 2 * 5 * 3 * 7
    # transposed A
    at = rng.standard_normal((7, 5))
    c2 = np.zeros((5, 3))
    kernels.gemm(at[None], b[None], c2[None], beta=0.0, trans_a=True)
    assert np.allclose(c2, at.T @ b)


def test_kernel_gemm_validates(rng):
    with pytest.raises(ValueError):
        kernels.gemm(np.ones((1, 2, 3)), np.ones((1, 4, 2)), np.ones((1, 2, 2)))
    with pytest.raises(ValueError):
        kernels.gemm(np.ones((1, 2, 3)), np.ones((1, 3, 2)), np.ones((1, 3, 3)))
    with pytest.raises(ValueError):
        kernels.gemm(np.ones((2, 3)), np.ones((3, 2)), np.ones((2, 2)))  # not stacks


def test_kernel_spmm(rng):
    a = sp.random(9, 6, density=0.4, random_state=1, format="csr")
    b = rng.standard_normal((6, 4))
    c = np.zeros((9, 4))
    cost = kernels.spmm(_stack(a), b[None], c[None], beta=0.0)
    assert np.allclose(c, a @ b)
    assert cost.sparse


@pytest.mark.parametrize("trans_a", [False, True])
def test_kernel_spmm_stack_of_three_matches_stacks_of_one(rng, trans_a):
    a = sp.random(9, 6, density=0.4, random_state=1, format="csc")
    mats = [_scaled(a, s) for s in (1.0, -2.0, 0.5)]
    b3 = rng.standard_normal((3, 9 if trans_a else 6, 4))
    c3 = np.ones((3, 6 if trans_a else 9, 4))
    cost3 = kernels.spmm(_stack(*mats), b3, c3, alpha=-1.0, beta=1.0, trans_a=trans_a)
    for g in range(3):
        c1 = np.ones((1,) + c3.shape[1:])
        cost1 = kernels.spmm(
            _stack(mats[g]), b3[g : g + 1], c1, alpha=-1.0, beta=1.0, trans_a=trans_a
        )
        assert np.allclose(c3[g], c1[0], rtol=1e-12, atol=1e-12)
    assert cost3.flops == 3 * cost1.flops and cost3.launches == cost1.launches == 1


def test_kernel_gather_scatter(rng):
    x = rng.standard_normal((10, 4))
    rows = np.array([1, 3, 7])
    packed, _ = kernels.panel_gather(x, rows[None])
    assert np.array_equal(packed[0], x[rows])
    target = np.zeros((10, 4))
    kernels.scatter_add_rows(target[None], rows, packed, sign=-1.0)
    assert np.allclose(target[rows], -x[rows])
    assert np.allclose(np.delete(target, rows, axis=0), 0.0)
    # The panel scatter accumulates rows shared between members.
    shared = np.zeros((10, 4))
    both = np.stack([rows, rows])
    gathered, cost = kernels.panel_gather(x, both)
    kernels.panel_scatter_add(shared, both, gathered)
    assert np.allclose(shared[rows], 2.0 * x[rows])
    assert cost.launches == 1


def test_kernel_extract_block_and_densify(factor):
    block, _ = kernels.extract_block(_stack(factor.l), 20, 60, 10, 20)
    assert block.shape == (40, 10)
    assert np.allclose(block.member(0).toarray(), factor.l[20:60, 10:20].toarray())
    dense, _ = kernels.densify(block)
    assert np.allclose(dense[0], block.member(0).toarray())
    rows = block.nonempty_rows()
    packed, _ = kernels.densify(block, rows=rows)
    assert np.array_equal(packed[0], dense[0][rows])


def test_kernel_permutations(rng):
    perm = np.random.default_rng(0).permutation(9)
    f = rng.standard_normal((2, 9, 9))
    fp, _ = kernels.symmetric_permute(f, perm, inverse=False)
    assert np.array_equal(fp[1], f[1][np.ix_(perm, perm)])
    fb, cost = kernels.symmetric_permute(fp, perm, inverse=True)
    assert np.allclose(fb, f)
    assert cost.launches == 1


# Pricing is group-independent by construction: every kernel computes its
# per-member cost from the operands' trailing shapes and the shared pattern,
# so a stack of G members costs ``batched(G)`` of a stack of one, and a stack
# of zero members — a dry run — executes nothing and costs what one would.

_ROWS = np.array([1, 3, 7])


def _dense(g, *shape):
    return np.random.default_rng(3).standard_normal((g, *shape))


def _value_stack(mat, g):
    """*g* members over *mat*'s pattern; none is the pattern alone."""
    if g == 0:
        return StackedCSC.pattern_of(mat)
    return _stack(*[_scaled(mat, 1.0 + i) for i in range(g)])


def _call_trsm_dense(g, l):
    x = _dense(g, l.shape[0], 5)
    return kernels.trsm_dense(l.toarray(), x), [x]


def _call_trsm_sparse(g, l):
    x = _dense(g, l.shape[0], 5)
    return kernels.trsm_sparse(l, x), [x]


def _call_syrk(g, l):
    c = np.zeros((g, 5, 5))
    return kernels.syrk(_dense(g, 7, 5), c), [c]


def _call_gemm(g, l):
    c = np.zeros((g, 7, 3))
    return kernels.gemm(_dense(g, 7, 5), _dense(g, 5, 3), c), [c]


def _call_spmm(g, l):
    c = np.zeros((g, l.shape[0], 5))
    return kernels.spmm(l, _dense(g, l.shape[1], 5), c), [c]


def _call_panel_gather(g, l):
    out, cost = kernels.panel_gather(_dense(10, 4), np.tile(_ROWS, (g, 1)))
    return cost, [out]


def _call_panel_scatter_add(g, l):
    target = np.zeros((10, 4))
    cost = kernels.panel_scatter_add(target, np.tile(_ROWS, (g, 1)), _dense(g, 3, 4))
    assert target.any() == (g > 0)  # the shared panel is not a stack
    return cost, []


def _call_scatter_add_rows(g, l):
    target = np.zeros((g, 10, 4))
    return kernels.scatter_add_rows(target, _ROWS, _dense(g, 3, 4)), [target]


def _call_extract_block(g, l):
    block, cost = kernels.extract_block(l, 20, 60, 10, 20)
    return cost, [block.data]


def _call_densify(g, l):
    block = l.block(20, 60, 10, 20)
    full, cost = kernels.densify(block)
    packed, packed_cost = kernels.densify(block, rows=block.nonempty_rows())
    return cost + packed_cost, [full, packed]


def _call_symmetric_permute(g, l):
    out, cost = kernels.symmetric_permute(_dense(g, 9, 9), np.arange(9)[::-1])
    return cost, [out]


KERNEL_CALLS = {
    fn.__name__.removeprefix("_call_"): fn
    for fn in (
        _call_trsm_dense,
        _call_trsm_sparse,
        _call_syrk,
        _call_gemm,
        _call_spmm,
        _call_panel_gather,
        _call_panel_scatter_add,
        _call_scatter_add_rows,
        _call_extract_block,
        _call_densify,
        _call_symmetric_permute,
    )
}


def test_every_kernel_has_a_pricing_case():
    assert set(KERNEL_CALLS) == set(kernels.__all__) - {"BATCHED_TRSM_BLOCK", "priced_group"}
    assert [kernels.priced_group(g) for g in (0, 1, 3)] == [1, 1, 3]


@pytest.mark.parametrize("name", sorted(KERNEL_CALLS))
def test_kernel_pricing_is_group_independent(name, factor):
    costs = {}
    for g in (0, 1, 3):
        costs[g], outputs = KERNEL_CALLS[name](g, _value_stack(factor.l, g))
        assert all(out.shape[0] == g for out in outputs)
    assert costs[0] == costs[1]
    assert costs[3] == costs[1].batched(3)
    assert costs[1].bytes_moved > 0 and costs[1].launches >= 1


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------


def test_executor_accumulates_time(factor, rng):
    ex = gpu_executor()
    x = rng.standard_normal((80, 5))
    assert ex.elapsed == 0.0
    ex.trsm_sparse(StackedCSC.from_matrices([factor.l]), x[None])
    t1 = ex.elapsed
    assert t1 > 0
    ex.syrk(x[None], np.zeros((1, 5, 5)), beta=0.0)
    assert ex.elapsed > t1
    assert ex.ledger.calls == 2
    ex.reset()
    assert ex.elapsed == 0.0 and ex.ledger.calls == 0


def test_cpu_executor_slower_on_large_dense(rng):
    a = random_spd(400, density=0.02, seed=3)
    f = cholesky(a, ordering="amd")
    ld = f.l.toarray()
    x = rng.standard_normal((400, 300))
    cpu = cpu_executor()
    gpu = gpu_executor()
    cpu.trsm_dense(ld[None], x.copy()[None])
    gpu.trsm_dense(ld[None], x.copy()[None])
    assert cpu.elapsed > gpu.elapsed


# ---------------------------------------------------------------------------
# memory pool
# ---------------------------------------------------------------------------


def test_memory_pool_flow():
    p = MemoryPool(capacity=1000)
    a = p.alloc_persistent(300, "sc")
    assert p.available == 700
    t = p.alloc_temporary(600, "y")
    assert p.high_water == 900
    assert p.would_block(200)
    p.free(t)
    assert not p.would_block(200)
    p.free(a)
    assert p.used == 0


def test_memory_pool_persistent_overflow():
    p = MemoryPool(capacity=100)
    with pytest.raises(OutOfDeviceMemoryError):
        p.alloc_persistent(200)


def test_memory_pool_temporary_block_is_error():
    p = MemoryPool(capacity=100)
    with pytest.raises(ValueError, match="would block"):
        p.alloc_temporary(200)


def test_memory_pool_double_free():
    p = MemoryPool(capacity=100)
    a = p.alloc_persistent(10)
    p.free(a)
    with pytest.raises(ValueError, match="double free"):
        p.free(a)


@settings(max_examples=30, deadline=None)
@given(
    flops=st.floats(min_value=0, max_value=1e15),
    nbytes=st.floats(min_value=0, max_value=1e12),
    dim=st.floats(min_value=1, max_value=1e6),
)
def test_property_time_positive_and_monotone(flops, nbytes, dim):
    c = KernelCost(flops=flops, bytes_moved=nbytes, char_dim=dim)
    t = c.time_on(A100_40GB)
    assert t >= 0
    bigger = KernelCost(flops=flops * 2 + 1, bytes_moved=nbytes, char_dim=dim)
    assert bigger.time_on(A100_40GB) >= t
