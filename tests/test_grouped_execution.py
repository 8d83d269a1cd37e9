"""Tests for the batched (grouped) numeric execution path.

The contract under test: for members sharing one exact fingerprint, the
stacked group path of :meth:`SchurAssembler.assemble_group` /
``BatchAssembler.assemble_batch(execution="grouped")`` produces the same
Schur complements as the per-member path (allclose at tight tolerance —
BLAS association order differs inside the batched solves), charges identical
FLOPs and memory traffic, and shrinks kernel launches by the group size.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    GROUPED_AUTO_THRESHOLD,
    BatchAssembler,
    BatchItem,
    items_from_decomposition,
)
from repro.core import AssemblyConfig, SchurAssembler, by_count, by_size, default_config
from repro.gpu import A100_40GB, Executor
from repro.runtime import host_worker_count
from repro.sparse import StackedCSC, cholesky, stack_permuted_dense
from repro.sparse.cholesky import CholeskyFactor
from tests.conftest import random_spd

RTOL, ATOL = 1e-9, 1e-10


def make_group(n: int, m: int, g: int, seed: int, density: float = 0.3):
    """Build *g* members sharing exact factor and gluing patterns.

    Pattern sharing is by construction: one reference factor / gluing
    pattern, member values perturbed multiplicatively (never to zero) — the
    same guarantee an equal factor fingerprint gives the engine.
    """
    rng = np.random.default_rng(seed)
    base = cholesky(random_spd(n, density=min(1.0, 8.0 / n), seed=seed), ordering="natural")
    bt0 = sp.random(n, m, density=density, random_state=seed + 1, format="csc")
    bt0.data = 0.5 + rng.random(bt0.nnz)
    factors, bts = [], []
    for _ in range(g):
        l = base.l.copy()
        l.data = l.data * (1.0 + 0.2 * rng.random(l.nnz))
        factors.append(
            CholeskyFactor(l=l, perm=base.perm, flops=base.flops, engine=base.engine)
        )
        bt = bt0.copy()
        bt.data = bt.data * (1.0 + 0.2 * rng.random(bt.nnz))
        bts.append(bt)
    return factors, bts


VARIANTS = [
    (trsm, syrk)
    for trsm in ("orig", "rhs_split", "factor_split")
    for syrk in ("orig", "input_split", "output_split")
]


# ---------------------------------------------------------------------------
# property: grouped == per-member across the whole variant space
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    g=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=4, max_value=32),
    m=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=10_000),
    variant=st.sampled_from(VARIANTS),
    storage=st.sampled_from(["sparse", "dense"]),
    prune=st.booleans(),
    blocks=st.sampled_from([by_size(5), by_size(64), by_count(3)]),
)
def test_property_grouped_matches_per_member(g, n, m, seed, variant, storage, prune, blocks):
    trsm, syrk = variant
    cfg = AssemblyConfig(
        trsm_variant=trsm,
        syrk_variant=syrk,
        trsm_blocks=blocks,
        syrk_blocks=blocks,
        factor_storage=storage,
        prune=prune,
    )
    factors, bts = make_group(n, m, g, seed)
    asm = SchurAssembler(config=cfg)
    ex_pm, ex_gr = Executor(A100_40GB), Executor(A100_40GB)
    refs = [asm.assemble(f, bt, executor=ex_pm) for f, bt in zip(factors, bts)]
    res = asm.assemble_group(factors, bts, executor=ex_gr)
    assert len(res) == g
    for r, q in zip(refs, res):
        scale = max(1.0, float(np.abs(r.f).max(initial=0.0)))
        assert np.allclose(q.f, r.f, rtol=RTOL, atol=ATOL * scale)
        assert np.array_equal(q.col_perm, r.col_perm)
    # KernelCost totals: identical FLOPs and bytes, launches shrink by >= g.
    pm, gr = ex_pm.ledger.total, ex_gr.ledger.total
    assert gr.flops == pytest.approx(pm.flops, rel=1e-12)
    assert gr.bytes_moved == pytest.approx(pm.bytes_moved, rel=1e-12)
    assert gr.launches * g <= pm.launches
    # Fewer launches, same roofline terms: simulated time can only improve.
    assert ex_gr.elapsed <= ex_pm.elapsed * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# assemble_group contract
# ---------------------------------------------------------------------------


def test_assemble_group_rejects_mismatched_patterns():
    factors, bts = make_group(12, 5, 2, seed=1)
    other_factor = cholesky(random_spd(12, density=0.9, seed=99), ordering="natural")
    with pytest.raises(ValueError, match="pattern differs"):
        SchurAssembler().assemble_group([factors[0], other_factor], bts)


def test_assemble_group_rejects_bad_lengths():
    factors, bts = make_group(10, 4, 2, seed=2)
    with pytest.raises(ValueError, match="same length"):
        SchurAssembler().assemble_group(factors, bts[:1])
    with pytest.raises(ValueError, match="at least one"):
        SchurAssembler().assemble_group([], [])


def test_assemble_group_keep_y_matches_per_member():
    factors, bts = make_group(14, 6, 3, seed=3)
    asm = SchurAssembler(config=default_config("gpu", 2))
    refs = [asm.assemble(f, bt, keep_y=True) for f, bt in zip(factors, bts)]
    res = asm.assemble_group(factors, bts, keep_y=True)
    for r, q in zip(refs, res):
        assert np.allclose(q.y, r.y, rtol=RTOL, atol=ATOL)


def test_assemble_group_breakdown_shares_sum_to_group_total():
    factors, bts = make_group(16, 5, 4, seed=4)
    ex = Executor(A100_40GB)
    res = SchurAssembler(config=default_config("gpu", 2)).assemble_group(
        factors, bts, executor=ex
    )
    kernel_total = sum(sum(r.breakdown[k] for k in ("permute", "trsm", "syrk")) for r in res)
    assert kernel_total == pytest.approx(ex.elapsed)
    # Transfer is priced off-executor (PCIe model), equal share per member.
    assert len({r.breakdown["transfer"] for r in res}) == 1


# ---------------------------------------------------------------------------
# engine execution modes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def floating_4x4():
    from repro.dd import decompose
    from repro.fem import heat_transfer_2d

    problem = heat_transfer_2d(16, dirichlet=())
    decomposition = decompose(problem, grid=(4, 4))
    return items_from_decomposition(decomposition)


def test_engine_grouped_matches_per_member(floating_4x4):
    cfg = default_config("gpu", 2)
    pm = BatchAssembler(config=cfg).assemble_batch(floating_4x4, execution="per-member")
    gr = BatchAssembler(config=cfg).assemble_batch(floating_4x4, execution="grouped")
    assert gr.stats.n_grouped == gr.stats.n_subdomains
    assert gr.stats.execution == "grouped" and pm.stats.execution == "per-member"
    for a, b in zip(pm.results, gr.results):
        scale = max(1.0, float(np.abs(a.f).max(initial=0.0)))
        assert np.allclose(b.f, a.f, rtol=RTOL, atol=ATOL * scale)
    # Launches shrink per group by exactly the group size.
    assert set(gr.stats.group_launches) == set(pm.stats.group_launches)
    for key, members in pm.groups.items():
        assert gr.stats.group_launches[key] * len(members) <= pm.stats.group_launches[key]
    assert gr.stats.kernel_launches < pm.stats.kernel_launches
    assert set(gr.stats.group_execute_seconds) == set(gr.stats.group_launches)


def test_engine_parallel_workers_match_serial(floating_4x4):
    cfg = default_config("gpu", 2)
    serial = BatchAssembler(config=cfg).assemble_batch(
        floating_4x4, execution="grouped", n_workers=1
    )
    parallel = BatchAssembler(config=cfg).assemble_batch(
        floating_4x4, execution="grouped", n_workers=4
    )
    for a, b in zip(serial.results, parallel.results):
        assert np.array_equal(a.f, b.f)  # same kernels, same order: bitwise
    assert parallel.stats.kernel_launches == serial.stats.kernel_launches


def test_engine_auto_threshold():
    """auto batches only groups of >= GROUPED_AUTO_THRESHOLD members; with
    canonical sharing disabled, the 4x4 floating grid keeps its exact
    translate-classes — a 4-member interior group and smaller ones (the
    canonical classes would all clear the threshold)."""
    from repro.dd import decompose
    from repro.fem import heat_transfer_2d

    problem = heat_transfer_2d(16, dirichlet=())
    items = items_from_decomposition(decompose(problem, grid=(4, 4)), canonicalize=False)
    cfg = default_config("gpu", 2)
    auto = BatchAssembler(config=cfg).assemble_batch(items, execution="auto")
    sizes = sorted(len(v) for v in auto.groups.values())
    expected = sum(s for s in sizes if s >= GROUPED_AUTO_THRESHOLD)
    assert auto.stats.n_grouped == expected
    assert 0 < auto.stats.n_grouped < auto.stats.n_subdomains
    assert all(r is not None for r in auto.results)


def test_engine_auto_skips_large_sparse_groups():
    """auto keeps big sparse-storage groups per-member: the batched kernels
    are dense, so a large sparse factor's SuperLU path is the faster host
    path (the grouped win targets many *small* subdomains)."""
    from repro.batch import GROUPED_AUTO_MAX_SPARSE_ORDER

    n = GROUPED_AUTO_MAX_SPARSE_ORDER + 10
    factors, bts = make_group(n, 8, GROUPED_AUTO_THRESHOLD, seed=11, density=0.1)
    items = [BatchItem(f, bt) for f, bt in zip(factors, bts)]
    sparse_cfg = default_config("gpu", 2).with_overrides(factor_storage="sparse")
    dense_cfg = sparse_cfg.with_overrides(factor_storage="dense")
    auto_sparse = BatchAssembler(config=sparse_cfg).assemble_batch(items, execution="auto")
    assert auto_sparse.stats.n_grouped == 0  # order cap applies
    auto_dense = BatchAssembler(config=dense_cfg).assemble_batch(items, execution="auto")
    assert auto_dense.stats.n_grouped == len(items)  # dense storage: no cap


def test_engine_grouped_absorbs_into_shared_executor():
    factors, bts = make_group(12, 4, 3, seed=6)
    items = [BatchItem(f, bt) for f, bt in zip(factors, bts)]
    engine = BatchAssembler(config=default_config("gpu", 2))
    ex = Executor(A100_40GB)
    batch = engine.assemble_batch(items, execution="grouped", executor=ex)
    assert ex.ledger.total.launches == batch.stats.kernel_launches
    assert ex.elapsed > 0


def test_engine_rejects_unknown_execution():
    engine = BatchAssembler()
    with pytest.raises(ValueError, match="execution mode"):
        engine.assemble_batch([], execution="warp")


def test_engine_plan_only_has_no_execution_counters(floating_4x4):
    batch = BatchAssembler(config=default_config("gpu", 2)).assemble_batch(
        floating_4x4, execute=False, execution="grouped"
    )
    assert batch.stats.kernel_launches == 0
    assert batch.stats.n_grouped == 0
    assert batch.stats.group_launches == {}


def test_stats_summary_reports_batched_execution():
    from repro.batch import BatchStats

    stats = BatchStats(
        execution="grouped",
        n_grouped=2,
        kernel_launches=10,
        execute_seconds=1.0,
        group_execute_seconds={"x": 1.0},
        group_launches={"x": 10},
    )
    assert "batched" in stats.summary()


# ---------------------------------------------------------------------------
# stacked container + worker plumbing
# ---------------------------------------------------------------------------


def test_stacked_csc_roundtrip_and_blocks():
    factors, _ = make_group(15, 3, 3, seed=7)
    stacked = StackedCSC.from_matrices([f.l for f in factors])
    assert stacked.group == 3 and stacked.nnz == factors[0].l.nnz
    for g, f in enumerate(factors):
        assert np.array_equal(stacked.toarray()[g], f.l.toarray())
        assert np.array_equal(
            stacked.block(4, 12, 0, 7).toarray()[g], f.l.toarray()[4:12, 0:7]
        )
        assert (stacked.member(g) != f.l).nnz == 0
    blk = stacked.block(5, 15, 0, 5)
    packed = blk.toarray(rows=blk.nonempty_rows())
    dense = factors[1].l.toarray()[5:15, 0:5]
    assert np.array_equal(packed[1], dense[blk.nonempty_rows()])


def test_stacked_csc_rejects_shape_and_pattern_mismatch():
    a = sp.random(8, 8, density=0.4, random_state=0, format="csc")
    with pytest.raises(ValueError, match="shape differs"):
        StackedCSC.from_matrices([a, sp.csc_matrix((7, 8))])
    b = a.copy()
    b.data = b.data * 2.0
    StackedCSC.from_matrices([a, b])  # same pattern: fine
    c = sp.random(8, 8, density=0.4, random_state=1, format="csc")
    with pytest.raises(ValueError, match="pattern differs"):
        StackedCSC.from_matrices([a, c])


def test_stack_permuted_dense_matches_per_member():
    rng = np.random.default_rng(0)
    base = sp.random(9, 6, density=0.5, random_state=2, format="csc")
    mats = []
    for _ in range(3):
        m = base.copy()
        m.data = rng.random(m.nnz) + 0.5
        mats.append(m)
    perm = rng.permutation(6)
    x = stack_permuted_dense(mats, perm)
    for g, m in enumerate(mats):
        assert np.array_equal(x[g], m.toarray()[:, perm])


def test_host_worker_count():
    assert host_worker_count(1) == 1
    assert host_worker_count(3, n_tasks=2) == 2
    assert host_worker_count(2, n_tasks=0) == 1
    assert host_worker_count(None) >= 1
    assert host_worker_count(None, n_tasks=1) == 1
    with pytest.raises(ValueError, match="n_workers"):
        host_worker_count(0)


# ---------------------------------------------------------------------------
# graceful degradation: batched-task failure falls back per-member


def test_engine_group_failure_falls_back_per_member(floating_4x4):
    cfg = default_config("gpu", 2)
    ref = BatchAssembler(config=cfg).assemble_batch(
        floating_4x4, execution="per-member"
    )
    engine = BatchAssembler(config=cfg)

    def boom(*args, **kwargs):
        raise RuntimeError("batched kernel exploded")

    engine.assembler.assemble_group = boom
    with pytest.warns(RuntimeWarning, match="falling back to"):
        batch = engine.assemble_batch(floating_4x4, execution="grouped")
    assert batch.stats.n_exec_fallbacks > 0
    assert batch.stats.n_grouped == 0
    assert all(r is not None for r in batch.results)
    for a, b in zip(ref.results, batch.results):
        assert np.array_equal(a.f, b.f)  # exact per-member path: bitwise
    assert "re-executed per-member" in batch.stats.summary()


def test_engine_partial_group_failure_only_falls_back_failed_group(floating_4x4):
    """Only the group whose kernels raise degrades; the others stay batched."""
    cfg = default_config("gpu", 2)
    engine = BatchAssembler(config=cfg)
    original = engine.assembler.assemble_group
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("first group exploded")
        return original(*args, **kwargs)

    engine.assembler.assemble_group = flaky
    with pytest.warns(RuntimeWarning, match="falling back to"):
        batch = engine.assemble_batch(
            floating_4x4, execution="grouped", n_workers=1
        )
    assert batch.stats.n_exec_fallbacks == 1
    assert batch.stats.n_grouped > 0  # the surviving groups still batched
    assert all(r is not None for r in batch.results)
    ref = BatchAssembler(config=cfg).assemble_batch(
        floating_4x4, execution="per-member"
    )
    for a, b in zip(ref.results, batch.results):
        scale = max(1.0, float(np.abs(a.f).max(initial=0.0)))
        assert np.allclose(b.f, a.f, rtol=RTOL, atol=ATOL * scale)


@pytest.mark.parametrize("execution", ["per-member", "auto"])
def test_engine_single_member_failure_propagates(execution):
    """A member run singly has nothing to degrade to: the original exception
    reaches the caller — no fallback warning, no fallback counter."""
    import warnings

    from repro.dd import decompose
    from repro.fem import heat_transfer_2d

    # floating 3x3: the centre subdomain is a class of one, below auto's threshold
    items = items_from_decomposition(
        decompose(heat_transfer_2d(12, dirichlet=()), grid=(3, 3))
    )
    engine = BatchAssembler(config=default_config("gpu", 2))
    calls = []

    def boom(*args, **kwargs):
        calls.append(1)
        raise RuntimeError("per-member kernel exploded")

    engine.assembler.assemble = boom
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="per-member kernel exploded"):
            engine.assemble_batch(items, execution=execution)
    assert len(calls) == 1  # nothing retried it


def test_engine_shared_executor_metrics_count_each_call_once():
    """Two traced batches on one caller-supplied executor: the ``gpu.*``
    counters record each call's own ledger (not the cumulative one), and
    the caller's executor still ends up with both."""
    from repro.dd import decompose
    from repro.fem import heat_transfer_2d
    from repro.obs import tracing

    items = items_from_decomposition(
        decompose(heat_transfer_2d(8, dirichlet=()), grid=(2, 2))
    )
    engine = BatchAssembler(config=default_config("gpu", 2))
    shared = Executor(A100_40GB)
    with tracing() as tr:
        first = engine.assemble_batch(items, executor=shared)
        elapsed_first = shared.elapsed
        second = engine.assemble_batch(items, executor=shared)
    assert first.stats.kernel_launches == second.stats.kernel_launches > 0
    total = first.stats.kernel_launches + second.stats.kernel_launches
    assert tr.metrics.counter("batch.kernel_launches") == total
    assert tr.metrics.counter("gpu.launches") == total
    assert shared.ledger.total.launches == total
    assert tr.metrics.counter("gpu.flops") == shared.ledger.total.flops
    assert tr.metrics.counter("gpu.bytes_moved") == shared.ledger.total.bytes_moved
    assert tr.metrics.counter("gpu.sim_seconds") == pytest.approx(shared.elapsed)
    assert shared.elapsed == pytest.approx(2 * elapsed_first)


def _feti_operator(dirichlet=(), cells=16, grid=(4, 4), approach="impl_mkl"):
    from repro.dd import decompose
    from repro.fem import heat_transfer_2d
    from repro.feti.solver import FetiSolver

    problem = heat_transfer_2d(cells, dirichlet=dirichlet)
    solver = FetiSolver(decompose(problem, grid=grid), approach=approach)
    solver.preprocess()
    return solver


@pytest.mark.parametrize("signature", ["exact", "near"])
def test_grouped_dual_operator_matches_per_subdomain(signature):
    """Solve-side contract: the grouped dual-operator panel application is
    allclose to the per-subdomain comparator, charges identical KernelCost
    FLOPs and bytes, and launches once per group per kernel stage instead
    of once per subdomain — including the padded union tier that near
    signatures produce."""
    from repro.feti.operator import GroupedDualOperator
    from repro.gpu import A100_40GB
    from repro.gpu.runtime import Executor as GpuExecutor

    solver = _feti_operator()
    op = solver.operator
    ex_gr, ex_pm = GpuExecutor(A100_40GB), GpuExecutor(A100_40GB)
    gop = GroupedDualOperator(op, executor=ex_gr, signature=signature)
    assert 1 <= gop.n_groups < op.decomposition.n_subdomains
    if signature == "near":
        assert any(g.tier == "union" for g in gop.groups)

    rng = np.random.default_rng(0)
    lam = rng.standard_normal((op.n_multipliers, 3))
    got = gop.apply_panel(lam)
    ref = gop.apply_panel_sequential(lam, ex_pm)
    exact = np.stack([op.apply(lam[:, j]) for j in range(3)], axis=1)
    scale = max(1.0, float(np.abs(exact).max()))
    assert np.allclose(got, exact, rtol=RTOL, atol=ATOL * scale)
    assert np.allclose(ref, exact, rtol=RTOL, atol=ATOL * scale)

    gr, pm = ex_gr.ledger.total, ex_pm.ledger.total
    if signature == "exact":
        # exact tier: identical per-member kernels, so identical pricing
        assert gr.flops == pytest.approx(pm.flops, rel=1e-12)
        assert gr.bytes_moved == pytest.approx(pm.bytes_moved, rel=1e-12)
    else:
        # union tier pads: never cheaper than the exact per-member work
        assert gr.flops >= pm.flops * (1.0 - 1e-12)
        assert gr.bytes_moved >= pm.bytes_moved * (1.0 - 1e-12)
    assert gr.launches == gop.launches_per_application
    assert pm.launches == gop.sequential_launches_per_application
    assert gop.launches_per_application == 6 * gop.n_groups
    assert (
        gop.sequential_launches_per_application
        == 6 * op.decomposition.n_subdomains
    )


def test_grouped_dual_operator_vector_apply_and_recover():
    from repro.feti.operator import GroupedDualOperator

    solver = _feti_operator(dirichlet=("left",), cells=12, grid=(3, 3))
    op = solver.operator
    gop = GroupedDualOperator(op)
    rng = np.random.default_rng(1)
    lam = rng.standard_normal(op.n_multipliers)
    assert np.allclose(gop.apply(lam), op.apply(lam), rtol=RTOL, atol=ATOL)
    assert gop.n_multipliers == op.n_multipliers
    # recovery delegates to the base operator
    alpha = np.zeros(op.kernel_dim)
    a = gop.recover_solution(lam, alpha)
    b = op.recover_solution(lam, alpha)
    for ua, ub in zip(a, b):
        assert np.array_equal(ua, ub)


def test_stacked_preconditioner_matches_lumped():
    """The lumped preconditioner — a stack of dense local ``B_i^T K_i B_i``
    blocks — is allclose to the per-subdomain sparse loop on vectors and
    panels, and launches once per order class per kernel stage of the
    gather → GEMM → scatter chain."""
    from repro.feti.preconditioner import LumpedPreconditioner, StackedPreconditioner
    from tests.loop_preconditioners import LoopLumped

    solver = _feti_operator()
    dec = solver.decomposition
    loop = LoopLumped(dec)
    stacked = LumpedPreconditioner(dec)
    assert isinstance(stacked, StackedPreconditioner)
    assert 1 <= stacked.n_groups < dec.n_subdomains
    assert stacked.launches_per_application == 3 * stacked.n_groups
    rng = np.random.default_rng(2)
    w = rng.standard_normal((dec.n_multipliers, 3))
    ref = np.stack([loop.apply(w[:, j]) for j in range(3)], axis=1)
    scale = max(1.0, float(np.abs(ref).max()))
    assert np.allclose(stacked.apply(w), ref, rtol=RTOL, atol=ATOL * scale)
    assert stacked.executor.ledger.total.launches == stacked.launches_per_application
    assert np.allclose(
        stacked.apply(w[:, 0]), ref[:, 0], rtol=RTOL, atol=ATOL * scale
    )


def test_grouped_dual_operator_union_fill_cap_falls_back_exact():
    """A sub-1 fill cap disables padding: every near class executes as
    exact-pattern subgroups and the results stay correct."""
    from repro.feti.operator import GroupedDualOperator

    solver = _feti_operator()
    op = solver.operator
    capped = GroupedDualOperator(op, signature="near", union_fill_cap=0.5)
    assert all(g.tier == "exact" for g in capped.groups)
    rng = np.random.default_rng(3)
    lam = rng.standard_normal((op.n_multipliers, 2))
    exact = np.stack([op.apply(lam[:, j]) for j in range(2)], axis=1)
    scale = max(1.0, float(np.abs(exact).max()))
    assert np.allclose(capped.apply_panel(lam), exact, rtol=RTOL, atol=ATOL * scale)


def test_engine_union_failure_falls_back_per_member():
    from repro.dd import decompose
    from repro.fem import heat_problem
    from repro.part import make_mesh

    problem = heat_problem(make_mesh("jittered", 12, seed=1), dirichlet=())
    items = items_from_decomposition(decompose(
        problem, n_subdomains=6, partitioner="rcb", seed=1
    ))
    cfg = default_config("gpu", 2)
    engine = BatchAssembler(config=cfg, signature_mode="near")

    def boom(*args, **kwargs):
        raise RuntimeError("union kernel exploded")

    engine.assembler.assemble_union = boom
    with pytest.warns(RuntimeWarning, match="falling back to"):
        batch = engine.assemble_batch(items, execution="union")
    assert batch.stats.n_exec_fallbacks > 0
    assert all(r is not None for r in batch.results)
    ref = BatchAssembler(config=cfg, signature_mode="near").assemble_batch(
        items, execution="per-member"
    )
    for a, b in zip(ref.results, batch.results):
        scale = max(1.0, float(np.abs(a.f).max(initial=0.0)))
        assert np.allclose(b.f, a.f, rtol=RTOL, atol=ATOL * scale)


# ---------------------------------------------------------------------------
# Explicit approaches: the grouped operator multiplies by the assembled SCs
# ---------------------------------------------------------------------------


def _explicit_solver(case: str):
    from repro.dd import decompose
    from repro.fem import heat_problem, heat_transfer_3d
    from repro.feti.solver import FetiSolver
    from repro.part import make_mesh

    if case == "grid2d":
        return _feti_operator(dirichlet=("left", "right"), approach="expl_gpu_opt")
    if case == "cube3d":
        dec = decompose(heat_transfer_3d(6, dirichlet=("left",)), grid=(2, 2, 2))
    else:
        problem = heat_problem(make_mesh("jittered", 12, seed=1), dirichlet=("boundary",))
        dec = decompose(problem, n_subdomains=7, partitioner="rcb", seed=1)
    solver = FetiSolver(dec, approach="expl_gpu_opt")
    solver.preprocess()
    return solver


@pytest.mark.parametrize("case", ["grid2d", "cube3d", "jittered"])
def test_explicit_grouped_operator_applies_the_assembled_schur_complements(case):
    """One group per dual order ``m`` (singletons included), 3 launches
    each, ``2 m^2 k`` GEMM FLOPs per member, and the same values as the
    column-by-column ``DualOperator.apply`` — for full panels and for the
    narrower active panels deflation leaves behind."""
    from repro.feti.operator import ExplicitLocalOperator, GroupedDualOperator
    from repro.obs import tracing

    op = _explicit_solver(case).operator
    assert op.explicit and all(isinstance(o, ExplicitLocalOperator) for o in op.locals)
    orders = [o.f.shape[0] for o in op.locals]
    rng = np.random.default_rng(0)
    lam = rng.standard_normal((op.n_multipliers, 4))
    # Reference first: the grouped operator rebinds every ``f`` to its stack.
    want = np.stack([op.apply(lam[:, j]) for j in range(4)], axis=1)

    ex_gr, ex_pm = Executor(A100_40GB), Executor(A100_40GB)
    gop = GroupedDualOperator(op, executor=ex_gr)
    assert sorted(g.blocks.shape[1] for g in gop.groups) == sorted(set(orders))
    assert sorted(i for g in gop.groups for i in g.members) == list(range(len(orders)))
    if case == "jittered":  # members of unequal order: 9, 9, 9, 10, 16, 16, 19
        sizes = sorted(len(g.members) for g in gop.groups)
        assert sizes[0] == 1 and sizes[-1] > 1
    for grp in gop.groups:
        for row, i in enumerate(grp.members):
            assert np.shares_memory(op.locals[i].f, grp.blocks)
            assert np.array_equal(op.locals[i].f, grp.blocks[row])

    scale = max(1.0, float(np.abs(want).max()))
    for k in (4, 1, 2):  # a full panel, a vector, a deflated panel
        ex_gr.reset()
        ex_pm.reset()
        with tracing() as tracer:
            got = gop.apply_panel(lam[:, :k])
        seq = gop.apply_panel_sequential(lam[:, :k], ex_pm)
        assert np.abs(got - want[:, :k]).max() <= 1e-12 * scale
        assert np.abs(seq - want[:, :k]).max() <= 1e-12 * scale

        gr, pm = ex_gr.ledger.total, ex_pm.ledger.total
        assert gr.launches == gop.launches_per_application == 3 * gop.n_groups
        assert pm.launches == gop.sequential_launches_per_application == 3 * len(orders)
        assert gr.flops == pytest.approx(pm.flops, rel=1e-12)
        assert gr.bytes_moved == pytest.approx(pm.bytes_moved, rel=1e-12)
        trace = tracer.trace()
        kernels = [s for s in trace.spans if s.name.startswith("gpu.")]
        assert [s.name for s in kernels] == [
            "gpu.panel_gather", "gpu.gemm", "gpu.panel_scatter_add"
        ] * gop.n_groups
        assert sum(
            s.attrs["flops"] for s in kernels if s.name == "gpu.gemm"
        ) == pytest.approx(sum(2.0 * m * m * k for m in orders), rel=1e-12)
        spans = trace.by_name("feti.apply_group")
        assert len(spans) == gop.n_groups
        assert all(s.attrs["tier"] == "explicit" and s.attrs["k"] == k for s in spans)
        assert sorted(s.attrs["m"] for s in spans) == sorted(set(orders))

    assert np.allclose(gop.apply(lam[:, 0]), want[:, 0], rtol=0, atol=1e-12 * scale)


def test_explicit_path_ignores_signature_and_builds_no_sparse_stacks():
    """``signature=`` / ``union_fill_cap`` shape implicit groups only: the
    explicit path groups by order whatever they say and never builds the
    permuted gluing copies, fingerprints or union plans."""
    from repro.feti.operator import GroupedDualOperator

    op = _explicit_solver("jittered").operator
    exact = GroupedDualOperator(op)
    near = GroupedDualOperator(op, signature="near", union_fill_cap=0.5)
    assert [g.members for g in near.groups] == [g.members for g in exact.groups]
    assert all(g.tier == "explicit" for g in near.groups)
    assert not hasattr(near, "_btp") and not hasattr(near, "_l")


def test_implicit_and_explicit_operators_report_their_own_chain():
    from repro.feti.operator import GroupedDualOperator

    for approach, chain in (("impl_mkl", 6), ("expl_gpu_opt", 3)):
        op = _feti_operator(approach=approach).operator
        gop = GroupedDualOperator(op)
        n_subs = op.decomposition.n_subdomains
        assert op.explicit == (chain == 3)
        assert gop.launches_per_application == chain * gop.n_groups
        assert gop.sequential_launches_per_application == chain * n_subs


def test_executed_stacks_cannot_be_empty_outside_the_assembler():
    """A zero-member stack prices a dry run, which only ``SchurAssembler``
    starts: the packers the grouped operator and the stacked preconditioners
    build their kernel operands with reject an empty group."""
    from repro.feti.operator import GroupedDualOperator, local_stack

    with pytest.raises(ValueError):
        StackedCSC.from_matrices([])  # implicit exact groups
    for approach, packer in (
        ("impl_mkl", lambda gop: gop._exact_group([])),
        # the explicit F's and every preconditioner's dense local stacks
        ("expl_gpu_opt", lambda gop: local_stack([], [], [])),
    ):
        gop = GroupedDualOperator(_feti_operator(approach=approach).operator)
        assert all(len(grp.members) >= 1 for grp in gop.groups)
        with pytest.raises(ValueError):
            packer(gop)
