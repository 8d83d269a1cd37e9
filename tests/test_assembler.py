"""Tests for the end-to-end SchurAssembler and tuning helpers."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    AssemblyConfig,
    SchurAssembler,
    baseline_config,
    by_count,
    by_size,
    default_config,
    sweep_block_parameter,
    tune_block_parameter,
)
from repro.dd import decompose
from repro.fem import heat_transfer_2d, heat_transfer_3d
from repro.gpu import A100_40GB, EPYC_7763_CORE, Executor
from repro.sparse import cholesky, solve_lower
from repro.sparse.canonical import union_plan
from repro.sparse.cholesky import CholeskyFactor
from tests.conftest import random_spd


@pytest.fixture(scope="module")
def subdomain_2d():
    p = heat_transfer_2d(24, dirichlet=("left",))
    dec = decompose(p, grid=(3, 3))
    sub = next(s for s in dec.subdomains if s.floating)
    factor = cholesky(sub.regularized(), ordering="nd", coords=sub.coords)
    return factor, sub.bt


@pytest.fixture(scope="module")
def reference_2d(subdomain_2d):
    factor, bt = subdomain_2d
    y = solve_lower(factor.l, bt.tocsr()[factor.perm].toarray(), method="dense")
    return y.T @ y


ALL_CONFIGS = [
    baseline_config("sparse"),
    baseline_config("dense"),
    default_config("gpu", 2),
    default_config("gpu", 3),
    default_config("cpu", 2),
    default_config("cpu", 3),
    AssemblyConfig(
        trsm_variant="rhs_split",
        syrk_variant="output_split",
        trsm_blocks=by_size(16),
        syrk_blocks=by_count(3),
        factor_storage="sparse",
    ),
]


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.describe())
def test_assembler_matches_reference(config, subdomain_2d, reference_2d):
    factor, bt = subdomain_2d
    res = SchurAssembler(config=config, spec=A100_40GB).assemble(factor, bt)
    assert np.allclose(res.f, reference_2d, atol=1e-8)
    assert res.elapsed > 0
    assert set(res.breakdown) == {"transfer", "permute", "trsm", "syrk"}
    assert res.elapsed == pytest.approx(sum(res.breakdown.values()))


def test_assembler_cpu_no_transfer(subdomain_2d, reference_2d):
    factor, bt = subdomain_2d
    res = SchurAssembler.for_cpu().assemble(factor, bt)
    assert np.allclose(res.f, reference_2d, atol=1e-8)
    assert res.breakdown["transfer"] == 0.0


def test_assembler_gpu_charges_transfer(subdomain_2d):
    factor, bt = subdomain_2d
    res = SchurAssembler(config=default_config("gpu", 2)).assemble(factor, bt)
    assert res.breakdown["transfer"] > 0.0


def test_assembler_result_symmetric_spsd(subdomain_2d):
    factor, bt = subdomain_2d
    res = SchurAssembler().assemble(factor, bt)
    assert np.allclose(res.f, res.f.T, atol=1e-10)
    w = np.linalg.eigvalsh(res.f)
    assert w.min() > -1e-9  # SPSD (B has redundant rows -> singular ok)


def test_assembler_shared_executor_accumulates(subdomain_2d):
    factor, bt = subdomain_2d
    ex = Executor(A100_40GB)
    asm = SchurAssembler()
    asm.assemble(factor, bt, executor=ex)
    t1 = ex.elapsed
    asm.assemble(factor, bt, executor=ex)
    assert ex.elapsed > t1


def test_assembler_keep_y(subdomain_2d):
    factor, bt = subdomain_2d
    res = SchurAssembler().assemble(factor, bt, keep_y=True)
    assert res.y is not None
    assert res.y.shape == (factor.n, bt.shape[1])
    assert np.allclose(res.y.T @ res.y, res.f[np.ix_(res.col_perm, res.col_perm)], atol=1e-8)


def test_assembler_validates_inputs(subdomain_2d):
    factor, bt = subdomain_2d
    asm = SchurAssembler()
    with pytest.raises(ValueError, match="sparse"):
        asm.assemble(factor, bt.toarray())
    with pytest.raises(ValueError, match="rows"):
        asm.assemble(factor, sp.csc_matrix((factor.n + 1, 3)))


def test_config_validation():
    with pytest.raises(ValueError, match="unknown TRSM"):
        AssemblyConfig(trsm_variant="magic")
    with pytest.raises(ValueError, match="unknown SYRK"):
        AssemblyConfig(syrk_variant="magic")
    with pytest.raises(ValueError, match="stepped"):
        AssemblyConfig(trsm_variant="factor_split", use_stepped_permutation=False)
    with pytest.raises(ValueError):
        default_config("tpu", 3)
    with pytest.raises(ValueError):
        default_config("gpu", 4)


def test_default_config_matches_table1():
    cfg = default_config("gpu", 3)
    assert cfg.trsm_blocks.describe() == "S 500"
    assert cfg.syrk_blocks.describe() == "S 1000"
    assert cfg.factor_storage == "dense"
    cfg2 = default_config("cpu", 3)
    assert cfg2.syrk_variant == "output_split"
    cfg3 = default_config("gpu", 2)
    assert cfg3.factor_storage == "sparse"


def test_memory_estimate(subdomain_2d):
    factor, bt = subdomain_2d
    asm = SchurAssembler()
    est = asm.estimate_memory(factor.n, factor.nnz, bt.shape[1])
    m = bt.shape[1]
    assert est.persistent == m * m * 8
    assert est.temporary > factor.nnz * 8


def test_optimized_charges_fewer_flops_than_baseline(subdomain_2d):
    factor, bt = subdomain_2d
    ex_base, ex_opt = Executor(A100_40GB), Executor(A100_40GB)
    SchurAssembler(config=baseline_config("dense")).assemble(factor, bt, executor=ex_base)
    SchurAssembler(config=default_config("gpu", 2)).assemble(factor, bt, executor=ex_opt)
    assert ex_opt.ledger.total.flops < ex_base.ledger.total.flops


def test_assembler_3d_problem():
    p = heat_transfer_3d(8, dirichlet=("left",))
    dec = decompose(p, grid=(2, 2, 2))
    sub = next(s for s in dec.subdomains if s.floating)
    factor = cholesky(sub.regularized(), ordering="nd", coords=sub.coords)
    ref_y = solve_lower(factor.l, sub.bt.tocsr()[factor.perm].toarray(), method="superlu")
    ref = ref_y.T @ ref_y
    res = SchurAssembler(config=default_config("gpu", 3)).assemble(factor, sub.bt)
    assert np.allclose(res.f, ref, atol=1e-8)


# ---------------------------------------------------------------------------
# one body behind the three entry points: the whole config grid
# ---------------------------------------------------------------------------

CONFIG_GRID = [
    AssemblyConfig(
        trsm_variant=trsm,
        syrk_variant=syrk,
        trsm_blocks=by_size(16),
        syrk_blocks=by_count(3),
        factor_storage=storage,
        prune=prune,
    )
    for trsm in ("orig", "rhs_split", "factor_split")
    for syrk in ("orig", "input_split", "output_split")
    for storage in ("sparse", "dense")
    for prune in (False, True)
]


def _ledger(ex):
    total = ex.ledger.total
    return total.flops, total.bytes_moved, total.launches


@pytest.mark.parametrize("config", CONFIG_GRID, ids=lambda c: c.describe())
def test_entry_points_share_one_body(config, subdomain_2d):
    factor, bt = subdomain_2d
    asm = SchurAssembler(config=config)
    bt_rows = bt.tocsr()[factor.perm].tocsc()

    # (a) one member: the three entry points are the same computation.
    ex_one, ex_group, ex_union = (Executor(A100_40GB) for _ in range(3))
    one = asm.assemble(factor, bt, executor=ex_one)
    (grouped,) = asm.assemble_group([factor], [bt], executor=ex_group)
    (padded,) = asm.assemble_union(
        [factor], [bt_rows], union_plan([factor.l], [bt_rows]), executor=ex_union
    )
    assert one.f.tobytes() == grouped.f.tobytes() == padded.f.tobytes()
    assert _ledger(ex_one) == _ledger(ex_group) == _ledger(ex_union)
    assert one.breakdown == grouped.breakdown == padded.breakdown

    # (b) three members, one pattern, distinct values: 3x the work, 1x the launches.
    factors, bts = [], []
    for scale in (1.0, 1.25, 0.8):
        l = factor.l.copy()
        l.data = l.data * scale
        factors.append(
            CholeskyFactor(l=l, perm=factor.perm, flops=factor.flops, engine=factor.engine)
        )
        bts.append(bt * scale)
    ex_three = Executor(A100_40GB)
    three = asm.assemble_group(factors, bts, executor=ex_three)
    flops, nbytes, launches = _ledger(ex_one)
    assert _ledger(ex_three) == (3 * flops, 3 * nbytes, launches)
    assert np.allclose(three[0].f, one.f, rtol=1e-9, atol=1e-10)
    assert np.allclose(three[1].f, one.f, rtol=1e-9, atol=1e-10)  # (s B)(s L)^-T(s L)^-1(s B)^T = F


# ---------------------------------------------------------------------------
# tuning
# ---------------------------------------------------------------------------


def test_sweep_block_parameter(subdomain_2d):
    factor, bt = subdomain_2d
    points = sweep_block_parameter(
        factor,
        bt,
        default_config("gpu", 2),
        A100_40GB,
        values=[5, 50, 500],
        mode="size",
        target="both",
    )
    assert len(points) == 3
    assert all(p.elapsed > 0 for p in points)
    # Extremely small blocks must be slower than moderate ones (launch
    # overhead dominates) — the U-shape of Figure 5.
    tiny = sweep_block_parameter(
        factor, bt, default_config("gpu", 2), A100_40GB, values=[1], mode="size",
        target="both",
    )[0]
    assert tiny.elapsed > min(p.elapsed for p in points)


def test_tune_block_parameter_returns_best(subdomain_2d):
    factor, bt = subdomain_2d
    best = tune_block_parameter(
        factor,
        bt,
        default_config("gpu", 2),
        A100_40GB,
        values=[1, 20, 200],
        mode="size",
        target="trsm",
    )
    assert best.mode == "size"
    assert best.value in (1, 20, 200)


def test_sweep_validates():
    factor = cholesky(random_spd(10, 0.5, 0))
    bt = sp.random(10, 3, density=0.3, random_state=0, format="csc")
    with pytest.raises(ValueError, match="unknown target"):
        sweep_block_parameter(factor, bt, default_config(), A100_40GB, [1], target="x")
    with pytest.raises(ValueError, match="unknown mode"):
        sweep_block_parameter(factor, bt, default_config(), A100_40GB, [1], mode="x")
