"""A dry run — the kernel chain on a zero-member stack — must charge
*identical* costs to the executed path, invisibly and without allocating."""

from __future__ import annotations

import tracemalloc

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
)
from repro.batch import BatchAssembler, BatchItem
from repro.bench.workloads import make_workload
from repro.dd import decompose
from repro.fem import heat_transfer_2d
from repro.gpu import A100_40GB, EPYC_7763_CORE, Executor
from repro.obs import tracing
from repro.sparse import cholesky
from repro.sparse.stacked import StackedCSC
from tests.conftest import random_spd


@pytest.fixture(scope="module")
def workload():
    p = heat_transfer_2d(20, dirichlet=("left",))
    dec = decompose(p, grid=(2, 2))
    sub = next(s for s in dec.subdomains if s.floating)
    factor = cholesky(sub.regularized(), ordering="nd", coords=sub.coords)
    return factor, sub.bt


CONFIGS = [
    baseline_config("sparse"),
    baseline_config("dense"),
    default_config("gpu", 2),
    default_config("gpu", 3),
    default_config("cpu", 2),
    default_config("cpu", 3),
    AssemblyConfig(
        trsm_variant="rhs_split",
        syrk_variant="output_split",
        trsm_blocks=by_size(13),
        syrk_blocks=by_count(4),
        factor_storage="sparse",
    ),
    AssemblyConfig(
        trsm_variant="rhs_split",
        syrk_variant="input_split",
        trsm_blocks=by_count(3),
        syrk_blocks=by_size(17),
        factor_storage="dense",
    ),
    AssemblyConfig(
        trsm_variant="factor_split",
        syrk_variant="output_split",
        trsm_blocks=by_size(11),
        syrk_blocks=by_size(9),
        factor_storage="sparse",
        prune=False,
    ),
    AssemblyConfig(
        trsm_variant="factor_split",
        syrk_variant="input_split",
        trsm_blocks=by_size(7),
        syrk_blocks=by_size(1000),
        factor_storage="dense",
        prune=True,
    ),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.describe())
@pytest.mark.parametrize("spec", [A100_40GB, EPYC_7763_CORE], ids=lambda s: s.kind)
def test_estimate_matches_executed_breakdown(config, spec, workload):
    factor, bt = workload
    assembler = SchurAssembler(config=config, spec=spec)
    executed = assembler.assemble(factor, bt)
    estimated = assembler.estimate(factor, bt)
    for stage in ("transfer", "permute", "trsm", "syrk"):
        assert estimated[stage] == executed.breakdown[stage], stage
    assert estimated["total"] == executed.elapsed


def test_estimate_random_matrix_agreement():
    factor = cholesky(random_spd(60, 0.08, 5), ordering="amd")
    bt = sp.random(60, 18, density=0.12, random_state=6, format="csc")
    cfg = default_config("gpu", 3).with_overrides(trsm_blocks=by_size(9))
    asm = SchurAssembler(config=cfg)
    assert asm.estimate(factor, bt)["total"] == asm.assemble(factor, bt).elapsed


def test_zero_member_stack_pattern_queries(workload):
    factor, _ = workload
    patt = StackedCSC.pattern_of(factor.l)
    n = factor.n
    assert patt.group == 0 and patt.shape == (n, n)
    assert patt.nnz == factor.nnz
    # The trailing subfactor L[p:, p:] (the RHS-split extract) at both ends.
    assert patt.block(0, n, 0, n).nnz == factor.nnz
    assert patt.block(n, n, n, n).nnz == 0
    # Empty row range is zero.
    assert patt.block(0, 0, 0, n).nnz == 0
    dense = factor.l.toarray() != 0
    r0, r1, c0, c1 = 3, 40, 2, 30
    block = patt.block(r0, r1, c0, c1)
    assert block.group == 0
    assert block.nnz == int(dense[r0:r1, c0:c1].sum())
    assert block.nonempty_rows().size == int(dense[r0:r1, c0:c1].any(axis=1).sum())
    assert np.array_equal(
        block.nonempty_rows(), np.flatnonzero(dense[r0:r1, c0:c1].any(axis=1))
    )


def test_estimate_without_stepped_permutation(workload):
    factor, bt = workload
    asm = SchurAssembler(config=baseline_config("sparse"), spec=A100_40GB)
    est = asm.estimate(factor, bt)
    assert est["total"] > 0


def test_estimate_validates(workload):
    factor, bt = workload
    asm = SchurAssembler(config=baseline_config(), spec=A100_40GB)
    with pytest.raises(ValueError):
        asm.estimate(factor, bt.toarray())
    with pytest.raises(ValueError):
        asm.estimate(factor, sp.csc_matrix((factor.n + 1, 2)))


def test_dry_run_is_invisible(workload):
    """With tracing on, an estimate books no kernel span and no kernel
    metric, and touches no executor but its own."""
    factor, bt = workload
    asm = SchurAssembler(config=default_config("gpu", 2))
    ex = Executor(A100_40GB)
    asm.assemble(factor, bt, executor=ex)
    before = (ex.ledger.elapsed, ex.ledger.total, ex.ledger.calls)
    with tracing() as tr:
        est = asm.estimate(factor, bt)
    assert est["total"] > 0
    assert [s.name for s in tr.spans() if s.name.startswith("gpu.")] == []
    assert tr.metrics.histogram("gpu.kernel_sim_seconds") is None
    assert (ex.ledger.elapsed, ex.ledger.total, ex.ledger.calls) == before


def test_analyze_between_batches_charges_no_executed_kernel(workload, monkeypatch):
    """``perf/`` counts ``gpu.launches`` by wrapping ``Executor.charge`` on
    the class: the dry run of a cache miss must not pass through it."""
    factor, bt = workload
    launches = []
    charge = Executor.charge

    def counting(self, cost, kernel="kernel"):
        launches.append(cost.launches)
        return charge(self, cost, kernel)

    monkeypatch.setattr(Executor, "charge", counting)
    engine = BatchAssembler(config=default_config("gpu", 2))
    engine.assemble_batch([BatchItem(factor, bt)] * 2)
    per_batch = sum(launches)
    assert per_batch > 0
    other = make_workload(2, 578)
    _, hit = engine.analyze(other.factor, other.bt)
    assert not hit  # a miss: pruning plan and dry run were built
    assert sum(launches) == per_batch
    engine.assemble_batch([BatchItem(factor, bt)] * 2)
    assert sum(launches) == 2 * per_batch


@pytest.mark.parametrize(
    "config", [default_config("gpu", 3), baseline_config("dense")], ids=lambda c: c.describe()
)
def test_dry_run_allocates_nothing_dense(config):
    """n*m*8 is ~178 MB here: a dry run that materialised any (n, m) or
    (n, n) operand would show in the traced peak."""
    wl = make_workload(3, 9261)
    asm = SchurAssembler(config)
    tracemalloc.start()
    try:
        est = asm.estimate(wl.factor, wl.bt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est["total"] > 0
    assert peak < 32e6
