"""Micro-benchmarks of the *numeric* kernels (real wall time, not simulated).

These exercise the actual NumPy/SciPy execution paths under
pytest-benchmark with several rounds — the complement of the figure benches
(which measure the simulated device model).  The split variants take
stacked operands; one subdomain is the stack of one."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workloads import make_workload
from repro.core import (
    SchurAssembler,
    baseline_config,
    by_size,
    default_config,
    stepped_permutation,
    trsm_factor_split,
    trsm_rhs_split,
)
from repro.gpu import A100_40GB, Executor
from repro.sparse import StackedCSC, cholesky, schur_augmented


@pytest.fixture(scope="module")
def wl3d():
    return make_workload(3, 2744)


@pytest.fixture(scope="module")
def wl2d():
    return make_workload(2, 4232)


def test_numeric_cholesky_3d(benchmark, wl3d):
    benchmark(lambda: cholesky(wl3d.k_reg, ordering="nd", coords=wl3d.coords))


def test_numeric_assembly_baseline_3d(benchmark, wl3d):
    asm = SchurAssembler(config=baseline_config("sparse"), spec=A100_40GB)
    result = benchmark(lambda: asm.assemble(wl3d.factor, wl3d.bt))
    assert result.f.shape == (wl3d.n_multipliers,) * 2


def test_numeric_assembly_optimized_3d(benchmark, wl3d):
    asm = SchurAssembler(config=default_config("gpu", 3), spec=A100_40GB)
    result = benchmark(lambda: asm.assemble(wl3d.factor, wl3d.bt))
    assert result.f.shape == (wl3d.n_multipliers,) * 2


def test_numeric_assembly_optimized_2d(benchmark, wl2d):
    asm = SchurAssembler(config=default_config("gpu", 2), spec=A100_40GB)
    result = benchmark(lambda: asm.assemble(wl2d.factor, wl2d.bt))
    assert result.f.shape == (wl2d.n_multipliers,) * 2


def test_numeric_trsm_factor_split(benchmark, wl3d):
    bt_rows = wl3d.bt.tocsr()[wl3d.factor.perm].tocsc()
    col_perm, shape = stepped_permutation(bt_rows)
    x0 = np.asarray(bt_rows[:, col_perm].todense())[None]
    l = StackedCSC.from_matrices([wl3d.factor.l])

    def run():
        x = x0.copy()
        trsm_factor_split(
            Executor(A100_40GB), l, x, shape, by_size(500),
            storage="dense", prune=True,
        )
        return x

    benchmark(run)


def test_numeric_trsm_rhs_split(benchmark, wl3d):
    bt_rows = wl3d.bt.tocsr()[wl3d.factor.perm].tocsc()
    col_perm, shape = stepped_permutation(bt_rows)
    x0 = np.asarray(bt_rows[:, col_perm].todense())[None]
    l = StackedCSC.from_matrices([wl3d.factor.l])

    def run():
        x = x0.copy()
        trsm_rhs_split(
            Executor(A100_40GB), l, x, shape, by_size(1000),
            storage="sparse",
        )
        return x

    benchmark(run)


def test_numeric_augmented_schur_2d(benchmark, wl2d):
    result = benchmark(
        lambda: schur_augmented(wl2d.k_reg, wl2d.bt, factor=wl2d.factor)
    )
    assert result.schur.shape == (wl2d.n_multipliers,) * 2
