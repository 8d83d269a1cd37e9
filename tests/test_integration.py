"""Cross-module integration tests: decomposition -> assembly -> pipeline ->
solver, plus failure-injection paths."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AssemblyConfig,
    SchurAssembler,
    by_count,
    by_size,
    default_config,
)
from repro.dd import decompose
from repro.fem import heat_transfer_2d, heat_transfer_3d
from repro.feti import estimate_approach_timing, make_approach, solve_feti
from repro.feti.operator import factorize_subdomain
from repro.gpu import A100_40GB, Executor, MemoryPool, OutOfDeviceMemoryError
from repro.runtime import SubdomainWork, run_preprocessing_pipeline
from repro.sparse import cholesky
from tests.conftest import random_spd


def test_whole_decomposition_assembly_through_shared_executor():
    """Assembling every subdomain through one executor accumulates exactly
    the sum of the per-subdomain elapsed times."""
    p = heat_transfer_2d(16, dirichlet=("left",))
    dec = decompose(p, grid=(2, 2))
    asm = SchurAssembler(config=default_config("gpu", 2))
    ex = Executor(A100_40GB)
    total = 0.0
    for sub in dec.subdomains:
        factor = factorize_subdomain(sub)
        res = asm.assemble(factor, sub.bt, executor=ex)
        total += res.breakdown["permute"] + res.breakdown["trsm"] + res.breakdown["syrk"]
    assert ex.elapsed == pytest.approx(total, rel=1e-9)


def test_pipeline_from_estimated_durations():
    """End-to-end: estimate per-subdomain work, run the mix pipeline with a
    realistic memory pool, check makespan bounds."""
    p = heat_transfer_3d(8, dirichlet=("left",))
    dec = decompose(p, grid=(2, 2, 2))
    asm = SchurAssembler(config=default_config("gpu", 3))
    work = []
    from repro.feti.timing import CHOLMOD

    for sub in dec.subdomains:
        factor = factorize_subdomain(sub)
        est = asm.estimate(factor, sub.bt)
        mem = asm.estimate_memory(factor.n, factor.nnz, sub.n_multipliers)
        work.append(
            SubdomainWork(
                factorization=CHOLMOD.factorization_time(factor),
                assembly=est["total"],
                temp_bytes=mem.temporary,
                persistent_bytes=mem.persistent,
            )
        )
    pool = MemoryPool(capacity=A100_40GB.memory_capacity)
    res = run_preprocessing_pipeline(
        work, mode="mix", n_threads=4, n_streams=4, memory_pool=pool
    )
    serial = sum(w.factorization + w.assembly for w in work)
    critical = max(w.factorization + w.assembly for w in work)
    assert critical <= res.makespan <= serial
    assert res.memory_stalls == 0  # 40 GB is plenty for 8 small subdomains
    assert res.memory_high_water > 0


def test_feti_3d_explicit_chain_gluing():
    p = heat_transfer_3d(6, dirichlet=("left",))
    dec = decompose(p, grid=(2, 1, 2), gluing="chain")
    sol = solve_feti(dec, approach="expl_cuda", tol=1e-11)
    assert np.abs(sol.u - p.solve_direct()).max() < 1e-8


def test_fine_grid_drops_empty_subdomains():
    """A subdomain grid finer than the mesh must not create empty subdomains."""
    p = heat_transfer_2d(4, dirichlet=("left",))
    dec = decompose(p, grid=(8, 8))
    assert all(s.element_ids.size > 0 for s in dec.subdomains)
    assert dec.check_consistency()
    sol = solve_feti(dec, approach="impl_mkl", tol=1e-11)
    assert np.abs(sol.u - p.solve_direct()).max() < 1e-7


def test_anisotropic_subdomain_grid():
    p = heat_transfer_2d(12, dirichlet=("left",))
    dec = decompose(p, grid=(4, 1))
    sol = solve_feti(dec, approach="expl_mkl", tol=1e-11)
    assert np.abs(sol.u - p.solve_direct()).max() < 1e-8


def test_variable_conductivity_problem():
    """Heterogeneous coefficient: FETI still matches the direct solve."""
    p = heat_transfer_2d(12, dirichlet=("left",), conductivity=7.5)
    dec = decompose(p, grid=(2, 2))
    sol = solve_feti(dec, approach="impl_mkl", tol=1e-11)
    assert np.abs(sol.u - p.solve_direct()).max() < 1e-8


@pytest.mark.parametrize("source", [1.0, 3.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_decomposition_solves_the_load_the_problem_states(dim, source):
    """The subdomain loads come from the problem's own ``source`` (a torn
    problem used to be assembled with the default unit source)."""
    if dim == 2:
        p = heat_transfer_2d(16, dirichlet=("left",), source=source)
        dec = decompose(p, grid=(2, 2))
    else:
        p = heat_transfer_3d(6, dirichlet=("left",), source=source)
        dec = decompose(p, grid=(2, 2, 2))
    assert sum(s.f.sum() for s in dec.subdomains) == pytest.approx(
        p.f.sum() - p.f[p.dirichlet_nodes].sum(), rel=1e-12
    )
    sol = solve_feti(dec, approach="expl_gpu_opt", tol=1e-11)
    assert np.abs(sol.u - p.solve_direct()).max() < 1e-8


def test_estimates_consistent_across_decomposition():
    """Per-subdomain estimates summed == executed totals (exactness of the
    dry-run path on a real decomposition, not just a bench workload)."""
    p = heat_transfer_2d(14, dirichlet=("left",))
    dec = decompose(p, grid=(2, 2))
    asm = SchurAssembler(config=default_config("gpu", 2))
    for sub in dec.subdomains:
        factor = factorize_subdomain(sub)
        executed = asm.assemble(factor, sub.bt)
        estimated = asm.estimate(factor, sub.bt)
        assert estimated["total"] == pytest.approx(executed.elapsed, rel=1e-12)


def test_approach_estimate_on_real_subdomain_matches():
    p = heat_transfer_3d(6, dirichlet=("left",))
    dec = decompose(p, grid=(2, 1, 1))
    sub = dec.subdomains[1]
    executed = make_approach("expl_gpu_opt").preprocess_subdomain(sub)
    est = estimate_approach_timing(
        "expl_gpu_opt", executed.local_op.factor, sub.bt, dim=3
    )
    assert est.preprocessing == pytest.approx(executed.preprocessing_time, rel=1e-9)


# ---------------------------------------------------------------------------
# failure injection
# ---------------------------------------------------------------------------


def test_persistent_memory_overflow_for_oversized_sc():
    """A Schur complement larger than device memory must be rejected."""
    pool = MemoryPool(capacity=1e6)
    with pytest.raises(OutOfDeviceMemoryError):
        pool.alloc_persistent(2e6, tag="sc:huge")


def test_assembler_rejects_mismatched_factor_and_bt():
    factor = cholesky(random_spd(30, 0.2, 0))
    bt = sp.random(29, 4, density=0.3, random_state=1, format="csc")
    with pytest.raises(ValueError, match="rows"):
        SchurAssembler().assemble(factor, bt)


def test_solver_rejects_unpreprocessed_operator_misuse():
    p = heat_transfer_2d(8, dirichlet=("left",))
    dec = decompose(p, grid=(2, 1))
    from repro.feti import FetiSolver

    solver = FetiSolver(dec, approach="impl_mkl")
    # solve() auto-preprocesses; calling twice reuses the operator.
    sol1 = solver.solve()
    sol2 = solver.solve()
    assert np.allclose(sol1.u, sol2.u)


def test_nan_rhs_detected_by_trsm():
    """NaNs in B^T propagate to the SC rather than being silently fixed —
    the assembler trusts its inputs, so callers can detect corruption."""
    factor = cholesky(random_spd(20, 0.3, 2))
    bt = sp.random(20, 3, density=0.4, random_state=3, format="csc")
    bt.data[0] = np.nan
    res = SchurAssembler(config=default_config("gpu", 2)).assemble(factor, bt)
    assert np.isnan(res.f).any()


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(10, 40),
    m=st.integers(1, 12),
    seed=st.integers(0, 1000),
    trsm_v=st.sampled_from(["orig", "rhs_split", "factor_split"]),
    syrk_v=st.sampled_from(["orig", "input_split", "output_split"]),
    storage=st.sampled_from(["sparse", "dense"]),
    prune=st.booleans(),
    tb=st.integers(1, 50),
    sb=st.integers(1, 50),
    mode=st.sampled_from(["size", "count"]),
)
def test_property_assembler_any_config_matches_reference(
    n, m, seed, trsm_v, syrk_v, storage, prune, tb, sb, mode
):
    """The full assembler agrees with the dense reference for *any* valid
    configuration — the end-to-end correctness property of the paper's
    optimization space."""
    factory = by_size if mode == "size" else by_count
    stepped = not (trsm_v == "orig" and syrk_v == "orig")
    cfg = AssemblyConfig(
        trsm_variant=trsm_v,
        syrk_variant=syrk_v,
        trsm_blocks=factory(tb),
        syrk_blocks=factory(sb),
        factor_storage=storage,
        prune=prune,
        use_stepped_permutation=stepped,
    )
    factor = cholesky(random_spd(n, min(1.0, 6.0 / n), seed), ordering="amd")
    bt = sp.random(n, m, density=0.25, random_state=seed, format="csc")
    res = SchurAssembler(config=cfg, spec=A100_40GB).assemble(factor, bt)
    y = scipy.linalg.solve_triangular(
        factor.l.toarray(), bt.tocsr()[factor.perm].toarray(), lower=True
    )
    assert np.allclose(res.f, y.T @ y, atol=1e-8)
