"""Tests for the FETI solver: operators, projector, projected CG, approaches."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.dd import decompose
from repro.fem import heat_transfer_2d, heat_transfer_3d
from repro.feti import (
    APPROACHES,
    CoarseProblem,
    FetiSolver,
    build_dual_operator,
    factorize_subdomain,
    block_pcpg,
    make_approach,
    solve_feti,
)
from repro.feti.operator import ExplicitLocalOperator, ImplicitLocalOperator


@pytest.fixture(scope="module")
def problem_2d():
    p = heat_transfer_2d(16, dirichlet=("left",))
    return p, p.solve_direct()


@pytest.fixture(scope="module")
def decomposition_2d(problem_2d):
    p, _ = problem_2d
    return decompose(p, grid=(2, 2))


@pytest.mark.parametrize("approach", sorted(APPROACHES))
def test_all_approaches_match_direct(approach, problem_2d, decomposition_2d):
    p, u_direct = problem_2d
    sol = solve_feti(decomposition_2d, approach=approach, tol=1e-12)
    assert sol.info.converged
    assert np.abs(sol.u - u_direct).max() < 1e-7


def test_unknown_approach_rejected(decomposition_2d):
    with pytest.raises(ValueError, match="unknown approach"):
        solve_feti(decomposition_2d, approach="expl_warp")


def test_chain_gluing_and_no_precond(problem_2d):
    p, u_direct = problem_2d
    dec = decompose(p, grid=(3, 3), gluing="chain")
    sol = solve_feti(dec, approach="impl_mkl", preconditioner="none", tol=1e-12)
    assert np.abs(sol.u - u_direct).max() < 1e-7


def test_lumped_precond_reduces_iterations(problem_2d):
    p, _ = problem_2d
    dec = decompose(p, grid=(4, 4))
    none = solve_feti(dec, approach="impl_mkl", preconditioner="none", tol=1e-10)
    lumped = solve_feti(dec, approach="impl_mkl", preconditioner="lumped", tol=1e-10)
    assert lumped.iterations <= none.iterations


def test_3d_solve():
    p = heat_transfer_3d(8, dirichlet=("left",))
    dec = decompose(p, grid=(2, 2, 2))
    sol = solve_feti(dec, approach="expl_gpu_opt", tol=1e-12)
    assert np.abs(sol.u - p.solve_direct()).max() < 1e-7


def test_no_floating_subdomains():
    p = heat_transfer_2d(8, dirichlet=("left", "right", "top", "bottom"))
    dec = decompose(p, grid=(2, 1))
    sol = solve_feti(dec, approach="impl_mkl", tol=1e-12)
    assert sol.info.alpha.size == 0  # empty coarse space
    assert np.abs(sol.u - p.solve_direct()).max() < 1e-8


def test_implicit_explicit_operators_agree(decomposition_2d, rng):
    """F lam must be identical whether applied implicitly or explicitly."""
    dec = decomposition_2d
    impl_ops, expl_ops = [], []
    for sub in dec.subdomains:
        factor = factorize_subdomain(sub)
        impl_ops.append(ImplicitLocalOperator(factor=factor, bt=sub.bt))
        res = make_approach("expl_gpu_opt").preprocess_subdomain(sub)
        expl_ops.append(res.local_op)
    op_i = build_dual_operator(dec, impl_ops)
    op_e = build_dual_operator(dec, expl_ops)
    lam = rng.standard_normal(dec.n_multipliers)
    assert np.allclose(op_i.apply(lam), op_e.apply(lam), atol=1e-8)
    assert np.allclose(op_i.d, op_e.d, atol=1e-10)
    assert np.allclose(op_i.g, op_e.g, atol=1e-12)


def test_dual_operator_spsd(decomposition_2d, rng):
    dec = decomposition_2d
    ops = [
        ImplicitLocalOperator(factor=factorize_subdomain(s), bt=s.bt)
        for s in dec.subdomains
    ]
    op = build_dual_operator(dec, ops)
    for _ in range(5):
        lam = rng.standard_normal(dec.n_multipliers)
        assert lam @ op.apply(lam) >= -1e-10


def test_solver_stage_api(decomposition_2d):
    solver = FetiSolver(decomposition_2d, approach="expl_mkl", tol=1e-11)
    timings = solver.preprocess()
    assert timings.preprocessing_total > 0
    assert len(timings.factorization) == decomposition_2d.n_subdomains
    sol = solver.solve()
    assert sol.info.converged
    # Implicit has zero assembly time; explicit nonzero.
    assert sum(timings.assembly) > 0
    impl = FetiSolver(decomposition_2d, approach="impl_mkl")
    t2 = impl.preprocess()
    assert sum(t2.assembly) == 0.0


def test_solve_without_preprocess_autoruns(decomposition_2d):
    solver = FetiSolver(decomposition_2d, approach="impl_mkl", tol=1e-11)
    sol = solver.solve()  # must auto-preprocess
    assert sol.info.converged


def test_explicit_apply_faster_than_implicit_on_cpu(decomposition_2d):
    """Explicit per-iteration application must be cheaper (the premise of
    the whole explicit approach)."""
    impl = FetiSolver(decomposition_2d, approach="impl_mkl")
    expl = FetiSolver(decomposition_2d, approach="expl_mkl")
    ti = impl.preprocess()
    te = expl.preprocess()
    assert te.apply_mean_per_subdomain < ti.apply_mean_per_subdomain


def test_timings_preprocessing_ordering(decomposition_2d):
    """impl_mkl prep < impl_cholmod prep; expl approaches cost extra."""
    prep = {}
    for name in ("impl_mkl", "impl_cholmod", "expl_mkl"):
        s = FetiSolver(decomposition_2d, approach=name)
        prep[name] = s.preprocess().preprocessing_total
    assert prep["impl_mkl"] < prep["impl_cholmod"]
    assert prep["expl_mkl"] > prep["impl_mkl"]


# ---------------------------------------------------------------------------
# projector / projected-CG unit tests (single solves are one-column panels)
# ---------------------------------------------------------------------------


def test_coarse_problem_projection(rng):
    g = rng.standard_normal((20, 3))
    coarse = CoarseProblem(g)
    x = rng.standard_normal(20)
    px = coarse.project(x)
    assert np.allclose(g.T @ px, 0.0, atol=1e-10)  # P x in null(G^T)
    assert np.allclose(coarse.project(px), px, atol=1e-10)  # idempotent
    e = rng.standard_normal(3)
    lam0 = coarse.feasible_point(e)
    assert np.allclose(g.T @ lam0, e, atol=1e-10)


def test_coarse_problem_empty_kernel(rng):
    coarse = CoarseProblem(np.zeros((10, 0)))
    x = rng.standard_normal(10)
    assert np.array_equal(coarse.project(x), x)
    assert np.array_equal(coarse.feasible_point(np.zeros(0)), np.zeros(10))
    assert coarse.alpha_from(x).size == 0


def test_coarse_problem_rank_deficient():
    g = np.ones((6, 2))  # two identical kernel columns
    coarse = CoarseProblem(g)
    x = np.arange(6, dtype=float)
    px = coarse.project(x)
    assert np.allclose(g.T @ px, 0.0, atol=1e-8)


def test_pcpg_on_spd_system(rng):
    """Projected CG with empty G reduces to plain CG."""
    n = 30
    a = rng.standard_normal((n, n))
    a = a @ a.T + n * np.eye(n)
    b = rng.standard_normal((n, 1))
    res = block_pcpg(lambda x: a @ x, b, np.zeros((n, 0)), np.zeros((0, 1)), tol=1e-12)
    assert res.converged
    assert np.allclose(a @ res.lam, b, atol=1e-6)


def test_pcpg_respects_constraint(rng):
    n, k = 25, 2
    a = rng.standard_normal((n, n))
    a = a @ a.T + n * np.eye(n)
    g = rng.standard_normal((n, k))
    e = rng.standard_normal((k, 1))
    res = block_pcpg(lambda x: a @ x, rng.standard_normal((n, 1)), g, e, tol=1e-10)
    assert np.allclose(g.T @ res.lam, e, atol=1e-8)


def test_pcpg_validates(rng):
    empty = np.zeros((0, 1))
    with pytest.raises(ValueError):
        block_pcpg(lambda x: x, np.ones((3, 1)), np.zeros((4, 0)), empty)
    with pytest.raises(ValueError):
        block_pcpg(lambda x: x, np.ones((3, 1)), np.zeros((3, 0)), empty, tol=0.0)
    with pytest.raises(ValueError):
        block_pcpg(lambda x: x, np.ones((3, 1)), np.zeros((3, 0)), empty, max_iter=0)


def test_pcpg_iteration_history(decomposition_2d):
    sol = solve_feti(decomposition_2d, approach="impl_mkl", tol=1e-10)
    res = sol.info.column_residuals(0)
    assert len(res) == sol.iterations + 1
    assert res[-1] <= 1e-10 * res[0]
    assert sol.info.final_residuals[0] == res[-1]
    assert np.array_equal(sol.info.deflated_at, [sol.iterations])
