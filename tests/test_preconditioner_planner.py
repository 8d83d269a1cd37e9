"""Tests for the Dirichlet preconditioner, the approach planner, auto mode
and degenerate decompositions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dd import decompose
from repro.fem import heat_transfer_2d, heat_transfer_3d
from repro.feti import (
    DEFAULT_CANDIDATES,
    DirichletPreconditioner,
    FetiSolver,
    LumpedPreconditioner,
    make_preconditioner,
    plan_approach,
    solve_feti,
)
from repro.feti.operator import factorize_subdomain


@pytest.fixture(scope="module")
def problem():
    p = heat_transfer_2d(16, dirichlet=("left",))
    return p, p.solve_direct()


@pytest.fixture(scope="module")
def decomposition(problem):
    return decompose(problem[0], grid=(3, 3))


# ---------------------------------------------------------------------------
# Dirichlet preconditioner
# ---------------------------------------------------------------------------


def test_dirichlet_preconditioner_converges_to_direct(problem, decomposition):
    p, u_direct = problem
    sol = solve_feti(decomposition, approach="impl_mkl", preconditioner="dirichlet", tol=1e-11)
    assert sol.info.converged
    assert np.abs(sol.u - u_direct).max() < 1e-8


def test_dirichlet_beats_unpreconditioned(problem, decomposition):
    p, _ = problem
    none = solve_feti(decomposition, approach="impl_mkl", preconditioner="none", tol=1e-10)
    diri = solve_feti(decomposition, approach="impl_mkl", preconditioner="dirichlet", tol=1e-10)
    assert diri.iterations < none.iterations


def test_dirichlet_apply_symmetric_psd(decomposition, rng):
    pc = DirichletPreconditioner(decomposition)
    m = decomposition.n_multipliers
    # Symmetry: <M^{-1}x, y> == <x, M^{-1}y>; PSD: <M^{-1}x, x> >= 0.
    for _ in range(3):
        x = rng.standard_normal(m)
        y = rng.standard_normal(m)
        assert pc.apply(x) @ y == pytest.approx(x @ pc.apply(y), rel=1e-9, abs=1e-12)
        assert x @ pc.apply(x) >= -1e-10


def test_dirichlet_schur_is_interior_complement(decomposition):
    """The local block must be ``B_b^T S B_b`` with S equal to
    K_bb - K_bi K_ii^{-1} K_ib computed densely."""
    pc = DirichletPreconditioner(decomposition)
    sub = decomposition.subdomains[0]
    boundary = np.unique(sub.bt.tocoo().row)
    interior = np.setdiff1d(np.arange(sub.n_dofs), boundary)
    k = sub.k.toarray()
    expected = k[np.ix_(boundary, boundary)] - k[np.ix_(boundary, interior)] @ np.linalg.solve(
        k[np.ix_(interior, interior)], k[np.ix_(interior, boundary)]
    )
    b = sub.bt.toarray()[boundary]
    stack = next(s for s in pc.stacks if 0 in s.members)
    assert np.array_equal(stack.ids[stack.members.index(0)], sub.multiplier_ids)
    assert np.allclose(stack.blocks[stack.members.index(0)], b.T @ expected @ b, atol=1e-8)


def _oracle_case(case):
    from repro.fem import heat_problem
    from repro.part import make_mesh

    if case == "grid2d":
        return decompose(heat_transfer_2d(12, dirichlet=("left",)), grid=(3, 3))
    if case == "cube3d":
        return decompose(heat_transfer_3d(6, dirichlet=("left",)), grid=(2, 2, 2))
    problem = heat_problem(make_mesh("jittered", 12, seed=1), dirichlet=("boundary",))
    return decompose(problem, n_subdomains=7, partitioner="rcb", seed=1)


@pytest.mark.parametrize("case", ["grid2d", "cube3d", "jittered"])
def test_stacked_blocks_match_the_sparse_loops(case):
    """Lumped and Dirichlet applied as stacked dense local blocks agree with
    the per-subdomain sparse loops to 1e-12 relative, on vectors, panels and
    one-column panels, at 3 launches per order class."""
    from tests.loop_preconditioners import LoopDirichlet, LoopLumped

    dec = _oracle_case(case)
    rng = np.random.default_rng(4)
    w = rng.standard_normal((dec.n_multipliers, 3))
    for stacked_cls, loop_cls in (
        (LumpedPreconditioner, LoopLumped),
        (DirichletPreconditioner, LoopDirichlet),
    ):
        pc, loop = stacked_cls(dec), loop_cls(dec)
        ref = loop.apply(w)
        scale = float(np.abs(ref).max())
        for got, want in (
            (pc.apply(w), ref),
            (pc.apply(w[:, 0]), loop.apply(w[:, 0])),
            (pc.apply(w[:, 1:2]), ref[:, 1:2]),
        ):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * scale, (stacked_cls, case)
        assert pc.executor.ledger.total.launches == 3 * pc.launches_per_application
        orders = {sub.multiplier_ids.size for sub in dec.subdomains}
        assert pc.launches_per_application == 3 * len(orders)


def test_dirichlet_3d(rng):
    p = heat_transfer_3d(6, dirichlet=("left",))
    dec = decompose(p, grid=(2, 2, 1))
    sol = solve_feti(dec, approach="impl_mkl", preconditioner="dirichlet", tol=1e-11)
    assert np.abs(sol.u - p.solve_direct()).max() < 1e-8


@pytest.mark.parametrize("preconditioner", ["lumped", "dirichlet"])
@pytest.mark.parametrize("mesh", ["strip", "jittered"])
def test_preconditioned_spectrum_is_bounded_below_by_one(mesh, preconditioner):
    """Every eigenvalue of the lumped- or Dirichlet-preconditioned dual
    operator on ``null(G^T)`` is >= 1 (the ill-conditioned strip-with-holes
    mesh and a jittered square, 8 rcb parts each): a low-rank correction
    that lifts eigenvalues below 1 has nothing to act on
    (``docs/solving.md``)."""
    import scipy.linalg

    from repro.fem import heat_problem
    from repro.part import make_mesh

    problem = heat_problem(make_mesh(mesh, 16, seed=0), dirichlet=("boundary",))
    dec = decompose(problem, n_subdomains=8, partitioner="rcb", seed=0)
    solver = FetiSolver(dec, approach="impl_mkl", preconditioner=preconditioner)
    solver.preprocess()
    op = solver.operator
    q = scipy.linalg.null_space(op.g.T) if op.g.shape[1] else np.eye(op.n_multipliers)
    a_h = q.T @ op.apply(q)
    b_h = q.T @ solver.preconditioner.apply(q)
    # B_h is PSD and may be singular: pseudo-factor it, B_h = L_b L_b^T.
    s, v = np.linalg.eigh(b_h)
    keep = s > 1e-12 * s[-1]
    l_b = v[:, keep] * np.sqrt(s[keep])
    mu = np.linalg.eigvalsh(l_b.T @ a_h @ l_b)
    mu = mu[mu > 1e-12 * mu[-1]]
    assert mu.min() >= 1.0 - 1e-10


def test_make_preconditioner_factory(decomposition):
    assert isinstance(make_preconditioner("lumped", decomposition), LumpedPreconditioner)
    assert isinstance(make_preconditioner("dirichlet", decomposition), DirichletPreconditioner)
    with pytest.raises(ValueError, match="unknown preconditioner"):
        make_preconditioner("ras", decomposition)


# ---------------------------------------------------------------------------
# planner / auto approach
# ---------------------------------------------------------------------------


def test_plan_approach_monotone_in_iterations(decomposition):
    sub = max(decomposition.subdomains, key=lambda s: s.n_dofs)
    factor = factorize_subdomain(sub)
    few = plan_approach(factor, sub.bt, 2, expected_iterations=0)
    many = plan_approach(factor, sub.bt, 2, expected_iterations=100_000)
    # With zero iterations, preprocessing dominates -> an implicit approach.
    assert few.chosen.startswith("impl")
    # With huge iteration counts, per-iteration cost dominates -> explicit.
    assert many.chosen.startswith("expl")
    assert set(few.timings) == set(DEFAULT_CANDIDATES)
    assert "chosen approach" in many.summary()


def test_plan_approach_validates(decomposition):
    sub = decomposition.subdomains[0]
    factor = factorize_subdomain(sub)
    with pytest.raises(ValueError):
        plan_approach(factor, sub.bt, 2, expected_iterations=-1)
    with pytest.raises(ValueError):
        plan_approach(factor, sub.bt, 2, 10, candidates=())
    with pytest.raises(ValueError, match="unknown approach"):
        plan_approach(factor, sub.bt, 2, 10, candidates=("expl_tpu",))


def test_solver_auto_approach(problem, decomposition):
    p, u_direct = problem
    solver = FetiSolver(decomposition, approach="auto", expected_iterations=50)
    assert solver.approach.name in DEFAULT_CANDIDATES
    sol = solver.solve()
    assert np.abs(sol.u - u_direct).max() < 1e-7


def test_solver_auto_prefers_implicit_for_zero_iterations(decomposition):
    solver = FetiSolver(decomposition, approach="auto", expected_iterations=0)
    assert solver.approach.name.startswith("impl")


# ---------------------------------------------------------------------------
# degenerate decompositions
# ---------------------------------------------------------------------------


def test_single_subdomain_no_multipliers(problem):
    p, u_direct = problem
    dec = decompose(p, grid=(1, 1))
    assert dec.n_multipliers == 0
    sol = solve_feti(dec, approach="impl_mkl")
    assert sol.iterations == 0
    assert sol.info.converged
    assert np.abs(sol.u - u_direct).max() < 1e-8


def test_single_subdomain_auto(problem):
    p, _ = problem
    dec = decompose(p, grid=(1, 1))
    solver = FetiSolver(dec, approach="auto")
    assert solver.approach.name == "impl_mkl"
