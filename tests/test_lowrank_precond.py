"""Tests for the Li–Xi–Saad-style low-rank preconditioner correction.

Contract: ``rank=0`` is a bitwise no-op forward to the base
preconditioner; the added term ``U diag(theta) U^T`` is symmetric PSD
(hypothesis over random panels); corrected modes of the preconditioned
projected operator land on eigenvalue exactly 1; and on the
ill-conditioned strip-with-holes workload a rank ``r > 0`` correction
never needs more PCPG iterations than the uncorrected preconditioner.

One deliberate clipping consequence is pinned here too: with ``theta_i =
max(0, 1/mu_i - 1)`` the correction only carries modes *below* 1.  The
lumped/Dirichlet FETI preconditioners already bound the preconditioned
spectrum below by 1, so on top of them the correction is an exact no-op
(``effective_rank == 0``) — the knob pays off over weaker bases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.feti.block_cg import block_pcpg
from repro.feti.preconditioner import (
    IdentityPreconditioner,
    LowRankCorrection,
    LumpedPreconditioner,
)
from repro.feti.projector import CoarseProblem


def _dual_system(m: int, kdim: int, seed: int, spread: float = 100.0):
    """Dense SPD dual operator with a wide spectrum + random kernel G."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    vals = np.geomspace(1.0 / spread, spread, m)
    f = (q * vals) @ q.T
    g = rng.standard_normal((m, kdim)) if kdim else np.zeros((m, 0))
    return f, g, rng


def _panel_apply(f):
    return lambda p: f @ p


# ---------------------------------------------------------------------------
# rank 0: bitwise no-op
# ---------------------------------------------------------------------------


def test_rank_zero_is_bitwise_noop():
    f, g, rng = _dual_system(16, 2, seed=0)
    base = IdentityPreconditioner()
    lr = LowRankCorrection(base, _panel_apply(f), g, rank=0)
    assert lr.effective_rank == 0
    for shape in ((16,), (16, 3)):
        w = rng.standard_normal(shape)
        assert np.array_equal(lr.apply(w), base.apply(w))
        assert np.array_equal(lr.correction(w), np.zeros(shape))


def test_rank_validation():
    f, g, _ = _dual_system(8, 0, seed=1)
    with pytest.raises(ValueError, match="rank"):
        LowRankCorrection(IdentityPreconditioner(), _panel_apply(f), g, rank=-1)


# ---------------------------------------------------------------------------
# the correction term: symmetric PSD, apply = base + correction
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(8, 24),
    kdim=st.integers(0, 3),
    rank=st.integers(1, 6),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 4),
)
def test_property_correction_symmetric_psd_over_random_panels(m, kdim, rank, seed, k):
    f, g, rng = _dual_system(m, kdim, seed)
    lr = LowRankCorrection(IdentityPreconditioner(), _panel_apply(f), g, rank)
    assert 0 <= lr.effective_rank <= rank
    w = rng.standard_normal((m, k))
    c = lr.correction(w)
    # PSD: every column's quadratic form is non-negative
    quad = np.einsum("ij,ij->j", w, c)
    assert np.all(quad >= -1e-10 * np.abs(w).max() ** 2)
    # symmetry: <v, C w> == <C v, w> on random probes
    v = rng.standard_normal((m, k))
    lhs = np.einsum("ij,ij->j", v, c)
    rhs = np.einsum("ij,ij->j", lr.correction(v), w)
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-11 * scale)
    # composition: apply = base + correction, panel and vector shapes agree
    assert np.allclose(lr.apply(w), w + c, rtol=1e-12, atol=0.0)
    assert np.allclose(lr.apply(w[:, 0]), w[:, 0] + lr.correction(w[:, 0]))


@settings(max_examples=15, deadline=None)
@given(m=st.integers(10, 20), rank=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_property_corrected_modes_land_on_eigenvalue_one(m, rank, seed):
    """The r carried modes of the corrected preconditioned operator sit at
    eigenvalue exactly 1: (M^{-1} + U Th U^T) F (Q u_i) = Q u_i."""
    f, g, _ = _dual_system(m, 0, seed)
    lr = LowRankCorrection(IdentityPreconditioner(), _panel_apply(f), g, rank)
    if lr.effective_rank == 0:
        return
    modes = lr.u
    mapped = lr.apply(f @ modes)
    assert np.allclose(mapped, modes, rtol=1e-8, atol=1e-9)


# ---------------------------------------------------------------------------
# synthetic convergence: correcting the low modes can only help
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), rank=st.sampled_from((4, 8)))
def test_property_corrected_iterations_never_worse_synthetic(seed, rank):
    m = 40
    f, g, rng = _dual_system(m, 2, seed, spread=1000.0)
    d = rng.standard_normal((m, 1))
    e = rng.standard_normal((2, 1))
    base = IdentityPreconditioner()
    plain = block_pcpg(_panel_apply(f), d, g, e, apply_precond=base.apply)
    lr = LowRankCorrection(base, _panel_apply(f), g, rank)
    assert lr.effective_rank > 0  # wide spectrum: modes below 1 exist
    corrected = block_pcpg(_panel_apply(f), d, g, e, apply_precond=lr.apply)
    assert corrected.converged
    assert corrected.iterations <= plain.iterations


# ---------------------------------------------------------------------------
# end to end on the ill-conditioned strip-with-holes mesh
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def strip_solver_parts():
    from repro.dd import decompose
    from repro.fem import heat_problem
    from repro.feti.solver import FetiSolver
    from repro.part import make_mesh

    problem = heat_problem(make_mesh("strip", 16, seed=0), dirichlet=("boundary",))
    dec = decompose(problem, n_subdomains=8, partitioner="rcb", seed=0)
    solver = FetiSolver(dec, approach="impl_mkl", preconditioner="none")
    solver.preprocess()
    op = solver.operator
    d, e = solver._dual_panels([sub.f[:, None] for sub in dec.subdomains])
    return dec, op, d, e


def test_strip_corrected_iterations_never_worse(strip_solver_parts):
    dec, op, d, e = strip_solver_parts
    base = IdentityPreconditioner()
    plain = block_pcpg(op.apply, d, op.g, e, apply_precond=base.apply)
    assert plain.converged
    for rank in (4, 16, 32):
        lr = LowRankCorrection(base, op.apply, op.g, rank)
        assert lr.effective_rank > 0
        res = block_pcpg(op.apply, d, op.g, e, apply_precond=lr.apply)
        assert res.converged
        assert res.iterations <= plain.iterations


def test_strip_lumped_base_already_bounded_below_by_one(strip_solver_parts):
    """On top of the lumped preconditioner every mu >= 1, theta clips to
    zero and the correction degenerates to a bitwise forward."""
    dec, op, d, e = strip_solver_parts
    base = LumpedPreconditioner(dec)
    lr = LowRankCorrection(base, op.apply, op.g, rank=16)
    assert lr.effective_rank == 0
    rng = np.random.default_rng(0)
    w = rng.standard_normal((op.n_multipliers, 2))
    assert np.array_equal(lr.apply(w), base.apply(w))


def test_solve_block_lowrank_rank_reaches_solution(strip_solver_parts):
    """End-to-end solve_block with the rank knob: same primal panel as the
    uncorrected solve, stats record the rank."""
    from repro.feti.solver import FetiSolver

    dec, _, _, _ = strip_solver_parts
    plain = FetiSolver(dec, approach="impl_mkl", preconditioner="lumped").solve_block(
        n_rhs=2, block=True, grouped=True, lowrank_rank=0, seed=0
    )
    corrected = FetiSolver(
        dec, approach="impl_mkl", preconditioner="lumped"
    ).solve_block(n_rhs=2, block=True, grouped=True, lowrank_rank=8, seed=0)
    assert corrected.converged
    assert corrected.iterations <= plain.iterations + 1
    assert corrected.stats.lowrank_rank == 8
    assert "low-rank" in corrected.stats.summary()
    scale = max(1.0, float(np.abs(plain.u).max()))
    assert np.allclose(corrected.u, plain.u, rtol=1e-8, atol=1e-9 * scale)


def test_setup_cost_charged_once():
    from repro.gpu import A100_40GB, Executor

    f, g, _ = _dual_system(20, 2, seed=9)
    ex = Executor(A100_40GB)
    before = ex.ledger.total.launches
    lr = LowRankCorrection(
        IdentityPreconditioner(), _panel_apply(f), g, rank=4, executor=ex
    )
    assert lr.effective_rank > 0
    assert ex.ledger.total.launches == before + 6
    assert ex.ledger.total.flops > 0
