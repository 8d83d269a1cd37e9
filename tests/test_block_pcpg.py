"""Property tests for the FETI dual solver, the projected block CG.

The solver is recurrence-heavy code, so the correctness argument is a set
of invariants rather than hand-picked examples:

* a one-column panel is classic PCPG: it matches the test-side scalar
  oracle (:mod:`tests.scalar_pcpg`) within one iteration, with the same
  multipliers to a stated budget,
* the block solution matches ``k`` independent sequential solves at
  tight tolerance — on synthetic dual systems and end-to-end through
  :meth:`FetiSolver.solve_block` across the mesh zoo, both graph
  partitioners and every preconditioner,
* the iteration count is stable: rounding-level perturbations of ``F``
  move it by at most two iterations,
* the coarse projector is idempotent and annihilates ``G^T`` on every
  panel the iteration touches, and
* deflated columns stay converged: a column's residual history is frozen
  at its converged norm once it leaves the active set, and the active
  history up to that point never ends above the tolerance it met.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.feti.block_cg import RANK_CUTOFF, BlockPcpgResult, block_pcpg, orth
from repro.feti.projector import CoarseProblem
from tests.scalar_pcpg import scalar_pcpg

RTOL, ATOL = 1e-9, 1e-10


# ---------------------------------------------------------------------------
# synthetic dual systems: dense SPD F, random kernel matrix G
# ---------------------------------------------------------------------------


def _dual_system(m: int, kdim: int, seed: int):
    """A dense SPD dual operator and a full-rank kernel matrix."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((m, m))
    f = q @ q.T + m * np.eye(m)
    g = rng.standard_normal((m, kdim)) if kdim else np.zeros((m, 0))
    return f, g, rng


def _solve_columns(f, d, g, e, **kwargs):
    """Column-by-column scalar PCPG — the sequential comparator."""
    results = [
        scalar_pcpg(lambda v: f @ v, d[:, j], g, e[:, j], **kwargs)
        for j in range(d.shape[1])
    ]
    lam = np.stack([r.lam for r in results], axis=1)
    return lam, results


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(6, 24),
    kdim=st.integers(0, 3),
    seed=st.integers(0, 10_000),
    precond=st.booleans(),
)
def test_property_block_k1_matches_scalar_iterate_for_iterate(m, kdim, seed, precond):
    """A one-column panel is the scalar recurrence up to rounding: within
    one iteration, and the multipliers within 1e-10 of their size."""
    f, g, rng = _dual_system(m, kdim, seed)
    d = rng.standard_normal((m, 1))
    e = rng.standard_normal((kdim, 1))
    mdiag = 1.0 + rng.random(m)
    pc = (lambda w: (w.T * mdiag).T) if precond else None

    scalar = scalar_pcpg(lambda v: f @ v, d[:, 0], g, e[:, 0], apply_precond=pc)
    block = block_pcpg(lambda x: f @ x, d, g, e, apply_precond=pc)

    assert block.converged and scalar.converged
    assert abs(block.iterations - scalar.iterations) <= 1
    assert len(block.residuals) == block.iterations + 1
    assert block.residuals[0][0] == pytest.approx(scalar.residuals[0], rel=1e-12)
    budget = 1e-10 * float(np.abs(scalar.lam).max())
    assert np.abs(block.lam[:, 0] - scalar.lam).max() <= budget
    assert np.allclose(block.alpha[:, 0], scalar.alpha, rtol=1e-8, atol=budget)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(8, 24),
    k=st.integers(2, 4),
    kdim=st.integers(0, 3),
    seed=st.integers(0, 10_000),
    precond=st.booleans(),
)
def test_property_block_matches_sequential_solves(m, k, kdim, seed, precond):
    f, g, rng = _dual_system(m, kdim, seed)
    d = rng.standard_normal((m, k))
    e = rng.standard_normal((kdim, k))
    mdiag = 1.0 + rng.random(m)
    pc = (lambda w: (w.T * mdiag).T) if precond else None

    block = block_pcpg(lambda x: f @ x, d, g, e, apply_precond=pc)
    lam_seq, results = _solve_columns(f, d, g, e, apply_precond=pc)

    assert block.converged and all(r.converged for r in results)
    scale = max(1.0, float(np.abs(lam_seq).max()))
    assert np.allclose(block.lam, lam_seq, rtol=RTOL, atol=ATOL * scale)
    # Block CG shares Krylov information across columns: never slower than
    # the worst sequential column by more than one iteration.
    assert block.iterations <= max(r.iterations for r in results) + 1


@settings(max_examples=20, deadline=None)
@given(m=st.integers(8, 20), kdim=st.integers(0, 3), seed=st.integers(0, 10_000))
def test_property_projector_invariants_on_every_iterate(m, kdim, seed):
    """P is idempotent and ``G^T (P w) ~= 0`` for every panel the iteration
    hands to the preconditioner (always a projected residual panel)."""
    f, g, rng = _dual_system(m, kdim, seed)
    d = rng.standard_normal((m, 3))
    e = rng.standard_normal((kdim, 3))
    coarse = CoarseProblem(g)
    seen = {"panels": 0}

    def checking_precond(w):
        seen["panels"] += 1
        scale = max(1.0, float(np.abs(w).max()))
        assert np.allclose(coarse.project(w), w, rtol=1e-10, atol=1e-12 * scale)
        if kdim:
            assert np.abs(g.T @ w).max() <= 1e-10 * scale * np.abs(g).max()
        return w

    res = block_pcpg(lambda x: f @ x, d, g, e, apply_precond=checking_precond)
    assert res.converged and seen["panels"] >= 1


@settings(max_examples=15, deadline=None)
@given(m=st.integers(8, 20), kdim=st.integers(0, 2), seed=st.integers(0, 10_000))
def test_property_dependent_columns_deflate_and_match(m, kdim, seed):
    """Linearly dependent RHS columns (duplicates up to scale) would make
    the small block systems singular; ``orth`` drops the dependent search
    direction and the solve still converges to the per-column answers."""
    f, g, rng = _dual_system(m, kdim, seed)
    d = rng.standard_normal((m, 3))
    d[:, 1] = 2.0 * d[:, 0]  # dependent from iteration one
    e = rng.standard_normal((kdim, 3))
    e[:, 1] = 2.0 * e[:, 0]

    block = block_pcpg(lambda x: f @ x, d, g, e)
    lam_seq, results = _solve_columns(f, d, g, e)
    assert block.converged
    scale = max(1.0, float(np.abs(lam_seq).max()))
    assert np.allclose(block.lam, lam_seq, rtol=RTOL, atol=ATOL * scale)


def test_staged_deflation_freezes_converged_columns():
    """An easy column (RHS spanned by two eigenvectors) deflates many
    iterations before a generic column; its residual history is frozen at
    the converged value from that point on."""
    rng = np.random.default_rng(7)
    m = 40
    q = rng.standard_normal((m, m))
    f = q @ q.T + m * np.eye(m)
    vals, vecs = np.linalg.eigh(f)
    g = np.zeros((m, 0))
    easy = f @ (vecs[:, 0] + vecs[:, -1])  # Krylov degree 2
    hard = rng.standard_normal(m)
    d = np.stack([easy, hard], axis=1)
    e = np.zeros((0, 2))

    res = block_pcpg(lambda x: f @ x, d, g, e)
    assert res.converged
    assert res.deflated_at[0] >= 0 and res.deflated_at[1] >= 0
    assert res.deflated_at[0] < res.deflated_at[1]
    hist = np.array(res.residuals)
    j, at = 0, int(res.deflated_at[0])
    # frozen after deflation: the recorded norm never changes again
    assert np.all(hist[at:, j] == hist[at, j])
    # and it is genuinely converged relative to its own start
    assert hist[at, j] <= 1e-10 * hist[0, j]
    # column_residuals exposes the same frozen history
    assert res.column_residuals(j) == [float(v) for v in hist[:, j]]


def test_zero_residual_panel_converges_at_start():
    f, g, _ = _dual_system(10, 0, seed=3)
    d = np.zeros((10, 2))
    e = np.zeros((0, 2))
    res = block_pcpg(lambda x: f @ x, d, g, e)
    assert res.iterations == 0 and res.converged
    assert np.array_equal(res.deflated_at, np.zeros(2, dtype=int))
    assert np.all(res.lam == 0.0)


def test_block_pcpg_input_validation():
    f, g, rng = _dual_system(8, 2, seed=1)
    d = rng.standard_normal((8, 2))
    e = rng.standard_normal((2, 2))
    with pytest.raises(ValueError, match="panel"):
        block_pcpg(lambda x: f @ x, d[:, 0], g, e)
    with pytest.raises(ValueError, match="E must be a panel"):
        block_pcpg(lambda x: f @ x, d, g, e[:, :1])
    with pytest.raises(ValueError, match="tol"):
        block_pcpg(lambda x: f @ x, d, g, e, tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        block_pcpg(lambda x: f @ x, d, g, e, max_iter=0)


def test_max_iter_cap_reports_not_converged():
    f, g, rng = _dual_system(16, 0, seed=5)
    d = rng.standard_normal((16, 2))
    res = block_pcpg(lambda x: f @ x, d, g, np.zeros((0, 2)), max_iter=2)
    assert not res.converged and res.iterations == 2
    assert np.all(res.deflated_at == -1)


def test_result_helpers():
    res = BlockPcpgResult(
        lam=np.zeros((4, 2)),
        alpha=np.zeros((0, 2)),
        iterations=0,
        converged=True,
        residuals=[np.array([1.0, 2.0]), np.array([0.5, 1.0])],
        deflated_at=np.array([1, 1]),
    )
    assert res.n_rhs == 2
    assert res.column_residuals(1) == [2.0, 1.0]
    assert np.array_equal(res.final_residuals, np.array([0.5, 1.0]))


# ---------------------------------------------------------------------------
# robustness: rounding, breakdown, rank deficiency
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(20, 80),
    k=st.integers(2, 8),
    kdim=st.integers(0, 3),
    seed=st.integers(0, 10_000),
)
def test_property_rounding_perturbation_moves_iterations_by_at_most_two(
    m, k, kdim, seed
):
    """Scaling ``F`` symmetrically by ``1 + 1e-15 N(0, 1)`` changes nothing
    but rounding; the iteration count may move by two at most.  (The
    Cholesky-on-``ρ`` recurrence this solver replaced moved by up to 989
    iterations over 100 draws of this kind.)"""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((m, m))
    f = q @ q.T + 1e-2 * np.eye(m)
    g = rng.standard_normal((m, kdim))
    d = rng.standard_normal((m, k))
    e = rng.standard_normal((kdim, k))
    s = 1.0 + 1e-15 * rng.standard_normal(m)
    f_perturbed = (f * s).T * s

    base = block_pcpg(lambda x: f @ x, d, g, e)
    perturbed = block_pcpg(lambda x: f_perturbed @ x, d, g, e)
    assert base.converged and perturbed.converged
    assert abs(base.iterations - perturbed.iterations) <= 2


def test_orth_keeps_the_independent_directions():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((12, 3))
    q = orth(np.column_stack([x, x @ [1.0, -2.0, 0.5], 3.0 * x[:, 1]]))
    assert q.shape == (12, 3)
    assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)
    # same span as the independent columns
    assert np.allclose(q @ (q.T @ x), x, atol=1e-12)
    # dependence below the cutoff drops a direction; smallness does not
    near = np.column_stack([x[:, 0], x[:, 0] + 0.1 * RANK_CUTOFF * x[:, 1]])
    assert orth(near).shape == (12, 1)
    tiny = np.column_stack([x[:, 0], 1e-20 * x[:, 1]])
    assert orth(tiny).shape == (12, 2)
    assert orth(np.zeros((5, 2))).shape == (5, 0)


def test_indefinite_operator_stops_without_exception():
    """An indefinite ``PᵀFP`` stops the solve at the current iterate with
    ``converged=False`` — no exception, no divergence."""
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    f = (q * np.linspace(-1.0, 1.0, 10)) @ q.T
    d = q[:, :2] + q[:, -2:]
    res = block_pcpg(lambda x: f @ x, d, np.zeros((10, 0)), np.zeros((0, 2)))
    assert not res.converged
    assert res.iterations >= 1
    assert np.all(np.isfinite(res.lam))
    assert np.all(res.deflated_at == -1)


@pytest.mark.parametrize("where", ["d", "e"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rhs_raises(where, bad):
    f, g, rng = _dual_system(8, 2, seed=2)
    d = rng.standard_normal((8, 2))
    e = rng.standard_normal((2, 2))
    (d if where == "d" else e)[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        block_pcpg(lambda x: f @ x, d, g, e)


@pytest.mark.parametrize("seed", [22, 32, 39, 53])
def test_columns_of_very_different_size_converge(seed):
    """Columns scaled 1, 1e-6 and 1e-12 (each with its own relative
    tolerance) on a spectrum spanning 1e-2..1e2: the rank test of ``orth``
    sees unit-normed columns, so the small columns keep their search
    directions (without that, or without re-projecting the orthonormal
    panel, these draws stall at 1000 iterations)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    f = (q * np.geomspace(1e-2, 1e2, 60)) @ q.T
    g = rng.standard_normal((60, 2))
    scale = np.array([1.0, 1e-6, 1e-12])
    d = rng.standard_normal((60, 3)) * scale
    e = rng.standard_normal((2, 3)) * scale
    res = block_pcpg(lambda x: f @ x, d, g, e)
    assert res.converged and res.iterations <= 100


def test_more_rhs_than_multipliers_converges():
    """``k > m``: the residual panel is rank deficient from the start and
    ``orth`` keeps at most ``m`` directions."""
    f, g, rng = _dual_system(6, 1, seed=9)
    d = rng.standard_normal((6, 10))
    e = rng.standard_normal((1, 10))
    res = block_pcpg(lambda x: f @ x, d, g, e)
    assert res.converged
    lam_seq, _ = _solve_columns(f, d, g, e)
    assert np.allclose(res.lam, lam_seq, rtol=RTOL, atol=ATOL * np.abs(lam_seq).max())


def test_empty_dual_space_converges_at_the_feasible_start():
    """No multipliers: the solve returns at once with an empty panel (the
    single-subdomain FETI problem takes this path)."""
    calls = []
    res = block_pcpg(
        lambda x: calls.append(x.shape) or x, np.zeros((0, 1)),
        np.zeros((0, 0)), np.zeros((0, 1)),
    )
    assert res.converged and res.iterations == 0
    assert res.lam.shape == (0, 1) and res.alpha.shape == (0, 1)
    assert np.array_equal(res.deflated_at, [0])


# ---------------------------------------------------------------------------
# end to end: mesh zoo x partitioner x preconditioner
# ---------------------------------------------------------------------------


_WORKLOADS = {}


def _workload(mesh: str, partitioner: str):
    """One decomposed well-posed workload per (mesh, partitioner)."""
    key = (mesh, partitioner)
    if key not in _WORKLOADS:
        from repro.dd import decompose
        from repro.fem import heat_problem, heat_transfer_2d
        from repro.part import make_mesh

        if mesh == "square":
            problem = heat_transfer_2d(12, dirichlet=("left",))
            _WORKLOADS[key] = decompose(problem, grid=(3, 3))
        else:
            problem = heat_problem(make_mesh(mesh, 12, seed=0), dirichlet=("boundary",))
            _WORKLOADS[key] = decompose(
                problem, n_subdomains=6, partitioner=partitioner, seed=0
            )
    return _WORKLOADS[key]


@settings(max_examples=8, deadline=None)
@given(
    mesh=st.sampled_from(("square", "jittered", "lshape", "strip")),
    partitioner=st.sampled_from(("rcb", "spectral")),
    preconditioner=st.sampled_from(("none", "lumped", "dirichlet")),
    n_rhs=st.sampled_from((2, 3)),
)
def test_property_solve_block_matches_sequential_end_to_end(
    mesh, partitioner, preconditioner, n_rhs
):
    """Block and sequential panel solves agree on multipliers and primal
    solutions across the mesh zoo, both partitioners and every
    preconditioner."""
    from repro.feti.solver import FetiSolver

    dec = _workload(mesh, partitioner)
    block = FetiSolver(
        dec, approach="impl_mkl", preconditioner=preconditioner
    ).solve_block(n_rhs=n_rhs, block=True, grouped=True, seed=0)
    seq = FetiSolver(
        dec, approach="impl_mkl", preconditioner=preconditioner
    ).solve_block(n_rhs=n_rhs, block=False, grouped=False, seed=0)

    assert block.converged and seq.converged
    scale = max(1.0, float(np.abs(seq.u).max()))
    assert np.allclose(block.u, seq.u, rtol=RTOL, atol=ATOL * scale)
    lam_seq = np.hstack([r.lam for r in seq.infos])
    lscale = max(1.0, float(np.abs(lam_seq).max()))
    assert np.allclose(block.infos[0].lam, lam_seq, rtol=RTOL, atol=ATOL * lscale)
    # shared Krylov information: block never meaningfully slower than the
    # worst sequential column
    assert block.iterations <= max(r.iterations for r in seq.infos) + 1


def test_solve_block_k1_matches_scalar_solver_path():
    """A one-column panel through the block path reproduces the classic
    single-RHS solve (the panel's column 0 is the problem's own load)."""
    from repro.feti.solver import FetiSolver

    dec = _workload("square", "rcb")
    scalar = FetiSolver(dec, approach="impl_mkl", preconditioner="lumped").solve()
    block = FetiSolver(
        dec, approach="impl_mkl", preconditioner="lumped"
    ).solve_block(n_rhs=1, block=True, grouped=False, seed=0)
    assert block.converged
    assert block.iterations == scalar.info.iterations
    scale = max(1.0, float(np.abs(scalar.u).max()))
    assert np.allclose(block.u[:, 0], scalar.u, rtol=RTOL, atol=ATOL * scale)


def test_solve_block_records_stats_and_timings():
    from repro.feti.solver import FetiSolver

    dec = _workload("square", "rcb")
    solver = FetiSolver(dec, approach="impl_mkl", preconditioner="lumped")
    sol = solver.solve_block(n_rhs=3, block=True, grouped=True, seed=0)
    st_ = sol.stats
    assert st_.n_rhs == 3 and sol.n_rhs == 3
    assert st_.n_subdomains == dec.n_subdomains
    assert 1 <= st_.n_groups <= st_.n_subdomains
    assert st_.launches_per_iteration == 6 * st_.n_groups
    assert st_.launches_sequential_per_iteration == 6 * st_.n_subdomains
    assert st_.launch_reduction >= 1.0
    assert st_.iterations == sol.iterations
    assert solver.timings.n_rhs == 3
    assert "RHS column(s)" in st_.summary()


def test_solve_block_explicit_multiplies_by_the_assembled_schur_complements():
    """With an explicit approach the grouped block solve runs the 3-launch
    GEMM chain over order classes, says so in its stats, and still equals
    the scalar solves and the direct solution."""
    from repro.dd import decompose
    from repro.fem import heat_transfer_2d
    from repro.feti.solver import FetiSolver

    problem = heat_transfer_2d(24, dirichlet=("left", "right"))
    dec = decompose(problem, grid=(4, 4))
    solver = FetiSolver(dec, approach="expl_gpu_opt")
    seq = solver.solve_block(n_rhs=4, block=False, grouped=False, seed=2)
    scalar = solver.solve()
    block = solver.solve_block(n_rhs=4, block=True, grouped=True, seed=2)
    assert block.converged and seq.converged

    scale = float(np.abs(seq.u).max())
    assert np.abs(block.u - seq.u).max() <= 1e-10 * scale
    assert np.abs(block.u[:, 0] - scalar.u).max() <= 1e-10 * scale
    reference = problem.solve_direct()
    assert np.linalg.norm(block.u[:, 0] - reference) <= 1e-8 * np.linalg.norm(reference)

    orders = {sub.n_multipliers for sub in dec.subdomains}
    for st_, n_groups in ((block.stats, len(orders)), (seq.stats, dec.n_subdomains)):
        assert st_.application == "explicit GEMM"
        assert st_.n_groups == n_groups
        assert st_.launches_per_iteration == 3 * n_groups
        assert st_.launches_sequential_per_iteration == 3 * dec.n_subdomains
    assert f"{3 * len(orders)} grouped (explicit GEMM) vs" in block.stats.summary()

    implicit = FetiSolver(dec, approach="impl_mkl").solve_block(n_rhs=2, seed=2)
    assert implicit.stats.application == "implicit TRSM"
    assert implicit.stats.launches_per_iteration == 6 * implicit.stats.n_groups
    assert implicit.stats.launches_sequential_per_iteration == 6 * dec.n_subdomains
    assert "(implicit TRSM)" in implicit.stats.summary()


def test_block_pcpg_records_convergence_metrics():
    """Tracing a block solve yields per-iteration convergence metrics:
    iteration/deflation counters and the residual-decay histogram."""
    from repro.obs import tracing

    f, g, rng = _dual_system(12, 2, seed=3)
    d = rng.standard_normal((12, 3))
    e = rng.standard_normal((2, 3))
    with tracing() as tracer:
        result = block_pcpg(lambda x: f @ x, d, g, e, tol=1e-10)
    assert result.converged
    m = tracer.metrics
    assert m.counter("pcpg.iterations") == result.iterations
    # every column eventually converged and left the active set
    assert m.counter("pcpg.deflations") == d.shape[1]
    decay = m.histogram("pcpg.residual_decay")
    assert decay is not None and decay.n >= 1
    assert decay.vmin is not None and decay.vmin > 0.0
    # an SPD system with exact arithmetic contracts; allow slack for the
    # odd stalled iteration but the median decay must be real progress
    assert decay.percentile(50) < 1.0


def test_solver_module_imports_as_a_module(monkeypatch):
    """The package re-exports the solver function ``repro.feti.block_pcpg``;
    its module is ``repro.feti.block_cg`` and is not shadowed by it, so
    ``import ... as m`` yields the module and patching ``m.orth`` reaches
    the solver."""
    import types

    import repro.feti
    import repro.feti.block_cg as module

    assert isinstance(module, types.ModuleType)
    assert repro.feti.block_pcpg is module.block_pcpg is block_pcpg
    calls = []
    real_orth = module.orth
    monkeypatch.setattr(module, "orth", lambda x: calls.append(x.shape) or real_orth(x))
    f, g, rng = _dual_system(10, 1, seed=5)
    res = repro.feti.block_pcpg(
        lambda x: f @ x, rng.standard_normal((10, 2)), g, rng.standard_normal((1, 2))
    )
    assert res.converged and calls


def test_block_solve_iterations_survive_preconditioner_rounding():
    """The benchmark's block solve (6x6, 72 cells, 4 RHS) converges in at
    most 33 iterations on seeds 0-10, and the lumped preconditioner applied
    in another summation order (the per-subdomain sparse loop instead of
    the stacked dense blocks, equal up to rounding) keeps seed 1 there (the
    replaced recurrence went 35 -> 177)."""
    from repro.dd import decompose
    from repro.fem import heat_transfer_2d
    from repro.feti.solver import FetiSolver
    from tests.loop_preconditioners import LoopLumped

    dec = decompose(heat_transfer_2d(72, dirichlet=("left", "right")), grid=(6, 6))
    solver = FetiSolver(dec, approach="expl_gpu_opt")
    solver.preprocess()
    for seed in range(11):
        sol = solver.solve_block(n_rhs=4, block=True, seed=seed)
        assert sol.converged and sol.iterations <= 33, (seed, sol.iterations)
    solver.preconditioner = LoopLumped(dec)
    sol = solver.solve_block(n_rhs=4, block=True, seed=1)
    assert sol.converged and sol.iterations <= 35


@pytest.mark.parametrize("mesh", ["square", "jittered", "lshape", "strip"])
def test_wide_unpreconditioned_panel_converges_across_the_zoo(mesh):
    """16 nearly dependent load cases with no preconditioner — the panel
    whose orthonormalised directions carry the most amplified rounding —
    converge within two iterations of the slowest scalar-oracle column."""
    from repro.dd import decompose
    from repro.fem import heat_problem
    from repro.feti.solver import FetiSolver, make_load_panel
    from repro.part import make_mesh

    dirichlet = ("left",) if mesh == "square" else ("boundary",)
    problem = heat_problem(make_mesh(mesh, 12, seed=0), dirichlet=dirichlet)
    dec = decompose(problem, n_subdomains=6, partitioner="rcb", seed=0)
    solver = FetiSolver(dec, approach="impl_mkl", preconditioner="none")
    sol = solver.solve_block(n_rhs=16, block=True, grouped=True, seed=0)
    d, e = solver._dual_panels(make_load_panel(dec, 16, seed=0))
    op = solver.operator
    scalar = max(
        scalar_pcpg(op.apply, d[:, j], op.g, e[:, j]).iterations for j in range(16)
    )
    assert sol.converged
    assert sol.iterations <= scalar + 2
