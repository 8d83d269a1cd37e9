"""The FETI solver: initialization, preprocessing, solution (§2.2).

Drives one of the Table-2 dual-operator approaches over all subdomains,
assembles the coarse problem, runs the projected CG of
:mod:`repro.feti.block_cg` and recovers the primal solution.
Simulated stage timings are aggregated so the benchmarks can reproduce the
paper's preprocessing (Fig. 9) and amortization (Fig. 10) studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dd.decomposition import Decomposition
from repro.feti.block_cg import BlockPcpgResult, block_pcpg
from repro.feti.dual_approaches import DualOperatorApproach, make_approach
from repro.feti.operator import DualOperator, build_dual_operator
from repro.feti.preconditioner import make_preconditioner
from repro.sparse.reuse import SymbolicReuse
from repro.util import require


@dataclass
class FetiTimings:
    """Simulated per-stage seconds, aggregated over subdomains.

    ``apply_per_subdomain`` entries are priced for a *single* RHS vector;
    ``n_rhs`` scales the per-iteration aggregate for block solves, where
    every iteration applies the dual operator to a whole panel.  (Before
    ``n_rhs`` existed the aggregate silently assumed one RHS — a latent
    bug for any multi-RHS amortization accounting.)
    """

    factorization: list[float] = field(default_factory=list)
    assembly: list[float] = field(default_factory=list)
    transfer: list[float] = field(default_factory=list)
    apply_per_subdomain: list[float] = field(default_factory=list)
    n_rhs: int = 1

    @property
    def preprocessing_total(self) -> float:
        return sum(self.factorization) + sum(self.assembly) + sum(self.transfer)

    @property
    def preprocessing_per_subdomain(self) -> float:
        n = max(len(self.factorization), 1)
        return self.preprocessing_total / n

    @property
    def apply_total_per_iteration(self) -> float:
        """Simulated seconds one iteration's operator application costs,
        over all subdomains and all RHS columns."""
        return sum(self.apply_per_subdomain) * self.n_rhs

    @property
    def apply_mean_per_subdomain(self) -> float:
        n = max(len(self.apply_per_subdomain), 1)
        return self.apply_total_per_iteration / n


@dataclass
class FetiSolution:
    """Primal solution plus dual-iteration info and simulated timings.

    ``info`` is the one-column panel solve of the dual problem.
    """

    u: np.ndarray
    u_locals: list[np.ndarray]
    info: BlockPcpgResult
    timings: FetiTimings

    @property
    def iterations(self) -> int:
        return self.info.iterations


@dataclass
class BlockFetiSolution:
    """Primal solution panel of one block (or column-sequential) solve.

    ``u`` stacks one global nodal field per RHS column; ``infos`` holds
    the single :class:`~repro.feti.block_cg.BlockPcpgResult` of a block
    solve or the k one-column results of a sequential one.  ``stats`` is
    the solve-phase counter report (:class:`repro.batch.stats.SolveStats`).
    """

    u: np.ndarray  #: (n_dofs, k)
    infos: list
    timings: FetiTimings
    stats: object

    @property
    def n_rhs(self) -> int:
        return self.u.shape[1]

    @property
    def iterations(self) -> int:
        """Iterations of the block solve, or the max over sequential solves."""
        return max(info.iterations for info in self.infos)

    @property
    def converged(self) -> bool:
        return all(info.converged for info in self.infos)


def make_load_panel(
    decomposition: Decomposition, n_rhs: int, seed: int = 0
) -> list[np.ndarray]:
    """Per-subdomain load-case panels for a population-scale solve.

    Column 0 is the problem's own load; further columns modulate it with
    smooth coordinate functions (deterministic given *seed*), the typical
    many-load-cases-one-structure regime of the amortization study.  Every
    column is elementwise proportional to the original load, so each stays
    a consistent RHS for the (possibly floating) decomposition.
    """
    require(n_rhs >= 1, "need at least one RHS column")
    rng = np.random.default_rng(seed)
    coeffs = [
        (rng.uniform(0.5, 1.5), rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0 * np.pi))
        for _ in range(n_rhs)
    ]
    panels = []
    for sub in decomposition.subdomains:
        p = np.empty((sub.n_dofs, n_rhs))
        p[:, 0] = sub.f
        x = sub.coords[:, 0]
        for j in range(1, n_rhs):
            a, freq, phase = coeffs[j]
            p[:, j] = sub.f * a * (1.0 + 0.5 * np.sin(freq * x + phase))
        panels.append(p)
    return panels


class FetiSolver:
    """Three-stage FETI solver over a :class:`Decomposition`.

    Parameters
    ----------
    decomposition:
        The torn problem (see :func:`repro.dd.decompose`).
    approach:
        Table-2 approach name (e.g. ``"expl_gpu_opt"``) or an instance.
    ordering / engine:
        Forwarded to the per-subdomain factorization.
    preconditioner:
        ``"lumped"`` (default), ``"dirichlet"`` or ``"none"``.
    tol / max_iter:
        Projected-CG controls.
    """

    def __init__(
        self,
        decomposition: Decomposition,
        approach: str | DualOperatorApproach = "expl_gpu_opt",
        ordering: str = "nd",
        engine: str = "superlu",
        preconditioner: str | None = "lumped",
        tol: float = 1e-10,
        max_iter: int = 1000,
        expected_iterations: int = 100,
    ) -> None:
        self.decomposition = decomposition
        if approach == "auto":
            approach = self._plan_auto(expected_iterations, ordering, engine)
        self.approach = (
            make_approach(approach) if isinstance(approach, str) else approach
        )
        self.ordering = ordering
        self.engine = engine
        self.preconditioner = make_preconditioner(preconditioner, decomposition)
        self.tol = tol
        self.max_iter = max_iter
        self.operator: DualOperator | None = None
        self.timings = FetiTimings()

    def _plan_auto(
        self, expected_iterations: int, ordering: str, engine: str
    ) -> str:
        """Pick the approach via the planner on a representative subdomain."""
        from repro.feti.operator import factorize_subdomain
        from repro.feti.planner import plan_approach

        # Largest subdomain is representative (costs scale with size).
        sub = max(self.decomposition.subdomains, key=lambda s: s.n_dofs)
        if sub.n_multipliers == 0:
            return "impl_mkl"  # no dual problem: factorization is all there is
        factor = factorize_subdomain(sub, ordering=ordering, engine=engine)
        plan = plan_approach(
            factor, sub.bt, sub.coords.shape[1], expected_iterations
        )
        return plan.chosen

    def preprocess(self) -> FetiTimings:
        """Numerical factorization (+ explicit SC assembly) per subdomain.

        Congruent subdomains share their fill-reducing ordering through one
        :class:`~repro.sparse.reuse.SymbolicReuse` scope per call.
        """
        local_ops = []
        t = FetiTimings()
        reuse = SymbolicReuse()
        for sub in self.decomposition.subdomains:
            res = self.approach.preprocess_subdomain(
                sub, ordering=self.ordering, engine=self.engine, reuse=reuse
            )
            local_ops.append(res.local_op)
            t.factorization.append(res.factorization_time)
            t.assembly.append(res.assembly_time)
            t.transfer.append(res.transfer_time)
            t.apply_per_subdomain.append(res.apply_time)
        self.operator = build_dual_operator(self.decomposition, local_ops)
        self.timings = t
        return t

    def solve(self) -> FetiSolution:
        """Solve the dual problem as a one-column panel and recover the
        primal solution.  An empty dual problem (one subdomain, no
        interfaces) converges at the feasible start: ``u_i = K_i^+ f_i``."""
        if self.operator is None:
            self.preprocess()
        op = self.operator
        require(op is not None, "preprocess() must run before solve()")
        info = block_pcpg(
            op.apply,
            op.d[:, None],
            op.g,
            op.e[:, None],
            apply_precond=self.preconditioner.apply,
            tol=self.tol,
            max_iter=self.max_iter,
        )
        u_locals = op.recover_solution(info.lam[:, 0], info.alpha[:, 0])
        u = self.decomposition.expand_solution(u_locals)
        return FetiSolution(u=u, u_locals=u_locals, info=info, timings=self.timings)

    def _dual_panels(self, load_panels: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Dual RHS ``D = B K^+ F`` and coarse RHS ``E = R^T F`` panels."""
        dec = self.decomposition
        op = self.operator
        k = load_panels[0].shape[1]
        kernel_dim = sum(s.kernel_dim for s in dec.subdomains)
        d = np.zeros((dec.n_multipliers, k))
        e = np.zeros((kernel_dim, k))
        a_off = 0
        for sub, lop, panel in zip(dec.subdomains, op.locals, load_panels):
            d[sub.multiplier_ids] += sub.bt.T @ lop.solve_kplus(panel)
            if sub.kernel_dim:
                e[a_off : a_off + sub.kernel_dim] = sub.r.T @ panel
                a_off += sub.kernel_dim
        return d, e

    def _recover_panel(
        self, load_panels: list[np.ndarray], lam: np.ndarray, alpha: np.ndarray
    ) -> np.ndarray:
        """Primal solution panel ``u_i = K^+ (f - B^T lam) + R alpha`` per column."""
        dec = self.decomposition
        op = self.operator
        k = lam.shape[1]
        columns = []
        for j in range(k):
            u_locals = []
            a_off = 0
            for sub, lop, panel in zip(dec.subdomains, op.locals, load_panels):
                u = lop.solve_kplus(panel[:, j] - sub.bt @ lam[sub.multiplier_ids, j])
                if sub.kernel_dim:
                    u = u + sub.r @ alpha[a_off : a_off + sub.kernel_dim, j]
                    a_off += sub.kernel_dim
                u_locals.append(u)
            columns.append(dec.expand_solution(u_locals))
        return np.stack(columns, axis=1)

    def solve_block(
        self,
        n_rhs: int = 4,
        block: bool = True,
        grouped: bool = True,
        signature: str = "exact",
        lowrank_rank: int = 0,
        seed: int = 0,
        load_panels: list[np.ndarray] | None = None,
    ) -> "BlockFetiSolution":
        """Population-scale solve: one decomposition, *n_rhs* load cases.

        With *block* (default) all columns run through one
        :func:`~repro.feti.block_cg.block_pcpg`; otherwise each column
        is its own one-column panel through the same solver (the
        comparator).  With *grouped* the per-iteration operator
        applications run batched through a
        :class:`~repro.feti.operator.GroupedDualOperator` — the
        GEMM chain over the assembled Schur complements when the approach
        is explicit, the TRSM chain over the factors (tier picked by
        *signature*) when it is implicit — on the preconditioner's
        executor, so the returned :class:`~repro.batch.stats.SolveStats`
        prices both.  The lumped and Dirichlet preconditioners always run
        the explicit ``F``'s GEMM chain over their stacked local blocks
        (:class:`~repro.feti.preconditioner.StackedPreconditioner`).
        *lowrank_rank* > 0 wraps the preconditioner in a
        :class:`~repro.feti.preconditioner.LowRankCorrection` of that rank.
        """
        from repro.batch.engine import BatchAssembler
        from repro.batch.stats import SolveStats
        from repro.feti.operator import GroupedDualOperator
        from repro.feti.preconditioner import LowRankCorrection

        if self.operator is None:
            self.preprocess()
        op = self.operator
        require(op is not None, "preprocess() must run before solve_block()")
        require(
            self.decomposition.n_multipliers > 0,
            "block solves need a non-degenerate decomposition",
        )
        if load_panels is None:
            load_panels = make_load_panel(self.decomposition, n_rhs, seed=seed)
        require(
            all(p.shape[1] == n_rhs for p in load_panels),
            "load panels must have n_rhs columns",
        )
        self.timings.n_rhs = n_rhs
        d_panel, e_panel = self._dual_panels(load_panels)

        precond = self.preconditioner
        # F charges the preconditioner's executor (a fresh one if it has
        # none), so the elapsed delta below covers both applications.
        gop = (
            GroupedDualOperator(
                op, executor=getattr(precond, "executor", None), signature=signature
            )
            if grouped
            else None
        )
        apply_panel = gop.apply_panel if gop is not None else op.apply
        if lowrank_rank > 0:
            precond = LowRankCorrection(
                precond,
                apply_panel,
                op.g,
                lowrank_rank,
                executor=gop.executor if gop is not None else None,
            )

        apply_elapsed0 = gop.executor.elapsed if gop is not None else 0.0
        panels = [slice(None)] if block else [slice(j, j + 1) for j in range(n_rhs)]
        infos = [
            block_pcpg(
                apply_panel,
                d_panel[:, cols],
                op.g,
                e_panel[:, cols],
                apply_precond=precond.apply,
                tol=self.tol,
                max_iter=self.max_iter,
            )
            for cols in panels
        ]
        lam = np.hstack([info.lam for info in infos])
        alpha = np.hstack([info.alpha for info in infos])
        iterations = sum(info.iterations for info in infos)
        n_deflated = (
            int(np.count_nonzero(infos[0].deflated_at >= 0)) if block else 0
        )

        n_subs = self.decomposition.n_subdomains
        launches_seq = (
            gop.sequential_launches_per_application
            if gop is not None
            else op.chain_launches * n_subs
        )
        launches_grouped = (
            gop.launches_per_application if gop is not None else launches_seq
        )
        apply_seconds = (
            gop.executor.elapsed - apply_elapsed0 if gop is not None
            else self.timings.apply_total_per_iteration * max(iterations, 1)
        )
        stats = SolveStats(
            n_rhs=n_rhs,
            n_subdomains=n_subs,
            n_groups=gop.n_groups if gop is not None else n_subs,
            iterations=iterations,
            n_deflated=n_deflated,
            launches_per_iteration=launches_grouped,
            launches_sequential_per_iteration=launches_seq,
            apply_seconds=apply_seconds,
            apply_seconds_per_iteration=apply_seconds / max(iterations, 1),
            lowrank_rank=lowrank_rank,
            application="explicit GEMM" if op.explicit else "implicit TRSM",
        )
        BatchAssembler.record_solve_stats(stats)
        u = self._recover_panel(load_panels, lam, alpha)
        return BlockFetiSolution(u=u, infos=infos, timings=self.timings, stats=stats)


def solve_feti(
    decomposition: Decomposition,
    approach: str = "expl_gpu_opt",
    **kwargs,
) -> FetiSolution:
    """One-call convenience wrapper: preprocess + solve."""
    solver = FetiSolver(decomposition, approach=approach, **kwargs)
    solver.preprocess()
    return solver.solve()


__all__ = [
    "FetiSolver",
    "FetiSolution",
    "BlockFetiSolution",
    "FetiTimings",
    "make_load_panel",
    "solve_feti",
]
