"""Projected conjugate gradients for the FETI dual system (7), one panel
of load cases at a time.

Solves ``F Λ = D`` subject to ``Gᵀ Λ = E`` with Ji & Li's breakdown-free
block CG (BIT Numer. Math. 57, 2017), iterating in ``null(Gᵀ)`` through
the FETI projector ``Π`` from a feasible start::

    Z = Π M⁻¹ W                        W = Π R, the projected residual
    P = Π orth(Z)                      (first iteration)
    α = (PᵀFP)⁻¹ PᵀW                   Λ += Pα,  R -= FPα
    β = −(PᵀFP)⁻¹ (FP)ᵀ Z
    P = Π orth(Z + Pβ)

``orth`` is a column-pivoted QR of the unit-normed columns that keeps the
orthonormal directions whose ``|r_jj|`` exceeds ``RANK_CUTOFF · |r_11|``:
residual columns that become linearly dependent shrink the search panel
instead of making ``PᵀFP`` singular, so the small system is always
solved by Cholesky.  A nearly dependent direction carries its rounding
error amplified by ``|r_11| / |r_jj|``; projecting the orthonormal panel
once more keeps it in ``null(Gᵀ)`` to rounding.

Each RHS column stops on its own test and leaves the active set; the
panel keeps searching for the rest.  A one-column panel is classic PCPG
(Farhat–Roux), so this is the solver for single and multiple RHS alike.

The per-iteration heavy work is one *panel* application of the dual
operator and the preconditioner — the shape the grouped execution path
(:class:`repro.feti.operator.GroupedDualOperator`) runs as one kernel
chain per fingerprint group.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from repro.feti.projector import CoarseProblem
from repro.obs import get_tracer
from repro.util import require

#: ``orth`` drops directions with ``|r_jj| <= RANK_CUTOFF * |r_11|``.
RANK_CUTOFF = 1e-10

#: Histogram boundaries for the per-iteration residual decay ratio
#: (``max residual after / max residual before``; < 1 is progress,
#: >= 1 a stalled or diverging iteration).
DECAY_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


@dataclass
class BlockPcpgResult:
    """Converged multiplier panel, kernel amplitudes and per-column history."""

    lam: np.ndarray  #: (n_multipliers, k) multiplier panel Λ
    alpha: np.ndarray  #: (kernel_dim, k) kernel amplitudes
    iterations: int
    converged: bool  #: every column converged
    #: One ``(k,)`` array per recorded iterate: each column's projected
    #: residual norm (deflated columns carry their frozen converged norm).
    residuals: list[np.ndarray] = field(default_factory=list)
    #: Iteration at which each column converged and left the active set
    #: (0 = converged at the feasible start); -1 = never converged.
    deflated_at: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    @property
    def n_rhs(self) -> int:
        return self.lam.shape[1]

    def column_residuals(self, j: int) -> list[float]:
        """Residual history of RHS column *j* (frozen once deflated)."""
        return [float(r[j]) for r in self.residuals]

    @property
    def final_residuals(self) -> np.ndarray:
        return self.residuals[-1] if self.residuals else np.zeros(0)


def orth(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerically independent columns of *x*.

    Columns are scaled to unit norm first, so the rank test measures
    linear dependence rather than size: a column near its tolerance keeps
    its direction beside one that has barely started.
    """
    norms = np.linalg.norm(x, axis=0)
    x = x[:, norms > 0.0] / norms[norms > 0.0]
    if x.shape[1] == 0:
        return x
    q, r, _ = scipy.linalg.qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    return q[:, : int(np.count_nonzero(diag > RANK_CUTOFF * diag[0]))]


def block_pcpg(
    apply_f: Callable[[np.ndarray], np.ndarray],
    d: np.ndarray,
    g: np.ndarray,
    e: np.ndarray,
    apply_precond: Callable[[np.ndarray], np.ndarray] | None = None,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> BlockPcpgResult:
    """Solve ``F Λ = D`` for a panel of load cases with projected block CG.

    Parameters
    ----------
    apply_f:
        Panel-capable dual operator ``Λ -> F Λ`` taking ``(m, p)`` arrays.
    d:
        Dual RHS panel ``(n_multipliers, k)``; a single solve is ``k = 1``.
    g, e:
        Kernel matrix ``G = B R`` and coarse RHS panel ``(kernel_dim, k)``.
    apply_precond:
        Optional panel-capable dual preconditioner ``W -> M^{-1} W``.
    tol:
        Per-column relative tolerance on the projected residual.
    max_iter:
        Iteration cap; exceeding it returns ``converged=False``.  So does
        a search panel on which ``F`` is not positive definite, or one
        that ``orth`` empties: the solve stops at the current iterate.
    """
    require(d.ndim == 2, "D must be a panel (n_multipliers, k)")
    m, k = d.shape
    require(k >= 1, "need at least one RHS column")
    require(g.ndim == 2 and g.shape[0] == m, "G must be (n_multipliers, kdim)")
    require(
        e.shape == (g.shape[1], k), "E must be a panel (kernel_dim, k) matching D"
    )
    require(
        bool(np.all(np.isfinite(d)) and np.all(np.isfinite(e))),
        "D and E must be finite",
    )
    require(tol > 0, "tol must be positive")
    require(max_iter >= 1, "max_iter must be >= 1")
    precond = apply_precond if apply_precond is not None else (lambda w: w)

    tracer = get_tracer()
    with tracer.span(
        "pcpg.block_solve", m=m, k=k, kdim=int(g.shape[1]), tol=tol
    ) as solve_span:
        coarse = CoarseProblem(g)
        lam = coarse.feasible_point(e)  # (m, k)
        r = d - apply_f(lam)
        w = coarse.project(r)

        norm0 = np.linalg.norm(w, axis=0)  # (k,)
        current = norm0.copy()
        residuals = [current.copy()]
        deflated_at = np.where(norm0 > 0.0, -1, 0)
        active = np.flatnonzero(norm0 > 0.0)

        it = 0
        if active.size:  # otherwise every column starts converged
            wa = w[:, active]
            z = coarse.project(precond(wa))
            p = coarse.project(orth(z))
        for it in range(1, max_iter + 1) if active.size else ():
            with tracer.span(
                "pcpg.block_iteration",
                iteration=it, active=int(active.size), rank=int(p.shape[1]),
            ) as iter_span:
                if p.shape[1] == 0:
                    break  # no search direction left: stalled
                fp = apply_f(p)  # (m, rank)
                try:
                    chol = scipy.linalg.cho_factor(p.T @ fp)
                except scipy.linalg.LinAlgError:
                    # F is not positive definite on the search panel: stop
                    # at the current iterate rather than diverge.
                    break
                step = scipy.linalg.cho_solve(chol, p.T @ wa)
                lam[:, active] += p @ step
                r[:, active] -= fp @ step
                wa = coarse.project(r[:, active])
                norms = np.linalg.norm(wa, axis=0)
                prev_max = float(current[active].max())
                current[active] = norms
                residuals.append(current.copy())
                iter_span.set(residual=float(norms.max()))
                if tracer.enabled:
                    tracer.metrics.count("pcpg.iterations")
                    tracer.metrics.observe(
                        "pcpg.residual_decay",
                        float(norms.max()) / prev_max,
                        boundaries=DECAY_BUCKETS,
                    )

                done = norms <= tol * norm0[active]
                if np.any(done):
                    deflated_at[active[done]] = it
                    if tracer.enabled:
                        tracer.metrics.count("pcpg.deflations", int(done.sum()))
                        iter_span.set(deflated=int(done.sum()))
                    active, wa = active[~done], wa[:, ~done]
                    if active.size == 0:
                        break

                z = coarse.project(precond(wa))
                beta = -scipy.linalg.cho_solve(chol, fp.T @ z)
                p = coarse.project(orth(z + p @ beta))

        converged = bool(active.size == 0)
        alpha = coarse.alpha_from(apply_f(lam) - d)
        solve_span.set(iterations=it, converged=converged)
    return BlockPcpgResult(
        lam=lam, alpha=alpha, iterations=it, converged=converged,
        residuals=residuals, deflated_at=deflated_at,
    )


__all__ = ["block_pcpg", "orth", "BlockPcpgResult", "DECAY_BUCKETS", "RANK_CUTOFF"]
