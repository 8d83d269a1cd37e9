"""Reference oracle: the classic single-RHS PCPG recurrence (Farhat–Roux).

The library solves every dual system with the projected block CG of
:func:`repro.feti.block_pcpg.block_pcpg`; this textbook scalar iteration
is kept beside the tests only, to check that a one-column panel of the
block method is the same solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.feti.projector import CoarseProblem


@dataclass
class ScalarResult:
    lam: np.ndarray
    alpha: np.ndarray
    iterations: int
    converged: bool
    residuals: list[float]


def scalar_pcpg(apply_f, d, g, e, apply_precond=None, tol=1e-10, max_iter=1000):
    """Projected preconditioned CG on ``F lam = d`` with ``G^T lam = e``."""
    precond = apply_precond if apply_precond is not None else (lambda w: w)
    coarse = CoarseProblem(g)
    lam = coarse.feasible_point(e)
    r = d - apply_f(lam)
    w = coarse.project(r)
    norm0 = float(np.linalg.norm(w))
    residuals = [norm0]
    converged = norm0 == 0.0
    it = 0
    if not converged:
        y = coarse.project(precond(w))
        p = y.copy()
        rho = float(y @ w)
        for it in range(1, max_iter + 1):
            fp = apply_f(p)
            pfp = float(p @ fp)
            if pfp <= 0.0:
                break
            gamma = rho / pfp
            lam = lam + gamma * p
            r = r - gamma * fp
            w = coarse.project(r)
            residuals.append(float(np.linalg.norm(w)))
            if residuals[-1] <= tol * norm0:
                converged = True
                break
            y = coarse.project(precond(w))
            rho_new = float(y @ w)
            p = y + (rho_new / rho) * p
            rho = rho_new
    alpha = coarse.alpha_from(apply_f(lam) - d)
    return ScalarResult(lam, alpha, it, converged, residuals)
