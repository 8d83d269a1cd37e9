"""Dual preconditioners for PCPG.

Three standard FETI options:

* identity — no preconditioning,
* **lumped** — ``M^{-1} = B K B^T``: cheap, no extra factorization,
* **Dirichlet** — ``M^{-1} = B [0, 0; 0, S] B^T`` with ``S`` the Schur
  complement of each subdomain's interior onto its interface.  ``S`` has
  exactly the ``K_bb - K_bi K_ii^{-1} K_ib`` form the paper's assembly
  machinery computes (``B`` replaced by the interior-to-interface coupling),
  demonstrating the paper's claim that the approach generalizes to any
  ``B K^{-1} B^T``-shaped Schur complement.

All preconditioners accept a dual vector ``(m,)`` or a multi-RHS panel
``(m, k)`` — the block PCPG applies them to whole residual panels.  Two
population-scale add-ons live here as well:

* :class:`StackedPreconditioner` — the lumped application replayed through
  the batched stacked kernels, one launch chain per pattern group instead
  of one per subdomain (the solve-side analogue of the assembly engine's
  grouped execution).
* :class:`LowRankCorrection` — a Li–Xi–Saad-style low-rank correction
  built from a truncated eigendecomposition of the preconditioned dual
  operator restricted to ``null(G^T)``; the ``rank`` knob trades setup
  cost (priced via the kernel cost model) against iteration count.

Preconditioning quality is orthogonal to the paper's evaluation (which
times the dual-operator assembly), but the Dirichlet variant exercises the
SC substrate on a second, different workload shape.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import scipy.linalg

from repro.dd.decomposition import Decomposition
from repro.util import require


def _check_dual(w: np.ndarray, m: int) -> None:
    require(
        w.shape[0] == m and w.ndim in (1, 2),
        "dual input must be (n_multipliers,) or (n_multipliers, k)",
    )


class IdentityPreconditioner:
    """No preconditioning: ``z = w``."""

    def apply(self, w: np.ndarray) -> np.ndarray:
        return w


class LumpedPreconditioner:
    """``M^{-1} w = sum_i B_i K_i B_i^T w_i`` — the classic lumped variant."""

    def __init__(self, decomposition: Decomposition) -> None:
        self.decomposition = decomposition

    def apply(self, w: np.ndarray) -> np.ndarray:
        dec = self.decomposition
        _check_dual(w, dec.n_multipliers)
        contribs = []
        for sub, w_local in zip(dec.subdomains, dec.scatter_dual(w)):
            contribs.append(sub.bt.T @ (sub.k @ (sub.bt @ w_local)))
        return dec.gather_dual(contribs)


class DirichletPreconditioner:
    """``M^{-1} w = sum_i B_i diag(0, S_i) B_i^T w_i`` with the interior
    Schur complement ``S_i = K_bb - K_bi K_ii^{-1} K_ib``.

    Assembled once per subdomain using the library's own sparse Cholesky +
    triangular solves (the interface DOFs are those touched by ``B_i``).
    More expensive to set up than the lumped variant, but a spectrally much
    better approximation of the inverse dual operator.
    """

    def __init__(
        self,
        decomposition: Decomposition,
        ordering: str = "nd",
        engine: str = "superlu",
    ) -> None:
        from repro.sparse import cholesky, solve_lower

        self.decomposition = decomposition
        self._schur: list[np.ndarray] = []
        self._boundary: list[np.ndarray] = []
        for sub in decomposition.subdomains:
            if sub.bt is None:
                raise ValueError("interface not built")
            boundary = np.unique(sub.bt.tocoo().row)
            interior = np.setdiff1d(np.arange(sub.n_dofs), boundary)
            k = sub.k.tocsr()
            k_bb = k[boundary][:, boundary].toarray()
            if interior.size and boundary.size:
                k_ii = k[interior][:, interior].tocsc()
                k_ib = k[interior][:, boundary]
                # Interior blocks of an SPSD subdomain matrix are SPD (the
                # kernel is supported on the whole subdomain), so plain
                # Cholesky applies — no regularization needed.
                factor = cholesky(
                    k_ii, ordering=ordering, coords=sub.coords[interior], engine=engine
                )
                y = solve_lower(factor.l, k_ib.tocsr()[factor.perm].toarray())
                s = k_bb - y.T @ y
            else:
                s = k_bb
            self._schur.append(s)
            self._boundary.append(boundary)

    def apply(self, w: np.ndarray) -> np.ndarray:
        dec = self.decomposition
        _check_dual(w, dec.n_multipliers)
        contribs = []
        for sub, s, boundary, w_local in zip(
            dec.subdomains, self._schur, self._boundary, dec.scatter_dual(w)
        ):
            v = sub.bt @ w_local
            t = np.zeros_like(v)
            if boundary.size:
                t[boundary] = s @ v[boundary]
            contribs.append(sub.bt.T @ t)
        return dec.gather_dual(contribs)


class StackedPreconditioner:
    """Lumped preconditioner through the batched stacked kernels.

    Groups subdomains whose ``K`` and ``B^T`` stored patterns are bit-equal
    and replays ``B K B^T`` per group as one five-launch chain — panel
    gather, SPMM with ``B^T``, SPMM with ``K``, transposed SPMM, additive
    panel scatter — instead of one chain per subdomain.  Numerically
    identical to :class:`LumpedPreconditioner` up to BLAS association
    order; members with unshared patterns simply form singleton groups.
    """

    def __init__(self, decomposition: Decomposition, executor=None) -> None:
        from repro.gpu.runtime import gpu_executor
        from repro.sparse.stacked import StackedCSC, plan_stacks
        from repro.sparse.symbolic import pattern_digest

        self.decomposition = decomposition
        self.executor = executor if executor is not None else gpu_executor()
        subs = decomposition.subdomains
        ks = [sub.k.tocsc() for sub in subs]
        bts = [sub.bt.tocsc() for sub in subs]
        stacks, _ = plan_stacks(
            [f"{pattern_digest(k)}|{pattern_digest(bt)}" for k, bt in zip(ks, bts)],
            ks,
            bts,
        )
        self.groups = [
            (
                StackedCSC.from_matrices([ks[i] for i in s.members]),
                StackedCSC.from_matrices([bts[i] for i in s.members]),
                np.stack([subs[i].multiplier_ids for i in s.members]),
            )
            for s in stacks
        ]

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def launches_per_application(self) -> int:
        """Kernel launches one stacked application costs (5 per group)."""
        return 5 * len(self.groups)

    def apply(self, w: np.ndarray) -> np.ndarray:
        dec = self.decomposition
        _check_dual(w, dec.n_multipliers)
        panel = w if w.ndim == 2 else w[:, None]
        k = panel.shape[1]
        ex = self.executor
        out = np.zeros_like(panel)
        for k_stack, bt_stack, ids_stack in self.groups:
            g = ids_stack.shape[0]
            n, m = bt_stack.shape
            gathered = ex.panel_gather(panel, ids_stack)
            t = np.zeros((g, n, k))
            ex.spmm(bt_stack, gathered, t, beta=0.0)
            kt = np.zeros((g, n, k))
            ex.spmm(k_stack, t, kt, beta=0.0)
            contrib = np.zeros((g, m, k))
            ex.spmm(bt_stack, kt, contrib, beta=0.0, trans_a=True)
            ex.panel_scatter_add(out, ids_stack, contrib)
        return out if w.ndim == 2 else out[:, 0]


#: Relative eigenvalue cutoff for the low-rank correction's small dense
#: pseudo-factorizations.
_LOWRANK_CUTOFF = 1e-12


class LowRankCorrection:
    """Li–Xi–Saad-style low-rank correction of a dual preconditioner.

    Let ``Q`` span ``null(G^T)`` (the subspace PCPG iterates in), ``A_h =
    Q^T F Q`` and ``B_h = Q^T M^{-1} Q``.  The eigenpairs ``B_h A_h u_i =
    mu_i u_i`` (computed through a pseudo-factor ``B_h = L_b L_b^T`` and a
    symmetric eigendecomposition of ``L_b^T A_h L_b``) are the spectrum of
    the preconditioned projected dual operator.  The correction

    .. math:: M_r^{-1} = M^{-1} + \\sum_{i=1}^{r} \\theta_i (Q u_i)(Q u_i)^T,
              \\quad \\theta_i = \\max(0, 1/mu_i - 1)

    maps the ``r`` lowest modes to eigenvalue exactly 1 while leaving the
    rest untouched — the deviation-correction that keeps CG iteration
    counts flat as the subdomain count grows.  ``theta_i >= 0`` keeps the
    added term symmetric PSD, so ``M_r^{-1}`` stays a valid preconditioner.

    ``rank=0`` stores nothing and forwards to *base* unchanged (bitwise
    no-op).  Setup cost (the panel application ``F Q``, the small dense
    Gram products and the eigendecompositions) is priced through the cost
    model when an executor is supplied.
    """

    def __init__(
        self,
        base,
        apply_f_panel: Callable[[np.ndarray], np.ndarray],
        g: np.ndarray,
        rank: int,
        executor=None,
    ) -> None:
        require(rank >= 0, "rank must be >= 0")
        self.base = base
        self.rank = rank
        self.u: np.ndarray | None = None
        self.theta: np.ndarray | None = None
        if rank == 0:
            return
        m = g.shape[0]
        q = scipy.linalg.null_space(g.T) if g.shape[1] else np.eye(m)
        if q.shape[1] == 0:
            return
        fq = apply_f_panel(q)
        ah = q.T @ fq
        mq = base.apply(q)
        bh = q.T @ mq
        # Pseudo-factor of the (possibly singular) PSD B_h.
        s, v = np.linalg.eigh(bh)
        keep = s > _LOWRANK_CUTOFF * max(float(s[-1]), 0.0)
        if not np.any(keep):
            return
        lb = v[:, keep] * np.sqrt(s[keep])
        c = lb.T @ ah @ lb
        mu, z = np.linalg.eigh(c)  # ascending: lowest modes first
        positive = mu > _LOWRANK_CUTOFF * max(float(mu[-1]), 0.0)
        mu, z = mu[positive], z[:, positive]
        theta = np.maximum(0.0, 1.0 / mu - 1.0)
        r = min(rank, int(np.count_nonzero(theta > 0.0)))
        if r == 0:
            return
        self.u = q @ (lb @ z[:, :r])  # (m, r): Q u_i columns
        self.theta = theta[:r]
        if executor is not None:
            executor.charge(self._setup_cost(m, q.shape[1]), kernel="lowrank_setup")

    @staticmethod
    def _setup_cost(m: int, q: int):
        """Dense setup FLOPs: two Gram products plus two eigensolves.

        (The ``F Q`` / ``M^{-1} Q`` panel applications charge themselves
        when routed through priced operators.)
        """
        from repro.gpu.costmodel import KernelCost, dense_bytes

        flops = 4.0 * m * q * q + 20.0 * q**3
        return KernelCost(
            flops=flops,
            bytes_moved=2.0 * dense_bytes((m, q)) + 4.0 * dense_bytes((q, q)),
            launches=6,
            char_dim=float(q),
        )

    @property
    def effective_rank(self) -> int:
        """Modes the correction actually carries (<= requested rank)."""
        return 0 if self.theta is None else int(self.theta.size)

    def correction(self, w: np.ndarray) -> np.ndarray:
        """The added term ``U diag(theta) U^T w`` alone (symmetric PSD)."""
        if self.u is None:
            return np.zeros_like(w)
        utw = self.u.T @ w
        scaled = self.theta[:, None] * utw if w.ndim == 2 else self.theta * utw
        return self.u @ scaled

    def apply(self, w: np.ndarray) -> np.ndarray:
        base = self.base.apply(w)
        if self.u is None:
            return base
        return base + self.correction(w)


def make_preconditioner(name: str | None, decomposition: Decomposition):
    """Factory: ``None``/``"none"``, ``"lumped"`` or ``"dirichlet"``."""
    if name is None or name == "none":
        return IdentityPreconditioner()
    if name == "lumped":
        return LumpedPreconditioner(decomposition)
    if name == "dirichlet":
        return DirichletPreconditioner(decomposition)
    raise ValueError(f"unknown preconditioner {name!r}")


__all__ = [
    "IdentityPreconditioner",
    "LumpedPreconditioner",
    "DirichletPreconditioner",
    "StackedPreconditioner",
    "LowRankCorrection",
    "make_preconditioner",
]
