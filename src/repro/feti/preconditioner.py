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

Lumped and Dirichlet are both a sum over subdomains of one dense
``m_i x m_i`` block placed at the subdomain's multiplier ids — ``B_i^T
K_i B_i`` and ``B_{i,b}^T S_i B_{i,b}`` — the same shape as the explicit
``F̃_i``.  :class:`StackedPreconditioner` is that operator: the blocks are
built once, stacked by order ``m`` and applied by the explicit ``F``'s own
chain (:func:`repro.feti.operator.apply_local_stacks`: gather → batched
GEMM → scatter, 3 launches per order class); the two subclasses only
build blocks.  Every preconditioner accepts a dual vector ``(m,)`` or a
multi-RHS panel ``(m, k)`` — the block PCPG applies them to whole
residual panels.

Preconditioning quality is orthogonal to the paper's evaluation (which
times the dual-operator assembly), but the Dirichlet variant exercises the
SC substrate on a second, different workload shape.
"""

from __future__ import annotations

import numpy as np

from repro.dd.decomposition import Decomposition
from repro.dd.subdomain import Subdomain
from repro.feti.operator import apply_local_stacks, stack_by_order
from repro.util import require


class IdentityPreconditioner:
    """No preconditioning: ``z = w``."""

    def apply(self, w: np.ndarray) -> np.ndarray:
        return w


class StackedPreconditioner:
    """``M^{-1} w = sum_i P_i A_i P_i^T w`` over one dense ``m_i x m_i``
    block ``A_i`` per subdomain, ``P_i`` placing it at the subdomain's
    multiplier ids.

    The blocks are stacked by order ``m`` (:attr:`stacks`, the stack is
    the only resident copy) and every application runs the explicit
    ``F``'s gather → GEMM → scatter chain on the preconditioner's own
    :attr:`executor`, 3 launches per order class.
    """

    def __init__(self, decomposition: Decomposition, blocks: list[np.ndarray]) -> None:
        from repro.gpu.runtime import gpu_executor

        require(len(blocks) == decomposition.n_subdomains, "one block per subdomain")
        self.decomposition = decomposition
        self.executor = gpu_executor()
        self.stacks = stack_by_order(
            blocks, [sub.multiplier_ids for sub in decomposition.subdomains]
        )

    @property
    def n_groups(self) -> int:
        return len(self.stacks)

    @property
    def launches_per_application(self) -> int:
        """Kernel launches one application costs (3 per order class)."""
        return 3 * len(self.stacks)

    def apply(self, w: np.ndarray) -> np.ndarray:
        require(
            w.ndim in (1, 2) and w.shape[0] == self.decomposition.n_multipliers,
            "dual input must be (n_multipliers,) or (n_multipliers, k)",
        )
        panel = w if w.ndim == 2 else w[:, None]
        out = np.zeros_like(panel)
        apply_local_stacks(self.executor, self.stacks, panel, out, "feti.precond_group")
        return out if w.ndim == 2 else out[:, 0]


class LumpedPreconditioner(StackedPreconditioner):
    """``M^{-1} w = sum_i B_i K_i B_i^T w_i`` — the classic lumped variant;
    its local block is ``B_i^T K_i B_i``."""

    def __init__(self, decomposition: Decomposition) -> None:
        blocks = [(sub.bt.T @ sub.k @ sub.bt).toarray() for sub in decomposition.subdomains]
        super().__init__(decomposition, blocks)


def interior_schur(sub: Subdomain, ordering: str = "nd") -> tuple[np.ndarray, np.ndarray]:
    """``(S, boundary)``: the interface DOFs (those touched by ``B_i``) and
    the dense Schur complement ``S = K_bb - K_bi K_ii^{-1} K_ib`` of the
    subdomain's interior onto them, through the library's own sparse
    Cholesky + triangular solve."""
    from repro.sparse import cholesky, solve_lower

    if sub.bt is None:
        raise ValueError("interface not built")
    boundary = np.unique(sub.bt.tocoo().row)
    interior = np.setdiff1d(np.arange(sub.n_dofs), boundary)
    k = sub.k.tocsr()
    k_bb = k[boundary][:, boundary].toarray()
    if not (interior.size and boundary.size):
        return k_bb, boundary
    k_ii = k[interior][:, interior].tocsc()
    k_ib = k[interior][:, boundary]
    # Interior blocks of an SPSD subdomain matrix are SPD (the kernel is
    # supported on the whole subdomain), so plain Cholesky applies — no
    # regularization needed.
    factor = cholesky(k_ii, ordering=ordering, coords=sub.coords[interior])
    y = solve_lower(factor.l, k_ib.tocsr()[factor.perm].toarray())
    return k_bb - y.T @ y, boundary


class DirichletPreconditioner(StackedPreconditioner):
    """``M^{-1} w = sum_i B_i diag(0, S_i) B_i^T w_i`` with the interior
    Schur complement ``S_i`` of :func:`interior_schur`; its local block is
    ``B_{i,b}^T S_i B_{i,b}``, ``B_{i,b}`` the interface rows of ``B_i``.

    More expensive to set up than the lumped variant, but a spectrally much
    better approximation of the inverse dual operator.
    """

    def __init__(self, decomposition: Decomposition, ordering: str = "nd") -> None:
        blocks = []
        for sub in decomposition.subdomains:
            s, boundary = interior_schur(sub, ordering=ordering)
            b = sub.bt.tocsr()[boundary].toarray()
            blocks.append(b.T @ s @ b)
        super().__init__(decomposition, blocks)


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
    "interior_schur",
    "make_preconditioner",
]
