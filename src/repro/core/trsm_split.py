"""Sparsity-aware TRSM variants (§3.2 of the paper).

Solves ``L Y = X`` in place on a dense right-hand-side matrix ``X`` that is
in the *stepped* shape, skipping the structural zeros above the column
pivots.  Three variants:

* :func:`trsm_orig` — the baseline of [9]: one library TRSM over the whole
  RHS (sparse or dense factor storage), no sparsity use.
* :func:`trsm_rhs_split` — split the RHS into column blocks; each block is
  solved with only the subfactor below its topmost pivot (Fig. 3a).
* :func:`trsm_factor_split` — block the factor itself: an inner TRSM on the
  diagonal block restricted to the currently-nonzero RHS columns, then a
  GEMM incorporating the sub-diagonal block (Fig. 3b).  With *pruning*, only
  the non-empty rows of the sub-diagonal block enter the GEMM — the same
  trick as CHOLMOD's supernodal packing.

All variants execute through an :class:`~repro.gpu.runtime.Executor`, so the
identical code path is priced on a GPU or CPU roofline.

Every variant takes the factor as a :class:`~repro.sparse.stacked.StackedCSC`
and the RHS as a ``(group, n, m)`` stack: the control flow (block loop, skip
decisions, pruning rows) depends only on the *shared* pattern, so one pass
over the blocks issues one kernel per step for the whole stack.  A stack
charges exactly the FLOPs and memory traffic of ``group`` stacks of one —
only the launch count shrinks by the group size; a single subdomain is the
stack of one, and a dry run (``SchurAssembler.estimate``) walks the same
block loops on the stack of zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocks import BlockSpec
from repro.core.stepped import SteppedShape
from repro.gpu.runtime import Executor
from repro.sparse.stacked import StackedCSC
from repro.util import require

FACTOR_STORAGES = ("sparse", "dense")


@dataclass(frozen=True)
class PruningPlan:
    """Precomputed pruning gather for :func:`trsm_factor_split`.

    For every factor row block ``[r0, r1)`` the plan stores the non-empty
    rows of the sub-diagonal block ``L[r1:, r0:r1]`` (local indices, i.e.
    relative to ``r1``) together with its stored-entry count.  The plan is a
    pure pattern artifact: two factors with identical CSC structure share
    it, which is what the batch pattern cache exploits.

    Callers must guarantee the factor's *stored* pattern matches the one
    the plan was built from (the batch engine does so via exact
    fingerprints); the in-kernel nnz check catches gross mismatches only,
    not same-count permuted patterns.
    """

    n: int
    blocks: tuple[tuple[int, int], ...]
    rows: tuple[np.ndarray, ...]
    nnz: tuple[int, ...]

    def matches(self, n: int, resolved: list[tuple[int, int]]) -> bool:
        """Whether the plan was built for this factor order and block split."""
        return self.n == n and self.blocks == tuple(resolved)

    @classmethod
    def from_pattern(cls, l: StackedCSC, resolved: list[tuple[int, int]]) -> "PruningPlan":
        """Build the plan from the factor's pattern — any stack over it, the
        zero-member one included: exactly the sub-diagonal blocks
        :func:`trsm_factor_split` extracts, asked for their rows."""
        n = l.shape[0]
        subs = [l.block(r1, n, r0, r1) for r0, r1 in resolved]
        return cls(
            n=n,
            blocks=tuple(resolved),
            rows=tuple(sub.nonempty_rows() for sub in subs),
            nnz=tuple(sub.nnz for sub in subs),
        )


def _check_stacks(l: StackedCSC, x_stack: np.ndarray, shape: SteppedShape | None, storage: str) -> int:
    require(storage in FACTOR_STORAGES, f"unknown factor storage {storage!r}")
    n = l.shape[0]
    require(l.shape == (n, n), "stacked factor must be square")
    require(
        x_stack.ndim == 3 and x_stack.shape[0] == l.group,
        "RHS must be a (group, n, m) stack matching the factor stack",
    )
    if shape is not None:
        require(
            x_stack.shape[1:] == (shape.n_rows, shape.n_cols), "RHS/shape mismatch"
        )
        require(shape.n_rows == n, "factor order must match RHS rows")
    else:
        require(x_stack.shape[1] == n, "factor order must match RHS rows")
    return n


def trsm_orig(ex: Executor, l: StackedCSC, x_stack: np.ndarray, storage: str = "sparse") -> None:
    """Baseline TRSM of [9]: one full-size solve, no RHS-sparsity use."""
    _check_stacks(l, x_stack, None, storage)
    if storage == "dense":
        ld = ex.densify(l)
        ex.trsm_dense(ld, x_stack)
    else:
        ex.trsm_sparse(l, x_stack)


def trsm_rhs_split(
    ex: Executor,
    l: StackedCSC,
    x_stack: np.ndarray,
    shape: SteppedShape,
    blocks: BlockSpec,
    storage: str = "sparse",
) -> None:
    """RHS-splitting TRSM (Fig. 3a).

    Each column block ``[c0, c1)`` is solved with the subfactor
    ``L[p:, p:]`` where ``p`` is the topmost pivot in the block — the rows
    above ``p`` are structurally zero and forward substitution preserves
    them.  Dense storage uses pointer arithmetic into the densified factor
    (free); sparse storage must extract each subfactor (charged).
    """
    n = _check_stacks(l, x_stack, shape, storage)
    ld = ex.densify(l) if storage == "dense" else None
    for c0, c1 in blocks.resolve(shape.n_cols):
        p = shape.first_pivot(c0)
        if p >= n:
            continue  # entirely-zero columns
        xsub = x_stack[:, p:, c0:c1]
        if storage == "dense":
            ex.trsm_dense(ld[:, p:, p:], xsub)
        else:
            lsub = ex.extract_block(l, p, n, p, n)
            ex.trsm_sparse(lsub, xsub)


def trsm_factor_split(
    ex: Executor,
    l: StackedCSC,
    x_stack: np.ndarray,
    shape: SteppedShape,
    blocks: BlockSpec,
    storage: str = "dense",
    prune: bool = True,
    plan: PruningPlan | None = None,
) -> None:
    """Factor-splitting TRSM (Fig. 3b).

    For each factor row block ``[r0, r1)``:

    1. inner TRSM with the diagonal block ``L[r0:r1, r0:r1]`` on the top RHS
       block restricted to its ``w`` nonzero columns (``w`` = number of
       pivots above ``r1``),
    2. GEMM: ``X[r1:, :w] -= L[r1:, r0:r1] @ X[r0:r1, :w]``.

    With *prune* the GEMM runs only on the non-empty rows of the
    sub-diagonal block (gather -> dense GEMM -> scatter-subtract): the
    shared non-empty rows are gathered once per block and every member's
    sub-diagonal block is packed in a single stacked densify.  An optional
    precomputed :class:`PruningPlan` (from the batch pattern cache) supplies
    the non-empty rows without rescanning the factor.
    """
    n = _check_stacks(l, x_stack, shape, storage)
    resolved = blocks.resolve(n)
    if plan is not None:
        require(plan.matches(n, resolved), "pruning plan does not match factor/blocks")
    for bi, (r0, r1) in enumerate(resolved):
        w = shape.width_below(r1)
        if w == 0:
            continue  # the whole top block is structurally zero
        ldiag = ex.extract_block(l, r0, r1, r0, r1)
        xtop = x_stack[:, r0:r1, :w]
        if storage == "dense":
            ld = ex.densify(ldiag)
            ex.trsm_dense(ld, xtop)
        else:
            ex.trsm_sparse(ldiag, xtop)
        if r1 >= n:
            continue
        lsub = ex.extract_block(l, r1, n, r0, r1)
        if lsub.nnz == 0:
            continue
        if prune:
            if plan is not None:
                require(
                    lsub.nnz == plan.nnz[bi],
                    "pruning plan does not match the factor pattern",
                )
                nonempty = plan.rows[bi]
            else:
                nonempty = lsub.nonempty_rows()
            a_packed = ex.densify(lsub, rows=nonempty)
            tmp = np.zeros((l.group, nonempty.size, w))
            ex.gemm(a_packed, xtop, tmp, beta=0.0)
            ex.scatter_add_rows(x_stack[:, r1:, :w], nonempty, tmp, sign=-1.0)
        elif storage == "dense":
            ld_sub = ex.densify(lsub)
            ex.gemm(ld_sub, xtop, x_stack[:, r1:, :w], alpha=-1.0, beta=1.0)
        else:
            ex.spmm(lsub, xtop, x_stack[:, r1:, :w], alpha=-1.0, beta=1.0)


__all__ = [
    "trsm_orig",
    "trsm_rhs_split",
    "trsm_factor_split",
    "PruningPlan",
    "FACTOR_STORAGES",
]
