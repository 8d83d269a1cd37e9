"""Sparsity-aware SYRK variants (§3.3 of the paper).

Computes ``F = Y^T Y`` for the stepped dense matrix ``Y`` produced by the
TRSM stage, skipping the structural zeros above the column pivots:

* :func:`syrk_orig` — baseline: one full-size SYRK.
* :func:`syrk_input_split` — partition the *k* loop (block rows of ``Y``,
  Fig. 4a): each block row only has nonzeros in its first ``w`` columns, so
  the inner SYRK updates only the top-left ``w x w`` submatrix of ``F``.
* :func:`syrk_output_split` — partition the output into block rows
  (Fig. 4b): the diagonal block comes from an inner SYRK over the matching
  input block column, the off-diagonal strip from a GEMM; both can start
  their *k* range at the block's topmost pivot.

All variants produce the *full* symmetric ``F`` numerically (BLAS would fill
one triangle; mirroring is free in the cost model, matching the library
behaviour of handling symmetric matrices by reference to one triangle).

Every variant runs on ``(group, n, m)`` stacks — a whole fingerprint group
per call, a single subdomain being the stack of one, a dry run the stack of
zero: identical FLOPs and traffic to ``group`` stacks of one, one launch
per kernel (cuBLAS ``*Batched``).
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import BlockSpec
from repro.core.stepped import SteppedShape
from repro.gpu.runtime import Executor
from repro.util import require


def syrk_orig(ex: Executor, y_stack: np.ndarray, f_stack: np.ndarray) -> None:
    """Baseline SYRK of [9]: one full-size update, no sparsity use."""
    _check(y_stack, f_stack)
    ex.syrk(y_stack, f_stack, beta=0.0)


def syrk_input_split(
    ex: Executor,
    y_stack: np.ndarray,
    f_stack: np.ndarray,
    shape: SteppedShape,
    blocks: BlockSpec,
) -> None:
    """Input-splitting SYRK (Fig. 4a): split the *k* dimension."""
    _check(y_stack, f_stack, shape)
    f_stack[...] = 0.0
    for k0, k1 in blocks.resolve(shape.n_rows):
        w = shape.width_below(k1)
        if w == 0:
            continue  # block row is entirely structurally zero
        ex.syrk(y_stack[:, k0:k1, :w], f_stack[:, :w, :w], beta=1.0)


def syrk_output_split(
    ex: Executor,
    y_stack: np.ndarray,
    f_stack: np.ndarray,
    shape: SteppedShape,
    blocks: BlockSpec,
) -> None:
    """Output-splitting SYRK (Fig. 4b): split the output block rows."""
    _check(y_stack, f_stack, shape)
    n = shape.n_rows
    f_stack[...] = 0.0
    for c0, c1 in blocks.resolve(shape.n_cols):
        k0 = shape.first_pivot(c0)
        if k0 >= n:
            continue  # all-zero input columns contribute nothing
        # Diagonal block from an inner SYRK over the block column.
        ex.syrk(y_stack[:, k0:, c0:c1], f_stack[:, c0:c1, c0:c1], beta=0.0)
        if c0 > 0:
            # Off-diagonal strip: C_B = C^T B in the paper's notation.
            ex.gemm(
                y_stack[:, k0:, c0:c1],
                y_stack[:, k0:, :c0],
                f_stack[:, c0:c1, :c0],
                beta=0.0,
                trans_a=True,
            )
            # Mirror into the upper triangle (free: BLAS keeps one triangle).
            f_stack[:, :c0, c0:c1] = f_stack[:, c0:c1, :c0].transpose(0, 2, 1)


def _check(
    y_stack: np.ndarray, f_stack: np.ndarray, shape: SteppedShape | None = None
) -> None:
    require(y_stack.ndim == 3, "Y must be a (group, n, m) stack")
    g, m = y_stack.shape[0], y_stack.shape[2]
    require(f_stack.shape == (g, m, m), f"F must be ({g}, {m}, {m})")
    if shape is not None:
        require(
            y_stack.shape[1:] == (shape.n_rows, shape.n_cols),
            "Y does not match the stepped shape",
        )


__all__ = [
    "syrk_orig",
    "syrk_input_split",
    "syrk_output_split",
]
