"""Numeric kernels with cost accounting.

Each function *executes* the operation with NumPy/SciPy (results are exact)
and returns the :class:`~repro.gpu.costmodel.KernelCost` a real device would
pay: FLOPs from the standard BLAS formulas, memory traffic from the operand
shapes, one launch per library call (priced by :mod:`repro.gpu.runtime`).

The kernel set mirrors what the paper's implementation calls through
cuBLAS/cuSPARSE and MKL: dense/sparse TRSM, SYRK, GEMM, SPMM, row
gather/scatter (pruning and the dual-operator panels), sub-block extraction,
densification and the symmetric permutation.

There is **one** kernel family and it is stacked: dense operands are
``(group, rows, cols)`` arrays, sparse operands are
:class:`~repro.sparse.stacked.StackedCSC` value stacks over one shared
pattern.  A call charges ``group`` times the per-member FLOPs and memory
traffic but only **one** launch — the cuBLAS ``*Batched`` pricing (see
:meth:`~repro.gpu.costmodel.KernelCost.batched`).  Three stack sizes, one
algorithm: ``G`` members are a class, one is a subdomain, and zero is a
*dry run* — empty arrays still carry ``rows``, ``cols`` and the pattern, so
the cost is computed from the operands as always and priced as the stack
of one it stands for (:func:`priced_group`, the one place that says so).
Only the two triangular solves look at the group size: one member goes to
the library routine (LAPACK ``trtrs``, SuperLU), several through
:func:`_blocked_substitution`, none through neither.

The kernels are pattern-driven, so the union-padded stacks of
:meth:`~repro.core.assembler.SchurAssembler.assemble_union`
(``[[L, 0], [0, I]]`` factors with explicit structural zeros) run unchanged
and price the padding fill faithfully — every padded entry is charged like
a real one, which is why the batch engine guards the union tier with a
fill-ratio cap (:data:`repro.sparse.stacked.DEFAULT_UNION_FILL_CAP`).
``docs/batching.md`` describes the grouped execution path end to end,
``docs/pipeline.md`` the per-kernel roles inside one assembly.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from repro.gpu.costmodel import FLOAT64_BYTES, KernelCost, csx_bytes, dense_bytes
from repro.sparse.stacked import StackedCSC
from repro.sparse.triangular import TriangularSolver
from repro.util import (
    gemm_flops,
    require,
    spmm_flops,
    syrk_flops,
    trsm_dense_flops,
    trsm_sparse_flops,
)

#: Diagonal-block size of the blocked substitution (stacks of several members).
BATCHED_TRSM_BLOCK = 64


def _group(stack: np.ndarray, name: str) -> int:
    require(stack.ndim == 3, f"{name} must be a (group, rows, cols) stack")
    return int(stack.shape[0])


def priced_group(g: int) -> int:
    """Members a stack of *g* is priced as: zero (a dry run) prices as one."""
    return max(g, 1)


def _priced(per: KernelCost, g: int) -> KernelCost:
    return per.batched(priced_group(g))  # one launch for the whole stack


def _accumulate(c_stack: np.ndarray, update: np.ndarray, alpha: float, beta: float) -> None:
    """``C <- beta C + alpha update`` in place."""
    if beta == 0.0:
        c_stack[...] = alpha * update
    else:
        c_stack *= beta
        c_stack += alpha * update


def _blocked_substitution(l_stack: np.ndarray, x_stack: np.ndarray, trans: bool) -> None:
    """In-place ``X_g <- L_g^{-1} X_g`` (``L_g^{-T} X_g`` with *trans*) over
    stacked lower factors.

    Blocked: a stacked ``(group, b, b)`` diagonal solve (``np.linalg.solve``
    batches over the leading axis) followed by a broadcasted GEMM pushing the
    solved block into the rows below — the classic right-looking TRSM
    schedule, batched over the group.  The transposed sweep walks the
    diagonal blocks bottom-up, solves the upper block ``L^T`` and pushes the
    solved block into the rows above.
    """
    n = l_stack.shape[1]
    starts = range(0, n, BATCHED_TRSM_BLOCK)
    for i0 in reversed(starts) if trans else starts:
        i1 = min(i0 + BATCHED_TRSM_BLOCK, n)
        if trans:
            x_stack[:, i0:i1] = np.linalg.solve(
                l_stack[:, i0:i1, i0:i1].transpose(0, 2, 1), x_stack[:, i0:i1]
            )
            if i0 > 0:
                x_stack[:, :i0] -= np.matmul(
                    l_stack[:, i0:i1, :i0].transpose(0, 2, 1), x_stack[:, i0:i1]
                )
        else:
            x_stack[:, i0:i1] = np.linalg.solve(l_stack[:, i0:i1, i0:i1], x_stack[:, i0:i1])
            if i1 < n:
                x_stack[:, i1:] -= np.matmul(l_stack[:, i1:, i0:i1], x_stack[:, i0:i1])


def trsm_dense(l_stack: np.ndarray, x_stack: np.ndarray, trans: bool = False) -> KernelCost:
    """In-place dense TRSM: ``x_g <- L_g^{-1} x_g`` for every member
    (``L_g^{-T} x_g`` with *trans* — the backward sweep of a solve pair).

    *l_stack* holds the lower-triangular factors (dense views); *x_stack* is
    overwritten with the solutions, matching the in-place TRSM convention of
    §3.2.  One launch for the whole stack (``cublasDtrsmBatched``).
    """
    g = _group(l_stack, "l_stack")
    n = l_stack.shape[1]
    require(l_stack.shape == (g, n, n), "stacked factors must be square")
    require(x_stack.shape[:2] == (g, n), "RHS stack must match the factor stack")
    m = x_stack.shape[2]
    if g == 1:
        x_stack[0] = scipy.linalg.solve_triangular(
            l_stack[0], x_stack[0], lower=True, trans="T" if trans else "N", check_finite=False
        )
    elif g > 1:
        _blocked_substitution(l_stack, x_stack, trans)
    per = KernelCost(
        flops=trsm_dense_flops(n, m),
        bytes_moved=dense_bytes((n, n)) / 2.0 + 2.0 * dense_bytes((n, m)),
        launches=1,
        char_dim=float(min(n, m)) if min(n, m) > 0 else 1.0,
    )
    return _priced(per, g)


def trsm_sparse(
    l: StackedCSC,
    x_stack: np.ndarray,
    trans: bool = False,
    solver: TriangularSolver | None = None,
) -> KernelCost:
    """In-place sparse-factor TRSM over a value stack sharing one pattern
    (``L_g^{-T}`` with *trans*).

    A stack of one is solved by SuperLU; a prebuilt
    :class:`TriangularSolver` of that member may be supplied to amortise the
    (zero-fill) analysis across calls, as persistent GPU workspaces do in
    the paper's implementation.  Larger stacks run the blocked dense
    substitution on the densified stack (cost-model and numerics are
    decoupled throughout, and the stored values are identical either way up
    to BLAS association order).
    """
    n, n2 = l.shape
    require(n == n2, "stacked factor must be square")
    g = _group(x_stack, "x_stack")
    require(g == l.group, "RHS stack must match the factor stack")
    require(x_stack.shape[1] == n, "RHS row count mismatch")
    m = x_stack.shape[2]
    if g == 1:
        if solver is None:
            solver = TriangularSolver(l.member(0))
        x_stack[0] = solver.solve(x_stack[0], transpose=trans)
    elif g > 1:
        _blocked_substitution(l.toarray(), x_stack, trans)
    per = KernelCost(
        flops=trsm_sparse_flops(l.nnz, m),
        bytes_moved=csx_bytes(l.nnz, n) + 2.0 * dense_bytes((n, m)),
        launches=1,
        char_dim=float(m),
        sparse=True,
    )
    return _priced(per, g)


def syrk(
    y_stack: np.ndarray,
    c_stack: np.ndarray,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> KernelCost:
    """``C_g <- beta C_g + alpha Y_g^T Y_g`` (symmetric rank-k update, full
    matrix, one launch per stack).

    BLAS SYRK only touches one triangle; we materialise both halves (the
    numbers are identical) but charge the one-triangle FLOP count, like the
    library call would.
    """
    g = _group(y_stack, "y_stack")
    k, n = y_stack.shape[1], y_stack.shape[2]
    require(c_stack.shape == (g, n, n), "output stack must be (group, n, n)")
    _accumulate(c_stack, np.matmul(y_stack.transpose(0, 2, 1), y_stack), alpha, beta)
    per = KernelCost(
        flops=syrk_flops(n, k),
        bytes_moved=dense_bytes((k, n)) + dense_bytes((n, n)),
        launches=1,
        char_dim=float(min(n, k)) if min(n, k) > 0 else 1.0,
    )
    return _priced(per, g)


def gemm(
    a_stack: np.ndarray,
    b_stack: np.ndarray,
    c_stack: np.ndarray,
    alpha: float = 1.0,
    beta: float = 1.0,
    trans_a: bool = False,
) -> KernelCost:
    """``C_g <- beta C_g + alpha op(A_g) B_g`` with dense operands
    (``cublasDgemmBatched``)."""
    g = _group(a_stack, "a_stack")
    op_a = a_stack.transpose(0, 2, 1) if trans_a else a_stack
    m, k = op_a.shape[1], op_a.shape[2]
    require(b_stack.shape == (g, k, b_stack.shape[2]), "inner dimensions differ")
    n = b_stack.shape[2]
    require(c_stack.shape == (g, m, n), f"output stack must be (group, {m}, {n})")
    _accumulate(c_stack, np.matmul(op_a, b_stack), alpha, beta)
    per = KernelCost(
        flops=gemm_flops(m, n, k),
        bytes_moved=dense_bytes((m, k), (k, n)) + 2.0 * dense_bytes((m, n)),
        launches=1,
        char_dim=float(min(m, n, k)) if min(m, n, k) > 0 else 1.0,
    )
    return _priced(per, g)


def spmm(
    a: StackedCSC,
    b_stack: np.ndarray,
    c_stack: np.ndarray,
    alpha: float = 1.0,
    beta: float = 1.0,
    trans_a: bool = False,
) -> KernelCost:
    """``C_g <- beta C_g + alpha op(A_g) B_g`` with one shared sparsity
    ``A`` and dense ``B``.

    With *trans_a* the operand is applied transposed (``A_g^T B_g``) without
    materialising the transpose — cuSPARSE's ``SPMM`` op mode.  The cost is
    the same stored matrix streamed once, so FLOPs and traffic match the
    non-transposed application of the same ``A``.  Executed as a densified
    ``matmul`` at every group size.
    """
    p, q = a.shape
    inner, rows_out = (p, q) if trans_a else (q, p)
    g = _group(b_stack, "b_stack")
    require(g == a.group, "stacks must agree on the group size")
    require(b_stack.shape[1] == inner, "inner dimension mismatch")
    n = b_stack.shape[2]
    require(
        c_stack.shape == (g, rows_out, n),
        f"output stack must be (group, {rows_out}, {n})",
    )
    dense = a.toarray()
    op = dense.transpose(0, 2, 1) if trans_a else dense
    _accumulate(c_stack, np.matmul(op, b_stack), alpha, beta)
    per = KernelCost(
        flops=spmm_flops(a.nnz, n),
        bytes_moved=csx_bytes(a.nnz, p)
        + dense_bytes((inner, n))
        + 2.0 * dense_bytes((rows_out, n)),
        launches=1,
        char_dim=float(n),
        sparse=True,
    )
    return _priced(per, g)


def panel_gather(x: np.ndarray, rows_stack: np.ndarray) -> tuple[np.ndarray, KernelCost]:
    """Gather per-member row panels out of one shared dense panel.

    ``out[g] = x[rows_stack[g]]`` for every member in one launch — the
    dual operator's restriction of the global multiplier panel to each
    member's local multipliers.
    """
    require(rows_stack.ndim == 2, "rows_stack must be (group, rows)")
    g = int(rows_stack.shape[0])
    out = np.ascontiguousarray(x[rows_stack])
    per = KernelCost(
        flops=0.0,
        bytes_moved=2.0 * math.prod(out.shape[1:]) * FLOAT64_BYTES,
        launches=1,
        char_dim=float(max(out.shape[-1] if out.ndim > 2 else 1, 1)),
        sparse=True,
    )
    return out, _priced(per, g)


def _scatter_cost(values_stack: np.ndarray, g: int) -> KernelCost:
    per_size = float(math.prod(values_stack.shape[1:]))
    per = KernelCost(
        flops=per_size,
        bytes_moved=3.0 * per_size * FLOAT64_BYTES,
        launches=1,
        char_dim=float(max(values_stack.shape[-1], 1)),
        sparse=True,
    )
    return _priced(per, g)


def panel_scatter_add(
    target: np.ndarray,
    rows_stack: np.ndarray,
    values_stack: np.ndarray,
    sign: float = 1.0,
) -> KernelCost:
    """``target[rows_stack[g]] += sign * values_stack[g]`` for every member.

    The additive gather of per-member dual contributions into one global
    panel: one launch, duplicate multiplier rows across members accumulate
    (``np.add.at`` semantics — the atomic-add scatter a device would run).
    """
    g = _group(values_stack, "values_stack")
    require(rows_stack.shape == values_stack.shape[:2], "rows/values mismatch")
    flat_rows = rows_stack.reshape(-1)
    flat_vals = values_stack.reshape((flat_rows.shape[0],) + target.shape[1:])
    if sign != 1.0:
        flat_vals = sign * flat_vals
    np.add.at(target, flat_rows, flat_vals)
    return _scatter_cost(values_stack, g)


def scatter_add_rows(
    target_stack: np.ndarray,
    rows: np.ndarray,
    values_stack: np.ndarray,
    sign: float = 1.0,
) -> KernelCost:
    """``target_g[rows] += sign * values_g`` for every member (the pruning
    scatter; *rows* are shared and unique)."""
    g = _group(values_stack, "values_stack")
    require(target_stack.shape[0] == g, "stacks must agree on the group size")
    require(values_stack.shape[1] == rows.shape[0], "row count mismatch")
    target_stack[:, rows] += sign * values_stack
    return _scatter_cost(values_stack, g)


def extract_block(
    a: StackedCSC, r0: int, r1: int, c0: int, c1: int
) -> tuple[StackedCSC, KernelCost]:
    """Extract ``A_g[r0:r1, c0:c1]`` from every member via the shared
    pattern (sparse subfactor extraction, §3.2)."""
    block = a.block(r0, r1, c0, c1)
    per = KernelCost(
        flops=0.0,
        bytes_moved=2.0 * csx_bytes(block.nnz, max(c1 - c0, 1)),
        launches=1,
        char_dim=1.0,
        sparse=True,
    )
    return block, _priced(per, a.group)


def densify(a: StackedCSC, rows: np.ndarray | None = None) -> tuple[np.ndarray, KernelCost]:
    """Stacked sparse -> dense conversion (the *dense factor storage*
    setting); with *rows*, the packed (pruned) row subset ``A_g[rows]``."""
    out = a.toarray(rows=rows)
    per = KernelCost(
        flops=0.0,
        bytes_moved=csx_bytes(a.nnz, a.shape[1]) + out.shape[1] * out.shape[2] * FLOAT64_BYTES,
        launches=1,
        char_dim=1.0,
        sparse=True,
    )
    return out, _priced(per, a.group)


def symmetric_permute(
    f_stack: np.ndarray, perm: np.ndarray, inverse: bool = True
) -> tuple[np.ndarray, KernelCost]:
    """Symmetric permutation of every member's assembled SC back to the
    original LM order (one launch)."""
    g = _group(f_stack, "f_stack")
    m = f_stack.shape[1]
    require(f_stack.shape == (g, m, m), "F stack members must be square")
    require(perm.size == m, "permutation length mismatch")
    ix = (perm[:, None], perm[None, :])
    if inverse:
        out = np.empty_like(f_stack)
        out[:, ix[0], ix[1]] = f_stack
    else:
        out = f_stack[:, ix[0], ix[1]]
    per = KernelCost(
        flops=0.0,
        bytes_moved=2.0 * m * m * FLOAT64_BYTES,
        launches=1,
        char_dim=float(m),
    )
    return out, _priced(per, g)


__all__ = [
    "BATCHED_TRSM_BLOCK",
    "priced_group",
    "trsm_dense",
    "trsm_sparse",
    "syrk",
    "gemm",
    "spmm",
    "panel_gather",
    "panel_scatter_add",
    "scatter_add_rows",
    "extract_block",
    "densify",
    "symmetric_permute",
]
