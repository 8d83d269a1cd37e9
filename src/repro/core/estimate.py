"""Dry-run cost estimation: price an assembly without executing numerics.

Replays exactly the block loops of :mod:`repro.core.trsm_split`,
:mod:`repro.core.syrk_split` and :class:`repro.core.assembler.SchurAssembler`
using only *pattern* information (the factor's CSC structure and the stepped
pivots), charging the identical :class:`~repro.gpu.costmodel.KernelCost` for
every kernel the executed path would launch.

Purpose: the benchmark sweeps extend to subdomain sizes (up to 70k DOFs in
3-D) where executing the numerics in pure Python is infeasible on this box,
while the cost model — the thing the simulated timings come from — is
exact at any size.  ``tests/test_estimate.py`` asserts the estimator and the
executed path charge byte-for-byte identical costs on sizes where both run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.config import AssemblyConfig
from repro.core.stepped import SteppedShape, stepped_permutation
from repro.gpu.costmodel import FLOAT64_BYTES, CostLedger, KernelCost, csx_bytes, dense_bytes
from repro.gpu.spec import DeviceSpec, TransferSpec
from repro.sparse.cholesky import CholeskyFactor
from repro.util import (
    gemm_flops,
    require,
    spmm_flops,
    syrk_flops,
    trsm_dense_flops,
    trsm_sparse_flops,
)


@dataclass(frozen=True)
class FactorPattern:
    """Pattern-only view of a lower-triangular CSC factor."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray  # sorted within each column

    @classmethod
    def from_factor(cls, factor: CholeskyFactor) -> "FactorPattern":
        lc = factor.l.tocsc()
        lc.sort_indices()
        return cls(n=factor.n, indptr=lc.indptr, indices=lc.indices)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def block_nnz(self, r0: int, r1: int, c0: int, c1: int) -> int:
        """Stored entries of ``L[r0:r1, c0:c1]``."""
        total = 0
        for j in range(c0, c1):
            col = self.indices[self.indptr[j] : self.indptr[j + 1]]
            total += int(
                np.searchsorted(col, r1, side="left")
                - np.searchsorted(col, r0, side="left")
            )
        return total

    def block_nonempty_rows(self, r0: int, r1: int, c0: int, c1: int) -> int:
        """Distinct nonzero rows of ``L[r0:r1, c0:c1]`` (pruning's gather)."""
        chunks = []
        for j in range(c0, c1):
            col = self.indices[self.indptr[j] : self.indptr[j + 1]]
            lo = np.searchsorted(col, r0, side="left")
            hi = np.searchsorted(col, r1, side="left")
            if hi > lo:
                chunks.append(col[lo:hi])
        if not chunks:
            return 0
        return int(np.unique(np.concatenate(chunks)).size)

    def tail_nnz(self, p: int) -> int:
        """Stored entries of ``L[p:, p:]`` (lower triangular: columns >= p)."""
        return int(self.indptr[-1] - self.indptr[p])


class _CostOnlyExecutor:
    """Mirror of :class:`repro.gpu.runtime.Executor` charging costs from
    shapes/patterns only."""

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self.ledger = CostLedger(spec)

    @property
    def elapsed(self) -> float:
        return self.ledger.elapsed

    def charge(self, cost: KernelCost) -> float:
        return self.ledger.charge(cost)

    def charge_bytes(self, nbytes: float) -> float:
        return self.charge(KernelCost(flops=0.0, bytes_moved=nbytes, launches=1, char_dim=1.0))

    # Shape-level kernel charges (formulas identical to repro.gpu.kernels).
    def trsm_dense(self, n: int, m: int) -> None:
        self.charge(
            KernelCost(
                flops=trsm_dense_flops(n, m),
                bytes_moved=dense_bytes((n, n)) / 2.0 + 2.0 * dense_bytes((n, m)),
                launches=1,
                char_dim=float(min(n, m)) if min(n, m) > 0 else 1.0,
            )
        )

    def trsm_sparse(self, nnz: int, n: int, m: int) -> None:
        self.charge(
            KernelCost(
                flops=trsm_sparse_flops(nnz, m),
                bytes_moved=csx_bytes(nnz, n) + 2.0 * dense_bytes((n, m)),
                launches=1,
                char_dim=float(m),
                sparse=True,
            )
        )

    def syrk(self, k: int, n: int) -> None:
        self.charge(
            KernelCost(
                flops=syrk_flops(n, k),
                bytes_moved=dense_bytes((k, n)) + dense_bytes((n, n)),
                launches=1,
                char_dim=float(min(n, k)) if min(n, k) > 0 else 1.0,
            )
        )

    def gemm(self, m: int, n: int, k: int) -> None:
        self.charge(
            KernelCost(
                flops=gemm_flops(m, n, k),
                bytes_moved=dense_bytes((m, k), (k, n)) + 2.0 * dense_bytes((m, n)),
                launches=1,
                char_dim=float(min(m, n, k)) if min(m, n, k) > 0 else 1.0,
            )
        )

    def spmm(self, nnz: int, m_rows: int, k: int, n: int) -> None:
        self.charge(
            KernelCost(
                flops=spmm_flops(nnz, n),
                bytes_moved=csx_bytes(nnz, m_rows)
                + dense_bytes((k, n))
                + 2.0 * dense_bytes((m_rows, n)),
                launches=1,
                char_dim=float(n),
                sparse=True,
            )
        )

    def scatter_add_rows(self, rows: int, cols: int) -> None:
        size = float(rows * cols)
        self.charge(
            KernelCost(
                flops=size,
                bytes_moved=3.0 * size * FLOAT64_BYTES,
                launches=1,
                char_dim=float(max(cols, 1)),
                sparse=True,
            )
        )

    def extract_sparse_block(self, nnz: int, n_cols: int) -> None:
        self.charge(
            KernelCost(
                flops=0.0,
                bytes_moved=2.0 * csx_bytes(nnz, max(n_cols, 1)),
                launches=1,
                char_dim=1.0,
                sparse=True,
            )
        )

    def densify(self, nnz: int, rows: int, cols: int) -> None:
        self.charge(
            KernelCost(
                flops=0.0,
                bytes_moved=csx_bytes(nnz, cols) + rows * cols * FLOAT64_BYTES,
                launches=1,
                char_dim=1.0,
                sparse=True,
            )
        )

    def symmetric_permute(self, m: int) -> None:
        self.charge(
            KernelCost(
                flops=0.0,
                bytes_moved=2.0 * m * m * FLOAT64_BYTES,
                launches=1,
                char_dim=float(m),
            )
        )


def _estimate_trsm(
    ex: _CostOnlyExecutor,
    patt: FactorPattern,
    shape: SteppedShape,
    cfg: AssemblyConfig,
) -> None:
    n, m = patt.n, shape.n_cols
    if cfg.trsm_variant == "orig":
        if cfg.factor_storage == "dense":
            ex.densify(patt.nnz, n, n)
            ex.trsm_dense(n, m)
        else:
            ex.trsm_sparse(patt.nnz, n, m)
        return
    if cfg.trsm_variant == "rhs_split":
        if cfg.factor_storage == "dense":
            ex.densify(patt.nnz, n, n)
        for c0, c1 in cfg.trsm_blocks.resolve(m):
            p = shape.first_pivot(c0)
            if p >= n:
                continue
            if cfg.factor_storage == "dense":
                ex.trsm_dense(n - p, c1 - c0)
            else:
                tail = patt.tail_nnz(p)
                ex.extract_sparse_block(tail, n - p)
                ex.trsm_sparse(tail, n - p, c1 - c0)
        return
    # factor_split
    for r0, r1 in cfg.trsm_blocks.resolve(n):
        w = shape.width_below(r1)
        if w == 0:
            continue
        diag_nnz = patt.block_nnz(r0, r1, r0, r1)
        ex.extract_sparse_block(diag_nnz, r1 - r0)
        if cfg.factor_storage == "dense":
            ex.densify(diag_nnz, r1 - r0, r1 - r0)
            ex.trsm_dense(r1 - r0, w)
        else:
            ex.trsm_sparse(diag_nnz, r1 - r0, w)
        if r1 >= n:
            continue
        sub_nnz = patt.block_nnz(r1, n, r0, r1)
        ex.extract_sparse_block(sub_nnz, r1 - r0)
        if sub_nnz == 0:
            continue
        if cfg.prune:
            k_ne = patt.block_nonempty_rows(r1, n, r0, r1)
            ex.densify(sub_nnz, k_ne, r1 - r0)
            ex.gemm(k_ne, w, r1 - r0)
            ex.scatter_add_rows(k_ne, w)
        elif cfg.factor_storage == "dense":
            ex.densify(sub_nnz, n - r1, r1 - r0)
            ex.gemm(n - r1, w, r1 - r0)
        else:
            ex.spmm(sub_nnz, n - r1, r1 - r0, w)


def _estimate_syrk(
    ex: _CostOnlyExecutor,
    shape: SteppedShape,
    cfg: AssemblyConfig,
) -> None:
    n, m = shape.n_rows, shape.n_cols
    if cfg.syrk_variant == "orig":
        ex.syrk(n, m)
        return
    if cfg.syrk_variant == "input_split":
        for k0, k1 in cfg.syrk_blocks.resolve(n):
            w = shape.width_below(k1)
            if w == 0:
                continue
            ex.syrk(k1 - k0, w)
        return
    for c0, c1 in cfg.syrk_blocks.resolve(m):
        k0 = shape.first_pivot(c0)
        if k0 >= n:
            continue
        ex.syrk(n - k0, c1 - c0)
        if c0 > 0:
            ex.gemm(c1 - c0, c0, n - k0)


def estimate_from_patterns(
    patt: FactorPattern,
    shape: SteppedShape,
    config: AssemblyConfig,
    spec: DeviceSpec,
    transfer: TransferSpec | None = None,
) -> dict[str, float]:
    """Price one SC assembly from pattern artifacts alone.

    This is the cacheable core of :func:`estimate_assembly`: given the
    factor pattern and the stepped shape (both pure pattern objects, shared
    by every subdomain with the same fingerprint) it replays the kernel
    loops and returns the per-stage breakdown plus ``"total"``.
    """
    n, m = patt.n, shape.n_cols
    require(shape.n_rows == n, "shape/pattern row mismatch")
    ex = _CostOnlyExecutor(spec)
    breakdown = {"transfer": 0.0, "permute": 0.0, "trsm": 0.0, "syrk": 0.0}

    mark = ex.elapsed
    ex.charge_bytes(2.0 * n * m * FLOAT64_BYTES)
    breakdown["permute"] += ex.elapsed - mark

    if transfer is not None and spec.kind == "gpu":
        breakdown["transfer"] += transfer.time(csx_bytes(patt.nnz, n) + dense_bytes((n, m)))

    mark = ex.elapsed
    _estimate_trsm(ex, patt, shape, config)
    breakdown["trsm"] += ex.elapsed - mark

    mark = ex.elapsed
    _estimate_syrk(ex, shape, config)
    breakdown["syrk"] += ex.elapsed - mark

    mark = ex.elapsed
    ex.symmetric_permute(m)
    breakdown["permute"] += ex.elapsed - mark

    breakdown["total"] = sum(breakdown.values())
    return breakdown


def padding_fill_ratio(padded_nnz: float, member_nnz: float) -> float:
    """Stored-entry overhead of padded union execution.

    ``padded_nnz`` is what one batched union run stores and streams
    (``group * (nnz(L_union) + nnz(bt_union))``), ``member_nnz`` what the
    members would store run exactly per-member.  The ratio is the engine's
    guard input: above ``union_fill_cap`` the extra flops/bytes of the
    padding eat the launch savings and the class falls back to per-member
    execution (:data:`repro.sparse.stacked.DEFAULT_UNION_FILL_CAP`).
    """
    return padded_nnz / member_nnz if member_nnz else 1.0


def union_padding_overhead(
    union_estimate: dict[str, float], member_estimates: list[dict[str, float]]
) -> float:
    """Priced padding overhead of one union class, in simulated seconds.

    The batched union run charges every member the padded-pattern kernel
    costs, so its priced total is ``group * union_estimate["total"]``; the
    exact per-member runs would charge each member its own estimate.  The
    difference is what the padding costs in flops/traffic — what the launch
    savings of the batched kernels (not visible in these per-member
    estimates; the executor ledger counts launches) must pay for.
    """
    g = len(member_estimates)
    return g * union_estimate["total"] - sum(e["total"] for e in member_estimates)


def estimate_assembly(
    factor: CholeskyFactor,
    bt: sp.spmatrix,
    config: AssemblyConfig,
    spec: DeviceSpec,
    transfer: TransferSpec | None = None,
) -> dict[str, float]:
    """Price one SC assembly without executing it.

    Returns the same ``breakdown`` dict as
    :meth:`repro.core.assembler.SchurAssembler.assemble` (plus ``"total"``).
    """
    require(sp.issparse(bt), "bt must be sparse")
    n = factor.n
    require(bt.shape[0] == n, "bt row count mismatch")
    m = bt.shape[1]
    patt = FactorPattern.from_factor(factor)
    bt_rows = bt.tocsr()[factor.perm].tocsc()
    if config.use_stepped_permutation:
        _, shape = stepped_permutation(bt_rows)
    else:
        shape = SteppedShape(n_rows=n, pivots=np.zeros(m, dtype=np.intp))
    return estimate_from_patterns(patt, shape, config, spec, transfer)


__all__ = [
    "estimate_assembly",
    "estimate_from_patterns",
    "padding_fill_ratio",
    "union_padding_overhead",
    "FactorPattern",
]
