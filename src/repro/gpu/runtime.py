"""Simulated device runtime: executors.

:class:`Executor` binds the numeric kernels of :mod:`repro.gpu.kernels` to a
:class:`~repro.gpu.spec.DeviceSpec` and accumulates simulated time — the
"synchronize before and after each kernel" measurement mode the paper uses
for its pure-kernel benchmarks (§4.3).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.gpu import kernels
from repro.gpu.costmodel import CostLedger, KernelCost
from repro.gpu.spec import A100_40GB, EPYC_7763_CORE, DeviceSpec
from repro.obs import get_tracer
from repro.sparse.stacked import StackedCSC
from repro.sparse.triangular import TriangularSolver

#: Distinguishes the simulated-device tracks of concurrently live executors.
_EXECUTOR_SEQ = itertools.count()


class Executor:
    """Synchronous kernel executor with simulated-time accounting.

    All kernel methods execute the numerics immediately (NumPy/SciPy) on
    stacked operands — ``(group, rows, cols)`` arrays and
    :class:`~repro.sparse.stacked.StackedCSC` value stacks; a subdomain is
    a stack of one, a dry run a stack of zero — and charge the corresponding
    :class:`KernelCost` (one launch per call) to the ledger.  Use one
    executor per simulated resource (one GPU, one CPU core).

    With tracing enabled (:mod:`repro.obs`), every priced kernel becomes a
    span on this executor's simulated-device track: timestamps are the
    ledger's *simulated* seconds, so the track is the cost-model timeline
    the paper's per-kernel figures read off, one track per executor.
    """

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self.ledger = CostLedger(spec)
        self.track = f"sim:{spec.kind}:{spec.name}#{next(_EXECUTOR_SEQ)}"

    @property
    def elapsed(self) -> float:
        """Total simulated seconds charged so far."""
        return self.ledger.elapsed

    def reset(self) -> None:
        self.ledger.reset()

    def charge(self, cost: KernelCost, kernel: str = "kernel") -> float:
        tracer = get_tracer()
        if not tracer.enabled:
            return self.ledger.charge(cost)
        t0 = self.ledger.elapsed
        dt = self.ledger.charge(cost)
        tracer.add_span(
            f"gpu.{kernel}",
            start=t0,
            end=self.ledger.elapsed,
            track=self.track,
            flops=cost.flops,
            bytes_moved=cost.bytes_moved,
            launches=cost.launches,
        )
        tracer.metrics.observe("gpu.kernel_sim_seconds", dt)
        return dt

    def charge_bytes(self, nbytes: float) -> float:
        """Charge a pure data-movement operation (permutation, pack, copy)."""
        return self.charge(
            KernelCost(flops=0.0, bytes_moved=nbytes, launches=1, char_dim=1.0),
            kernel="copy",
        )

    # -- kernel façade: one method per kernel, stacked operands ------------

    def trsm_dense(self, l_stack: np.ndarray, x_stack: np.ndarray, trans: bool = False) -> float:
        return self.charge(kernels.trsm_dense(l_stack, x_stack, trans=trans), kernel="trsm_dense")

    def trsm_sparse(
        self,
        l: StackedCSC,
        x_stack: np.ndarray,
        trans: bool = False,
        solver: TriangularSolver | None = None,
    ) -> float:
        return self.charge(
            kernels.trsm_sparse(l, x_stack, trans=trans, solver=solver), kernel="trsm_sparse"
        )

    def syrk(
        self, y_stack: np.ndarray, c_stack: np.ndarray, alpha: float = 1.0, beta: float = 1.0
    ) -> float:
        return self.charge(kernels.syrk(y_stack, c_stack, alpha=alpha, beta=beta), kernel="syrk")

    def gemm(
        self,
        a_stack: np.ndarray,
        b_stack: np.ndarray,
        c_stack: np.ndarray,
        alpha: float = 1.0,
        beta: float = 1.0,
        trans_a: bool = False,
    ) -> float:
        return self.charge(
            kernels.gemm(a_stack, b_stack, c_stack, alpha=alpha, beta=beta, trans_a=trans_a),
            kernel="gemm",
        )

    def spmm(
        self,
        a: StackedCSC,
        b_stack: np.ndarray,
        c_stack: np.ndarray,
        alpha: float = 1.0,
        beta: float = 1.0,
        trans_a: bool = False,
    ) -> float:
        return self.charge(
            kernels.spmm(a, b_stack, c_stack, alpha=alpha, beta=beta, trans_a=trans_a),
            kernel="spmm",
        )

    def panel_gather(self, x: np.ndarray, rows_stack: np.ndarray) -> np.ndarray:
        out, cost = kernels.panel_gather(x, rows_stack)
        self.charge(cost, kernel="panel_gather")
        return out

    def panel_scatter_add(
        self,
        target: np.ndarray,
        rows_stack: np.ndarray,
        values_stack: np.ndarray,
        sign: float = 1.0,
    ) -> float:
        return self.charge(
            kernels.panel_scatter_add(target, rows_stack, values_stack, sign=sign),
            kernel="panel_scatter_add",
        )

    def scatter_add_rows(
        self,
        target_stack: np.ndarray,
        rows: np.ndarray,
        values_stack: np.ndarray,
        sign: float = 1.0,
    ) -> float:
        return self.charge(
            kernels.scatter_add_rows(target_stack, rows, values_stack, sign=sign),
            kernel="scatter_add_rows",
        )

    def extract_block(self, a: StackedCSC, r0: int, r1: int, c0: int, c1: int) -> StackedCSC:
        block, cost = kernels.extract_block(a, r0, r1, c0, c1)
        self.charge(cost, kernel="extract_block")
        return block

    def densify(self, a: StackedCSC, rows: np.ndarray | None = None) -> np.ndarray:
        out, cost = kernels.densify(a, rows=rows)
        self.charge(cost, kernel="densify")
        return out

    def symmetric_permute(
        self, f_stack: np.ndarray, perm: np.ndarray, inverse: bool = True
    ) -> np.ndarray:
        out, cost = kernels.symmetric_permute(f_stack, perm, inverse=inverse)
        self.charge(cost, kernel="symmetric_permute")
        return out


class PricingExecutor(Executor):
    """The executor of a dry run — the kernel chain on a zero-member stack:
    same façade, but a charge books the private ledger only (no ``gpu.*``
    span, no tracer metric: nothing ran)."""

    def charge(self, cost: KernelCost, kernel: str = "kernel") -> float:
        return self.ledger.charge(cost)


def cpu_executor(spec: DeviceSpec = EPYC_7763_CORE) -> Executor:
    """Executor modelling one CPU core."""
    return Executor(spec)


def gpu_executor(spec: DeviceSpec = A100_40GB) -> Executor:
    """Executor modelling one GPU (synchronous single-stream view)."""
    return Executor(spec)


__all__ = [
    "Executor",
    "PricingExecutor",
    "cpu_executor",
    "gpu_executor",
]
