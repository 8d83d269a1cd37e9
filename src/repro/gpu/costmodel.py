"""Kernel cost accounting and conversion to simulated seconds.

Numerics and timing are decoupled throughout the library: every kernel in
:mod:`repro.gpu.kernels` *executes* with NumPy/SciPy and *returns* a
:class:`KernelCost`; a :class:`DeviceSpec` then prices the cost.  The same
algorithm can therefore be timed on an A100 roofline and on an EPYC-core
roofline without touching the numerics — the substitution documented in
docs/architecture.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.spec import DeviceSpec
from repro.util import require

FLOAT64_BYTES = 8.0
INDEX_BYTES = 4.0


@dataclass(frozen=True)
class KernelCost:
    """What one kernel invocation did.

    Attributes
    ----------
    flops:
        Floating-point operations performed.
    bytes_moved:
        Device-memory traffic (reads + writes) of the kernel.
    launches:
        Number of library/kernel launches (each pays the launch overhead).
    char_dim:
        Characteristic matrix dimension governing BLAS efficiency (the
        smallest dimension of the innermost dense operation).
    sparse:
        Whether the kernel is an irregular (sparse) one — prices against the
        device's discounted sparse peak.
    """

    flops: float = 0.0
    bytes_moved: float = 0.0
    launches: int = 1
    char_dim: float = 1.0
    sparse: bool = False

    def __post_init__(self) -> None:
        require(self.flops >= 0, "flops must be >= 0")
        require(self.bytes_moved >= 0, "bytes_moved must be >= 0")
        require(self.launches >= 0, "launches must be >= 0")
        require(self.char_dim >= 0, "char_dim must be >= 0")

    def __add__(self, other: "KernelCost") -> "KernelCost":
        total_flops = self.flops + other.flops
        # Flop-weighted characteristic dimension keeps the combined cost's
        # efficiency representative of where the work actually happened.
        if total_flops > 0:
            cd = (
                self.char_dim * self.flops + other.char_dim * other.flops
            ) / total_flops
        else:
            cd = max(self.char_dim, other.char_dim)
        return KernelCost(
            flops=total_flops,
            bytes_moved=self.bytes_moved + other.bytes_moved,
            launches=self.launches + other.launches,
            char_dim=cd,
            sparse=self.sparse and other.sparse,
        )

    def batched(self, group: int) -> "KernelCost":
        """Cost of one *batched* library call doing this kernel's work
        ``group`` times (cuBLAS ``*Batched`` pricing): FLOPs and memory
        traffic scale with the group, the launch overhead does **not** — the
        whole stack goes through a single launch.  ``char_dim`` is unchanged
        because batching processes each member at its own matrix dimensions;
        it amortizes launches, it does not make small BLAS operands large.
        """
        require(group >= 1, "group must be >= 1")
        return KernelCost(
            flops=self.flops * group,
            bytes_moved=self.bytes_moved * group,
            launches=self.launches,
            char_dim=self.char_dim,
            sparse=self.sparse,
        )

    def time_on(self, spec: DeviceSpec) -> float:
        """Simulated execution time of this cost on *spec* (roofline)."""
        peak = spec.peak_flops * (spec.sparse_discount if self.sparse else 1.0)
        eff = spec.eff_max * self.char_dim / (self.char_dim + spec.dim_half)
        compute = self.flops / (peak * max(eff, 1e-9)) if self.flops else 0.0
        memory = self.bytes_moved / spec.mem_bandwidth
        return self.launches * spec.launch_overhead + max(compute, memory)


ZERO_COST = KernelCost(flops=0.0, bytes_moved=0.0, launches=0, char_dim=1.0)


@dataclass
class CostLedger:
    """Accumulates kernel costs and simulated time for one resource."""

    spec: DeviceSpec
    elapsed: float = 0.0
    total: KernelCost = field(default_factory=lambda: ZERO_COST)
    calls: int = 0

    def charge(self, cost: KernelCost) -> float:
        """Account *cost*, returning the simulated duration charged."""
        dt = cost.time_on(self.spec)
        self.elapsed += dt
        self.total = self.total + cost
        self.calls += 1
        return dt

    def absorb(self, other: "CostLedger") -> None:
        """Fold another ledger's history into this one (same resource).

        Used by the batch engine to merge the per-group executors of a
        thread-parallel grouped execution back into the caller's executor.
        """
        self.elapsed += other.elapsed
        self.total = self.total + other.total
        self.calls += other.calls

    def reset(self) -> None:
        self.elapsed = 0.0
        self.total = ZERO_COST
        self.calls = 0


def dense_bytes(*shape_pairs: tuple[int, int]) -> float:
    """Total bytes of a set of dense (rows, cols) float64 arrays."""
    return float(sum(r * c for r, c in shape_pairs)) * FLOAT64_BYTES


def csx_bytes(nnz: int, n_major: int) -> float:
    """Bytes of a CSR/CSC matrix: values + indices + pointer array."""
    return nnz * (FLOAT64_BYTES + INDEX_BYTES) + (n_major + 1) * INDEX_BYTES


__all__ = [
    "KernelCost",
    "CostLedger",
    "ZERO_COST",
    "dense_bytes",
    "csx_bytes",
    "FLOAT64_BYTES",
    "INDEX_BYTES",
]
