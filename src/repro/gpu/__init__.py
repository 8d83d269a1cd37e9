"""Simulated GPU substrate: device specs, cost model, kernels, runtime, memory.

Replaces the paper's CUDA/cuBLAS/cuSPARSE stack: kernels execute their exact
numerics with NumPy/SciPy while a calibrated roofline model accounts
simulated time (see docs/architecture.md, "gpu").
"""

from repro.gpu.costmodel import (
    FLOAT64_BYTES,
    INDEX_BYTES,
    CostLedger,
    KernelCost,
    csx_bytes,
    dense_bytes,
)
from repro.gpu.memory import Allocation, MemoryPool, OutOfDeviceMemoryError
from repro.gpu.runtime import (
    Executor,
    GpuEvent,
    SimulatedGpu,
    Stream,
    cpu_executor,
    gpu_executor,
)
from repro.gpu.spec import A100_40GB, EPYC_7763_CORE, PCIE4_X16, DeviceSpec, TransferSpec

__all__ = [
    "DeviceSpec",
    "TransferSpec",
    "A100_40GB",
    "EPYC_7763_CORE",
    "PCIE4_X16",
    "KernelCost",
    "CostLedger",
    "dense_bytes",
    "csx_bytes",
    "FLOAT64_BYTES",
    "INDEX_BYTES",
    "Executor",
    "cpu_executor",
    "gpu_executor",
    "SimulatedGpu",
    "Stream",
    "GpuEvent",
    "MemoryPool",
    "Allocation",
    "OutOfDeviceMemoryError",
]
