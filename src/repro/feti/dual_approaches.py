"""The eight dual-operator approaches of Table 2.

==============  ==============================================================
approach        description (paper Table 2)
==============  ==============================================================
impl_mkl        the MKL PARDISO solver on CPU (implicit)
impl_cholmod    the CHOLMOD solver on CPU (implicit)
expl_mkl        augmented incomplete factorization from MKL PARDISO on CPU
expl_cholmod    TRSM with the CHOLMOD solver on CPU (baseline kernels)
expl_cuda       CUDA with factors from CHOLMOD (the [9] baseline on GPU)
expl_cpu_opt    optimized TRSM and SYRK on CPU (this paper)
expl_gpu_opt    optimized TRSM and SYRK on GPU (this paper)
expl_hybrid     assembly expl_mkl, application GPU
==============  ==============================================================

Each approach preprocesses one subdomain into a
:class:`~repro.feti.operator.LocalDualOperator` plus simulated stage timings
(factorization / assembly / transfers / per-iteration application).  The
numerics are identical across approaches — only the algorithms and the
priced devices differ — which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assembler import SchurAssembler
from repro.core.config import AssemblyConfig, baseline_config, default_config
from repro.dd.subdomain import Subdomain
from repro.feti.operator import (
    ExplicitLocalOperator,
    ImplicitLocalOperator,
    LocalDualOperator,
    factorize_subdomain,
)
from repro.feti.timing import (
    CHOLMOD,
    MKL_PARDISO,
    FactorizationLibrary,
    explicit_apply_time,
    implicit_apply_time,
    sc_transfer_time,
)
from repro.gpu.spec import A100_40GB, EPYC_7763_CORE
from repro.sparse.schur_augmented import schur_augmented
from repro.util import require


@dataclass
class SubdomainPreprocess:
    """Result of preprocessing one subdomain under one approach."""

    local_op: LocalDualOperator
    factorization_time: float
    assembly_time: float  # 0 for implicit approaches
    transfer_time: float  # SC upload (hybrid) — kernel h2d is inside assembly
    apply_time: float  # per-iteration application cost

    @property
    def preprocessing_time(self) -> float:
        return self.factorization_time + self.assembly_time + self.transfer_time


class DualOperatorApproach:
    """Base class: one row of Table 2."""

    name: str = "abstract"
    explicit: bool = False
    apply_device: str = "cpu"  # where F is applied each iteration

    def preprocess_subdomain(
        self,
        sub: Subdomain,
        ordering: str = "nd",
        engine: str = "superlu",
        reuse=None,
    ) -> SubdomainPreprocess:
        """Preprocess one subdomain; *reuse* is the caller's
        :class:`~repro.sparse.reuse.SymbolicReuse` scope, forwarded to
        :func:`~repro.feti.operator.factorize_subdomain`."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.name}>"


class _ImplicitApproach(DualOperatorApproach):
    """Shared implementation of the two implicit rows."""

    library: FactorizationLibrary

    def preprocess_subdomain(self, sub, ordering="nd", engine="superlu", reuse=None):
        factor = factorize_subdomain(sub, ordering=ordering, engine=engine, reuse=reuse)
        return SubdomainPreprocess(
            local_op=ImplicitLocalOperator(factor=factor, bt=sub.bt),
            factorization_time=self.library.factorization_time(factor),
            assembly_time=0.0,
            transfer_time=0.0,
            apply_time=implicit_apply_time(factor, sub.bt),
        )


class ImplMkl(_ImplicitApproach):
    name = "impl_mkl"
    library = MKL_PARDISO


class ImplCholmod(_ImplicitApproach):
    name = "impl_cholmod"
    library = CHOLMOD


class ExplMkl(DualOperatorApproach):
    """PARDISO's augmented incomplete factorization on the CPU."""

    name = "expl_mkl"
    explicit = True
    apply_device = "cpu"

    def preprocess_subdomain(self, sub, ordering="nd", engine="superlu", reuse=None):
        factor = factorize_subdomain(sub, ordering=ordering, engine=engine, reuse=reuse)
        res = schur_augmented(sub.regularized(), sub.bt, factor=factor)
        from repro.gpu.costmodel import KernelCost

        # PARDISO's augmented SC runs inside its supernodal (BLAS3) kernels:
        # price at dense rates with a moderate blocking dimension.
        asm_cost = KernelCost(
            flops=res.solve_flops + res.syrk_flops,
            bytes_moved=12.0 * res.y_nnz,
            launches=1,
            char_dim=32.0,
            sparse=False,
        )
        return SubdomainPreprocess(
            local_op=ExplicitLocalOperator(f=res.schur, factor=factor),
            factorization_time=MKL_PARDISO.factorization_time(factor),
            assembly_time=asm_cost.time_on(EPYC_7763_CORE),
            transfer_time=0.0,
            apply_time=explicit_apply_time(sub.bt.shape[1], EPYC_7763_CORE),
        )


class _AssemblerApproach(DualOperatorApproach):
    """Shared implementation of the four SchurAssembler-based rows."""

    explicit = True
    gpu: bool = False

    def _config(self, dim: int) -> AssemblyConfig:
        raise NotImplementedError

    def preprocess_subdomain(self, sub, ordering="nd", engine="superlu", reuse=None):
        dim = sub.coords.shape[1]
        require(dim in (2, 3), "subdomain must be 2-D or 3-D")
        factor = factorize_subdomain(sub, ordering=ordering, engine=engine, reuse=reuse)
        if self.gpu:
            assembler = SchurAssembler(config=self._config(dim), spec=A100_40GB)
            apply_t = explicit_apply_time(
                sub.bt.shape[1], A100_40GB, transfer=assembler.transfer
            )
        else:
            assembler = SchurAssembler.for_cpu(config=self._config(dim))
            apply_t = explicit_apply_time(sub.bt.shape[1], EPYC_7763_CORE)
        res = assembler.assemble(factor, sub.bt)
        return SubdomainPreprocess(
            local_op=ExplicitLocalOperator(f=res.f, factor=factor),
            factorization_time=CHOLMOD.factorization_time(factor),
            assembly_time=res.elapsed,
            transfer_time=0.0,  # kernel h2d already inside res.elapsed
            apply_time=apply_t,
        )


class ExplCholmod(_AssemblerApproach):
    """Full TRSM with extracted CHOLMOD factors + SYRK on the CPU."""

    name = "expl_cholmod"
    apply_device = "cpu"
    gpu = False

    def _config(self, dim):
        return baseline_config("sparse")


class ExplCuda(_AssemblerApproach):
    """The previous best GPU approach [9]: baseline kernels on the GPU
    (whole-factor cuSPARSE TRSM + full SYRK)."""

    name = "expl_cuda"
    apply_device = "gpu"
    gpu = True

    def _config(self, dim):
        return baseline_config("sparse")


class ExplCpuOpt(_AssemblerApproach):
    """This paper's optimized kernels on the CPU."""

    name = "expl_cpu_opt"
    apply_device = "cpu"
    gpu = False

    def _config(self, dim):
        return default_config("cpu", dim)


class ExplGpuOpt(_AssemblerApproach):
    """This paper's optimized kernels on the GPU — the headline approach."""

    name = "expl_gpu_opt"
    apply_device = "gpu"
    gpu = True

    def _config(self, dim):
        return default_config("gpu", dim)


class ExplHybrid(DualOperatorApproach):
    """Assembly by expl_mkl on the CPU, application on the GPU."""

    name = "expl_hybrid"
    explicit = True
    apply_device = "gpu"

    def preprocess_subdomain(self, sub, ordering="nd", engine="superlu", reuse=None):
        base = ExplMkl().preprocess_subdomain(
            sub, ordering=ordering, engine=engine, reuse=reuse
        )
        m = sub.bt.shape[1]
        from repro.gpu.spec import PCIE4_X16

        return SubdomainPreprocess(
            local_op=base.local_op,
            factorization_time=base.factorization_time,
            assembly_time=base.assembly_time,
            transfer_time=sc_transfer_time(m),
            apply_time=explicit_apply_time(m, A100_40GB, transfer=PCIE4_X16),
        )


def estimate_approach_timing(
    name: str,
    factor,
    bt,
    dim: int,
    max_augmented_columns: int = 512,
) -> "ApproachTiming":
    """Predict an approach's per-subdomain timings from patterns alone.

    Mirrors :meth:`DualOperatorApproach.preprocess_subdomain` but never
    executes numerics: assembler approaches run the assembler's own kernel
    chain on a zero-member stack (``SchurAssembler.estimate``), expl_mkl /
    expl_hybrid the etree-reach estimator of :mod:`repro.sparse.schur_estimate`.
    Used by the Fig. 9 / Fig. 10 sweeps at sizes where execution is infeasible;
    ``tests/test_approach_estimates.py`` checks agreement with the executed
    path.
    """
    from repro.core.assembler import SchurAssembler
    from repro.feti.amortization import ApproachTiming
    from repro.gpu.costmodel import KernelCost
    from repro.gpu.spec import PCIE4_X16
    from repro.sparse.schur_estimate import estimate_augmented_cost

    require(name in APPROACHES, f"unknown approach {name!r}")
    require(dim in (2, 3), "dim must be 2 or 3")
    m = bt.shape[1]

    if name in ("impl_mkl", "impl_cholmod"):
        lib = MKL_PARDISO if name == "impl_mkl" else CHOLMOD
        return ApproachTiming(
            name=name,
            preprocessing=lib.factorization_time(factor),
            apply_per_iteration=implicit_apply_time(factor, bt),
        )

    if name in ("expl_mkl", "expl_hybrid"):
        est = estimate_augmented_cost(factor, bt, max_columns=max_augmented_columns)
        asm_cost = KernelCost(
            flops=est.solve_flops + est.syrk_flops,
            bytes_moved=12.0 * est.y_nnz,
            launches=1,
            char_dim=32.0,
            sparse=False,
        )
        prep = MKL_PARDISO.factorization_time(factor) + asm_cost.time_on(EPYC_7763_CORE)
        if name == "expl_mkl":
            return ApproachTiming(
                name=name,
                preprocessing=prep,
                apply_per_iteration=explicit_apply_time(m, EPYC_7763_CORE),
            )
        return ApproachTiming(
            name=name,
            preprocessing=prep + sc_transfer_time(m),
            apply_per_iteration=explicit_apply_time(m, A100_40GB, transfer=PCIE4_X16),
        )

    # Assembler-based approaches.
    cls = APPROACHES[name]
    instance = cls()
    assert isinstance(instance, _AssemblerApproach)
    if instance.gpu:
        assembler = SchurAssembler(config=instance._config(dim), spec=A100_40GB)
        apply_t = explicit_apply_time(m, A100_40GB, transfer=PCIE4_X16)
    else:
        assembler = SchurAssembler.for_cpu(config=instance._config(dim))
        apply_t = explicit_apply_time(m, EPYC_7763_CORE)
    asm = assembler.estimate(factor, bt)["total"]
    return ApproachTiming(
        name=name,
        preprocessing=CHOLMOD.factorization_time(factor) + asm,
        apply_per_iteration=apply_t,
    )


APPROACHES: dict[str, type[DualOperatorApproach]] = {
    cls.name: cls
    for cls in (
        ImplMkl,
        ImplCholmod,
        ExplMkl,
        ExplCholmod,
        ExplCuda,
        ExplCpuOpt,
        ExplGpuOpt,
        ExplHybrid,
    )
}


def make_approach(name: str) -> DualOperatorApproach:
    """Instantiate a Table-2 approach by name."""
    require(name in APPROACHES, f"unknown approach {name!r}; know {sorted(APPROACHES)}")
    return APPROACHES[name]()


__all__ = [
    "DualOperatorApproach",
    "SubdomainPreprocess",
    "APPROACHES",
    "make_approach",
    "ImplMkl",
    "ImplCholmod",
    "ExplMkl",
    "ExplCholmod",
    "ExplCuda",
    "ExplCpuOpt",
    "ExplGpuOpt",
    "ExplHybrid",
]
