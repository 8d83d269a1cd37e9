"""The Schur-complement assembler — the paper's end-to-end algorithm.

Given a Cholesky factor ``L`` of the regularized subdomain matrix and the
transposed gluing matrix ``B̃^T``, assembles the local dual operator

    ``F̃ = B̃ L^{-T} L^{-1} B̃^T = (L^{-1} B̃^T)^T (L^{-1} B̃^T) = Y^T Y``

(eq. 14) with the configured TRSM/SYRK variants:

1. permute the columns of ``B̃^T`` into the stepped shape (§3),
2. (GPU) transfer the factor and the dense RHS to the device,
3. TRSM (orig / RHS-split / factor-split + pruning),
4. SYRK (orig / input-split / output-split),
5. permute the result back to the original multiplier order.

Steps 2–5 are one chain over a packed ``(group, n, m)`` stack; the entry
points only differ in how they pack it — one subdomain (a group of one),
one fingerprint group, one near class padded into its pattern union, or
*nobody*: :meth:`SchurAssembler.estimate` runs the chain on a zero-member
stack, which executes nothing and charges what a stack of one would.

Numerics are exact; time is simulated on the executor's device roofline
plus the PCIe transfer model.  A breakdown per stage is returned so the
benchmarks can reproduce the paper's per-kernel and whole-assembly figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.config import AssemblyConfig, default_config
from repro.core.stepped import SteppedShape, stepped_permutation
from repro.core.syrk_split import syrk_input_split, syrk_orig, syrk_output_split
from repro.core.trsm_split import (
    PruningPlan,
    trsm_factor_split,
    trsm_orig,
    trsm_rhs_split,
)
from repro.gpu.costmodel import FLOAT64_BYTES, csx_bytes, dense_bytes
from repro.gpu.kernels import priced_group
from repro.gpu.runtime import Executor, PricingExecutor
from repro.gpu.spec import A100_40GB, EPYC_7763_CORE, PCIE4_X16, DeviceSpec, TransferSpec
from repro.sparse.canonical import UnionPlan
from repro.sparse.cholesky import CholeskyFactor
from repro.sparse.stacked import (
    StackedCSC,
    stack_into_union,
    stack_permuted_dense,
    stack_union_permuted_dense,
)
from repro.util import require


@dataclass
class SchurAssemblyResult:
    """Assembled local dual operator plus simulated-time accounting.

    ``f`` is in the *original* multiplier ordering of ``bt``'s columns.
    ``breakdown`` has the simulated seconds per stage: ``transfer``,
    ``permute``, ``trsm``, ``syrk``; ``elapsed`` is their sum.
    """

    f: np.ndarray
    elapsed: float
    breakdown: dict[str, float]
    shape: SteppedShape
    col_perm: np.ndarray
    y: np.ndarray | None = None

    @property
    def n_multipliers(self) -> int:
        return self.f.shape[0]


@dataclass
class MemoryEstimate:
    """Device bytes an assembly needs (for the pipeline's memory pool)."""

    persistent: float  # the SC itself, kept for the iterative solver
    temporary: float  # factor copy + dense RHS, freed after assembly


@dataclass(frozen=True)
class PreparedPattern:
    """Pattern-only artifacts of one assembly, computed once per pattern.

    The batch engine (:mod:`repro.batch`) computes these per *fingerprint
    group* and hands them to :meth:`SchurAssembler.assemble`, which then
    skips the stepped analysis and the pruning scans.  Must describe the
    exact stored pattern of the inputs — sharing across members is only
    valid when their fingerprints match.
    """

    col_perm: np.ndarray
    shape: SteppedShape
    pruning_plan: PruningPlan | None = None


def prepare_pattern(
    bt_rows: sp.csc_matrix,
    config: AssemblyConfig,
    factor_pattern: StackedCSC | None = None,
) -> PreparedPattern:
    """Build the pattern artifacts for one assembly.

    Single source of truth for the stepped-permutation branch, shared by
    :class:`SchurAssembler` and the batch engine so the two paths cannot
    drift apart.  *bt_rows* is ``B̃^T`` with the factor's row
    permutation already applied.  When *factor_pattern* (any stack over the
    factor's pattern, e.g. :meth:`StackedCSC.pattern_of`) is given and the
    configuration uses factor-split pruning, the pruning plan is built too;
    without it the plan stays ``None`` and the kernel scans ad hoc.
    """
    n, m = bt_rows.shape
    if config.use_stepped_permutation:
        col_perm, shape = stepped_permutation(bt_rows)
    else:
        col_perm = np.arange(m, dtype=np.intp)
        shape = SteppedShape(n_rows=n, pivots=np.zeros(m, dtype=np.intp))
    plan = None
    if (
        factor_pattern is not None
        and config.trsm_variant == "factor_split"
        and config.prune
    ):
        plan = PruningPlan.from_pattern(factor_pattern, config.trsm_blocks.resolve(n))
    return PreparedPattern(col_perm=col_perm, shape=shape, pruning_plan=plan)


class SchurAssembler:
    """Assembles explicit Schur complements on a simulated device.

    Parameters
    ----------
    config:
        Kernel variants and block parameters; defaults to the paper's tuned
        GPU/3D configuration.
    spec:
        Device roofline; :data:`~repro.gpu.spec.A100_40GB` or
        :data:`~repro.gpu.spec.EPYC_7763_CORE`.
    transfer:
        Host<->device link; ``None`` (CPU execution) disables transfer
        charges.
    """

    def __init__(
        self,
        config: AssemblyConfig | None = None,
        spec: DeviceSpec = A100_40GB,
        transfer: TransferSpec | None = PCIE4_X16,
    ) -> None:
        self.config = config if config is not None else default_config("gpu", 3)
        self.spec = spec
        self.transfer = transfer if spec.kind == "gpu" else None

    @classmethod
    def for_cpu(cls, config: AssemblyConfig | None = None) -> "SchurAssembler":
        return cls(
            config=config if config is not None else default_config("cpu", 3),
            spec=EPYC_7763_CORE,
            transfer=None,
        )

    def estimate_memory(self, n: int, nnz: int, m: int) -> MemoryEstimate:
        """Device-memory footprint of assembling one subdomain: factor order
        *n* with *nnz* stored entries, *m* multipliers."""
        persistent = m * m * FLOAT64_BYTES
        temporary = csx_bytes(nnz, n) + dense_bytes((n, m))
        if self.config.factor_storage == "dense":
            temporary += dense_bytes((n, n))
        return MemoryEstimate(persistent=persistent, temporary=temporary)

    def estimate(self, factor: CholeskyFactor, bt: sp.spmatrix) -> dict[str, float]:
        """Price the assembly without executing it: :meth:`assemble` on a
        stack of zero members.

        Returns the same per-stage breakdown as :meth:`assemble` plus a
        ``"total"`` key.  Used by the benchmark sweeps at subdomain sizes (up
        to 70k DOFs in 3-D) where executing the numerics in pure Python
        would be infeasible; ``tests/test_estimate.py`` asserts it equals the
        executed breakdown where both run.
        """
        require(sp.issparse(bt), "bt must be sparse")
        require(bt.shape[0] == factor.n, "bt row count mismatch")
        prepared = prepare_pattern(bt.tocsr()[factor.perm].tocsc(), self.config)
        return self.estimate_pattern(StackedCSC.pattern_of(factor.l), prepared)

    def estimate_pattern(self, patt: StackedCSC, prepared: PreparedPattern) -> dict[str, float]:
        """:meth:`estimate` from pattern artifacts alone — the cacheable
        form: *patt* is the zero-member stack over the factor pattern
        (:meth:`StackedCSC.pattern_of`)."""
        x_stack = np.empty((0, prepared.shape.n_rows, prepared.shape.n_cols))
        _, breakdown = self._run_chain(patt, x_stack, prepared, PricingExecutor(self.spec))
        breakdown["total"] = sum(breakdown.values())
        return breakdown

    def assemble(
        self,
        factor: CholeskyFactor,
        bt: sp.spmatrix,
        executor: Executor | None = None,
        keep_y: bool = False,
        prepared: PreparedPattern | None = None,
        bt_rows: sp.spmatrix | None = None,
    ) -> SchurAssemblyResult:
        """Assemble ``F = B K_reg^{-1} B^T`` for one subdomain — a group of
        one through the stacked kernels.

        Parameters
        ----------
        factor:
            Cholesky factorization of the regularized subdomain matrix.
        bt:
            Sparse ``B̃^T`` (n x m) in the *original* DOF and multiplier
            ordering — the assembler applies the factor's row permutation
            and the stepped column permutation internally.
        executor:
            Optional shared executor (accumulates across subdomains);
            a fresh one is created otherwise.
        keep_y:
            Keep the intermediate ``Y = L^{-1} B̃^T`` in the result (tests).
        prepared:
            Precomputed pattern artifacts (stepped permutation + pruning
            plan) from the batch pattern cache; numerics are identical with
            and without, only the host-side analysis is skipped.
        bt_rows:
            Precomputed ``bt.tocsr()[factor.perm]`` — the batch engine
            permutes it once per item for the fingerprint and shares it
            here instead of paying the row permutation again.
        """
        return self._assemble_exact(
            [factor], [bt], executor, keep_y, prepared, None if bt_rows is None else [bt_rows]
        )[0]

    def assemble_group(
        self,
        factors: list[CholeskyFactor],
        bts: list[sp.spmatrix],
        executor: Executor | None = None,
        keep_y: bool = False,
        prepared: PreparedPattern | None = None,
        bt_rows: list[sp.spmatrix] | None = None,
    ) -> list[SchurAssemblyResult]:
        """Assemble one whole fingerprint group in one stack.

        All members must share the exact stored factor pattern and the exact
        (row-permuted) gluing pattern — the guarantee an equal
        :func:`~repro.batch.fingerprint.factor_fingerprint` gives; the
        stacking validates it and raises otherwise.  One ``(group, n, m)``
        RHS runs through the TRSM/SYRK variants, so the group pays one kernel
        launch per step instead of one per member.  Results match
        :meth:`assemble` to tight floating-point tolerance (BLAS association
        order differs inside the stacked triangular solves) and the charged
        FLOPs/traffic are identical — only launches shrink.

        Each returned member's ``breakdown``/``elapsed`` is the group total
        divided by the group size (a stacked kernel is indivisible; an equal
        share keeps per-member sums equal to the group cost).

        Parameters mirror :meth:`assemble`; *bt_rows* accepts the
        per-member ``bt.tocsr()[factor.perm]`` list the batch engine already
        computed for the fingerprints.
        """
        return self._assemble_exact(factors, bts, executor, keep_y, prepared, bt_rows)

    def assemble_union(
        self,
        factors: list[CholeskyFactor],
        bt_rows: list[sp.spmatrix],
        plan: "UnionPlan",
        executor: Executor | None = None,
        prepared: PreparedPattern | None = None,
    ) -> list[SchurAssemblyResult]:
        """Assemble one *near class* in one padded stack.

        The value-tolerant tier between :meth:`assemble_group` and
        :meth:`assemble`: members need not share a pattern — or even a
        size.  Every member embeds at the identity prefix of the class's
        structural union (:func:`repro.sparse.canonical.union_plan`), so the
        stacked factor is ``[[L, 0], [0, I]]`` and the stacked RHS
        ``[[X], [0]]``; the padding positions hold explicit zeros (and a
        unit diagonal), which forward substitution and the Gram product map
        to structural zeros — each member's Schur complement is recovered
        *exactly* from the leading block, no values approximated, while the
        whole class pays one kernel launch per step.

        The trade is fill: the padded stacks store and stream
        ``plan.fill_ratio`` times the members' exact entries, priced
        faithfully by the kernels (padded flops/bytes are charged like any
        other entries).  The batch engine guards this with its
        ``union_fill_cap``.

        Parameters
        ----------
        factors / bt_rows:
            The members' factors and *row-permuted* (and, for canonical
            items, column-canonicalized) gluing matrices — the same objects
            :func:`repro.sparse.canonical.union_plan` consumed; shapes and
            stored patterns must match the plan member-for-member.
        plan:
            The class's :class:`~repro.sparse.canonical.UnionPlan`.
        prepared:
            Pattern artifacts of the *union* pattern (stepped permutation +
            pruning plan built on the union, conservative supersets of
            every member's); built ad hoc when omitted.

        Returns one :class:`SchurAssemblyResult` per member, with ``f``
        sliced to the member's own ``(m, m)`` multiplier block and the
        breakdown an equal share of the group total, mirroring
        :meth:`assemble_group`.
        """
        g = len(factors)
        require(g >= 1, "assemble_union needs at least one member")
        require(
            len(bt_rows) == g and plan.group == g,
            "factors, bt_rows and plan members must agree",
        )
        stacked_l = stack_into_union(
            [f.l for f in factors], plan.l_union, pad_diagonal=True
        )
        if prepared is None:
            prepared = prepare_pattern(plan.bt_union.pattern_csc(), self.config)
        x_stack = stack_union_permuted_dense(bt_rows, plan.bt_union, prepared.col_perm)
        results = self._assemble_stack(stacked_l, x_stack, prepared, executor)
        # Host-side slice back to each member's own multiplier block — like
        # the engine's unrelabel step, a pure uncharged gather.
        for res, embedding in zip(results, plan.embeddings):
            res.f = embedding.extract_sc(res.f)
        return results

    def _assemble_exact(
        self,
        factors: list[CholeskyFactor],
        bts: list[sp.spmatrix],
        executor: Executor | None,
        keep_y: bool,
        prepared: PreparedPattern | None,
        bt_rows: list[sp.spmatrix] | None,
    ) -> list[SchurAssemblyResult]:
        """Stack members that share their exact patterns (host side) — the
        packing :meth:`assemble` (a group of one) and :meth:`assemble_group`
        have in common."""
        g = len(factors)
        require(g >= 1, "assemble_group needs at least one member")
        require(len(bts) == g, "factors and bts must have the same length")
        n = factors[0].n
        require(all(f.n == n for f in factors), "group members must share the factor order")
        for idx, bt in enumerate(bts):
            require(sp.issparse(bt), f"member {idx}: bt must be sparse")
            require(bt.shape == bts[0].shape, f"member {idx}: bt shape differs")
        require(bts[0].shape[0] == n, f"bt has {bts[0].shape[0]} rows, factor order is {n}")
        if bt_rows is None:
            bt_rows = [bt.tocsr()[f.perm].tocsc() for f, bt in zip(factors, bts)]
        else:
            require(len(bt_rows) == g, "bt_rows must have one entry per member")
            for b, bt in zip(bt_rows, bts):
                require(
                    sp.issparse(b) and b.shape == bt.shape,
                    "bt_rows must be sparse with the same shape as bt",
                )
            bt_rows = [b.tocsc() for b in bt_rows]
        stacked_l = StackedCSC.from_matrices([f.l for f in factors])
        if prepared is None:
            prepared = prepare_pattern(bt_rows[0], self.config)
        # One stacked scatter permutes + densifies every member's RHS.
        x_stack = stack_permuted_dense(bt_rows, prepared.col_perm)
        return self._assemble_stack(stacked_l, x_stack, prepared, executor, keep_y)

    def _assemble_stack(
        self,
        stacked_l: StackedCSC,
        x_stack: np.ndarray,
        prepared: PreparedPattern,
        executor: Executor | None,
        keep_y: bool = False,
    ) -> list[SchurAssemblyResult]:
        """Run the chain over a packed stack of members and hand every
        member its result and an equal share of the stack's breakdown."""
        g = x_stack.shape[0]
        ex = executor if executor is not None else Executor(self.spec)
        f_out, breakdown = self._run_chain(stacked_l, x_stack, prepared, ex)
        share = {k: v / g for k, v in breakdown.items()}
        elapsed = sum(share.values())
        return [
            SchurAssemblyResult(
                f=f_out[i],
                elapsed=elapsed,
                breakdown=dict(share),
                shape=prepared.shape,
                col_perm=prepared.col_perm,
                # Copy: a view would pin the whole group stack through any
                # single retained result.
                y=x_stack[i].copy() if keep_y else None,
            )
            for i in range(g)
        ]

    def _run_chain(
        self,
        stacked_l: StackedCSC,
        x_stack: np.ndarray,
        prepared: PreparedPattern,
        ex: Executor,
    ) -> tuple[np.ndarray, dict[str, float]]:
        """The one assembler body: transfer → TRSM → SYRK → inverse
        symmetric permute over a packed stack; returns the ``(group, m, m)``
        SC stack and the simulated seconds per stage.

        The kernels are pattern-driven, so exact stacks, padded union stacks
        and the zero-member stack of a dry run differ only in how they were
        packed.  Mutates *x_stack* in place (the TRSM solution).
        """
        cfg = self.config
        g, n, m = x_stack.shape
        priced = priced_group(g)
        shape = prepared.shape
        require(
            shape.n_rows == n and shape.n_cols == m,
            "prepared pattern does not match factor/bt dimensions",
        )
        breakdown = {"transfer": 0.0, "permute": 0.0, "trsm": 0.0, "syrk": 0.0}
        mark = ex.elapsed
        # The column permutation + densification is a memory-traffic op.
        ex.charge_bytes(2.0 * (priced * n * m) * FLOAT64_BYTES)
        breakdown["permute"] += ex.elapsed - mark
        mark = ex.elapsed

        # --- transfers (GPU only): one stacked copy for the group -----------
        if self.transfer is not None:
            h2d_bytes = csx_bytes(stacked_l.nnz, n) + dense_bytes((n, m))
            breakdown["transfer"] += self.transfer.time(priced * h2d_bytes)

        # --- TRSM -------------------------------------------------------------
        if cfg.trsm_variant == "orig":
            trsm_orig(ex, stacked_l, x_stack, storage=cfg.factor_storage)
        elif cfg.trsm_variant == "rhs_split":
            trsm_rhs_split(
                ex, stacked_l, x_stack, shape, cfg.trsm_blocks, storage=cfg.factor_storage
            )
        else:
            trsm_factor_split(
                ex,
                stacked_l,
                x_stack,
                shape,
                cfg.trsm_blocks,
                storage=cfg.factor_storage,
                prune=cfg.prune,
                plan=prepared.pruning_plan,
            )
        breakdown["trsm"] += ex.elapsed - mark
        mark = ex.elapsed

        # --- SYRK -------------------------------------------------------------
        f_stack = np.zeros((g, m, m), dtype=np.float64)
        if cfg.syrk_variant == "orig":
            syrk_orig(ex, x_stack, f_stack)
        elif cfg.syrk_variant == "input_split":
            syrk_input_split(ex, x_stack, f_stack, shape, cfg.syrk_blocks)
        else:
            syrk_output_split(ex, x_stack, f_stack, shape, cfg.syrk_blocks)
        breakdown["syrk"] += ex.elapsed - mark
        mark = ex.elapsed

        # --- permute the SCs back to the original multiplier order -----------
        f_out = ex.symmetric_permute(f_stack, prepared.col_perm, inverse=True)
        breakdown["permute"] += ex.elapsed - mark
        return f_out, breakdown


__all__ = [
    "SchurAssembler",
    "SchurAssemblyResult",
    "MemoryEstimate",
    "PreparedPattern",
    "prepare_pattern",
]
