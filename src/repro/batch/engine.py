"""The batch assembler: population-scale SC assembly with pattern reuse.

Instead of assembling subdomains one at a time, :class:`BatchAssembler`
takes a whole population, groups it by structural fingerprint, performs the
pattern-only analysis (stepped permutation, pruning plan, symbolic factor,
cost estimate) **once per group** through the :class:`~repro.batch.cache.PatternCache`,
and then:

* executes every member's numerics with the cached
  :class:`~repro.core.assembler.PreparedPattern` — results are numerically
  identical to independent :meth:`~repro.core.assembler.SchurAssembler.assemble`
  calls, and
* prices every member from the cached estimate into a
  :class:`~repro.runtime.pipeline.SubdomainWork` list that feeds the
  existing ``sep``/``mix`` multi-stream scheduler of
  :mod:`repro.runtime.pipeline`.

The simulated win is the host-side symbolic analysis: charged once per
distinct pattern instead of once per subdomain (CHOLMOD-style supernodal
reuse, "performed once, reused across repeated numeric factorizations").

Items that carry a :class:`~repro.sparse.canonical.CanonicalRelabeling`
(built by :func:`items_from_decomposition` with ``canonicalize=True``, the
default) group by the **canonical-class** key instead of the raw exact
key: mirror- and rotation-identical subdomains — factorized in the shared
canonical orientation frame — collide on purpose, share one artifact set,
stack into one batched numeric group, and have their Schur complements
mapped back to each member's own multiplier order on the way out
(``relabeling.unapply_sc``).  A floating 5x5 grid drops from 9 executed
groups to 3; see ``docs/batching.md`` for the full mechanism.

Numeric execution is one runner behind one planner.  After the analysis,
:func:`repro.sparse.stacked.plan_stacks` decides which members share a
stack, and ``execution=`` is nothing but its policy: which exact keys stack
(``"per-member"``: none — every member alone through
:meth:`SchurAssembler.assemble`, bit-identical to independent assembly;
``"grouped"`` / ``"union"``: all, through :meth:`SchurAssembler.assemble_group`
— identical FLOPs/traffic, launches shrink by the stack size, results
allclose at tight tolerance; ``"auto"``: those of at least
:data:`GROUPED_AUTO_THRESHOLD` members, and with sparse factor storage of
order at most :data:`GROUPED_AUTO_MAX_SPARSE_ORDER`), and whether the
geometric classes are offered for union padding (``"union"`` only: a near
class spanning several exact keys pads into its structural pattern union
with explicit zeros and runs :meth:`SchurAssembler.assemble_union` — exact
results at :attr:`~repro.sparse.canonical.UnionPlan.fill_ratio` times the
stored entries; classes above *union_fill_cap*, default
:data:`DEFAULT_UNION_FILL_CAP`, keep their exact stacks).  Members that run
alone charge the call's executor serially; every stack gets its own executor
and independent stacks fan out across a ``ThreadPoolExecutor`` (*n_workers*;
NumPy/SciPy release the GIL in BLAS).  See ``docs/batching.md``.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.batch.cache import PatternCache, SymbolicArtifacts
from repro.batch.fingerprint import (
    SIGNATURE_MODES,
    factor_fingerprint,
    geometric_fingerprint_for,
    pattern_digest,
    union_fingerprint,
)
from repro.batch.stats import BatchStats
from repro.core.assembler import SchurAssembler, SchurAssemblyResult, prepare_pattern
from repro.core.config import AssemblyConfig
from repro.feti.timing import CHOLMOD, FactorizationLibrary
from repro.gpu.costmodel import KernelCost, csx_bytes
from repro.gpu.runtime import Executor
from repro.gpu.spec import A100_40GB, EPYC_7763_CORE, PCIE4_X16, DeviceSpec, TransferSpec
from repro.obs import Trace, get_tracer, record_batch_stats, record_cost_ledger
from repro.runtime.pipeline import PipelineResult, SubdomainWork, run_preprocessing_pipeline
from repro.runtime.scheduler import host_worker_count
from repro.sparse.canonical import CanonicalRelabeling
from repro.sparse.cholesky import CholeskyFactor
from repro.sparse.stacked import DEFAULT_UNION_FILL_CAP, Stack, StackedCSC, plan_stacks
from repro.sparse.symbolic import symbolic_from_pattern
from repro.util import require


#: Numeric-execution modes of :meth:`BatchAssembler.assemble_batch`.
EXECUTION_MODES = ("per-member", "grouped", "auto", "union")

#: Histogram buckets of the ``batch.union_fill_ratio`` metric.
UNION_FILL_BUCKETS = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)

#: Minimum group size at which ``execution="auto"`` picks the batched path.
GROUPED_AUTO_THRESHOLD = 4

#: With *sparse* factor storage, ``"auto"`` batches only groups whose factor
#: order stays at or below this: the stacked kernels work on dense blocks, so
#: for large sparse factors the per-member SuperLU path does asymptotically
#: less host arithmetic (O(nnz·m) vs O(n²·m)) and wins the wall clock.  With
#: dense storage the per-member path densifies anyway and grouped is
#: strictly better, so no order cap applies.
GROUPED_AUTO_MAX_SPARSE_ORDER = 256


@dataclass(frozen=True)
class BatchItem:
    """One member of an assembly batch.

    *coords* — the subdomain's DOF coordinates — is optional; when present
    the engine additionally reports the coarser translation/orientation-
    invariant geometric grouping alongside the exact pattern groups (see
    :func:`repro.batch.fingerprint.geometric_fingerprint`).

    *relabeling* — a :class:`~repro.sparse.canonical.CanonicalRelabeling`
    matching *factor* (i.e. the factor was built in the canonical frame,
    :func:`repro.feti.operator.factorize_subdomain` with the same
    relabeling) — switches the item to canonical-class grouping: its
    gluing columns are canonicalized for the fingerprint and the executed
    numerics, and the assembled SC is mapped back to the original
    multiplier order before it is returned.
    """

    factor: CholeskyFactor
    bt: sp.spmatrix
    label: str | None = None
    coords: np.ndarray | None = None
    relabeling: "CanonicalRelabeling | None" = None


@dataclass
class BatchResult:
    """Outcome of one :meth:`BatchAssembler.assemble_batch` call.

    ``results[i]`` corresponds to the i-th input item (``None`` entries when
    the batch was planned without execution); ``work[i]`` is its priced
    preprocessing; ``groups`` maps the *executed* fingerprint keys
    (canonical-class keys for items carrying a relabeling) to member
    indices and ``artifacts`` to the shared pattern artifacts.
    ``exact_groups`` holds the finer raw-pattern grouping (no column
    canonicalization) — the groups the batch would have executed without
    orientation-canonical sharing; for items without a relabeling the two
    coincide.  ``geometric_groups`` maps geometric fingerprint keys to
    member indices for the items that carried coordinates (empty
    otherwise) — the symmetry classes a structured decomposition's members
    fall into.  ``union_groups`` maps the geometric keys of the near
    classes the ``"union"`` execution actually padded and batched to their
    member indices (empty for every other mode).

    ``trace`` is the observability handle of the run — the spans and
    metrics collected while a :mod:`repro.obs` tracer was installed
    (``with tracing(): ...``); ``None`` when tracing was off.  Save it with
    ``result.trace.save("out.json")`` (Chrome trace-event JSON, opens in
    Perfetto) or render it with ``result.trace.render()``.
    """

    results: list[SchurAssemblyResult | None]
    work: list[SubdomainWork]
    stats: BatchStats
    groups: dict[str, list[int]]
    artifacts: dict[str, SymbolicArtifacts]
    exact_groups: dict[str, list[int]]
    geometric_groups: dict[str, list[int]]
    union_groups: dict[str, list[int]] = field(default_factory=dict)
    trace: Trace | None = None

    @property
    def n_subdomains(self) -> int:
        return len(self.work)


def symbolic_analysis_cost(
    n: int,
    nnz_l: int,
    m: int,
    nnz_bt: int,
    spec: DeviceSpec = EPYC_7763_CORE,
) -> float:
    """Simulated host seconds of the pattern-only analysis of one subdomain.

    Model: the analysis streams the factor pattern several times (etree +
    supernodes, pruning-plan scan, cost-estimate replay, memory estimate)
    and the gluing pattern twice (column pivots, permutation), all
    bandwidth-bound on one CPU core.  Deliberately simple — the point is
    that it scales with pattern size and is charged per *group* when cached
    versus per *subdomain* without.
    """
    nbytes = 4.0 * csx_bytes(nnz_l, n) + 2.0 * csx_bytes(nnz_bt, max(m, 1))
    cost = KernelCost(flops=0.0, bytes_moved=nbytes, launches=6, char_dim=1.0, sparse=True)
    return cost.time_on(spec)


def build_artifacts(
    patt: StackedCSC,
    bt_rows: sp.spmatrix,
    config: AssemblyConfig,
    spec: DeviceSpec,
    transfer: TransferSpec | None,
    fingerprint,
) -> SymbolicArtifacts:
    """Run the full pattern-only analysis of the pattern pair a stack
    executes on: the factor pattern *patt* (a zero-member stack) and the
    row-permuted gluing pattern *bt_rows*.  The cost estimate is the
    assembler's own kernel chain run on that zero-member stack.

    For an exact key that is any member's own pair
    (``StackedCSC.pattern_of(factor.l)``, ``bt.tocsr()[factor.perm]``);
    for a padded near class it is the class's structural union
    (:class:`~repro.sparse.canonical.UnionPlan`) — just another pattern
    pair, cached under its :func:`~repro.batch.fingerprint.union_fingerprint`.
    """
    n, m = patt.shape[0], bt_rows.shape[1]
    with get_tracer().span("batch.symbolic", n=n, m=m):
        prepared = prepare_pattern(bt_rows.tocsc(), config, factor_pattern=patt)
        assembler = SchurAssembler(config=config, spec=spec, transfer=transfer)
        estimate = assembler.estimate_pattern(patt, prepared)
        memory = assembler.estimate_memory(n, patt.nnz, m)
    return SymbolicArtifacts(
        fingerprint=fingerprint,
        prepared=prepared,
        symbolic=symbolic_from_pattern(patt.indptr, patt.indices, n),
        estimate=estimate,
        memory=memory,
        analysis_seconds=symbolic_analysis_cost(n, patt.nnz, m, bt_rows.nnz),
    )


def union_padding_overhead(
    union_estimate: dict[str, float], member_estimates: list[dict[str, float]]
) -> float:
    """Priced padding overhead of one union class, in simulated seconds: the
    batched run charges every member the padded-pattern estimate, the exact
    per-member runs would charge each its own (launch savings not included)."""
    return len(member_estimates) * union_estimate["total"] - sum(
        e["total"] for e in member_estimates
    )


class BatchAssembler:
    """Assembles *populations* of subdomains with symbolic-pattern reuse.

    Parameters mirror :class:`~repro.core.assembler.SchurAssembler`; *cache*
    may be shared across engines/batches (``PatternCache(max_entries=0)``
    disables reuse — the benchmark baseline), *library* prices the
    per-subdomain numeric factorization fed to the pipeline scheduler.
    """

    def __init__(
        self,
        config: AssemblyConfig | None = None,
        spec: DeviceSpec = A100_40GB,
        transfer: TransferSpec | None = PCIE4_X16,
        cache: PatternCache | None = None,
        library: FactorizationLibrary = CHOLMOD,
        tolerance: float | None = None,
        signature_mode: str = "frame",
        near_size_tolerance: float | None = None,
        near_shape_tolerance: float | None = None,
        union_fill_cap: float | None = None,
    ) -> None:
        from repro.sparse.canonical import (
            DEFAULT_NEAR_SHAPE_TOLERANCE,
            DEFAULT_NEAR_SIZE_TOLERANCE,
            DEFAULT_TOLERANCE,
        )

        require(
            signature_mode in SIGNATURE_MODES,
            f"unknown signature mode {signature_mode!r}; choose from {SIGNATURE_MODES}",
        )
        self.assembler = SchurAssembler(config=config, spec=spec, transfer=transfer)
        self.cache = cache if cache is not None else PatternCache()
        self.library = library
        #: Relative coordinate quantum of the ``"frame"``/``"rotation"``
        #: geometric grouping (for items carrying coordinates); raise it
        #: for noisy mesh coordinates.  The lattice-free ``"near"`` mode is
        #: parameterized by the two bucket widths below instead.
        self.tolerance = DEFAULT_TOLERANCE if tolerance is None else tolerance
        #: Bucket widths of ``signature_mode="near"`` (see
        #: :func:`repro.sparse.canonical.near_signature`).
        self.near_size_tolerance = (
            DEFAULT_NEAR_SIZE_TOLERANCE
            if near_size_tolerance is None
            else near_size_tolerance
        )
        self.near_shape_tolerance = (
            DEFAULT_NEAR_SHAPE_TOLERANCE
            if near_shape_tolerance is None
            else near_shape_tolerance
        )
        #: Pricing-signature mode of the geometric grouping: ``"frame"``
        #: (translation + axis perms/flips — structured grids),
        #: ``"rotation"`` (adds free rotations) or ``"near"`` (approximate
        #: congruence — the mode for METIS-like decompositions, where exact
        #: classes are almost all singletons).
        self.signature_mode = signature_mode
        #: Fill-ratio guard of ``execution="union"``: near classes whose
        #: padded stacks would exceed this multiple of the members' exact
        #: stored entries fall back to the exact execution paths.
        self.union_fill_cap = (
            DEFAULT_UNION_FILL_CAP if union_fill_cap is None else union_fill_cap
        )

    @classmethod
    def for_cpu(cls, config: AssemblyConfig | None = None, **kwargs) -> "BatchAssembler":
        """The CPU twin: *kwargs* are :class:`BatchAssembler`'s own, minus
        the device (``spec`` / ``transfer``)."""
        cpu = SchurAssembler.for_cpu(config=config)
        return cls(config=cpu.config, spec=cpu.spec, transfer=None, **kwargs)

    @property
    def config(self) -> AssemblyConfig:
        return self.assembler.config

    @property
    def spec(self) -> DeviceSpec:
        return self.assembler.spec

    def _fingerprint_extra(self) -> str:
        """Configuration/device identity mixed into every cache key."""
        return (
            f"{self.config.describe()}|{self.assembler.spec!r}|{self.assembler.transfer!r}"
        )

    def analyze(
        self,
        factor: CholeskyFactor,
        bt: sp.spmatrix,
        bt_rows: sp.spmatrix | None = None,
    ) -> tuple[SymbolicArtifacts, bool]:
        """Fetch (or build) the pattern artifacts for one subdomain.

        Returns ``(artifacts, was_cache_hit)``.  The cache key mixes in the
        assembly configuration *and* the device/transfer identity: cached
        estimates are priced on a specific roofline, so one cache can be
        shared across engines with different configs or specs safely.
        *bt_rows* accepts a precomputed ``bt.tocsr()[factor.perm]`` — with
        its columns additionally in canonical order when the caller shares
        artifacts across a canonical class.
        """
        extra = self._fingerprint_extra()
        if bt_rows is None:
            bt_rows = bt.tocsr()[factor.perm].tocsc()  # permute once, share
        with get_tracer().span("batch.fingerprint", n=factor.n, m=bt.shape[1]):
            fp = factor_fingerprint(factor, bt, extra=extra, bt_rows=bt_rows)
        return self.cache.get_or_build(
            fp.key,
            lambda: build_artifacts(
                StackedCSC.pattern_of(factor.l),
                bt_rows,
                self.config,
                self.assembler.spec,
                self.assembler.transfer,
                fp,
            ),
        )

    def assemble_batch(
        self,
        items: list[BatchItem | tuple],
        execute: bool = True,
        executor: Executor | None = None,
        execution: str = "per-member",
        n_workers: int | None = 1,
    ) -> BatchResult:
        """Analyze, price and (optionally) execute a batch of subdomains.

        Parameters
        ----------
        items:
            :class:`BatchItem` instances or ``(factor, bt)`` tuples.
        execute:
            Run the numerics through the shared prepared patterns.  With
            ``False`` only the symbolic analysis and pricing happen (the
            population-scale planning mode); ``results`` is all ``None``.
        executor:
            Optional shared executor: the call collects on a ledger of its
            own (so its counters and metrics are this call's alone) and
            folds it into *executor* at the end.
        execution:
            ``"per-member"`` (default, bit-identical per-item assembly),
            ``"grouped"`` (batched whole-group kernels; allclose to
            per-member at tight tolerance, one launch per kernel step per
            group), ``"auto"`` (grouped from
            :data:`GROUPED_AUTO_THRESHOLD` members per group, capped at
            :data:`GROUPED_AUTO_MAX_SPARSE_ORDER` for sparse storage), or
            ``"union"`` (grouped, plus near-signature classes spanning
            several exact fingerprints execute padded into their structural
            pattern union — exact numerics, one batched launch per kernel
            step per class, guarded by ``union_fill_cap``).
        n_workers:
            Host threads for fanning independent stacks out in parallel:
            ``1`` (default) is serial, ``None`` takes every host core;
            resolved by :func:`repro.runtime.scheduler.host_worker_count`.
            Members run singly are always serial.

        With a :mod:`repro.obs` tracer installed (``with tracing(): ...``)
        the run is fully instrumented — a ``batch.assemble`` root span with
        ``batch.analyze``/``batch.execute``/``batch.unrelabel`` phases,
        per-member and per-group spans (grouped groups on their worker
        threads' own tracks), simulated-kernel spans from the executors —
        and the returned :attr:`BatchResult.trace` scopes exactly this
        call's spans plus the tracer-wide metrics registry.
        """
        require(execution in EXECUTION_MODES, f"unknown execution mode {execution!r}")
        tracer = get_tracer()
        mark = tracer.mark() if tracer.enabled else 0
        with tracer.span(
            "batch.assemble", n_items=len(items), execution=execution, execute=execute
        ) as root:
            result = self._assemble_batch(
                items,
                execute=execute,
                executor=executor,
                execution=execution,
                n_workers=n_workers,
            )
            root.set(
                n_groups=result.stats.n_groups,
                cache_hits=result.stats.hits,
                cache_misses=result.stats.misses,
            )
        if tracer.enabled:
            record_batch_stats(tracer.metrics, result.stats)
            result.trace = tracer.trace(mark)
        return result

    @staticmethod
    def record_solve_stats(stats) -> None:
        """Publish solve-phase counters (:class:`repro.batch.stats.SolveStats`)
        into the active tracer's metrics registry under the ``solve.``
        prefix — the solve-side twin of the ``batch.`` counters this
        engine records after every assembly, so one metrics export carries
        the whole assemble-then-solve story."""
        tracer = get_tracer()
        if tracer.enabled:
            record_batch_stats(tracer.metrics, stats, prefix="solve.")

    def _assemble_batch(
        self,
        items: list[BatchItem | tuple],
        execute: bool,
        executor: Executor | None,
        execution: str,
        n_workers: int | None,
    ) -> BatchResult:
        tracer = get_tracer()
        t0 = time.perf_counter()
        norm = [it if isinstance(it, BatchItem) else BatchItem(*it) for it in items]
        before = self.cache.stats.snapshot()

        # --- analysis phase: fingerprint, cache, price ----------------------
        work: list[SubdomainWork] = []
        groups: dict[str, list[int]] = {}
        exact_groups: dict[str, list[int]] = {}
        geometric_groups: dict[str, list[int]] = {}
        artifacts: dict[str, SymbolicArtifacts] = {}
        bt_rows_all: list[sp.csc_matrix | None] = []
        key_of: list[str] = []
        class_of: list[str | None] = []
        analysis = 0.0
        saved = 0.0
        with tracer.span("batch.analyze", n_items=len(norm)):
            for idx, item in enumerate(norm):
                require(sp.issparse(item.bt), f"item {idx}: bt must be sparse")
                rel = item.relabeling
                if rel is not None:
                    require(
                        rel.n_dofs == item.factor.n and rel.n_cols == item.bt.shape[1],
                        f"item {idx}: relabeling does not match factor/bt shapes",
                    )
                # One row permutation per item, shared by the fingerprint, the
                # artifact build (on a miss) and the executed numerics.  With a
                # relabeling the gluing columns additionally go to canonical
                # order: mirror-identical members then present bit-equal
                # patterns and land in one shared (executable) group.
                bt_perm = item.bt.tocsr()[item.factor.perm].tocsc()
                bt_rows = bt_perm[:, rel.col_perm] if rel is not None else bt_perm
                # Kept until the member's stack has run; plan-only runs drop it.
                bt_rows_all.append(bt_rows if execute else None)
                art, hit = self.analyze(item.factor, item.bt, bt_rows=bt_rows)
                key = art.fingerprint.key
                key_of.append(key)
                groups.setdefault(key, []).append(idx)
                artifacts[key] = art
                if rel is None:
                    exact_key = key
                else:
                    # The grouping the run would have had without orientation-
                    # canonical sharing: same factor pattern, original column
                    # order.  The canonical key already pins pattern(L) (and the
                    # canonical column order is a pure function of the raw
                    # pattern), so appending the raw permuted-gluing digest
                    # yields the identical partition without re-hashing L.
                    exact_key = f"{key}|{pattern_digest(bt_perm)}"
                exact_groups.setdefault(exact_key, []).append(idx)
                geo_key = None
                if item.coords is not None:
                    geo_key = geometric_fingerprint_for(
                        self.signature_mode,
                        item.coords,
                        item.bt,
                        tolerance=self.tolerance,
                        size_tolerance=self.near_size_tolerance,
                        shape_tolerance=self.near_shape_tolerance,
                    ).key
                    geometric_groups.setdefault(geo_key, []).append(idx)
                class_of.append(geo_key)
                if hit:
                    saved += art.analysis_seconds
                else:
                    analysis += art.analysis_seconds
                work.append(
                    SubdomainWork(
                        factorization=self.library.factorization_time(item.factor),
                        assembly=art.estimate["total"],
                        temp_bytes=art.memory.temporary,
                        persistent_bytes=art.memory.persistent,
                    )
                )

        # --- planning: ``execution=`` is a grouping policy -------------------
        # The four modes differ only in which exact keys stack and in whether
        # the geometric classes are offered to the planner for union padding.
        results: list[SchurAssemblyResult | None] = [None] * len(norm)
        stacks: list[Stack] = []
        fill_ratios: dict[str, float] = {}
        union_arts: dict[str, SymbolicArtifacts] = {}
        if execute:
            dense = self.config.factor_storage == "dense"
            stacks, fill_ratios = plan_stacks(
                key_of,
                [item.factor.l for item in norm],
                bt_rows_all,
                class_keys=class_of if execution == "union" else None,
                fill_cap=self.union_fill_cap,
                stack_exact={
                    "per-member": lambda key, members: False,
                    "grouped": lambda key, members: True,
                    "union": lambda key, members: True,
                    "auto": lambda key, members: (
                        len(members) >= GROUPED_AUTO_THRESHOLD
                        and (
                            dense
                            or artifacts[key].fingerprint.n <= GROUPED_AUTO_MAX_SPARSE_ORDER
                        )
                    ),
                }[execution],
            )
        # A padded class is analyzed and priced on its union like any other
        # pattern pair — conservative supersets of every member's own
        # artifacts, so the padded numerics stay exact while the estimate
        # prices the fill.  Structurally coincident unions share one build.
        extra = self._fingerprint_extra()
        for stack in stacks:
            plan = stack.plan
            if plan is None:
                continue
            lu = plan.l_union
            ufp = union_fingerprint(lu, plan.bt_union, extra=extra)
            art, hit = self.cache.get_or_build(
                ufp.key,
                lambda: build_artifacts(
                    StackedCSC(lu.shape, lu.indptr, lu.indices, np.empty((0, lu.nnz))),
                    plan.bt_union.pattern_csc(),
                    self.config,
                    self.assembler.spec,
                    self.assembler.transfer,
                    ufp,
                ),
            )
            if hit:
                saved += art.analysis_seconds
            else:
                analysis += art.analysis_seconds
            if tracer.enabled:
                tracer.metrics.observe(
                    "batch.union_overhead_seconds",
                    union_padding_overhead(
                        art.estimate,
                        [artifacts[key_of[i]].estimate for i in stack.members],
                    ),
                )
            union_arts[stack.key] = art
        if tracer.enabled:
            for ratio in fill_ratios.values():
                tracer.metrics.observe(
                    "batch.union_fill_ratio", ratio, boundaries=UNION_FILL_BUCKETS
                )

        # --- execution phase: one runner for every stack ---------------------
        n_grouped = 0
        n_exec_fallbacks = 0
        execute_seconds = 0.0
        group_execute_seconds: dict[str, float] = {}
        group_launches: dict[str, int] = {}
        # The call collects on its own ledger, so its metrics and counters
        # are this call's alone even when the caller shares an executor.
        ex = Executor(self.assembler.spec)

        def run(stack: Stack, executor: Executor, span: str) -> None:
            members = stack.members
            factors = [norm[i].factor for i in members]
            bts = [norm[i].bt for i in members]
            rows = [bt_rows_all[i] for i in members]
            art = artifacts[stack.key] if stack.plan is None else union_arts[stack.key]
            kw = {"executor": executor, "prepared": art.prepared}
            attrs = {"n_members": len(members)} if stack.stacked else {"index": members[0]}
            if stack.plan is not None:
                attrs["fill_ratio"] = round(stack.plan.fill_ratio, 3)
            with tracer.span(span, group=stack.key[:16], **attrs):
                if stack.plan is not None:
                    res = self.assembler.assemble_union(factors, rows, stack.plan, **kw)
                elif stack.stacked:
                    res = self.assembler.assemble_group(factors, bts, bt_rows=rows, **kw)
                else:
                    res = [self.assembler.assemble(factors[0], bts[0], bt_rows=rows[0], **kw)]
            for i, r in zip(members, res):
                results[i], bt_rows_all[i] = r, None  # copy no longer needed

        def run_task(stack: Stack):
            """One stack on its own executor (own simulated track).  A failure
            degrades to per-member execution of that stack's members instead
            of aborting the batch: each member's own exact artifacts are
            always valid, and its permuted-bt copy is only released by a run
            that succeeded."""
            gex = Executor(self.assembler.spec)
            w0 = time.perf_counter()
            try:
                run(stack, gex, "batch.group" if stack.plan is None else "batch.union")
                fell_back = False
            except Exception as exc:  # noqa: BLE001 — degrade, don't abort
                warnings.warn(
                    f"batched execution of group {stack.key[:16]!r} "
                    f"({len(stack.members)} member(s)) failed with "
                    f"{type(exc).__name__}: {exc} — falling back to "
                    "per-member execution for this group",
                    RuntimeWarning,
                )
                gex = Executor(self.assembler.spec)  # drop the failed attempt's charges
                for i in stack.members:
                    run(Stack(key_of[i], (i,), stacked=False), gex, "batch.fallback_member")
                fell_back = True
            return stack, gex, time.perf_counter() - w0, fell_back

        def account(label: str, launches: int, wall: float) -> None:
            group_launches[label] = group_launches.get(label, 0) + launches
            group_execute_seconds[label] = group_execute_seconds.get(label, 0.0) + wall

        if execute and norm:
            with tracer.span("batch.execute", execution=execution):
                exec_t0 = time.perf_counter()
                # Singles first, serially on the call's executor (the
                # bit-identical per-member path) ...
                for stack in stacks:
                    if not stack.stacked:
                        l0, w0 = ex.ledger.total.launches, time.perf_counter()
                        run(stack, ex, "batch.member")
                        account(
                            stack.key, ex.ledger.total.launches - l0, time.perf_counter() - w0
                        )
                # ... then the stacks, which may fan out over host threads —
                # exact before padded, so ledgers absorb (and simulated
                # seconds sum) in one fixed order.
                tasks = sorted(
                    (stack for stack in stacks if stack.stacked),
                    key=lambda stack: stack.plan is not None,
                )
                workers = host_worker_count(n_workers, n_tasks=len(tasks))
                if workers > 1 and len(tasks) > 1:
                    with ThreadPoolExecutor(max_workers=workers) as pool:
                        outcomes = list(pool.map(run_task, tasks))
                else:
                    outcomes = [run_task(stack) for stack in tasks]
                for stack, gex, wall, fell_back in outcomes:
                    ex.ledger.absorb(gex.ledger)
                    label = stack.key if stack.plan is None else f"union:{stack.key}"
                    account(label, gex.ledger.total.launches, wall)
                    if fell_back:
                        n_exec_fallbacks += 1
                    else:
                        n_grouped += len(stack.members)
                execute_seconds = time.perf_counter() - exec_t0
            # Canonical-class members assembled against canonically ordered
            # gluing columns: reindex each SC back to its own multiplier
            # order (pure host-side gather, exact inverse of the column
            # relabeling).
            with tracer.span("batch.unrelabel"):
                for idx, item in enumerate(norm):
                    if item.relabeling is not None and results[idx] is not None:
                        results[idx].f = item.relabeling.unapply_sc(results[idx].f)
            if tracer.enabled:
                record_cost_ledger(tracer.metrics, ex.ledger)
            if executor is not None:
                executor.ledger.absorb(ex.ledger)

        n_degraded = 0
        if (
            execute
            and execution == "grouped"
            and len(norm) > 1
            and groups
            and all(len(m) == 1 for m in groups.values())
        ):
            # Grouped execution silently degraded: every exact class is a
            # singleton, so the batched kernels launched once per member and
            # saved nothing over per-member execution.
            n_degraded = 1
            warnings.warn(
                f"grouped execution degraded: all {len(groups)} exact "
                f"fingerprint classes of {len(norm)} subdomains are "
                "singletons, so batched kernels gained nothing — "
                "execution='union' pads near-signature classes into shared "
                "patterns and batches them exactly",
                RuntimeWarning,
                stacklevel=3,
            )

        after = self.cache.stats
        union_groups = {s.key: list(s.members) for s in stacks if s.plan is not None}
        plans = [s.plan for s in stacks if s.plan is not None]
        stats = BatchStats(
            n_subdomains=len(norm),
            n_groups=len(groups),
            n_exact_groups=len(exact_groups),
            n_geometric_groups=len(geometric_groups),
            n_singleton_groups=sum(
                1 for members in groups.values() if len(members) == 1
            ),
            hits=after.hits - before.hits,
            misses=after.misses - before.misses,
            evictions=after.evictions - before.evictions,
            analysis_seconds=analysis,
            analysis_seconds_saved=saved,
            factorization_seconds=sum(w.factorization for w in work),
            assembly_seconds=sum(w.assembly for w in work),
            wall_seconds=time.perf_counter() - t0,
            execution=execution,
            n_grouped=n_grouped,
            kernel_launches=ex.ledger.total.launches,
            execute_seconds=execute_seconds,
            group_execute_seconds=group_execute_seconds,
            group_launches=group_launches,
            n_union_groups=len(union_groups),
            n_union_members=sum(len(m) for m in union_groups.values()),
            n_union_skipped=sum(r > self.union_fill_cap for r in fill_ratios.values()),
            union_padded_nnz=sum((p.padded_nnz for p in plans), 0.0),
            union_member_nnz=sum((p.member_nnz for p in plans), 0.0),
            n_degraded=n_degraded,
            store_hits=after.store_hits - before.store_hits,
            store_misses=after.store_misses - before.store_misses,
            n_quarantined=after.store_quarantined - before.store_quarantined,
            n_exec_fallbacks=n_exec_fallbacks,
        )
        return BatchResult(
            results=results,
            work=work,
            stats=stats,
            groups=groups,
            artifacts=artifacts,
            exact_groups=exact_groups,
            geometric_groups=geometric_groups,
            union_groups=union_groups,
        )

    def plan_batch(self, items: list[BatchItem | tuple]) -> BatchResult:
        """Price a batch without executing any numerics."""
        return self.assemble_batch(items, execute=False)

    def schedule(
        self,
        work: list[SubdomainWork],
        mode: str = "mix",
        n_threads: int = 16,
        n_streams: int = 16,
        memory_pool=None,
    ) -> PipelineResult:
        """Feed priced batch work to the multi-stream preprocessing pipeline."""
        return run_preprocessing_pipeline(
            work,
            mode=mode,
            n_threads=n_threads,
            n_streams=n_streams,
            assembly_on_gpu=self.assembler.spec.kind == "gpu",
            memory_pool=memory_pool,
        )


def items_from_decomposition(
    decomposition,
    ordering: str = "nd",
    conform: bool = True,
    canonicalize: bool = True,
    tolerance: float | None = None,
    rotations: bool = False,
) -> list[BatchItem]:
    """Factorize every subdomain of a :class:`~repro.dd.decomposition.Decomposition`
    into :class:`BatchItem` inputs — the dd → batch bridge.

    Each item carries the subdomain's DOF coordinates so the engine can
    report the geometric symmetry classes, and the factorization goes
    through :func:`repro.feti.operator.factorize_subdomain`, whose
    canonical-frame ordering and symbolic-conformed factor structure make
    translate-identical subdomains hit the same pattern-cache entry.

    With *canonicalize* (the default) each subdomain additionally gets a
    :class:`~repro.sparse.canonical.CanonicalRelabeling` and is factorized
    in its canonical *orientation* frame: mirror- and rotation-identical
    subdomains then share one cache entry and one batched numeric group
    (the 9 translate-classes of a floating grid collapse to 3).  Disable it
    to reproduce the translation-only grouping.  *tolerance* overrides the
    relabeling's relative coordinate quantum.  *rotations* extends the
    canonical frame search from axis perms/flips to free rotations
    (inertia-aligned; see :func:`repro.sparse.canonical.canonical_relabeling`)
    — worthwhile on decompositions whose congruent subdomains appear at
    arbitrary orientations.
    """
    from repro.feti.operator import factorize_subdomain
    from repro.sparse.canonical import DEFAULT_TOLERANCE, canonical_relabeling
    from repro.sparse.reuse import SymbolicReuse

    tol = DEFAULT_TOLERANCE if tolerance is None else tolerance
    tracer = get_tracer()
    # Relabelings and orderings are pattern-only: paid once per congruence
    # class within this call, never remembered beyond it.
    reuse = SymbolicReuse()
    items = []
    with tracer.span("batch.items", n_items=len(decomposition.subdomains)):
        for sub in decomposition.subdomains:
            label = f"sub{sub.index}"
            rel = None
            if canonicalize and sub.bt is not None:
                with tracer.span("sparse.relabel", label=label):
                    rel = canonical_relabeling(
                        sub.coords,
                        k=sub.k,
                        bt=sub.bt,
                        tolerance=tol,
                        rotations=rotations,
                        reuse=reuse,
                    )
            with tracer.span("sparse.factorize", label=label):
                factor = factorize_subdomain(
                    sub,
                    ordering=ordering,
                    conform=conform,
                    relabeling=rel,
                    reuse=reuse,
                )
            items.append(
                BatchItem(
                    factor=factor,
                    bt=sub.bt,
                    label=label,
                    coords=sub.coords,
                    relabeling=rel,
                )
            )
    return items


__all__ = [
    "BatchItem",
    "BatchResult",
    "BatchAssembler",
    "EXECUTION_MODES",
    "GROUPED_AUTO_THRESHOLD",
    "GROUPED_AUTO_MAX_SPARSE_ORDER",
    "DEFAULT_UNION_FILL_CAP",
    "UNION_FILL_BUCKETS",
    "build_artifacts",
    "items_from_decomposition",
    "symbolic_analysis_cost",
]
