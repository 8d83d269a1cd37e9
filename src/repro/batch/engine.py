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
  :mod:`repro.runtime.pipeline` / :mod:`repro.runtime.node`.

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

Numeric execution comes in four modes (``execution=``):

* ``"per-member"`` (default) — one :meth:`SchurAssembler.assemble` per item,
  bit-identical to independent assembly.
* ``"grouped"`` — every fingerprint group runs end-to-end through
  :meth:`SchurAssembler.assemble_group`: stacked RHS, batched TRSM/SYRK, one
  kernel launch per step for the whole group.  Identical FLOPs/traffic,
  launches shrink by the group size, results allclose at tight tolerance.
  Independent groups additionally fan out across a ``ThreadPoolExecutor``
  (*n_workers*; NumPy/SciPy release the GIL in BLAS).
* ``"auto"`` — grouped for groups of at least
  :data:`GROUPED_AUTO_THRESHOLD` members (where the stacking overhead is
  clearly amortized), per-member otherwise.  With sparse factor storage,
  large-order groups (above :data:`GROUPED_AUTO_MAX_SPARSE_ORDER`) also
  stay per-member: stacked kernels are dense, and a big sparse factor's
  SuperLU solves do far less host arithmetic.
* ``"union"`` — grouped, plus the padded tier for unstructured
  decompositions: near-signature classes spanning several exact
  fingerprints (where ``"grouped"`` degrades to singleton groups) pad every
  member into the class's structural pattern union with explicit zeros and
  run one batched launch per kernel step for the whole class
  (:meth:`SchurAssembler.assemble_union`).  Results stay exact — padding
  inserts structural zeros only — at the price of
  :attr:`~repro.sparse.canonical.UnionPlan.fill_ratio` times the stored
  entries; classes above *union_fill_cap* (default
  :data:`DEFAULT_UNION_FILL_CAP`) fall back to the exact paths.
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
from repro.core.estimate import (
    FactorPattern,
    estimate_from_patterns,
    union_padding_overhead,
)
from repro.feti.timing import CHOLMOD, FactorizationLibrary
from repro.gpu.costmodel import KernelCost, csx_bytes
from repro.gpu.runtime import Executor
from repro.gpu.spec import A100_40GB, EPYC_7763_CORE, PCIE4_X16, DeviceSpec, TransferSpec
from repro.obs import Trace, get_tracer, record_batch_stats, record_cost_ledger
from repro.runtime.pipeline import PipelineResult, SubdomainWork, run_preprocessing_pipeline
from repro.runtime.scheduler import host_worker_count
from repro.sparse.canonical import CanonicalRelabeling, UnionPlan, union_plan
from repro.sparse.cholesky import CholeskyFactor
from repro.sparse.symbolic import symbolic_from_factor, symbolic_from_pattern
from repro.util import require


#: Numeric-execution modes of :meth:`BatchAssembler.assemble_batch`.
EXECUTION_MODES = ("per-member", "grouped", "auto", "union")

#: Default fill-ratio cap of the ``"union"`` tier: a near class whose padded
#: stacks would store/stream more than this multiple of the members' exact
#: entries falls back to the exact paths.  Deliberately lenient — the
#: batched kernels work on dense blocks, so moderate structural fill mostly
#: costs entries that were transferred as dense zeros anyway, while the
#: launch savings scale with the class size.
DEFAULT_UNION_FILL_CAP = 8.0

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
    factor: CholeskyFactor,
    bt: sp.spmatrix,
    config: AssemblyConfig,
    spec: DeviceSpec,
    transfer: TransferSpec | None,
    fingerprint,
    bt_rows: sp.spmatrix | None = None,
) -> SymbolicArtifacts:
    """Run the full pattern-only analysis for one fingerprint group.

    *bt_rows* accepts a precomputed ``bt.tocsr()[factor.perm]`` (the engine
    already permutes it for the fingerprint).
    """
    n, m = factor.n, bt.shape[1]
    with get_tracer().span("batch.symbolic", n=n, m=m):
        patt = FactorPattern.from_factor(factor)
        if bt_rows is None:
            bt_rows = bt.tocsr()[factor.perm]
        prepared = prepare_pattern(bt_rows.tocsc(), config, factor_pattern=patt)
        estimate = estimate_from_patterns(patt, prepared.shape, config, spec, transfer)
        assembler = SchurAssembler(config=config, spec=spec, transfer=transfer)
        memory = assembler.estimate_memory(factor, m)
    return SymbolicArtifacts(
        fingerprint=fingerprint,
        prepared=prepared,
        factor_pattern=patt,
        symbolic=symbolic_from_factor(factor.l),
        estimate=estimate,
        memory=memory,
        analysis_seconds=symbolic_analysis_cost(n, patt.nnz, m, bt.nnz),
    )


def build_union_artifacts(
    plan: UnionPlan,
    config: AssemblyConfig,
    spec: DeviceSpec,
    transfer: TransferSpec | None,
    fingerprint,
) -> SymbolicArtifacts:
    """Pattern-only analysis of one near class's *union* pattern.

    The padded twin of :func:`build_artifacts`: stepped permutation,
    pruning plan, cost estimate and memory footprint are computed on the
    structural union — conservative supersets of every member's own
    artifacts, so the padded numerics stay exact while the estimate prices
    the padding fill faithfully.  Cached under the
    :func:`~repro.batch.fingerprint.union_fingerprint` key: structurally
    coincident unions (repeated local mesh topology) share one build.
    """
    n, m = plan.shape
    with get_tracer().span("batch.symbolic", n=n, m=m, union=True):
        patt = FactorPattern(
            n=n,
            indptr=np.asarray(plan.l_union.indptr),
            indices=np.asarray(plan.l_union.indices),
        )
        prepared = prepare_pattern(
            plan.bt_union.pattern_csc(), config, factor_pattern=patt
        )
        estimate = estimate_from_patterns(patt, prepared.shape, config, spec, transfer)
        assembler = SchurAssembler(config=config, spec=spec, transfer=transfer)
        # FactorPattern quacks enough like a factor for the memory model
        # (order + stored entries are all it reads).
        memory = assembler.estimate_memory(patt, m)
    return SymbolicArtifacts(
        fingerprint=fingerprint,
        prepared=prepared,
        factor_pattern=patt,
        symbolic=symbolic_from_pattern(plan.l_union.indptr, plan.l_union.indices, n),
        estimate=estimate,
        memory=memory,
        analysis_seconds=symbolic_analysis_cost(n, patt.nnz, m, plan.bt_union.nnz),
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
    def for_cpu(
        cls,
        config: AssemblyConfig | None = None,
        cache: PatternCache | None = None,
        library: FactorizationLibrary = CHOLMOD,
        tolerance: float | None = None,
        signature_mode: str = "frame",
        near_size_tolerance: float | None = None,
        near_shape_tolerance: float | None = None,
        union_fill_cap: float | None = None,
    ) -> "BatchAssembler":
        cpu = SchurAssembler.for_cpu(config=config)
        return cls(
            config=cpu.config,
            spec=cpu.spec,
            transfer=None,
            cache=cache,
            library=library,
            tolerance=tolerance,
            signature_mode=signature_mode,
            near_size_tolerance=near_size_tolerance,
            near_shape_tolerance=near_shape_tolerance,
            union_fill_cap=union_fill_cap,
        )

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
                factor,
                bt,
                self.config,
                self.assembler.spec,
                self.assembler.transfer,
                fp,
                bt_rows=bt_rows,
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
            Optional shared executor for the executed numerics; group
            executors of a grouped run are folded into it.
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
            Host threads for fanning independent grouped groups out in
            parallel: ``1`` (default) is serial, ``None`` takes every host
            core; resolved by :func:`repro.runtime.scheduler.host_worker_count`.
            Per-member execution is always serial.

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

        results: list[SchurAssemblyResult | None] = [None] * len(norm)
        n_grouped = 0
        n_exec_fallbacks = 0
        launches = 0
        execute_seconds = 0.0
        group_execute_seconds: dict[str, float] = {}
        group_launches: dict[str, int] = {}
        ex: Executor | None = None
        base_launches = 0
        if execute:
            ex = executor if executor is not None else Executor(self.assembler.spec)
            base_launches = ex.ledger.total.launches
        # Pure per-member execution streams inside the analysis loop — each
        # permuted bt copy is dropped right after its assemble call, the
        # pre-grouped peak-memory footprint.  Grouped/auto retain the copies
        # until their fingerprint group is fully known and stacked.
        stream = execute and execution == "per-member"

        # --- analysis phase: fingerprint, cache, price ----------------------
        work: list[SubdomainWork] = []
        groups: dict[str, list[int]] = {}
        exact_groups: dict[str, list[int]] = {}
        geometric_groups: dict[str, list[int]] = {}
        artifacts: dict[str, SymbolicArtifacts] = {}
        bt_rows_all: list[sp.csc_matrix | None] = []
        key_of: list[str] = []
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
                # Retain the copy only when the deferred execution phase will
                # consume it (grouped/auto); streamed and plan-only runs drop it.
                bt_rows_all.append(bt_rows if execute and not stream else None)
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
                if item.coords is not None:
                    geo = geometric_fingerprint_for(
                        self.signature_mode,
                        item.coords,
                        item.bt,
                        tolerance=self.tolerance,
                        size_tolerance=self.near_size_tolerance,
                        shape_tolerance=self.near_shape_tolerance,
                    )
                    geometric_groups.setdefault(geo.key, []).append(idx)
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
                if stream:
                    l0 = ex.ledger.total.launches
                    w0 = time.perf_counter()
                    with tracer.span("batch.member", index=idx, group=key[:16]):
                        results[idx] = self.assembler.assemble(
                            item.factor,
                            item.bt,
                            executor=ex,
                            prepared=art.prepared,
                            bt_rows=bt_rows,
                        )
                    dt = time.perf_counter() - w0
                    execute_seconds += dt
                    group_launches[key] = (
                        group_launches.get(key, 0) + ex.ledger.total.launches - l0
                    )
                    group_execute_seconds[key] = group_execute_seconds.get(key, 0.0) + dt

        # --- union planning (execution == "union"): pad near classes --------
        # A near class is worth padding when it spans several exact
        # fingerprints (the grouped path already batches a single exact
        # class) and its structural fill stays under the cap.
        union_groups: dict[str, list[int]] = {}
        union_plans: dict[str, UnionPlan] = {}
        union_arts: dict[str, SymbolicArtifacts] = {}
        in_union: set[int] = set()
        n_union_skipped = 0
        union_padded_nnz = 0.0
        union_member_nnz = 0.0
        if execute and norm and execution == "union":
            extra = self._fingerprint_extra()
            for geo_key, members in geometric_groups.items():
                if len(members) < 2 or len({key_of[i] for i in members}) < 2:
                    continue
                with tracer.span(
                    "batch.union_pad", group=geo_key[:16], n_members=len(members)
                ):
                    plan = union_plan(
                        [norm[i].factor.l for i in members],
                        [bt_rows_all[i] for i in members],
                    )
                if tracer.enabled:
                    tracer.metrics.observe(
                        "batch.union_fill_ratio",
                        plan.fill_ratio,
                        boundaries=UNION_FILL_BUCKETS,
                    )
                if plan.fill_ratio > self.union_fill_cap:
                    n_union_skipped += 1
                    continue
                ufp = union_fingerprint(plan.l_union, plan.bt_union, extra=extra)
                art, hit = self.cache.get_or_build(
                    ufp.key,
                    lambda: build_union_artifacts(
                        plan,
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
                            [artifacts[key_of[i]].estimate for i in members],
                        ),
                    )
                union_groups[geo_key] = members
                union_plans[geo_key] = plan
                union_arts[geo_key] = art
                in_union.update(members)
                union_padded_nnz += plan.padded_nnz
                union_member_nnz += plan.member_nnz

        # --- execution phase (grouped / auto / union) ------------------------
        if execute and norm and not stream:
            with tracer.span("batch.execute", execution=execution):
                exec_t0 = time.perf_counter()
                # Union-mode members executing padded leave their exact
                # groups; the remainder runs the exact paths unchanged.
                exec_members = {
                    key: [i for i in members if i not in in_union]
                    for key, members in groups.items()
                }

                def auto_picks_grouped(key: str) -> bool:
                    if len(exec_members[key]) < GROUPED_AUTO_THRESHOLD:
                        return False
                    return (
                        self.config.factor_storage == "dense"
                        or artifacts[key].fingerprint.n <= GROUPED_AUTO_MAX_SPARSE_ORDER
                    )

                grouped_keys = [
                    key
                    for key in groups
                    if exec_members[key]
                    and (execution in ("grouped", "union") or auto_picks_grouped(key))
                ]
                grouped_set = set(grouped_keys)
                # Per-member members first (serial; bit-identical path).
                for key, members in exec_members.items():
                    if key in grouped_set:
                        continue
                    for idx in members:
                        l0 = ex.ledger.total.launches
                        w0 = time.perf_counter()
                        with tracer.span("batch.member", index=idx, group=key[:16]):
                            results[idx] = self.assembler.assemble(
                                norm[idx].factor,
                                norm[idx].bt,
                                executor=ex,
                                prepared=artifacts[key].prepared,
                                bt_rows=bt_rows_all[idx],
                            )
                        bt_rows_all[idx] = None
                        group_launches[key] = (
                            group_launches.get(key, 0) + ex.ledger.total.launches - l0
                        )
                        group_execute_seconds[key] = (
                            group_execute_seconds.get(key, 0.0) + time.perf_counter() - w0
                        )

                # Grouped groups: whole-group batched kernels, one executor per
                # group so independent groups can run on parallel host threads.
                def run_group(key: str):
                    members = exec_members[key]
                    gex = Executor(self.assembler.spec)
                    w0 = time.perf_counter()
                    with tracer.span(
                        "batch.group", group=key[:16], n_members=len(members)
                    ):
                        res = self.assembler.assemble_group(
                            [norm[i].factor for i in members],
                            [norm[i].bt for i in members],
                            executor=gex,
                            prepared=artifacts[key].prepared,
                            bt_rows=[bt_rows_all[i] for i in members],
                        )
                    for i in members:
                        bt_rows_all[i] = None  # stacked: copy no longer needed
                    return key, members, res, gex, time.perf_counter() - w0

                # Union classes: whole-class padded batched kernels, same
                # one-executor-per-task fan-out as the exact groups.
                def run_union(geo_key: str):
                    members = union_groups[geo_key]
                    gex = Executor(self.assembler.spec)
                    w0 = time.perf_counter()
                    with tracer.span(
                        "batch.union",
                        group=geo_key[:16],
                        n_members=len(members),
                        fill_ratio=round(union_plans[geo_key].fill_ratio, 3),
                    ):
                        res = self.assembler.assemble_union(
                            [norm[i].factor for i in members],
                            [bt_rows_all[i] for i in members],
                            union_plans[geo_key],
                            executor=gex,
                            prepared=union_arts[geo_key].prepared,
                        )
                    for i in members:
                        bt_rows_all[i] = None
                    return f"union:{geo_key}", members, res, gex, time.perf_counter() - w0

                # Graceful degradation: a failure inside one batched task
                # (grouped or union) falls back to per-member execution of
                # that task's members instead of aborting the whole batch.
                # Each member's own exact artifacts are always valid for the
                # per-member path, and its permuted-bt copy is still intact
                # (the batched paths only release copies after succeeding).
                def run_fallback(label: str, members: list[int]):
                    gex = Executor(self.assembler.spec)
                    w0 = time.perf_counter()
                    res = []
                    for i in members:
                        with tracer.span(
                            "batch.fallback_member", index=i, group=label[:16]
                        ):
                            res.append(
                                self.assembler.assemble(
                                    norm[i].factor,
                                    norm[i].bt,
                                    executor=gex,
                                    prepared=artifacts[key_of[i]].prepared,
                                    bt_rows=bt_rows_all[i],
                                )
                            )
                        bt_rows_all[i] = None
                    return res, gex, time.perf_counter() - w0

                def run_task(fn, key: str):
                    try:
                        label, members, res, gex, wall = fn(key)
                        return label, members, res, gex, wall, False
                    except Exception as exc:  # noqa: BLE001 — degrade, don't abort
                        members = (
                            union_groups[key] if fn is run_union else exec_members[key]
                        )
                        warnings.warn(
                            f"batched execution of group {key[:16]!r} "
                            f"({len(members)} member(s)) failed with "
                            f"{type(exc).__name__}: {exc} — falling back to "
                            "per-member execution for this group",
                            RuntimeWarning,
                        )
                        label = f"union:{key}" if fn is run_union else key
                        res, gex, wall = run_fallback(label, members)
                        return label, members, res, gex, wall, True

                tasks = [(run_group, key) for key in grouped_keys] + [
                    (run_union, key) for key in union_groups
                ]
                workers = host_worker_count(n_workers, n_tasks=len(tasks))
                if workers > 1 and len(tasks) > 1:
                    with ThreadPoolExecutor(max_workers=workers) as pool:
                        outcomes = list(pool.map(lambda t: run_task(*t), tasks))
                else:
                    outcomes = [run_task(fn, key) for fn, key in tasks]
                for label, members, res, gex, wall, fell_back in outcomes:
                    for idx, r in zip(members, res):
                        results[idx] = r
                    ex.ledger.absorb(gex.ledger)
                    group_launches[label] = (
                        group_launches.get(label, 0) + gex.ledger.total.launches
                    )
                    group_execute_seconds[label] = (
                        group_execute_seconds.get(label, 0.0) + wall
                    )
                    if fell_back:
                        n_exec_fallbacks += 1
                    else:
                        n_grouped += len(members)
                execute_seconds += time.perf_counter() - exec_t0
        if execute and norm:
            launches = ex.ledger.total.launches - base_launches
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
            kernel_launches=launches,
            execute_seconds=execute_seconds,
            group_execute_seconds=group_execute_seconds,
            group_launches=group_launches,
            n_union_groups=len(union_groups),
            n_union_members=sum(len(m) for m in union_groups.values()),
            n_union_skipped=n_union_skipped,
            union_padded_nnz=union_padded_nnz,
            union_member_nnz=union_member_nnz,
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
    engine: str = "superlu",
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
                    engine=engine,
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
    "build_union_artifacts",
    "items_from_decomposition",
    "symbolic_analysis_cost",
]
