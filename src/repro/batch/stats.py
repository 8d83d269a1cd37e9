"""Aggregated statistics of one batched assembly run.

The batch engine reports three things the per-subdomain code path cannot:
how much of the population shared a pattern (cache hit rate), how much
simulated preprocessing time the sharing saved (symbolic analysis charged
once per group instead of once per subdomain), and the resulting
throughput.  :class:`BatchStats` carries the counters; :meth:`BatchStats.merge`
lets long-running services aggregate across many batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BatchStats:
    """Counters and simulated-time aggregates of one batch.

    ``analysis_seconds`` is the simulated host-side symbolic-analysis time
    actually charged (once per fingerprint group); ``analysis_seconds_saved``
    is what the cache hits avoided — the no-cache baseline would have
    charged ``analysis_seconds + analysis_seconds_saved``.

    ``n_groups`` counts the *executed* groups (canonical classes when the
    items carry relabelings); ``n_exact_groups`` the finer raw-pattern
    classes the run would have executed without orientation-canonical
    sharing.  Their difference — :attr:`mirrors_shared` — is how many
    mirror classes piggybacked on another class's artifacts (the 9 → 3
    collapse of a floating 5x5 grid shows up as ``n_exact_groups=9,
    n_groups=3, mirrors_shared=6``).  ``n_singleton_groups`` counts the
    executed groups with exactly one member — with
    :attr:`members_per_group` and :attr:`singleton_share` it is the
    grouping-efficiency report for unstructured decompositions, where
    sharing is not free and a run needs to say how much it actually got.

    The execution counters describe the *numeric* phase:
    ``execution`` is the requested mode (``"per-member"``/``"grouped"``/
    ``"auto"``), ``n_grouped`` how many members actually ran through the
    batched group path, ``kernel_launches`` the total kernel launches the
    execution charged, and ``group_execute_seconds``/``group_launches`` the
    host wall clock and launch count per fingerprint group (keyed like
    :attr:`~repro.batch.engine.BatchResult.groups`) — the numbers behind the
    grouped-vs-per-member speedup benchmark.

    The union counters describe the padded tier (``execution="union"``):
    ``n_union_groups`` near classes executed padded with ``n_union_members``
    members total, ``n_union_skipped`` classes that tripped the fill-cap
    guard, and ``union_padded_nnz``/``union_member_nnz`` the padded vs exact
    stored entries of the executed classes (additive across merges; their
    ratio is :attr:`union_fill_ratio`).  ``n_degraded`` counts batches whose
    grouped execution silently degraded to all-singleton groups — the case
    the union tier exists for.

    The durability counters describe the persistent tier (present when the
    engine runs over a :class:`repro.store.tiered.TieredPatternCache`):
    ``store_hits``/``store_misses`` are the lookups that fell through the
    in-memory LRU and were served from / missed by the artifact store on
    disk (a store hit still counts in ``hits`` — the analysis was reused),
    and ``n_quarantined`` counts corrupted store entries quarantined (and
    recomputed — never served) during this batch.  ``n_exec_fallbacks``
    counts grouped/union execution tasks that raised on their worker
    thread and were re-executed per-member — graceful degradation instead
    of aborting the whole batch.
    """

    n_subdomains: int = 0
    n_groups: int = 0
    n_exact_groups: int = 0
    n_geometric_groups: int = 0
    n_singleton_groups: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    analysis_seconds: float = 0.0
    analysis_seconds_saved: float = 0.0
    factorization_seconds: float = 0.0
    assembly_seconds: float = 0.0
    wall_seconds: float = 0.0
    execution: str = "per-member"
    n_grouped: int = 0
    kernel_launches: int = 0
    execute_seconds: float = 0.0
    group_execute_seconds: dict[str, float] = field(default_factory=dict)
    group_launches: dict[str, int] = field(default_factory=dict)
    n_union_groups: int = 0
    n_union_members: int = 0
    n_union_skipped: int = 0
    union_padded_nnz: float = 0.0
    union_member_nnz: float = 0.0
    n_degraded: int = 0
    store_hits: int = 0
    store_misses: int = 0
    n_quarantined: int = 0
    n_exec_fallbacks: int = 0

    @property
    def hit_rate(self) -> float:
        """Cache hit fraction over this batch (0.0 for an empty batch)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    @property
    def mirrors_shared(self) -> int:
        """Mirror classes that reused another class's artifacts through a
        canonical relabeling (exact classes minus executed groups)."""
        return max(0, self.n_exact_groups - self.n_groups)

    @property
    def members_per_group(self) -> float:
        """Mean members per executed pattern group — the sharing leverage.

        1.0 means no two subdomains shared anything (every group a
        singleton, the worst case of an unstructured decomposition);
        structured grids reach ``n_subdomains / #classes``."""
        return self.n_subdomains / self.n_groups if self.n_groups else 0.0

    @property
    def singleton_share(self) -> float:
        """Fraction of executed groups with exactly one member."""
        return (
            self.n_singleton_groups / self.n_groups if self.n_groups else 0.0
        )

    @property
    def union_fill_ratio(self) -> float:
        """Padded over exact stored entries of the union-executed classes
        (1.0 when nothing ran padded)."""
        return (
            self.union_padded_nnz / self.union_member_nnz
            if self.union_member_nnz
            else 1.0
        )

    @property
    def preprocessing_seconds(self) -> float:
        """Total simulated serial preprocessing: analysis + factorization +
        assembly (the pipeline overlaps these; see :meth:`throughput`)."""
        return self.analysis_seconds + self.factorization_seconds + self.assembly_seconds

    def throughput(self, makespan: float | None = None) -> float:
        """Subdomains per simulated second.

        Against the pipeline *makespan* when given (the multi-stream
        figure), otherwise against the serial preprocessing total.
        """
        denom = makespan if makespan is not None else self.preprocessing_seconds
        return self.n_subdomains / denom if denom > 0 else 0.0

    def merge(self, other: "BatchStats") -> "BatchStats":
        """Combine two batches' statistics (counters and times add)."""

        def merge_dicts(a: dict, b: dict) -> dict:
            out = dict(a)
            for k, v in b.items():
                out[k] = out.get(k, 0) + v
            return out

        return BatchStats(
            n_subdomains=self.n_subdomains + other.n_subdomains,
            n_groups=self.n_groups + other.n_groups,
            n_exact_groups=self.n_exact_groups + other.n_exact_groups,
            n_geometric_groups=self.n_geometric_groups + other.n_geometric_groups,
            n_singleton_groups=self.n_singleton_groups + other.n_singleton_groups,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            analysis_seconds=self.analysis_seconds + other.analysis_seconds,
            analysis_seconds_saved=self.analysis_seconds_saved + other.analysis_seconds_saved,
            factorization_seconds=self.factorization_seconds + other.factorization_seconds,
            assembly_seconds=self.assembly_seconds + other.assembly_seconds,
            wall_seconds=self.wall_seconds + other.wall_seconds,
            execution=self.execution if self.execution == other.execution else "mixed",
            n_grouped=self.n_grouped + other.n_grouped,
            kernel_launches=self.kernel_launches + other.kernel_launches,
            execute_seconds=self.execute_seconds + other.execute_seconds,
            group_execute_seconds=merge_dicts(
                self.group_execute_seconds, other.group_execute_seconds
            ),
            group_launches=merge_dicts(self.group_launches, other.group_launches),
            n_union_groups=self.n_union_groups + other.n_union_groups,
            n_union_members=self.n_union_members + other.n_union_members,
            n_union_skipped=self.n_union_skipped + other.n_union_skipped,
            union_padded_nnz=self.union_padded_nnz + other.union_padded_nnz,
            union_member_nnz=self.union_member_nnz + other.union_member_nnz,
            n_degraded=self.n_degraded + other.n_degraded,
            store_hits=self.store_hits + other.store_hits,
            store_misses=self.store_misses + other.store_misses,
            n_quarantined=self.n_quarantined + other.n_quarantined,
            n_exec_fallbacks=self.n_exec_fallbacks + other.n_exec_fallbacks,
        )

    def summary(self) -> str:
        """Human-readable multi-line report."""
        geo = (
            f", {self.n_geometric_groups} geometric class(es)"
            if self.n_geometric_groups
            else ""
        )
        exact = ""
        if self.mirrors_shared:
            exact = (
                f" [{self.n_exact_groups} exact class(es); {self.mirrors_shared} "
                f"mirror class(es) share artifacts via relabeling]"
            )
        grouping = ""
        if self.n_groups:
            grouping = (
                f"grouping:          {self.members_per_group:.2f} member(s) per "
                f"executed group, {self.singleton_share * 100.0:.0f}% singleton "
                f"group(s) ({self.n_singleton_groups}/{self.n_groups})"
            )
        lines = [
            f"subdomains:        {self.n_subdomains} in {self.n_groups} pattern group(s){exact}{geo}",
            grouping,
            f"cache:             {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate * 100.0:.1f}% hit rate, {self.evictions} evictions)",
            f"analysis:          {self.analysis_seconds * 1e3:.3f} ms charged, "
            f"{self.analysis_seconds_saved * 1e3:.3f} ms saved by reuse",
            f"factorization:     {self.factorization_seconds * 1e3:.3f} ms",
            f"assembly:          {self.assembly_seconds * 1e3:.3f} ms",
            f"preprocessing:     {self.preprocessing_seconds * 1e3:.3f} ms (serial total)",
            f"throughput:        {self.throughput():.1f} subdomains/s (serial)",
        ]
        if self.kernel_launches:
            lines.append(
                f"execution:         {self.execution} — {self.n_grouped}/"
                f"{self.n_subdomains} member(s) batched, "
                f"{self.kernel_launches} kernel launch(es), "
                f"{self.execute_seconds * 1e3:.3f} ms host wall"
            )
        if self.n_union_groups or self.n_union_skipped:
            lines.append(
                f"union:             {self.n_union_members} member(s) padded "
                f"into {self.n_union_groups} near class(es) at "
                f"{self.union_fill_ratio:.2f}x fill, "
                f"{self.n_union_skipped} class(es) over the fill cap"
            )
        if self.n_degraded:
            lines.append(
                f"degraded:          {self.n_degraded} batch(es) with only "
                f"singleton groups — grouped execution gained nothing "
                f"(consider execution='union')"
            )
        if self.store_hits or self.store_misses or self.n_quarantined:
            store_lookups = self.store_hits + self.store_misses
            store_rate = self.store_hits / store_lookups if store_lookups else 0.0
            lines.append(
                f"store:             {self.store_hits} hit(s) / "
                f"{self.store_misses} miss(es) from the persistent tier "
                f"({store_rate * 100.0:.1f}% of LRU misses served from disk, "
                f"{self.n_quarantined} quarantined)"
            )
        if self.n_exec_fallbacks:
            lines.append(
                f"fallbacks:         {self.n_exec_fallbacks} group(s) "
                f"re-executed per-member after a batched-execution failure"
            )
        return "\n".join(line for line in lines if line)


@dataclass
class SolveStats:
    """Counters and simulated-time aggregates of one (block) FETI solve.

    The solve-phase twin of :class:`BatchStats`: where the assembly
    counters say how much preprocessing the population shared, these say
    how the per-iteration work executed — how many RHS columns rode one
    block solve, how many kernel launches each iteration cost grouped vs
    per-subdomain, and how much simulated per-iteration time the batched
    dual-operator path charged.  ``application`` names the kernel chain
    that applied ``F`` (``"explicit GEMM"`` against the assembled Schur
    complements, 3 launches per member; ``"implicit TRSM"`` against the
    factors, 6) and ``launches_sequential_per_iteration`` is the same chain
    run per subdomain, so their ratio — :attr:`launch_reduction` — is the
    like-for-like solve-side analogue of the assembly engine's
    grouped-vs-per-member speedup.  ``n_deflated`` counts RHS columns
    retired early by the block recurrence's convergence deflation.
    """

    n_rhs: int = 0
    n_subdomains: int = 0
    n_groups: int = 0
    iterations: int = 0
    n_deflated: int = 0
    launches_per_iteration: int = 0
    launches_sequential_per_iteration: int = 0
    apply_seconds: float = 0.0
    apply_seconds_per_iteration: float = 0.0
    lowrank_rank: int = 0
    application: str = ""

    @property
    def launch_reduction(self) -> float:
        """Sequential over grouped launches per iteration (>= 1.0 when
        grouping helps; 0.0 for an empty solve)."""
        return (
            self.launches_sequential_per_iteration / self.launches_per_iteration
            if self.launches_per_iteration
            else 0.0
        )

    def merge(self, other: "SolveStats") -> "SolveStats":
        """Combine two solves' statistics (counters and times add)."""
        return SolveStats(
            n_rhs=self.n_rhs + other.n_rhs,
            n_subdomains=self.n_subdomains + other.n_subdomains,
            n_groups=self.n_groups + other.n_groups,
            iterations=self.iterations + other.iterations,
            n_deflated=self.n_deflated + other.n_deflated,
            launches_per_iteration=self.launches_per_iteration
            + other.launches_per_iteration,
            launches_sequential_per_iteration=self.launches_sequential_per_iteration
            + other.launches_sequential_per_iteration,
            apply_seconds=self.apply_seconds + other.apply_seconds,
            apply_seconds_per_iteration=self.apply_seconds_per_iteration
            + other.apply_seconds_per_iteration,
            lowrank_rank=max(self.lowrank_rank, other.lowrank_rank),
            application=self.application
            if self.application == other.application
            else "mixed",
        )

    def summary(self) -> str:
        """Human-readable multi-line report."""
        chain = f" ({self.application})" if self.application else ""
        lines = [
            f"solve:             {self.n_rhs} RHS column(s) over "
            f"{self.n_subdomains} subdomain(s) in {self.n_groups} group(s)",
            f"iterations:        {self.iterations} "
            f"({self.n_deflated} column(s) deflated early)",
            f"launches/iter:     {self.launches_per_iteration} grouped{chain} vs "
            f"{self.launches_sequential_per_iteration} per-subdomain "
            f"({self.launch_reduction:.2f}x reduction)",
            f"apply:             {self.apply_seconds * 1e3:.3f} ms simulated "
            f"({self.apply_seconds_per_iteration * 1e3:.3f} ms per iteration)",
        ]
        if self.lowrank_rank:
            lines.append(f"low-rank:          rank-{self.lowrank_rank} coarse correction")
        return "\n".join(lines)


__all__ = ["BatchStats", "SolveStats"]
