"""Fleet-wide observability: merge per-worker traces, aggregate metrics.

A multi-worker queue drain (``python -m repro work run`` on N machines)
produces one trace + metrics snapshot per worker process
(``WORKER_<id>.json``, written at drain end and checkpointed after every
job).  This module stitches them back into fleet-level artifacts:

* :func:`merge_traces` — one multi-track timeline: every worker keeps its
  own tracks (renamed ``<worker>/<track>``), span ids are re-namespaced so
  they never collide, host timestamps are aligned onto one wall clock via
  each tracer's recorded ``epoch_unix`` anchor, and cross-process
  parent/child references (a job's ``remote_parent`` pointing at the
  submitter's ``queue.submit`` context) are resolved into explicit links.
* :func:`fleet_chrome_trace` — the merged timeline as Chrome trace-event
  JSON with one *process* per worker (``pid`` per worker, globally unique
  ``tid``\\ s) plus flow arrows from each submit context to every job span
  it spawned — the reclaim of a crashed worker's job is visibly the same
  flow.
* :func:`fleet_report` — fleet-level metrics aggregation: per-worker rows
  (jobs, throughput), summed counters (store hit rate, quarantines,
  launches, union fill), and merged histograms with p50/p90/p99.

Clock caveat: ``epoch_unix`` is ``time.time()`` sampled once per tracer,
so cross-worker alignment is only as good as the machines' wall clocks
(NTP-level, milliseconds).  Within one worker the monotonic
``perf_counter`` ordering is exact; *across* workers, sub-millisecond
interleavings in the merged view are not meaningful.  Simulated-device
tracks (``sim:*``) tick in simulated seconds and are never shifted.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.export import TraceFile, emit_span_events, read_trace
from repro.obs.metrics import SUMMARY_PERCENTILES, MetricsRegistry
from repro.obs.span import Span
from repro.util.atomic import atomic_write_text

#: Span attribute naming the minted context id (``<tag>:<span id>``).
CTX_ATTR = "ctx"
#: Span attribute naming the remote parent context a span hangs under.
REMOTE_PARENT_ATTR = "remote_parent"


@dataclass
class SpanLink:
    """One resolved cross-process edge: *child* (a worker's job span)
    continues the trace of *parent* (the submitter's context span)."""

    parent_ctx: str  #: context id (``<tag>:<id>``) of the submit span
    parent_span_id: int | None  #: merged id of the submit span (if present)
    child_span_id: int  #: merged id of the continuing span
    trace_id: str  #: fleet trace id both sides carry


@dataclass
class MergedTrace:
    """The stitched fleet timeline + its bookkeeping."""

    spans: list[Span]
    workers: list[str]
    metrics: MetricsRegistry
    per_worker: dict[str, dict]
    #: Applied wall-clock shift per worker (seconds added to host spans).
    clock_offsets: dict[str, float]
    links: list[SpanLink] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def spans_for(self, worker: str) -> list[Span]:
        prefix = f"{worker}/"
        return [s for s in self.spans if s.track.startswith(prefix)]

    def save(self, path) -> str:
        """Write the merged Chrome trace atomically; returns the path."""
        return atomic_write_text(path, json.dumps(fleet_chrome_trace(self)))


def _unique_worker_names(files: list[TraceFile]) -> list[str]:
    names: list[str] = []
    seen: dict[str, int] = {}
    for f in files:
        base = f.worker
        n = seen.get(base, 0)
        seen[base] = n + 1
        names.append(base if n == 0 else f"{base}#{n + 1}")
    return names


def merge_traces(files: list[TraceFile | str]) -> MergedTrace:
    """Stitch per-worker trace files into one fleet timeline.

    Accepts loaded :class:`~repro.obs.export.TraceFile` objects or paths
    (read leniently — a crashed worker's partial checkpoint merges too).
    Per worker: tracks become ``<worker>/<track>``, span ids get a
    non-overlapping range, host-span timestamps shift by the worker's
    wall-clock offset against the earliest tracer epoch in the set, and
    metrics snapshots fold into one registry (order-independent).
    """
    loaded = [f if isinstance(f, TraceFile) else read_trace(f) for f in files]
    if not loaded:
        raise ValueError("nothing to merge: no trace files given")
    workers = _unique_worker_names(loaded)

    epochs = {
        w: float(f.meta["epoch_unix"])
        for w, f in zip(workers, loaded)
        if "epoch_unix" in f.meta
    }
    base_epoch = min(epochs.values()) if epochs else 0.0

    merged = MergedTrace(
        spans=[],
        workers=workers,
        metrics=MetricsRegistry(),
        per_worker={},
        clock_offsets={},
    )
    ctx_index: dict[str, int] = {}  # context id -> merged span id
    pending: list[tuple[Span, str]] = []  # (span, remote ctx id)
    next_id = 1
    for worker, f in zip(workers, loaded):
        offset = epochs.get(worker, base_epoch) - base_epoch
        if worker not in epochs:
            merged.warnings.append(
                f"{worker}: no epoch_unix clock anchor — timestamps left "
                f"unshifted (pre-fleet trace format?)"
            )
        merged.clock_offsets[worker] = offset
        merged.per_worker[worker] = f.metrics
        merged.metrics.merge_dict(f.metrics)
        merged.warnings.extend(f"{worker}: {w}" for w in f.warnings)
        id_map: dict[int, int] = {}
        for s in f.spans:
            id_map[s.span_id] = next_id + s.span_id
        for s in f.spans:
            shift = 0.0 if s.track.startswith("sim:") else offset
            span = Span(
                name=s.name,
                span_id=id_map[s.span_id],
                parent_id=id_map.get(s.parent_id) if s.parent_id is not None else None,
                track=f"{worker}/{s.track}",
                start=s.start + shift,
                end=s.end + shift,
                cpu=s.cpu,
                attrs=dict(s.attrs),
            )
            merged.spans.append(span)
            ctx = span.attrs.get(CTX_ATTR)
            if ctx:
                ctx_index[str(ctx)] = span.span_id
            remote = span.attrs.get(REMOTE_PARENT_ATTR)
            if remote:
                pending.append((span, str(remote)))
        next_id += (max(id_map) if id_map else 0) + 1

    for span, remote in pending:
        merged.links.append(
            SpanLink(
                parent_ctx=remote,
                parent_span_id=ctx_index.get(remote),
                child_span_id=span.span_id,
                trace_id=str(span.attrs.get("trace_id", "")),
            )
        )
    merged.meta = {
        "workers": list(workers),
        "base_epoch_unix": base_epoch,
        "n_links": len(merged.links),
        "trace_ids": sorted(
            {link.trace_id for link in merged.links if link.trace_id}
        ),
    }
    return merged


def _flow_id(ctx: str) -> int:
    """Stable 32-bit flow-event id for a context string."""
    return zlib.crc32(ctx.encode()) & 0xFFFFFFFF


def fleet_chrome_trace(merged: MergedTrace) -> dict:
    """Chrome trace-event JSON of a merged fleet timeline.

    One *process* per worker (``process_name`` metadata, ``pid`` = worker
    index), globally unique ``tid``\\ s so ``read_trace`` round-trips the
    merged file, and ``s``/``f`` flow events drawing an arrow from every
    submit context to each job span that continued it (Perfetto renders
    these across processes — a reclaimed job visibly resumes the
    original submit's flow).
    """
    events: list[dict] = []
    tid_base = 0
    span_pos: dict[int, tuple[int, str]] = {}  # merged span id -> (pid, track)
    for pid, worker in enumerate(merged.workers, start=1):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": worker},
            }
        )
        spans = merged.spans_for(worker)
        for s in spans:
            span_pos[s.span_id] = (pid, s.track)
        tid_base += emit_span_events(events, spans, pid=pid, tid_base=tid_base)
    # Track name -> tid lookup for flow endpoints.
    tids = {
        (ev["pid"], ev["args"]["name"]): ev["tid"]
        for ev in events
        if ev.get("ph") == "M" and ev.get("name") == "thread_name"
    }
    by_id = {s.span_id: s for s in merged.spans}
    for link in merged.links:
        child = by_id.get(link.child_span_id)
        parent = by_id.get(link.parent_span_id) if link.parent_span_id else None
        if child is None or parent is None:
            continue
        fid = _flow_id(link.parent_ctx)
        ppid, ptrack = span_pos[parent.span_id]
        cpid, ctrack = span_pos[child.span_id]
        events.append(
            {"name": "job", "cat": "job", "ph": "s", "id": fid,
             "pid": ppid, "tid": tids[(ppid, ptrack)], "ts": parent.start * 1e6}
        )
        events.append(
            {"name": "job", "cat": "job", "ph": "f", "bp": "e", "id": fid,
             "pid": cpid, "tid": tids[(cpid, ctrack)], "ts": child.start * 1e6}
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "metrics": merged.metrics.to_dict(),
            "trace": dict(merged.meta),
        },
    }


# -- fleet metrics report ---------------------------------------------------


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def fleet_report(files: list[TraceFile | str], top_hist: int = 12) -> str:
    """Text report aggregating N per-worker metrics snapshots.

    Per-worker rows (jobs done/failed/lost leases, wall seconds, job
    throughput), fleet-summed counters with derived rates (store hit
    rate, quarantines, kernel launches, union fill ratio), and the merged
    histograms with count/mean/p50/p90/p99.  Counters are summed cell-wise
    — each fleet total equals what a single process doing all the work
    would have counted (the invariant ``tests/test_fleet.py`` pins).
    """
    loaded = [f if isinstance(f, TraceFile) else read_trace(f) for f in files]
    if not loaded:
        raise ValueError("nothing to report: no metrics files given")
    workers = _unique_worker_names(loaded)
    fleet = MetricsRegistry()
    for f in loaded:
        fleet.merge_dict(f.metrics)
    snap = fleet.to_dict()
    counters = snap["counters"]

    lines = [f"fleet obs report — {len(loaded)} worker snapshot(s)"]
    lines.append("")
    header = (
        f"{'worker':16s} {'jobs':>5s} {'done':>5s} {'fail':>5s} "
        f"{'lost':>5s} {'wall_s':>8s} {'jobs/s':>7s}"
    )
    lines.append(header)
    for worker, f in zip(workers, loaded):
        c = f.metrics.get("counters", {})
        done = c.get("worker.jobs_done", 0)
        wall = c.get("worker.wall_seconds", 0.0)
        rate = done / wall if wall else 0.0
        lines.append(
            f"{worker:16s} {_fmt(c.get('worker.jobs_claimed', 0)):>5s} "
            f"{_fmt(done):>5s} {_fmt(c.get('worker.jobs_failed', 0)):>5s} "
            f"{_fmt(c.get('worker.lost_leases', 0)):>5s} "
            f"{wall:8.2f} {rate:7.2f}"
        )
    lines.append("")

    store_hits = counters.get("store.hits", 0.0)
    store_misses = counters.get("store.misses", 0.0)
    lookups = store_hits + store_misses
    lines.append("fleet totals:")
    lines.append(
        f"  store: {_fmt(store_hits)} hit(s) / {_fmt(store_misses)} miss(es)"
        + (f" ({store_hits / lookups:.1%} hit rate)" if lookups else "")
        + f", {_fmt(counters.get('store.puts', 0))} put(s), "
        f"{_fmt(counters.get('store.quarantined', 0))} quarantined"
    )
    lines.append(
        f"  queue: {_fmt(counters.get('queue.claims', 0))} claim(s), "
        f"{_fmt(counters.get('queue.reaped', 0))} reaped lease(s), "
        f"{_fmt(counters.get('queue.completions', 0))} completion(s), "
        f"{_fmt(counters.get('queue.failures', 0))} failure(s), "
        f"{_fmt(counters.get('queue.dead_letters', 0))} dead-letter(s)"
    )
    lines.append(
        f"  gpu: {_fmt(counters.get('gpu.launches', 0))} launch(es), "
        f"{counters.get('gpu.sim_seconds', 0.0):.4g} simulated second(s), "
        f"{counters.get('gpu.flops', 0.0):.4g} flop(s)"
    )
    lines.append(
        f"  solver: {_fmt(counters.get('pcpg.iterations', 0))} PCPG "
        f"iteration(s), {_fmt(counters.get('pcpg.deflations', 0))} "
        f"deflation event(s)"
    )
    lines.append(
        f"  symbolic: {_fmt(counters.get('sparse.relabel.searched', 0))} relabeling "
        f"search(es) + {_fmt(counters.get('sparse.relabel.reused', 0))} reused "
        f"({_fmt(counters.get('sparse.relabel.candidates', 0))} expensive "
        f"candidate(s)), {_fmt(counters.get('sparse.ordering.computed', 0))} "
        f"ordering(s) computed + {_fmt(counters.get('sparse.ordering.reused', 0))} reused"
    )
    hist = snap["histograms"]
    fill = hist.get("batch.union_fill_ratio")
    if fill and fill["n"]:
        lines.append(
            f"  union fill ratio: mean {fill['total'] / fill['n']:.2f}x over "
            f"{fill['n']} padded class(es)"
        )

    if hist:
        lines.append("")
        lines.append(
            f"{'histogram (fleet-merged)':34s} {'n':>6s} {'mean':>10s}"
            + "".join(f" {'p%g' % q:>10s}" for q in SUMMARY_PERCENTILES)
        )
        ranked = sorted(hist.items(), key=lambda kv: -kv[1]["n"])[:top_hist]
        for name, h in ranked:
            mean = h["total"] / h["n"] if h["n"] else 0.0
            lines.append(
                f"{name[:34]:34s} {h['n']:6d} {mean:10.4g}"
                + "".join(
                    f" {h.get('p%g' % q, 0.0):10.4g}" for q in SUMMARY_PERCENTILES
                )
            )
        if len(hist) > top_hist:
            lines.append(f"... ({len(hist) - top_hist} more histogram(s))")
    return "\n".join(lines)


def fleet_report_json(files: list[TraceFile | str]) -> dict:
    """Machine-readable fleet aggregation: merged snapshot + per-worker."""
    loaded = [f if isinstance(f, TraceFile) else read_trace(f) for f in files]
    workers = _unique_worker_names(loaded)
    fleet = MetricsRegistry()
    for f in loaded:
        fleet.merge_dict(f.metrics)
    return {
        "n_workers": len(loaded),
        "workers": workers,
        "fleet": fleet.to_dict(),
        "per_worker": {w: f.metrics for w, f in zip(workers, loaded)},
    }


def load_worker_traces(paths: list[str | Path]) -> list[TraceFile]:
    """Leniently read worker snapshot files, skipping unreadable ones."""
    out: list[TraceFile] = []
    for path in paths:
        try:
            out.append(read_trace(path))
        except (OSError, json.JSONDecodeError) as exc:
            out.append(
                TraceFile(path=str(path), warnings=[f"unreadable: {exc}"])
            )
    return out


__all__ = [
    "CTX_ATTR",
    "REMOTE_PARENT_ATTR",
    "SpanLink",
    "MergedTrace",
    "merge_traces",
    "fleet_chrome_trace",
    "fleet_report",
    "fleet_report_json",
    "load_worker_traces",
]
