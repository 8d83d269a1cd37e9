"""Unified tracing + metrics for the assembly pipeline (``repro.obs``).

One observability substrate for every layer (see
``docs/observability.md``):

* :mod:`repro.obs.span` — nested, thread-aware wall/CPU spans with a
  process-global default tracer and a no-op fast path (instrumented hot
  loops cost ~nothing when tracing is off).
* :mod:`repro.obs.metrics` — thread-safe counters / gauges / fixed-bucket
  histograms; absorbs :class:`~repro.gpu.costmodel.CostLedger` kernel
  totals and :class:`~repro.batch.stats.BatchStats` cache counters so
  simulated-device and measured-host numbers live on one timeline.
* :mod:`repro.obs.export` — Chrome trace-event JSON (open in Perfetto or
  ``chrome://tracing``; one track per host worker thread, one per
  simulated device) and flat JSON/CSV metrics dumps.
* :mod:`repro.obs.render` — terminal phase-breakdown tree.
* :mod:`repro.obs.context` / :mod:`repro.obs.fleet` — distributed
  tracing: :class:`TraceContext` crosses process boundaries through the
  work-queue schema, per-worker snapshot artifacts merge into one
  multi-track fleet timeline (``python -m repro trace merge``) and one
  aggregated metrics report (``python -m repro obs report``).

Typical use::

    from repro.obs import tracing

    with tracing() as tr:
        result = engine.assemble_batch(items, execution="grouped")
    result.trace.save("out.json")          # open in Perfetto
    print(result.trace.render(max_depth=3))

or end-to-end from the CLI: ``python -m repro batch --trace out.json``
then ``python -m repro trace out.json``.
"""

from repro.obs.context import TraceContext, new_trace_id
from repro.obs.export import (
    TraceFile,
    chrome_trace,
    load_chrome_trace,
    metrics_to_csv,
    metrics_to_json,
    read_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.fleet import (
    MergedTrace,
    fleet_chrome_trace,
    fleet_report,
    fleet_report_json,
    load_worker_traces,
    merge_traces,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    SUMMARY_PERCENTILES,
    Histogram,
    MetricsRegistry,
    record_batch_stats,
    record_cost_ledger,
)
from repro.obs.render import (
    PhaseNode,
    phase_tree,
    render_phase_tree,
    top_phases,
)
from repro.obs.span import (
    NOOP_SPAN,
    Span,
    Trace,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "Span",
    "Trace",
    "TraceContext",
    "Tracer",
    "NOOP_SPAN",
    "get_tracer",
    "set_tracer",
    "tracing",
    "new_trace_id",
    "MetricsRegistry",
    "Histogram",
    "DEFAULT_TIME_BUCKETS",
    "SUMMARY_PERCENTILES",
    "record_cost_ledger",
    "record_batch_stats",
    "chrome_trace",
    "write_chrome_trace",
    "read_trace",
    "load_chrome_trace",
    "TraceFile",
    "metrics_to_json",
    "metrics_to_csv",
    "write_metrics",
    "MergedTrace",
    "merge_traces",
    "fleet_chrome_trace",
    "fleet_report",
    "fleet_report_json",
    "load_worker_traces",
    "PhaseNode",
    "phase_tree",
    "render_phase_tree",
    "top_phases",
]
