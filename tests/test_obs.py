"""Tests for the unified tracing + metrics layer (:mod:`repro.obs`).

Covers the span model (nesting, thread-awareness, no-op fast path), the
metrics registry, the Chrome trace-event exporter (structural validation +
round-trip), the phase-tree/top-phases renderings, the migrated schedule
renderings behind their deprecation shim, and the end-to-end batch-engine
instrumentation acceptance criteria: an 8x8 floating grid traced through
grouped execution exports well-formed Perfetto JSON, the phase inclusive
times cover the measured wall clock, spans survive multi-threaded group
execution without loss, and the tracing-off overhead on assemble_batch
stays under 2%.
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np
import pytest

from repro.obs import (
    MetricsRegistry,
    NOOP_SPAN,
    Tracer,
    chrome_trace,
    gantt,
    get_tracer,
    load_chrome_trace,
    metrics_to_csv,
    phase_tree,
    record_batch_stats,
    record_cost_ledger,
    render_phase_tree,
    render_schedule,
    set_tracer,
    top_phases,
    tracing,
)


# -- span model -------------------------------------------------------------


def test_span_nesting_and_attrs():
    tracer = Tracer()
    with tracer.span("outer", kind="root") as outer:
        with tracer.span("inner") as inner:
            inner.set(detail=42)
    spans = tracer.spans()
    assert [s.name for s in spans] == ["inner", "outer"]  # closed in order
    inner_s, outer_s = spans
    assert inner_s.parent_id == outer_s.span_id
    assert outer_s.parent_id is None
    assert outer_s.attrs == {"kind": "root"}
    assert inner_s.attrs == {"detail": 42}
    assert 0.0 <= outer_s.start <= inner_s.start <= inner_s.end <= outer_s.end
    assert inner_s.cpu >= 0.0
    assert inner_s.track == outer_s.track == "host:0"


def test_disabled_tracer_is_noop():
    tracer = Tracer(enabled=False)
    span = tracer.span("anything", big=1)
    assert span is NOOP_SPAN  # shared singleton: zero allocation
    with span as s:
        s.set(more=2)
    tracer.add_span("virtual", start=0.0, end=1.0, track="sim:x")
    assert tracer.spans() == []


def test_default_tracer_disabled_and_scoped_tracing_restores():
    assert get_tracer().enabled is False
    with tracing() as tr:
        assert get_tracer() is tr
        assert tr.enabled
        with tr.span("x"):
            pass
    assert get_tracer().enabled is False
    assert len(tr.spans()) == 1


def test_set_tracer_roundtrip():
    t = Tracer()
    previous = set_tracer(t)
    try:
        assert get_tracer() is t
    finally:
        set_tracer(previous)
    assert get_tracer() is previous


def test_trace_window_via_mark():
    tracer = Tracer()
    with tracer.span("before"):
        pass
    mark = tracer.mark()
    with tracer.span("after"):
        pass
    window = tracer.trace(mark)
    assert [s.name for s in window.spans] == ["after"]
    assert window.total("after") > 0.0
    assert window.by_name("before") == []


# -- metrics ----------------------------------------------------------------


def test_metrics_registry_counters_gauges_histograms():
    reg = MetricsRegistry()
    reg.count("a")
    reg.count("a", 2.5)
    reg.gauge("g", 7.0)
    reg.observe("h", 3e-4)
    reg.observe("h", 2.0)
    snap = reg.to_dict()
    assert snap["counters"]["a"] == 3.5
    assert snap["gauges"]["g"] == 7.0
    hist = reg.histogram("h")
    assert hist.n == 2
    assert hist.total == pytest.approx(2.0003)
    assert sum(hist.counts) == 2
    # merge: counters/histograms add, gauges take the newer value
    other = MetricsRegistry()
    other.count("a", 1.0)
    other.gauge("g", 1.0)
    other.observe("h", 5e-4)
    reg.merge(other)
    assert reg.counter("a") == 4.5
    assert reg.to_dict()["gauges"]["g"] == 1.0
    assert reg.histogram("h").n == 3


def test_metrics_csv_dump():
    reg = MetricsRegistry()
    reg.count("batch.hits", 3)
    reg.observe("lat", 0.5)
    text = metrics_to_csv(reg)
    lines = text.strip().splitlines()
    assert lines[0] == "kind,name,value"
    assert "counter,batch.hits,3.0" in lines
    assert any(line.startswith("histogram,lat.sum") for line in lines)
    assert any(line.startswith("histogram,lat.bucket_le_") for line in lines)


def test_record_cost_ledger():
    from repro.gpu.costmodel import KernelCost
    from repro.gpu.runtime import Executor
    from repro.gpu.spec import EPYC_7763_CORE

    ex = Executor(EPYC_7763_CORE)
    ex.charge(KernelCost(flops=1e6, bytes_moved=1e4, launches=2, char_dim=100.0))
    reg = MetricsRegistry()
    record_cost_ledger(reg, ex.ledger)
    assert reg.counter("gpu.flops") == 1e6
    assert reg.counter("gpu.bytes_moved") == 1e4
    assert reg.counter("gpu.launches") == 2
    assert reg.counter("gpu.calls") == 1
    assert reg.counter("gpu.sim_seconds") == pytest.approx(ex.ledger.elapsed)


def test_record_batch_stats_covers_every_field():
    """Every current and future BatchStats field must land in the registry
    (strings and bools excluded by design, dicts as their value sum)."""
    from repro.batch.stats import BatchStats

    stats = BatchStats(
        n_subdomains=4,
        hits=3,
        analysis_seconds=0.5,
        group_execute_seconds={"a": 0.25, "b": 0.75},
        group_launches={"a": 2},
    )
    reg = MetricsRegistry()
    record_batch_stats(reg, stats)
    counters = reg.to_dict()["counters"]
    for f in dataclasses.fields(BatchStats):
        value = getattr(stats, f.name)
        if isinstance(value, (bool, str)):
            assert f"batch.{f.name}" not in counters
        elif isinstance(value, dict):
            assert counters[f"batch.{f.name}"] == pytest.approx(sum(value.values()))
        elif isinstance(value, (int, float)):
            assert counters[f"batch.{f.name}"] == pytest.approx(float(value))
        else:
            pytest.fail(
                f"BatchStats.{f.name} has unhandled type {type(value).__name__}; "
                "teach repro.obs.metrics.record_batch_stats (and this test) "
                "how to absorb it"
            )


def test_batch_stats_merge_is_complete():
    """merge() must aggregate every dataclass field — a new field silently
    dropped by merge() fails here, not in production."""
    from repro.batch.stats import BatchStats

    a_kwargs, b_kwargs = {}, {}
    for i, f in enumerate(dataclasses.fields(BatchStats)):
        if f.name == "execution":
            a_kwargs[f.name] = "grouped"
            b_kwargs[f.name] = "per-member"
        elif f.type in ("int", "float") or isinstance(f.default, (int, float)):
            a_kwargs[f.name] = 2 * i + 1
            b_kwargs[f.name] = 1000 + i
        elif "dict" in str(f.type):
            a_kwargs[f.name] = {"x": 2 * i + 1, "y": 1}
            b_kwargs[f.name] = {"x": 1000 + i, "z": 2}
        else:
            pytest.fail(
                f"BatchStats.{f.name} has unrecognized type {f.type!r}; "
                "extend BatchStats.merge and this test together"
            )
    a, b = BatchStats(**a_kwargs), BatchStats(**b_kwargs)
    merged = a.merge(b)
    for f in dataclasses.fields(BatchStats):
        got = getattr(merged, f.name)
        if f.name == "execution":
            assert got == "mixed"  # differing modes merge to the sentinel
        elif isinstance(got, dict):
            expected = dict(a_kwargs[f.name])
            for k, v in b_kwargs[f.name].items():
                expected[k] = expected.get(k, 0) + v
            assert got == expected, f"dict field {f.name} not merged"
        else:
            assert got == a_kwargs[f.name] + b_kwargs[f.name], (
                f"BatchStats.merge drops field {f.name!r}"
            )


# -- exporters --------------------------------------------------------------


def _validate_chrome_events(events):
    """Per tid: metadata first is not required, but B/E streams must be
    stack-disciplined with non-decreasing timestamps."""
    names = {}
    stacks: dict[int, list[str]] = {}
    last_ts: dict[int, float] = {}
    for ev in events:
        if ev.get("ph") == "M":
            assert ev["name"] == "thread_name"
            names[ev["tid"]] = ev["args"]["name"]
            continue
        assert ev["ph"] in ("B", "E")
        tid = ev["tid"]
        assert tid in names, f"events on unnamed tid {tid}"
        assert ev["ts"] >= last_ts.get(tid, float("-inf")), "timestamps regress"
        last_ts[tid] = ev["ts"]
        stack = stacks.setdefault(tid, [])
        if ev["ph"] == "B":
            stack.append(ev["name"])
        else:
            assert stack, f"E without B on tid {tid}"
            assert stack.pop() == ev["name"], "mismatched B/E pair"
    assert all(not s for s in stacks.values()), "unclosed B events"
    return names


def test_chrome_trace_virtual_and_host_tracks():
    tracer = Tracer()
    with tracer.span("host-work"):
        tracer.add_span("k1", start=0.0, end=1.0, track="sim:gpu:a#0", flops=10)
        tracer.add_span("k2", start=1.0, end=2.5, track="sim:gpu:a#0")
    data = chrome_trace(tracer.spans(), metrics=tracer.metrics)
    names = _validate_chrome_events(data["traceEvents"])
    assert sorted(names.values()) == ["host:0", "sim:gpu:a#0"]
    assert list(names.values())[0] == "host:0"  # host tracks sort first
    b = [e for e in data["traceEvents"] if e.get("ph") == "B" and e["name"] == "k1"]
    assert b[0]["args"]["flops"] == 10
    assert data["otherData"]["metrics"]["counters"] == {}


def test_chrome_trace_adjacent_siblings_not_nested():
    """A sibling starting exactly where the last one ended must close the
    first span before opening the second (the <= pop rule)."""
    tracer = Tracer()
    tracer.add_span("a", start=0.0, end=1.0, track="sim:x")
    tracer.add_span("b", start=1.0, end=2.0, track="sim:x")
    events = [e for e in chrome_trace(tracer.spans())["traceEvents"] if e["ph"] != "M"]
    assert [(e["ph"], e["name"]) for e in events] == [
        ("B", "a"), ("E", "a"), ("B", "b"), ("E", "b"),
    ]


def test_chrome_trace_roundtrip(tmp_path):
    tracer = Tracer()
    tracer.metrics.count("k", 2)
    with tracer.span("outer"):
        with tracer.span("inner", x=1):
            pass
    path = tmp_path / "trace.json"
    trace = tracer.trace()
    trace.save(path)
    spans, metrics = load_chrome_trace(path)
    assert {s.name for s in spans} == {"outer", "inner"}
    inner = next(s for s in spans if s.name == "inner")
    outer = next(s for s in spans if s.name == "outer")
    assert inner.parent_id == outer.span_id  # parentage from B/E nesting
    assert inner.attrs["x"] == 1
    assert inner.duration == pytest.approx(
        trace.by_name("inner")[0].duration, abs=1e-9
    )
    assert metrics["counters"]["k"] == 2


def test_load_chrome_trace_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1,
             "args": {"name": "host:0"}},
            {"name": "a", "ph": "B", "pid": 0, "tid": 1, "ts": 0.0},
        ]
    }))
    with pytest.raises(ValueError, match="unclosed"):
        load_chrome_trace(path)


# -- phase tree / top phases ------------------------------------------------


def _make_phase_spans():
    tracer = Tracer()
    with tracer.span("assemble"):
        with tracer.span("analyze"):
            time.sleep(0.002)
        with tracer.span("execute"):
            time.sleep(0.001)
    tracer.add_span("kernel", start=0.0, end=5.0, track="sim:x")
    return tracer.spans()


def test_phase_tree_aggregation():
    spans = _make_phase_spans()
    root = phase_tree(spans)
    assert set(root.children) == {"assemble", "kernel"}
    assemble = root.children["assemble"]
    assert set(assemble.children) == {"analyze", "execute"}
    assert assemble.inclusive >= (
        assemble.children["analyze"].inclusive
        + assemble.children["execute"].inclusive
    )
    assert assemble.self_seconds >= 0.0
    # root inclusive sums only parentless spans: assemble + the sim kernel
    assert root.inclusive == pytest.approx(
        assemble.inclusive + root.children["kernel"].inclusive
    )
    text = render_phase_tree(root)
    assert "assemble" in text and "kernel" in text
    shallow = render_phase_tree(root, max_depth=1)
    assert "analyze" not in shallow


def test_top_phases_ranking():
    spans = _make_phase_spans()
    ranked = top_phases(spans, n=2)
    assert len(ranked) == 2
    assert ranked[0][0] == "kernel"  # 5 simulated seconds dominates
    assert ranked[0][1] == pytest.approx(5.0)
    assert ranked[0][2] == 1


# -- migrated schedule renderings + deprecation shim ------------------------


def _schedule(n_tasks: int, duration: float = 1.0, n_cpu: int = 2):
    from repro.runtime import Task, schedule_tasks

    tasks = [Task(f"t{i}", duration, "cpu") for i in range(n_tasks)]
    return schedule_tasks(tasks, n_cpu=n_cpu, n_gpu=1)


def test_render_schedule_empty():
    schedule = _schedule(0)
    text = render_schedule(schedule)
    assert "makespan" in text
    assert gantt(schedule, "cpu", 2) == "(empty schedule)"


def test_render_schedule_overflow_truncates():
    schedule = _schedule(7)
    text = render_schedule(schedule, max_rows=3)
    assert "... (4 more tasks)" in text
    assert "t6" not in text.split("...")[0]


def test_gantt_paints_worker_rows():
    schedule = _schedule(4, duration=1.0, n_cpu=2)
    chart = gantt(schedule, "cpu", 2, width=20)
    lines = chart.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("cpu[0] |")
    # 2 workers, 4 unit tasks: both rows fully painted with task-id marks
    for line in lines:
        body = line.split("|")[1]
        assert set(body) <= set("0123")
        assert " " not in body
    with pytest.raises(ValueError):
        gantt(schedule, "cpu", 2, width=5)


# -- end-to-end batch instrumentation ---------------------------------------


@pytest.fixture(scope="module")
def floating_8x8_items():
    from repro.batch import items_from_decomposition
    from repro.dd import decompose
    from repro.fem import heat_transfer_2d

    problem = heat_transfer_2d(16, dirichlet=())
    return items_from_decomposition(decompose(problem, grid=(8, 8)))


def _engine():
    from repro.batch import BatchAssembler
    from repro.core import default_config

    return BatchAssembler(config=default_config("gpu", 2))


def test_traced_grouped_batch_exports_valid_chrome_json(
    floating_8x8_items, tmp_path
):
    with tracing():
        result = _engine().assemble_batch(
            floating_8x8_items, execution="grouped", n_workers=2
        )
    assert result.trace is not None
    path = result.trace.save(tmp_path / "batch.json")
    data = json.loads(open(path).read())
    names = _validate_chrome_events(data["traceEvents"])
    tracks = set(names.values())
    hosts = {t for t in tracks if t.startswith("host:")}
    sims = {t for t in tracks if t.startswith("sim:")}
    # main thread + at least one pool worker; one sim track per group executor
    assert "host:0" in hosts and len(hosts) >= 2
    assert len(sims) == result.stats.n_groups
    assert data["otherData"]["metrics"]["counters"]["batch.n_subdomains"] == 64
    # the root phase hierarchy made it out intact
    span_names = {s.name for s in result.trace.spans}
    assert {"batch.assemble", "batch.analyze", "batch.execute",
            "batch.group", "batch.fingerprint", "batch.unrelabel"} <= span_names
    assert {"gpu.trsm_sparse", "gpu.syrk", "gpu.symmetric_permute"} <= span_names


def test_phase_inclusive_times_cover_wall(floating_8x8_items):
    """The batch.assemble phases (analyze + execute + unrelabel) must cover
    the engine's own measured wall clock within 5%."""
    with tracing():
        result = _engine().assemble_batch(
            floating_8x8_items, execution="grouped", n_workers=1
        )
    trace = result.trace
    covered = trace.total("batch.analyze", "batch.execute", "batch.unrelabel")
    wall = result.stats.wall_seconds
    assert covered <= wall * 1.001
    assert covered >= 0.95 * wall, (
        f"phases cover only {covered / wall:.1%} of wall ({covered:.4f}s "
        f"of {wall:.4f}s) — instrumentation gap"
    )


def test_worker_thread_spans_consistent_and_none_lost(floating_8x8_items):
    """Stress the tracer across the grouped ThreadPoolExecutor fan-out:
    parentage stays intra-thread-consistent, every group records exactly
    one span, and the registry counters equal BatchStats exactly."""
    with tracing() as tr:
        result = _engine().assemble_batch(
            floating_8x8_items, execution="grouped", n_workers=4
        )
    spans = result.trace.spans
    by_id = {s.span_id: s for s in spans}
    assert len(by_id) == len(spans), "span ids collide across threads"
    for s in spans:
        if s.parent_id is not None and s.parent_id in by_id:
            assert by_id[s.parent_id].track == s.track, (
                "parent and child on different tracks — cross-thread leak"
            )
    stats = result.stats
    groups = [s for s in spans if s.name == "batch.group"]
    assert len(groups) == stats.n_groups, "lost a group span"
    assert sum(s.attrs["n_members"] for s in groups) == stats.n_subdomains
    assert len([s for s in spans if s.name == "batch.fingerprint"]) == 64
    # counters mirror BatchStats exactly (same introspection both sides)
    for name, expected in [
        ("batch.n_subdomains", stats.n_subdomains),
        ("batch.n_groups", stats.n_groups),
        ("batch.hits", stats.hits),
        ("batch.misses", stats.misses),
        ("batch.kernel_launches", stats.kernel_launches),
    ]:
        assert tr.metrics.counter(name) == float(expected), name


def test_tracing_off_overhead_under_two_percent(floating_8x8_items):
    """Deterministic overhead bound: (spans an enabled run would record) x
    (measured cost of one disabled-tracer span call) must stay under 2% of
    the untraced wall clock.  Avoids flaky A/B wall-clock comparisons."""
    engine = _engine()
    t0 = time.perf_counter()
    engine.assemble_batch(floating_8x8_items, execution="grouped", n_workers=1)
    untraced_wall = time.perf_counter() - t0

    with tracing() as tr:
        engine.assemble_batch(floating_8x8_items, execution="grouped", n_workers=1)
    n_events = len(tr.spans())

    disabled = get_tracer()
    assert not disabled.enabled
    n = 20000
    t0 = time.perf_counter()
    for _ in range(n):
        with disabled.span("probe", idx=0):
            pass
    per_noop = (time.perf_counter() - t0) / n

    overhead = n_events * per_noop
    assert overhead < 0.02 * untraced_wall, (
        f"{n_events} instrumentation sites x {per_noop * 1e9:.0f} ns/noop = "
        f"{overhead * 1e3:.3f} ms >= 2% of {untraced_wall * 1e3:.1f} ms"
    )


def test_batch_result_trace_none_when_tracing_off(floating_8x8_items):
    result = _engine().assemble_batch(floating_8x8_items[:4])
    assert result.trace is None


# -- layer instrumentation: part / sparse / pcpg / gpu ----------------------


def test_partitioner_spans():
    from repro.part import jittered_square_mesh, partition_mesh

    mesh = jittered_square_mesh(8)
    with tracing() as tr:
        partition_mesh(mesh, 4)
    names = [s.name for s in tr.spans()]
    assert "part.partition" in names
    assert "part.dual_graph" in names
    assert "part.repair" in names and "part.rebalance" in names
    assert "part.refine" in names
    # recursive bisection: 4 parts = 3 internal bisections
    assert names.count("part.bisect") == 3


def test_pcpg_iteration_spans():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 12))
    f = a @ a.T + 12.0 * np.eye(12)
    g = rng.standard_normal((12, 2))
    with tracing() as tr:
        from repro.feti.block_pcpg import block_pcpg

        res = block_pcpg(
            lambda x: f @ x,
            rng.standard_normal((12, 1)),
            g,
            rng.standard_normal((2, 1)),
            tol=1e-8,
        )
    solves = [s for s in tr.spans() if s.name == "pcpg.block_solve"]
    iters = [s for s in tr.spans() if s.name == "pcpg.block_iteration"]
    assert len(solves) == 1
    assert solves[0].attrs["converged"] is True
    assert len(iters) == res.iterations
    assert [s.attrs["iteration"] for s in iters] == list(
        range(1, res.iterations + 1)
    )
    assert all("residual" in s.attrs for s in iters)


def test_sparse_and_gpu_kernel_spans():
    import scipy.sparse as sp

    from repro.gpu.runtime import Executor
    from repro.gpu.spec import A100_40GB
    from repro.sparse.cholesky import cholesky

    a = sp.diags([4.0] * 20) + sp.eye(20, k=1) + sp.eye(20, k=-1)
    with tracing() as tr:
        factor = cholesky(sp.csc_matrix(a))
        ex = Executor(A100_40GB)
        l = np.tril(np.ones((8, 8))) + 7.0 * np.eye(8)
        ex.trsm_dense(l[None], np.ones((1, 8, 3)))
        ex.syrk(np.ones((1, 8, 3)), np.zeros((1, 3, 3)))
    names = [s.name for s in tr.spans()]
    assert "sparse.cholesky" in names
    chol = next(s for s in tr.spans() if s.name == "sparse.cholesky")
    assert chol.attrs["nnz_l"] == factor.l.nnz
    kernels = [s for s in tr.spans() if s.track.startswith("sim:")]
    assert [s.name for s in kernels] == ["gpu.trsm_dense", "gpu.syrk"]
    # simulated timestamps: sequential on the executor's ledger timeline
    assert kernels[0].start == 0.0
    assert kernels[1].start == pytest.approx(kernels[0].end)
    assert tr.metrics.histogram("gpu.kernel_sim_seconds").n == 2


# -- histogram percentiles / lenient trace reading (fleet observability) ----


def test_histogram_percentiles_and_minmax():
    from repro.obs.metrics import Histogram

    h = Histogram(boundaries=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 1.5, 3.0, 10.0):
        h.observe(v)
    assert h.vmin == 0.5 and h.vmax == 10.0
    assert 0.5 <= h.percentile(50) <= 2.0
    assert h.percentile(99) <= 10.0  # overflow bucket clamped to vmax
    assert h.percentile(0) >= 0.5  # first bucket clamped to vmin
    snap = h.to_dict()
    assert snap["min"] == 0.5 and snap["max"] == 10.0
    assert set(snap) >= {"p50", "p90", "p99"}


def test_histogram_single_observation_percentiles_exact():
    from repro.obs.metrics import Histogram

    h = Histogram()
    h.observe(0.123)
    for q in (1, 50, 99):
        assert h.percentile(q) == pytest.approx(0.123)


def test_histogram_merge_matches_combined_observe():
    from repro.obs.metrics import Histogram

    values_a, values_b = (0.1, 0.4, 2.0), (0.2, 8.0)
    a, b, combined = Histogram(), Histogram(), Histogram()
    for v in values_a:
        a.observe(v)
        combined.observe(v)
    for v in values_b:
        b.observe(v)
        combined.observe(v)
    a.merge(b)
    assert a.to_dict() == combined.to_dict()


def test_histogram_from_dict_roundtrip_and_old_snapshots():
    from repro.obs.metrics import Histogram

    h = Histogram()
    for v in (0.01, 0.5, 3.0):
        h.observe(v)
    again = Histogram.from_dict(h.to_dict())
    assert again.to_dict() == h.to_dict()
    # pre-percentile snapshot (no min/max keys): loads, tracks None
    old = {"boundaries": [1.0], "counts": [2, 1], "total": 4.0, "n": 3}
    loaded = Histogram.from_dict(old)
    assert loaded.n == 3 and loaded.vmin is None


def test_registry_from_dict_roundtrip():
    registry = MetricsRegistry()
    registry.count("jobs", 4)
    registry.gauge("depth", 2.0)
    registry.observe("latency", 0.2)
    snap = registry.to_dict()
    assert MetricsRegistry.from_dict(snap).to_dict() == snap


def test_read_trace_metrics_only_file(tmp_path):
    from repro.obs import read_trace, write_metrics

    registry = MetricsRegistry()
    registry.count("store.hits", 7)
    path = tmp_path / "metrics.json"
    write_metrics(path, registry)
    loaded = read_trace(path)
    assert loaded.spans == []
    assert loaded.metrics["counters"]["store.hits"] == 7
    assert any("metrics-only" in w for w in loaded.warnings)
    with pytest.raises(ValueError, match="metrics-only"):
        read_trace(path, strict=True)


def test_read_trace_partial_file_closes_dangling_spans(tmp_path):
    from repro.obs import read_trace

    path = tmp_path / "partial.json"
    path.write_text(json.dumps({
        "traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1,
             "args": {"name": "host:0"}},
            {"name": "worker.run", "ph": "B", "pid": 0, "tid": 1, "ts": 0.0},
            {"name": "worker.job", "ph": "B", "pid": 0, "tid": 1, "ts": 1e6},
            # crashed mid-job: no E events ever written
        ]
    }))
    loaded = read_trace(path)
    assert {s.name for s in loaded.spans} == {"worker.run", "worker.job"}
    job = next(s for s in loaded.spans if s.name == "worker.job")
    assert job.attrs.get("unclosed") is True
    assert job.end == pytest.approx(1.0)  # closed at the last timestamp
    assert any("dangling" in w for w in loaded.warnings)


def test_read_trace_skips_unbalanced_and_mismatched_events(tmp_path):
    from repro.obs import read_trace

    path = tmp_path / "mangled.json"
    path.write_text(json.dumps({
        "traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1,
             "args": {"name": "host:0"}},
            {"name": "ghost", "ph": "E", "pid": 0, "tid": 1, "ts": 0.5e6},
            {"name": "a", "ph": "B", "pid": 0, "tid": 1, "ts": 1e6},
            {"name": "zzz", "ph": "E", "pid": 0, "tid": 1, "ts": 1.5e6},
            {"name": "a", "ph": "E", "pid": 0, "tid": 1, "ts": 2e6},
        ]
    }))
    loaded = read_trace(path)
    (a,) = loaded.spans
    assert a.name == "a" and a.end == pytest.approx(2.0)
    assert len(loaded.warnings) == 2
    with pytest.raises(ValueError):
        read_trace(path, strict=True)


def test_trace_meta_carries_identity_and_clock_anchor(tmp_path):
    from repro.obs import read_trace

    tracer = Tracer(enabled=True, trace_id="cafe" * 8)
    with tracer.span("x"):
        pass
    path = tmp_path / "t.json"
    tracer.trace(worker="w9").save(path)
    loaded = read_trace(path)
    assert loaded.meta["trace_id"] == "cafe" * 8
    assert loaded.meta["worker"] == "w9"
    assert loaded.meta["epoch_unix"] == pytest.approx(tracer.epoch_unix)
    assert loaded.worker == "w9"


def test_current_context_namespaced_by_process_tag():
    tracer = Tracer(enabled=True)
    assert tracer.current_context().span_id == ""  # no open span
    with tracer.span("outer") as outer:
        ctx = tracer.current_context()
        assert ctx.trace_id == tracer.trace_id
        assert ctx.span_id == f"{tracer.tag}:{outer.span_id}"
    disabled = Tracer(enabled=False)
    ctx = disabled.current_context()
    assert ctx.trace_id == disabled.trace_id and ctx.span_id == ""
