"""Tests for the scheduler and the sep/mix pipeline."""

from __future__ import annotations

import pytest

from repro.gpu import MemoryPool
from repro.runtime import (
    SubdomainWork,
    Task,
    run_preprocessing_pipeline,
    schedule_tasks,
)


def test_scheduler_serial_chain():
    tasks = [
        Task("a", 1.0, "cpu"),
        Task("b", 2.0, "cpu", deps=["a"]),
        Task("c", 3.0, "cpu", deps=["b"]),
    ]
    s = schedule_tasks(tasks, n_cpu=4, n_gpu=1)
    assert s.makespan == 6.0
    assert s.tasks["b"].start == 1.0
    assert s.tasks["c"].start == 3.0


def test_scheduler_parallel_independent():
    tasks = [Task(f"t{i}", 1.0, "cpu") for i in range(6)]
    s = schedule_tasks(tasks, n_cpu=3, n_gpu=1)
    assert s.makespan == 2.0
    assert s.utilization("cpu", 3) == pytest.approx(1.0)


def test_scheduler_cross_resource_dependency():
    tasks = [
        Task("fact", 2.0, "cpu"),
        Task("asm", 1.0, "gpu", deps=["fact"]),
    ]
    s = schedule_tasks(tasks, n_cpu=1, n_gpu=1)
    assert s.tasks["asm"].start == 2.0
    assert s.makespan == 3.0
    assert s.busy["gpu"] == 1.0


def test_scheduler_allows_empty_unused_pool():
    """A pure-CPU schedule needs no GPU streams (and vice versa)."""
    tasks = [Task(f"t{i}", 1.0, "cpu") for i in range(4)]
    s = schedule_tasks(tasks, n_cpu=2, n_gpu=0)
    assert s.makespan == 2.0
    s2 = schedule_tasks([Task("g", 1.0, "gpu")], n_cpu=0, n_gpu=1)
    assert s2.makespan == 1.0


def test_scheduler_rejects_missing_pool_for_used_resource():
    with pytest.raises(ValueError, match="gpu tasks scheduled"):
        schedule_tasks([Task("g", 1.0, "gpu")], n_cpu=1, n_gpu=0)
    with pytest.raises(ValueError, match="cpu tasks scheduled"):
        schedule_tasks([Task("c", 1.0, "cpu")], n_cpu=0, n_gpu=1)
    with pytest.raises(ValueError, match=">= 0"):
        schedule_tasks([], n_cpu=-1, n_gpu=1)


def test_pipeline_cpu_only_zero_streams():
    work = [SubdomainWork(factorization=1.0, assembly=0.5) for _ in range(4)]
    res = run_preprocessing_pipeline(
        work, mode="mix", n_threads=2, n_streams=0, assembly_on_gpu=False
    )
    assert res.makespan > 0


def test_scheduler_validates():
    with pytest.raises(ValueError, match="unknown"):
        schedule_tasks([Task("a", 1.0, "cpu", deps=["ghost"])], 1, 1)
    with pytest.raises(ValueError, match="duplicate"):
        schedule_tasks([Task("a", 1.0, "cpu"), Task("a", 1.0, "cpu")], 1, 1)
    with pytest.raises(ValueError, match="cycle"):
        schedule_tasks(
            [Task("a", 1.0, "cpu", deps=["b"]), Task("b", 1.0, "cpu", deps=["a"])],
            1,
            1,
        )
    with pytest.raises(ValueError):
        Task("x", -1.0, "cpu")
    with pytest.raises(ValueError):
        Task("x", 1.0, "fpga")


def test_pipeline_mix_overlaps_sep_does_not():
    work = [SubdomainWork(factorization=1.0, assembly=0.5) for _ in range(8)]
    mix = run_preprocessing_pipeline(work, mode="mix", n_threads=2, n_streams=2)
    sep = run_preprocessing_pipeline(work, mode="sep", n_threads=2, n_streams=2)
    assert mix.makespan == pytest.approx(4.5)
    assert sep.makespan == pytest.approx(6.0)
    assert sep.factorization_makespan == pytest.approx(4.0)
    assert sep.assembly_makespan == pytest.approx(2.0)


def test_pipeline_cpu_only_sep_equals_mix():
    """Paper §4.4: on the CPU both configurations perform the same
    operations, order irrelevant — equal makespans."""
    work = [SubdomainWork(factorization=1.0, assembly=0.5) for _ in range(8)]
    mix = run_preprocessing_pipeline(
        work, mode="mix", n_threads=2, n_streams=2, assembly_on_gpu=False
    )
    sep = run_preprocessing_pipeline(
        work, mode="sep", n_threads=2, n_streams=2, assembly_on_gpu=False
    )
    assert mix.makespan == pytest.approx(sep.makespan)


def test_pipeline_gpu_idle_at_start():
    """The delayed GPU start of mix mode: no assembly before the first
    factorization completes."""
    work = [SubdomainWork(factorization=2.0, assembly=0.1) for _ in range(4)]
    mix = run_preprocessing_pipeline(work, mode="mix", n_threads=4, n_streams=4)
    first_asm = min(
        t.start for tid, t in mix.schedule.tasks.items() if tid.startswith("asm:")
    )
    assert first_asm >= 2.0


def test_pipeline_memory_replay_counts_stalls():
    work = [
        SubdomainWork(factorization=1.0, assembly=1.0, temp_bytes=100, persistent_bytes=1)
        for _ in range(4)
    ]
    pool = MemoryPool(capacity=150.0)
    res = run_preprocessing_pipeline(
        work, mode="sep", n_threads=4, n_streams=4, memory_pool=pool
    )
    assert res.memory_stalls > 0
    assert res.memory_high_water <= 150.0


def test_pipeline_no_memory_pool_no_stats():
    work = [SubdomainWork(factorization=1.0, assembly=1.0)]
    res = run_preprocessing_pipeline(work, n_threads=1, n_streams=1)
    assert res.memory_stalls == 0
    assert res.memory_high_water == 0.0


def test_pipeline_validates():
    with pytest.raises(ValueError, match="unknown pipeline"):
        run_preprocessing_pipeline([SubdomainWork(1.0, 1.0)], mode="pipelined")
    with pytest.raises(ValueError, match="no subdomains"):
        run_preprocessing_pipeline([], mode="mix")


def test_pipeline_per_subdomain():
    work = [SubdomainWork(factorization=1.0, assembly=1.0) for _ in range(4)]
    res = run_preprocessing_pipeline(work, mode="mix", n_threads=1, n_streams=1)
    assert res.per_subdomain == pytest.approx(res.makespan / 4)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=25, deadline=None)
@given(
    n_sub=st.integers(1, 20),
    n_threads=st.integers(1, 8),
    n_streams=st.integers(1, 8),
    fact=st.floats(0.01, 10.0),
    asm=st.floats(0.01, 10.0),
)
def test_property_pipeline_makespan_bounds(n_sub, n_threads, n_streams, fact, asm):
    """Makespan is bounded below by the critical path and above by the
    serial execution, and mix never loses to sep on the GPU."""
    work = [SubdomainWork(factorization=fact, assembly=asm) for _ in range(n_sub)]
    mix = run_preprocessing_pipeline(
        work, mode="mix", n_threads=n_threads, n_streams=n_streams
    )
    sep = run_preprocessing_pipeline(
        work, mode="sep", n_threads=n_threads, n_streams=n_streams
    )
    serial = n_sub * (fact + asm)
    critical = fact + asm
    for res in (mix, sep):
        assert critical <= res.makespan + 1e-9
        assert res.makespan <= serial + 1e-9
    assert mix.makespan <= sep.makespan + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    durations=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=15),
    n_cpu=st.integers(1, 6),
)
def test_property_scheduler_work_conservation(durations, n_cpu):
    """Total busy time equals the sum of durations; utilization <= 1."""
    tasks = [Task(f"t{i}", d, "cpu") for i, d in enumerate(durations)]
    s = schedule_tasks(tasks, n_cpu=n_cpu, n_gpu=1)
    assert s.busy["cpu"] == pytest.approx(sum(durations))
    assert s.utilization("cpu", n_cpu) <= 1.0 + 1e-9
    # No two tasks overlap on one worker.
    by_worker: dict[int, list] = {}
    for t in s.tasks.values():
        by_worker.setdefault(t.worker, []).append((t.start, t.end))
    for spans in by_worker.values():
        spans.sort()
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert s2 >= e1 - 1e-12
