"""Stateless assembly workers: pull jobs, assemble against the shared store.

``python -m repro work run`` drives :func:`run_worker`: claim a job from
the :class:`~repro.store.queue.JobQueue`, execute its payload through the
batch engine with a :class:`~repro.store.tiered.TieredPatternCache` over
the shared :class:`~repro.store.store.ArtifactStore`, and write the result
summary back to the job row.  Any number of workers — across processes
and machines sharing the service root — drain one queue against one warm
cache; a worker killed at any instant loses at most its current attempt
(the queue's lease/retry machinery re-opens the job, and the store makes
the recomputation cheap).

A background heartbeat thread renews the lease while the handler runs, so
slow jobs are not reaped mid-computation; if the lease is lost anyway
(reaped during a stall), the result is dropped — the job belongs to
someone else now.

The ``"assemble"`` job payload mirrors the ``repro batch`` CLI::

    {"cells": 12, "grid": "3x3", "mesh": null, "partitioner": "boxes",
     "parts": 0, "seed": 0, "device": "cpu", "floating": true,
     "execution": "per-member", "signature": "frame", "canonicalize": true}

and the result records grouping/cache/store counters plus ``sc_digest`` —
a SHA-256 over every assembled Schur complement's bytes, the equality
witness the crash-recovery tests compare across interrupted and
uninterrupted runs.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs import get_tracer
from repro.store.faults import NO_FAULTS, FaultInjector, InjectedCrash
from repro.store.queue import JobQueue, LostLease
from repro.store.store import ArtifactStore
from repro.store.tiered import TieredPatternCache
from repro.util import require

#: Default payload of an ``assemble`` job (unknown payload keys rejected).
DEFAULT_ASSEMBLE_PAYLOAD = {
    "cells": 12,
    "grid": "3x3",
    "mesh": None,
    "partitioner": "boxes",
    "parts": 0,
    "seed": 0,
    "device": "cpu",
    "floating": True,
    "execution": "per-member",
    "signature": "frame",
    "canonicalize": True,
}


def sc_digest(results) -> str:
    """SHA-256 over the assembled Schur complements, in item order.

    Bitwise-stable for a fixed environment and a deterministic execution
    path — the witness that a crash-interrupted, re-leased job recomputed
    exactly what an uninterrupted run produces.
    """
    h = hashlib.sha256()
    for res in results:
        f = np.ascontiguousarray(np.asarray(res.f, dtype=np.float64))
        h.update(str(f.shape).encode())
        h.update(f.tobytes())
    return h.hexdigest()


def build_assemble_inputs(payload: dict):
    """Materialize an ``assemble`` payload into ``(items, engine_kwargs)``
    groundwork: problem → decomposition → factorized batch items."""
    from repro.batch import items_from_decomposition
    from repro.dd import decompose
    from repro.fem import heat_problem, heat_transfer_2d, heat_transfer_3d
    from repro.part import MESH_ZOO, make_mesh

    cfg = dict(DEFAULT_ASSEMBLE_PAYLOAD)
    unknown = set(payload) - set(cfg)
    require(not unknown, f"unknown assemble payload keys: {sorted(unknown)}")
    cfg.update(payload)

    dirichlet = () if cfg["floating"] else ("left",)
    mesh_name = cfg["mesh"] or "square"
    if mesh_name == "square":
        problem = heat_transfer_2d(cfg["cells"], dirichlet=dirichlet)
    elif mesh_name == "cube":
        problem = heat_transfer_3d(cfg["cells"], dirichlet=dirichlet)
    else:
        mesh_dim, _ = MESH_ZOO[mesh_name]
        problem = heat_problem(
            make_mesh(mesh_name, cfg["cells"], seed=cfg["seed"]), dirichlet=dirichlet
        )
    grid = tuple(int(g) for g in str(cfg["grid"]).split("x"))
    if cfg["partitioner"] == "boxes":
        decomposition = decompose(problem, grid=grid)
    else:
        n_parts = cfg["parts"] or int(np.prod(grid))
        decomposition = decompose(
            problem,
            n_subdomains=n_parts,
            partitioner=cfg["partitioner"],
            seed=cfg["seed"],
        )
    items = items_from_decomposition(decomposition, canonicalize=cfg["canonicalize"])
    return items, cfg


def run_assemble_job(
    payload: dict, store: ArtifactStore, faults: FaultInjector | None = None
) -> dict:
    """Execute one ``assemble`` job against the shared store; returns the
    JSON-safe result summary written to the job row."""
    from repro.batch import BatchAssembler
    from repro.core import default_config

    faults = faults if faults is not None else NO_FAULTS
    items, cfg = build_assemble_inputs(payload)
    dim = 3 if (cfg["mesh"] or "square") == "cube" else 2
    cache = TieredPatternCache(store)
    config = default_config(cfg["device"], dim)
    if cfg["device"] == "gpu":
        engine = BatchAssembler(config=config, cache=cache,
                                signature_mode=cfg["signature"])
    else:
        engine = BatchAssembler.for_cpu(config=config, cache=cache,
                                        signature_mode=cfg["signature"])
    batch = engine.assemble_batch(items, execution=cfg["execution"], n_workers=1)
    # Crash-mid-job point: the assembly (and its store puts) happened, the
    # completion has not — recovery must re-lease and recompute bit-equal
    # results from the now-warm store.
    faults.fire("worker.job.crash")
    stats = batch.stats
    return {
        "n_subdomains": stats.n_subdomains,
        "n_groups": stats.n_groups,
        "hit_rate": stats.hit_rate,
        "store_hits": stats.store_hits,
        "store_misses": stats.store_misses,
        "n_quarantined": stats.n_quarantined,
        "analysis_seconds": stats.analysis_seconds,
        "analysis_seconds_saved": stats.analysis_seconds_saved,
        "sc_digest": sc_digest(batch.results),
    }


#: Job-kind dispatch of :func:`run_worker`.
JOB_HANDLERS = {"assemble": run_assemble_job}


@dataclass
class WorkerStats:
    """Outcome of one :func:`run_worker` invocation."""

    owner: str = ""
    n_claimed: int = 0
    n_done: int = 0
    n_failed: int = 0
    n_lost_leases: int = 0
    wall_seconds: float = 0.0
    job_ids: list[int] = field(default_factory=list)
    job_seconds: list[float] = field(default_factory=list)
    trace_path: str | None = None

    def summary(self) -> str:
        out = (
            f"worker {self.owner}: {self.n_done} done, {self.n_failed} failed, "
            f"{self.n_lost_leases} lost lease(s) of {self.n_claimed} claimed "
            f"in {self.wall_seconds:.2f}s"
        )
        if self.job_seconds:
            ordered = sorted(self.job_seconds)

            def pct(q: float) -> float:
                idx = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered)) - 1))
                return ordered[idx]

            out += (
                f" (job p50 {pct(50):.3f}s, p90 {pct(90):.3f}s, "
                f"p99 {pct(99):.3f}s)"
            )
        return out


class _Heartbeat:
    """Daemon thread renewing a job lease while its handler runs."""

    def __init__(
        self, queue: JobQueue, job_id: int, owner: str, lease_seconds: float
    ) -> None:
        self._queue = queue
        self._job_id = job_id
        self._owner = owner
        self._lease = lease_seconds
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=self._lease)

    def _run(self) -> None:
        while not self._stop.wait(self._lease / 3.0):
            try:
                self._queue.heartbeat(self._job_id, self._owner, self._lease)
            except LostLease:
                self.lost = True
                return
            except Exception:
                # A flaky heartbeat must not kill the computation; the
                # lease either survives to the next beat or is reaped.
                pass


def worker_trace_path(trace_dir, owner: str) -> Path:
    """Where :func:`run_worker` checkpoints *owner*'s trace snapshot."""
    return Path(trace_dir) / f"WORKER_{owner}.json"


def snapshot_worker_trace(tracer, trace_dir, owner: str) -> str | None:
    """Write *owner*'s trace + metrics snapshot under *trace_dir*.

    Atomic overwrite (tmp + rename), so a worker killed mid-write leaves
    the previous checkpoint intact — a crashed worker always contributes
    its last durable snapshot to the fleet merge.  No-op when tracing is
    off or *trace_dir* is ``None``.
    """
    if trace_dir is None or not tracer.enabled:
        return None
    return tracer.trace(worker=owner).save(worker_trace_path(trace_dir, owner))


def run_worker(
    queue: JobQueue,
    store: ArtifactStore,
    owner: str,
    lease_seconds: float = 30.0,
    poll_seconds: float = 0.2,
    max_jobs: int | None = None,
    timeout: float | None = None,
    faults: FaultInjector | None = None,
    handlers: dict | None = None,
    trace_dir=None,
) -> WorkerStats:
    """Drain eligible jobs from *queue* until nothing is pending.

    Runs until the queue has no pending work (done/dead only), *max_jobs*
    jobs were processed, or *timeout* wall seconds elapsed — whichever
    comes first.  While other workers hold leases or failed jobs sit in
    backoff, the loop polls every *poll_seconds*.

    With tracing enabled, every ``worker.job`` span carries the job's
    submit-time :class:`~repro.obs.TraceContext` (``trace_id`` /
    ``remote_parent`` attributes) so the fleet merge links it back to the
    submitter's ``queue.submit`` span — including jobs reclaimed from a
    crashed worker, which continue the *original* trace.  When *trace_dir*
    is given the worker checkpoints its trace + metrics snapshot
    (``WORKER_<owner>.json``) after every job and at drain end.

    Failure semantics: a handler exception fails the attempt
    (retry-with-backoff via the queue); an
    :class:`~repro.store.faults.InjectedCrash` propagates *without any
    cleanup* — the simulated ``kill -9`` the recovery tests rely on; a
    lease lost mid-computation drops the result.
    """
    faults = faults if faults is not None else NO_FAULTS
    handlers = handlers if handlers is not None else JOB_HANDLERS
    stats = WorkerStats(owner=owner)
    t0 = time.perf_counter()
    tracer = get_tracer()
    count = tracer.count

    with tracer.span("worker.run", owner=owner):
        while True:
            stats.wall_seconds = time.perf_counter() - t0
            if max_jobs is not None and stats.n_claimed >= max_jobs:
                break
            if timeout is not None and stats.wall_seconds > timeout:
                break
            job = queue.claim(owner, lease_seconds=lease_seconds)
            if job is None:
                if queue.pending() == 0:
                    break
                time.sleep(poll_seconds)
                continue
            stats.n_claimed += 1
            stats.job_ids.append(job.id)
            count("worker.jobs_claimed")
            handler = handlers.get(job.kind)
            # Queue-wait phase: submit-to-lease latency, on the queue's
            # clock (created_at and claim share it, so injectable clocks
            # measure correctly in tests).
            wait = max(0.0, queue.clock() - job.created_at) if job.created_at else None
            context = job.context
            link_attrs = context.child_attrs() if context is not None else {}
            job_t0 = time.perf_counter()
            with tracer.span(
                "worker.job", job=job.id, kind=job.kind, attempt=job.attempts,
                **link_attrs,
            ) as span:
                if wait is not None:
                    span.set(queue_wait_s=wait)
                    if tracer.enabled:
                        tracer.metrics.observe("worker.queue_wait_seconds", wait)
                try:
                    if handler is None:
                        raise ValueError(f"no handler for job kind {job.kind!r}")
                    with _Heartbeat(queue, job.id, owner, lease_seconds) as hb:
                        # Compute phase — distinct from the enclosing lease
                        # span so the merged timeline separates lease
                        # bookkeeping from actual assembly time.
                        with tracer.span("worker.compute", job=job.id):
                            result = handler(job.payload, store, faults)
                    if hb.lost:
                        stats.n_lost_leases += 1
                        count("worker.lost_leases")
                        continue
                    queue.complete(job.id, owner, result)
                    stats.n_done += 1
                    count("worker.jobs_done")
                    job_s = time.perf_counter() - job_t0
                    stats.job_seconds.append(job_s)
                    if tracer.enabled:
                        tracer.metrics.observe("worker.job_seconds", job_s)
                except InjectedCrash:
                    raise  # simulated process death: no fail(), no cleanup
                except LostLease:
                    stats.n_lost_leases += 1
                    count("worker.lost_leases")
                except Exception as exc:
                    queue.fail(job.id, owner, f"{type(exc).__name__}: {exc}")
                    stats.n_failed += 1
                    count("worker.jobs_failed")
            stats.trace_path = (
                snapshot_worker_trace(tracer, trace_dir, owner) or stats.trace_path
            )
    stats.wall_seconds = time.perf_counter() - t0
    count("worker.wall_seconds", stats.wall_seconds)
    stats.trace_path = (
        snapshot_worker_trace(tracer, trace_dir, owner) or stats.trace_path
    )
    return stats


def reference_digest(payload: dict) -> str:
    """``sc_digest`` of an uninterrupted in-process run of *payload*
    against a throwaway store — the ground truth of the recovery tests."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        result = run_assemble_job(payload, ArtifactStore(tmp))
    return result["sc_digest"]


__all__ = [
    "DEFAULT_ASSEMBLE_PAYLOAD",
    "JOB_HANDLERS",
    "WorkerStats",
    "build_assemble_inputs",
    "reference_digest",
    "run_assemble_job",
    "run_worker",
    "sc_digest",
    "snapshot_worker_trace",
    "worker_trace_path",
]
