"""The measuring process: one workload, one mode, one JSON line on stdout.

``run.py`` spawns this file in a fresh interpreter with BLAS pinned to one
thread.  ``--t0`` is the parent's ``CLOCK_MONOTONIC`` reading just before
the spawn (the clock is system-wide on Linux), so spawn-inclusive times
are measured end to end.

Every mode first imports the workload's ``repro.*`` modules and builds its
spec (``setup_s``), then runs repetition 0 cold — fresh interpreter, empty
pattern cache, empty work directory.

* ``cold``   — stop there: one more sample of ``setup_s`` and
  ``cold_wall_s``, which a process can only give once.
* ``timed``  — then timed repetitions for ``--seconds`` seconds (at least
  ``--min-reps``, at most ``--max-reps``; half as long again until a
  second repetition confirms the fastest), ``gc.collect()`` between them,
  no tracing; then peak RSS; then the oracle, outside the timed region.
* ``traced`` — a traced cold-state repetition in a fresh work directory
  for stateful workloads; then untraced/traced repetition pairs.  Per-layer numbers come from the
  fastest traced repetition, so layer self times plus
  ``driver.unattributed_s`` sum to that repetition's wall exactly.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from workloads import SCALES, WORKLOADS, Workload  # noqa: E402


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def repetition(workload: Workload, spec: dict, workdir: Path):
    gc.collect()
    start = time.perf_counter()
    outputs = workload.run(spec, workdir)
    return time.perf_counter() - start, outputs


def traced_repetition(workload: Workload, spec: dict, workdir: Path):
    gc.collect()
    recorder = spans.Recorder()
    with spans.Installed(recorder):
        recorder.begin()
        outputs = workload.run(spec, workdir)
        recorder.finish()
    recorder.counts.update(outputs.counts)
    return recorder, outputs


def versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def finish(report: dict, workload: Workload, outputs, seed: int) -> dict:
    import checks  # after the measurements: it imports NumPy at module level

    tally = checks.run_oracle(workload.oracle, outputs.data, seed)
    report.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures, versions=versions())
    return report


#: The box is shared: outside load only ever adds time, in bursts that last
#: seconds to minutes, so the fastest repetition estimates the program's
#: own cost and every slower one estimates the neighbours.  The floor
#: counts as found once a second repetition confirms it to within this
#: share; until then the child measures for up to half as long again.
FLOOR_CONFIRMED = 0.02


def floor_confirmed(reps: list[float]) -> bool:
    if len(reps) < 2:
        return False
    fastest, second = sorted(reps)[:2]
    return second <= fastest * (1.0 + FLOOR_CONFIRMED)


def run_timed(workload: Workload, spec: dict, args, outputs) -> dict:
    reps: list[float] = []
    began = time.perf_counter()

    def measuring() -> bool:
        elapsed = time.perf_counter() - began
        return (len(reps) < args.min_reps or elapsed < args.seconds
                or (not floor_confirmed(reps) and elapsed < 1.5 * args.seconds))

    while len(reps) < args.max_reps and measuring():
        del outputs  # never hold two repetitions' outputs: it would double peak RSS
        wall, outputs = repetition(workload, spec, args.workdir)
        reps.append(wall)
    report = {
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return finish(report, workload, outputs, spec["seed"])


# --- per-layer metrics -------------------------------------------------------------


#: Self seconds of the warm traced repetition: metric name -> span name.
SELF_SECONDS = {
    "fem.build_s": "fem.build",
    "part.mesh_s": "part.mesh",
    "part.partition_s": "part.partition",
    "dd.decompose_s": "dd.decompose",
    "sparse.relabel_s": "sparse.relabel",
    "sparse.factorize_s": "sparse.factorize",
    "batch.items_self_s": "batch.items",
    "batch.assemble_self_s": "batch.assemble",
    "batch.analyze_s": "batch.analyze",
    "core.assemble_s": "core.assemble",
    "runtime.schedule_s": "runtime.schedule",
    "feti.preprocess_s": "feti.preprocess",
    "feti.solve_block_s": "feti.solve_block",
    "feti.apply_s": "feti.apply",
    "feti.precond_s": "feti.precond",
    "store.get_s": "store.get",
    "store.queue_submit_s": "store.queue_submit",
    "store.queue_claim_s": "store.queue_claim",
    "store.queue_complete_s": "store.queue_complete",
    "store.worker_self_s": "store.worker",
}

#: Calls of the warm traced repetition: metric name -> span name.
CALLS = {
    "sparse.relabel_calls": "sparse.relabel",
    "sparse.factorize_calls": "sparse.factorize",
    "core.calls": "core.assemble",
}

#: Counts of the warm traced repetition reported under their own name.
COUNTS = (
    "fem.n_dofs", "fem.n_elements", "part.edge_cut", "part.imbalance",
    "dd.n_subdomains", "dd.n_multipliers", "sparse.factor_nnz",
    "batch.n_groups", "batch.n_grouped", "batch.n_exec_fallbacks",
    "batch.n_union_members", "gpu.launches", "gpu.flops", "gpu.bytes_moved",
    "gpu.sim_seconds", "runtime.sim_makespan_s", "feti.iterations",
    "feti.n_deflated", "feti.launches_per_iteration", "feti.sim_apply_s",
    "store.hits", "store.quarantined", "store.jobs_done", "store.jobs_failed",
)


def layer_metrics(warm: spans.Recorder, cold: spans.Recorder, sim_s) -> dict:
    """Every per-layer metric of one traced repetition, by its declared name.

    *cold* is the recorder of the cold-state repetition (the same object
    as *warm* for stateless workloads): the store's write side — puts,
    misses, bytes — is read there, its read side on the warm one.
    """
    self_s = warm.self_seconds()
    counts = warm.counts

    def c(name: str) -> float:
        return counts.get(name, 0)

    def ratio(num: float, den: float, default: float = 0.0) -> float:
        return num / den if den else default

    m = {metric: self_s.get(span, 0.0) for metric, span in SELF_SECONDS.items()}
    m.update((metric, warm.calls(span)) for metric, span in CALLS.items())
    m.update((name, c(name)) for name in COUNTS)
    job_seconds = counts.get("store.job_seconds")
    m.update({
        "batch.hit_rate": ratio(c("batch.hits"), c("batch.hits") + c("batch.misses")),
        "batch.union_fill_ratio": ratio(
            c("batch.union_padded_nnz"), c("batch.union_member_nnz"), default=1.0
        ),
        "gpu.flops_per_byte": ratio(c("gpu.flops"), c("gpu.bytes_moved")),
        "gpu.model_ratio": ratio(c("gpu.sim_seconds"), m["core.assemble_s"]),
        "store.put_s": cold.self_seconds().get("store.put", 0.0),
        "store.misses": cold.counts.get("store.misses", 0),
        "store.puts": cold.counts.get("store.puts", 0),
        "store.bytes": cold.counts.get("store.bytes", 0),
        "store.warm_puts": c("store.puts"),
        "store.job_p50_s": statistics.median(job_seconds) if job_seconds else 0.0,
        # Inclusive on purpose: everything under build_assemble_inputs is
        # what a stored plan would remove; its callees are also booked to
        # their own layers, so this one is not part of the layer sum.
        "store.input_build_s": warm.inclusive_seconds("store.input_build"),
        "sim_s": sim_s or 0.0,
    })
    layers = warm.layer_seconds()
    attributed = sum(layers.values())
    m.update((f"{layer}.self_s", seconds) for layer, seconds in layers.items())
    m["driver.traced_wall_s"] = warm.wall
    m["driver.unattributed_s"] = warm.wall - attributed
    m["driver.trace_coverage"] = ratio(attributed, warm.wall)
    return m


def run_traced(workload: Workload, spec: dict, args, outputs, rep0: float) -> dict:
    cold = None
    if workload.stateful:
        cold, outputs = traced_repetition(workload, spec, args.workdir / "cold-state")
    untraced: list[float] = []
    traced: list[tuple[spans.Recorder, float | None]] = []
    began = time.perf_counter()
    while len(traced) < args.max_reps and (
        len(traced) < args.min_reps or time.perf_counter() - began < args.seconds
    ):
        del outputs
        wall, outputs = repetition(workload, spec, args.workdir)
        untraced.append(wall)
        del outputs
        recorder, outputs = traced_repetition(workload, spec, args.workdir)
        traced.append((recorder, outputs.sim_s))
    recorder, sim_s = min(traced, key=lambda pair: pair[0].wall)
    metrics = layer_metrics(recorder, cold if cold is not None else recorder, sim_s)
    metrics["import.lazy_first_rep_s"] = rep0 - min(untraced)
    metrics["driver.trace_overhead"] = recorder.wall / min(untraced)
    if args.trace_out:
        labels = {f"{workload.name} warm": recorder}
        if cold is not None:
            labels[f"{workload.name} cold store"] = cold
        spans.write_chrome_trace(args.trace_out, labels)
    report = {"untraced_reps": untraced,
              "traced_reps": sorted(r.wall for r, _ in traced), "metrics": metrics}
    return finish(report, workload, outputs, spec["seed"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("cold", "timed", "traced"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=SCALES, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-reps", type=int, required=True)
    ap.add_argument("--max-reps", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path, default=None)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workload.load()
    spec = workload.spec(args.seed, args.scale)
    report = {"setup_s": monotonic() - args.t0}
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        report["rep0_s"], outputs = repetition(workload, spec, args.workdir)
        report["cold_wall_s"] = monotonic() - args.t0
        if args.mode == "timed":
            report.update(run_timed(workload, spec, args, outputs))
        elif args.mode == "traced":
            report.update(run_traced(workload, spec, args, outputs, report["rep0_s"]))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
