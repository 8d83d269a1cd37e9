"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the available experiment drivers.
``run <experiment> [--paper-scale] [--out DIR]``
    Run one table/figure reproduction and print (and save) its tables.
``solve [--dim {2,3}] [--cells N] [--grid PxP..] [--approach NAME]``
    Solve a heat-transfer problem with FETI and report iterations/timings.
    ``--rhs K`` solves a panel of K load cases; ``--block`` runs them
    through one block solve with the grouped (one-launch-per-pattern-class)
    dual operator and stacked preconditioner, ``--sequential`` solves the
    columns one by one with the same solver (the comparator; see
    ``docs/solving.md``).
``batch [--dim {2,3}] [--cells N] [--grid PxP..] [--device {gpu,cpu}]``
    Batch-assemble all subdomains of a decomposition through the symbolic
    pattern cache (``repro.batch``) and report cache/throughput statistics
    plus the multi-stream pipeline makespan.  ``--execution`` selects the
    numeric path (per-member kernels, batched whole-group kernels, or
    ``union`` — near-signature classes padded into one shared pattern and
    batched exactly, guarded by ``--union-fill-cap``);
    ``--workers`` fans independent groups across host threads;
    ``--no-canonicalize`` turns off orientation-canonical artifact sharing
    (mirror classes then execute as separate groups).  ``--mesh`` picks an
    unstructured mesh-zoo workload, ``--partitioner`` swaps the box grid
    for the METIS-like dual-graph partitioner (``--parts``/``--seed``
    parameterize it) and ``--signature near`` prices approximately-
    congruent subdomains together.  ``--trace FILE`` records the run
    through :mod:`repro.obs` and writes Chrome trace-event JSON (open in
    Perfetto); ``--metrics-out FILE`` dumps the metrics registry (JSON, or
    CSV by extension).  The knobs are documented in ``docs/batching.md``,
    ``docs/unstructured.md`` and ``docs/observability.md``.
``trace <file.json> [--top N] [--depth D]``
    Render the phase breakdown of a saved trace: an inclusive-time tree,
    the top-N phases and histogram percentiles — the terminal view of
    ``batch --trace`` output.  Reads leniently: metrics-only dumps and
    partial traces from crashed workers render with warnings.
``trace merge <w1.json> <w2.json> ... [--out FILE]``
    Stitch per-worker trace snapshots into one multi-track fleet timeline
    (one Perfetto process per worker, wall-clock aligned, cross-process
    submit→job links as flow arrows); see ``docs/observability.md``.
``obs report <w1.json> ... [--json]``
    Aggregate per-worker metrics snapshots fleet-wide: per-worker job
    throughput, summed store/queue/gpu/solver counters, merged histograms
    with p50/p90/p99.
``work {submit,run,status} [--root DIR]``
    Assembly-as-a-service (``repro.store``; see ``docs/service.md``):
    ``submit`` enqueues assemble jobs into the service root's SQLite work
    queue, ``run`` starts a stateless worker draining it against the
    shared persistent artifact store (crash-safe: a killed worker loses
    at most its current attempt), ``status`` reports the job table.
    ``--faults`` injects deterministic failures for drills.
``store {stats,ls,verify} [--root DIR]``
    Inspect the persistent artifact store: entry counts and bytes by
    kind, the full entry listing, or a full-content integrity check that
    quarantines corrupted entries and sweeps stale tmp files.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_list(_args) -> int:
    from repro.bench import EXPERIMENTS

    print("available experiments:")
    for name, fn in EXPERIMENTS.items():
        lines = (fn.__doc__ or "").strip().splitlines()
        print(f"  {name:20s} {lines[0] if lines else ''}")
    return 0


def _cmd_run(args) -> int:
    from repro.bench import results_dir, run_experiment

    result = run_experiment(
        args.experiment, quick=not args.paper_scale, paper_scale=args.paper_scale
    )
    print(result.render())
    path = result.save(args.out or results_dir())
    print(f"\n[saved to {path}]")
    return 0


def _cmd_solve(args) -> int:
    import numpy as np

    from repro.dd import decompose
    from repro.fem import heat_transfer_2d, heat_transfer_3d
    from repro.feti import FetiSolver

    if args.dim == 2:
        problem = heat_transfer_2d(args.cells, dirichlet=("left",))
    else:
        problem = heat_transfer_3d(args.cells, dirichlet=("left",))
    grid = tuple(int(g) for g in args.grid.split("x"))
    decomposition = decompose(problem, grid=grid)
    solver = FetiSolver(
        decomposition,
        approach=args.approach,
        expected_iterations=args.expected_iterations,
    )
    solver.preprocess()
    if args.rhs > 1 or args.block:
        sol = solver.solve_block(n_rhs=args.rhs, block=not args.sequential)
        # column 0 of the panel is the problem's own load, so it must
        # reproduce the single-RHS answer
        err = float(np.abs(sol.u[:, 0] - problem.solve_direct()).max())
        print(sol.stats.summary())
        print(f"approach:        {solver.approach.name}")
        print(f"max error (col 0): {err:.3e}")
        return 0 if sol.converged and _error_ok(err) else 1
    sol = solver.solve()
    err = float(np.abs(sol.u - problem.solve_direct()).max())
    t = sol.timings
    print(f"approach:        {solver.approach.name}")
    print(f"subdomains:      {decomposition.n_subdomains}")
    print(f"multipliers:     {decomposition.n_multipliers}")
    print(f"iterations:      {sol.iterations} (converged={sol.info.converged})")
    print(f"max error:       {err:.3e}")
    print(f"prep/subdomain:  {t.preprocessing_per_subdomain * 1e3:.3f} ms (simulated)")
    print(f"apply/subdomain: {t.apply_mean_per_subdomain * 1e3:.4f} ms (simulated)")
    return 0 if sol.info.converged and _error_ok(err) else 1


def _error_ok(err: float) -> bool:
    """``solve`` gates on the error against the direct solution it prints."""
    ok = err <= 1e-6
    if not ok:
        print(f"error: max error {err:.3e} against the direct solution exceeds 1e-6",
              file=sys.stderr)
    return ok


def _cmd_batch(args) -> int:
    import numpy as np

    from repro.batch import BatchAssembler, PatternCache, items_from_decomposition
    from repro.core import default_config
    from repro.dd import decompose
    from repro.fem import heat_problem, heat_transfer_2d, heat_transfer_3d
    from repro.part import MESH_ZOO, make_mesh

    dirichlet = () if args.floating else ("left",)
    mesh_name = args.mesh or ("square" if (args.dim or 2) == 2 else "cube")
    mesh_dim, _ = MESH_ZOO[mesh_name]
    if args.dim is not None and args.dim != mesh_dim:
        raise ValueError(
            f"--dim {args.dim} contradicts --mesh {mesh_name} "
            f"(a {mesh_dim}-D mesh); drop --dim or pick a matching mesh"
        )
    if args.parts and args.partitioner == "boxes":
        raise ValueError(
            "--parts only applies to graph partitioners; use --grid for "
            "--partitioner boxes, or pick --partitioner rcb/spectral"
        )
    if mesh_name == "square":
        problem = heat_transfer_2d(args.cells, dirichlet=dirichlet)
    elif mesh_name == "cube":
        problem = heat_transfer_3d(args.cells, dirichlet=dirichlet)
    else:
        problem = heat_problem(
            make_mesh(mesh_name, args.cells, seed=args.seed), dirichlet=dirichlet
        )
    grid = tuple(int(g) for g in args.grid.split("x"))
    if args.partitioner == "boxes":
        decomposition = decompose(problem, grid=grid)
    else:
        n_parts = args.parts if args.parts else int(np.prod(grid))
        decomposition = decompose(
            problem,
            n_subdomains=n_parts,
            partitioner=args.partitioner,
            seed=args.seed,
        )
        print(f"partition:         {decomposition.partition.summary()}")
    cache = PatternCache(max_entries=0) if args.no_cache else PatternCache()
    config = default_config(args.device, mesh_dim)
    if args.device == "gpu":
        engine = BatchAssembler(
            config=config,
            cache=cache,
            signature_mode=args.signature,
            union_fill_cap=args.union_fill_cap,
        )
    else:
        engine = BatchAssembler.for_cpu(
            config=config,
            cache=cache,
            signature_mode=args.signature,
            union_fill_cap=args.union_fill_cap,
        )

    def bridge_and_assemble():
        items = items_from_decomposition(
            decomposition, canonicalize=not args.no_canonicalize
        )
        return engine.assemble_batch(
            items,
            execute=not args.estimate_only,
            execution=args.execution,
            n_workers=None if args.workers == 0 else args.workers,
        )

    if args.trace or args.metrics_out:
        from repro.obs import tracing, write_metrics

        # The bridge (relabel + factorize per subdomain) is traced with the
        # assembly, so the file shows members against classes end to end.
        with tracing() as tracer:
            batch = bridge_and_assemble()
        trace = tracer.trace()
        if args.trace:
            path = trace.save(args.trace)
            print(f"[trace written to {path}]")
        if args.metrics_out:
            path = write_metrics(args.metrics_out, tracer.metrics)
            print(f"[metrics written to {path}]")
        print(trace.render(max_depth=3))
    else:
        batch = bridge_and_assemble()
    print(batch.stats.summary())
    pipe = engine.schedule(
        batch.work, mode=args.mode, n_threads=args.threads, n_streams=args.streams
    )
    print(f"pipeline makespan: {pipe.makespan * 1e3:.3f} ms "
          f"({args.mode}, {args.threads} threads, {args.streams} streams)")
    print(f"pipeline rate:     {batch.stats.throughput(pipe.makespan):.1f} subdomains/s")
    return 0


def _cmd_trace_merge(args) -> int:
    from repro.obs import load_worker_traces, merge_traces

    files = load_worker_traces(args.files[1:])
    merged = merge_traces(files)
    for warning in merged.warnings:
        print(f"[warn] {warning}", file=sys.stderr)
    path = merged.save(args.out)
    links = len([link for link in merged.links if link.parent_span_id])
    print(f"merged {len(merged.workers)} worker trace(s) into {path}")
    print(f"  workers: {', '.join(merged.workers)}")
    print(f"  {len(merged.spans)} span(s), {links} cross-process link(s) "
          f"resolved of {len(merged.links)} remote-parent reference(s)")
    for worker, offset in sorted(merged.clock_offsets.items()):
        print(f"  clock offset {worker}: {offset * 1e3:+.3f} ms")
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import phase_tree, read_trace, render_phase_tree, top_phases
    from repro.obs.metrics import SUMMARY_PERCENTILES, Histogram
    from repro.util import format_si

    if args.files[0] == "merge":
        if len(args.files) < 2:
            print("trace merge: no input trace files given", file=sys.stderr)
            return 2
        return _cmd_trace_merge(args)
    if len(args.files) > 1:
        print("trace: one FILE to render, or 'merge FILE...' to merge",
              file=sys.stderr)
        return 2
    loaded = read_trace(args.files[0])
    for warning in loaded.warnings:
        print(f"[warn] {warning}", file=sys.stderr)
    if loaded.spans:
        print(render_phase_tree(phase_tree(loaded.spans), max_depth=args.depth))
        print()
        print(f"top {args.top} phases by inclusive time:")
        for name, seconds, count in top_phases(loaded.spans, n=args.top):
            print(f"  {name:32s} {format_si(seconds, 's'):>10s}  (x{count})")
    else:
        print("no spans recorded in this file")
    metrics = loaded.metrics
    counters = metrics.get("counters", {}) if metrics else {}
    if counters:
        print()
        print(f"metrics: {len(counters)} counter(s) recorded "
              "(see otherData.metrics in the file)")
    hists = metrics.get("histograms", {}) if metrics else {}
    if hists:
        print()
        header = f"{'histogram':34s} {'n':>6s}"
        header += "".join(f" {'p%g' % q:>10s}" for q in SUMMARY_PERCENTILES)
        print(header)
        for name, snap in sorted(hists.items()):
            h = Histogram.from_dict(snap)
            line = f"{name[:34]:34s} {h.n:6d}"
            line += "".join(
                f" {h.percentile(q):10.4g}" for q in SUMMARY_PERCENTILES
            )
            print(line)
    return 0


def _cmd_obs(args) -> int:
    import json

    from repro.obs import fleet_report, fleet_report_json, load_worker_traces

    files = load_worker_traces(args.files)
    for f in files:
        for warning in f.warnings:
            print(f"[warn] {f.path}: {warning}", file=sys.stderr)
    if args.json:
        print(json.dumps(fleet_report_json(files), indent=2, sort_keys=True))
    else:
        print(fleet_report(files))
    return 0


def _service_parts(root: str):
    """Open the service root's store and queue (``<root>/store/`` +
    ``<root>/queue.db``), creating them on first use."""
    from pathlib import Path

    from repro.store import ArtifactStore, JobQueue

    base = Path(root)
    return ArtifactStore(base / "store"), base / "queue.db", JobQueue


def _cmd_work(args) -> int:
    import json
    from contextlib import ExitStack

    from repro.store import (
        DEFAULT_ASSEMBLE_PAYLOAD,
        FaultInjector,
        InjectedCrash,
        run_worker,
        snapshot_worker_trace,
    )

    store, queue_path, JobQueue = _service_parts(args.root)

    if args.work_command == "submit":
        from repro.obs import tracing

        payload = dict(DEFAULT_ASSEMBLE_PAYLOAD)
        for key in ("cells", "grid", "mesh", "partitioner", "parts", "seed",
                    "device", "execution", "signature"):
            value = getattr(args, key)
            if value is not None:
                payload[key] = value
        if args.payload:
            payload.update(json.loads(args.payload))
        queue = JobQueue(queue_path)
        with ExitStack() as stack:
            tracer = stack.enter_context(tracing()) if args.trace_dir else None
            ids = [
                queue.submit("assemble", payload, max_attempts=args.max_attempts)
                for _ in range(args.count)
            ]
            if tracer is not None:
                path = snapshot_worker_trace(tracer, args.trace_dir, "submit")
                print(f"[submit trace written to {path}]")
        print(f"submitted {len(ids)} assemble job(s): "
              f"{ids[0]}..{ids[-1]}" if len(ids) > 1 else f"submitted job {ids[0]}")
        print(queue.summary())
        return 0

    if args.work_command == "run":
        from repro.obs import tracing

        # One injector shared by all three layers, so a --faults plan can
        # name any FAULT_POINT (store.*, queue.*, worker.*).
        faults = FaultInjector(args.faults, seed=args.fault_seed)
        store.faults = faults
        queue = JobQueue(
            queue_path,
            backoff_base=args.backoff,
            backoff_cap=args.backoff_cap,
            faults=faults,
        )
        with ExitStack() as stack:
            tracer = stack.enter_context(tracing()) if args.trace_dir else None
            try:
                stats = run_worker(
                    queue,
                    store,
                    owner=args.worker_id,
                    lease_seconds=args.lease,
                    poll_seconds=args.poll,
                    max_jobs=args.max_jobs,
                    timeout=args.timeout,
                    faults=faults,
                    trace_dir=args.trace_dir,
                )
            except InjectedCrash as crash:
                # Simulated process death: report like a kill -9 would
                # (nothing cleaned up, distinctive exit status for the drill
                # harness) — except the trace snapshot, which stands in for
                # the per-job checkpoint a real crash would leave behind.
                if tracer is not None:
                    path = snapshot_worker_trace(
                        tracer, args.trace_dir, args.worker_id
                    )
                    if path:
                        print(f"[crash trace written to {path}]", file=sys.stderr)
                print(f"worker {args.worker_id} crashed: {crash}", file=sys.stderr)
                return 42
        print(stats.summary())
        if stats.trace_path:
            print(f"[worker trace written to {stats.trace_path}]")
        print(store.stats.summary())
        print(queue.summary())
        return 0

    # status
    queue = JobQueue(queue_path)
    print(queue.summary())
    if args.jobs:
        for job in queue.jobs():
            line = (f"  #{job.id} {job.kind:10s} {job.status:7s} "
                    f"attempts={job.attempts}/{job.max_attempts}")
            if job.owner:
                line += f" owner={job.owner}"
            if job.error:
                line += f" error={job.error!r}"
            print(line)
    if args.strict:
        counts = queue.counts()
        bad = counts["failed"] + counts["dead"] + counts["open"] + counts["leased"]
        return 1 if bad else 0
    return 0


def _cmd_store(args) -> int:
    store, _, _ = _service_parts(args.root)

    if args.store_command == "ls":
        n = 0
        for entry in store.entries():
            print(f"  {entry.kind:12s} {entry.payload_bytes:10d} B  {entry.key}")
            n += 1
        print(f"{n} committed artifact(s) under {store.root}")
        return 0

    if args.store_command == "verify":
        n_ok, n_bad = store.verify()
        n_tmp = store.gc()
        print(f"verified {n_ok + n_bad} artifact(s): {n_ok} ok, "
              f"{n_bad} quarantined, {n_tmp} stale tmp file(s) swept")
        return 1 if n_bad else 0

    # stats
    by_kind: dict[str, list[int]] = {}
    for entry in store.entries():
        by_kind.setdefault(entry.kind, []).append(entry.payload_bytes)
    total = sum(len(v) for v in by_kind.values())
    total_bytes = sum(sum(v) for v in by_kind.values())
    print(f"store root: {store.root}")
    print(f"{total} committed artifact(s), {total_bytes} payload byte(s)")
    for kind in sorted(by_kind):
        sizes = by_kind[kind]
        print(f"  {kind:12s} {len(sizes):6d} entr(ies)  {sum(sizes):10d} B")
    quarantined = sorted(store.quarantine_dir.glob("*")) if store.quarantine_dir.is_dir() else []
    print(f"{len(quarantined)} quarantined file(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Schur-complement sparsity reproduction (SC 2025)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment drivers")

    p_run = sub.add_parser("run", help="run one table/figure reproduction")
    p_run.add_argument("experiment", help="table1, fig05..fig10, ablation_*, elasticity")
    p_run.add_argument("--paper-scale", action="store_true", help="full size ladders")
    p_run.add_argument("--out", default=None, help="results directory")

    p_solve = sub.add_parser("solve", help="FETI-solve a heat-transfer problem")
    p_solve.add_argument("--dim", type=int, default=2, choices=(2, 3))
    p_solve.add_argument("--cells", type=int, default=24, help="mesh cells per axis")
    p_solve.add_argument("--grid", default="3x3", help="subdomain grid, e.g. 4x4 or 2x2x2")
    p_solve.add_argument(
        "--approach", default="auto", help="Table-2 approach name or 'auto'"
    )
    p_solve.add_argument("--expected-iterations", type=int, default=100)
    p_solve.add_argument(
        "--rhs",
        type=int,
        default=1,
        help="number of load cases to solve as one panel (default 1)",
    )
    mode = p_solve.add_mutually_exclusive_group()
    mode.add_argument(
        "--block",
        action="store_true",
        help="solve the panel with one block solve (default when --rhs > 1)",
    )
    mode.add_argument(
        "--sequential",
        action="store_true",
        help="solve the panel column by column, one-column panels (comparator)",
    )

    p_batch = sub.add_parser(
        "batch", help="batch-assemble a decomposition through the pattern cache"
    )
    p_batch.add_argument(
        "--dim",
        type=int,
        default=None,
        choices=(2, 3),
        help="space dimension (default 2; must match --mesh when both given)",
    )
    p_batch.add_argument("--cells", type=int, default=24, help="mesh cells per axis")
    p_batch.add_argument("--grid", default="3x3", help="subdomain grid, e.g. 4x4 or 2x2x2")
    p_batch.add_argument("--device", default="gpu", choices=("gpu", "cpu"))
    p_batch.add_argument("--mode", default="mix", choices=("mix", "sep"))
    p_batch.add_argument("--threads", type=int, default=16)
    p_batch.add_argument("--streams", type=int, default=16)
    p_batch.add_argument(
        "--no-cache", action="store_true", help="disable pattern reuse (baseline)"
    )
    p_batch.add_argument(
        "--estimate-only", action="store_true", help="price the batch without numerics"
    )
    p_batch.add_argument(
        "--execution",
        default="auto",
        choices=("per-member", "grouped", "auto", "union"),
        help="numeric execution: per-item kernels, batched whole-group "
        "kernels, grouped-from-a-size-threshold (default: auto), or "
        "union — pad near-signature classes into one shared pattern and "
        "batch them exactly (pair with --signature near)",
    )
    p_batch.add_argument(
        "--union-fill-cap",
        type=float,
        default=None,
        metavar="RATIO",
        help="fill-ratio cost guard for --execution union: skip padding a "
        "near class when padded/exact stored entries exceed RATIO "
        "(default: engine default, 8.0); skipped classes fall back to "
        "the grouped path",
    )
    p_batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="host threads for parallel grouped execution (0 = all cores)",
    )
    p_batch.add_argument(
        "--floating",
        action="store_true",
        help="no Dirichlet boundary: every subdomain floats (maximal grouping)",
    )
    p_batch.add_argument(
        "--no-canonicalize",
        action="store_true",
        help="disable orientation-canonical artifact sharing (mirror classes "
        "then execute as separate groups)",
    )
    p_batch.add_argument(
        "--mesh",
        default=None,
        choices=("square", "cube", "jittered", "lshape", "strip"),
        help="mesh-zoo workload (default: square/cube per --dim); jittered/"
        "lshape/strip are the 2-D unstructured meshes of repro.part.meshes",
    )
    p_batch.add_argument(
        "--partitioner",
        default="boxes",
        choices=("boxes", "rcb", "spectral"),
        help="element partitioner: structured box grid (default) or the "
        "METIS-like dual-graph partitioner (coordinate/spectral bisection "
        "+ boundary refinement)",
    )
    p_batch.add_argument(
        "--parts",
        type=int,
        default=0,
        help="subdomain count for graph partitioners (0 = product of --grid)",
    )
    p_batch.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the jittered mesh generator (lshape/strip are "
        "deterministic; the partitioner records it for provenance)",
    )
    p_batch.add_argument(
        "--signature",
        default="frame",
        choices=("frame", "rotation", "near"),
        help="geometric pricing-signature mode: canonical frame (structured "
        "grids), rotation-invariant, or near-match (unstructured "
        "decompositions; groups approximately-congruent subdomains)",
    )
    p_batch.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record the run with repro.obs and write Chrome trace-event "
        "JSON to FILE (open in Perfetto / chrome://tracing)",
    )
    p_batch.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the collected metrics registry to FILE "
        "(JSON, or flat CSV with a .csv extension)",
    )

    p_trace = sub.add_parser(
        "trace",
        help="render a saved trace file, or merge per-worker traces "
        "('trace merge FILE... --out MERGED.json')",
    )
    p_trace.add_argument(
        "files",
        nargs="+",
        metavar="FILE",
        help="one trace file to render, or 'merge' followed by the "
        "per-worker trace files to stitch into one fleet timeline",
    )
    p_trace.add_argument(
        "--top", type=int, default=3, help="how many top phases to list (default 3)"
    )
    p_trace.add_argument(
        "--depth", type=int, default=None, help="maximum phase-tree depth to print"
    )
    p_trace.add_argument(
        "--out",
        default="FLEET_TRACE.json",
        metavar="FILE",
        help="output path of 'trace merge' (default FLEET_TRACE.json)",
    )

    p_obs = sub.add_parser(
        "obs", help="fleet-wide observability reports over worker snapshots"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    o_report = obs_sub.add_parser(
        "report",
        help="aggregate per-worker metrics snapshots into one fleet report",
    )
    o_report.add_argument(
        "files",
        nargs="+",
        metavar="FILE",
        help="per-worker trace or metrics JSON files (WORKER_*.json)",
    )
    o_report.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable aggregation instead of the table",
    )

    p_work = sub.add_parser(
        "work", help="assembly-as-a-service work queue (submit/run/status)"
    )
    work_sub = p_work.add_subparsers(dest="work_command", required=True)

    w_submit = work_sub.add_parser("submit", help="enqueue assemble jobs")
    w_submit.add_argument(
        "--root", default="service", help="service root directory (default: service/)"
    )
    w_submit.add_argument(
        "--count", type=int, default=1, help="how many copies of the job to enqueue"
    )
    w_submit.add_argument(
        "--max-attempts",
        type=int,
        default=5,
        help="attempts before the job is dead-lettered (default 5)",
    )
    w_submit.add_argument("--cells", type=int, default=None, help="mesh cells per axis")
    w_submit.add_argument("--grid", default=None, help="subdomain grid, e.g. 4x4")
    w_submit.add_argument(
        "--mesh", default=None, choices=("square", "cube", "jittered", "lshape", "strip")
    )
    w_submit.add_argument(
        "--partitioner", default=None, choices=("boxes", "rcb", "spectral")
    )
    w_submit.add_argument("--parts", type=int, default=None)
    w_submit.add_argument("--seed", type=int, default=None)
    w_submit.add_argument("--device", default=None, choices=("gpu", "cpu"))
    w_submit.add_argument(
        "--execution",
        default=None,
        choices=("per-member", "grouped", "auto", "union"),
    )
    w_submit.add_argument(
        "--signature", default=None, choices=("frame", "rotation", "near")
    )
    w_submit.add_argument(
        "--payload",
        default=None,
        metavar="JSON",
        help="raw payload overrides merged over the flags (JSON object)",
    )
    w_submit.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="record the submission (trace-context minting) and write a "
        "SUBMIT trace snapshot under DIR for the fleet merge",
    )

    w_run = work_sub.add_parser("run", help="run a worker until the queue drains")
    w_run.add_argument("--root", default="service", help="service root directory")
    w_run.add_argument(
        "--worker-id", default="worker", help="lease owner name (unique per worker)"
    )
    w_run.add_argument(
        "--lease", type=float, default=30.0, help="lease seconds per claim (default 30)"
    )
    w_run.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="seconds between claim attempts while others hold leases",
    )
    w_run.add_argument(
        "--max-jobs", type=int, default=None, help="stop after N jobs (default: drain)"
    )
    w_run.add_argument(
        "--timeout", type=float, default=None, help="stop after S wall seconds"
    )
    w_run.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="deterministic fault plan, e.g. 'worker.job.crash:2' "
        "(see repro.store.faults; crashes exit with status 42)",
    )
    w_run.add_argument(
        "--fault-seed", type=int, default=0, help="seed for probabilistic fault triggers"
    )
    w_run.add_argument(
        "--backoff",
        type=float,
        default=1.0,
        help="base seconds of the failed-job exponential backoff",
    )
    w_run.add_argument(
        "--backoff-cap", type=float, default=60.0, help="backoff ceiling in seconds"
    )
    w_run.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="enable tracing and checkpoint this worker's trace + metrics "
        "snapshot (WORKER_<id>.json) under DIR after every job; merge the "
        "fleet's snapshots with 'repro trace merge'",
    )

    w_status = work_sub.add_parser("status", help="report the job table")
    w_status.add_argument("--root", default="service", help="service root directory")
    w_status.add_argument(
        "--jobs", action="store_true", help="list every job row, not just the counts"
    )
    w_status.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 unless every job is done (CI gate after a drain)",
    )

    p_store = sub.add_parser(
        "store", help="inspect the persistent artifact store (stats/ls/verify)"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    s_stats = store_sub.add_parser("stats", help="entry counts and bytes by kind")
    s_ls = store_sub.add_parser("ls", help="list committed artifacts")
    s_verify = store_sub.add_parser(
        "verify", help="full-content check; quarantines corrupt entries, sweeps tmp"
    )
    for p in (s_stats, s_ls, s_verify):
        p.add_argument("--root", default="service", help="service root directory")

    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "solve": _cmd_solve,
        "batch": _cmd_batch,
        "trace": _cmd_trace,
        "obs": _cmd_obs,
        "work": _cmd_work,
        "store": _cmd_store,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
