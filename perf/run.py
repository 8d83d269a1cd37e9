"""The repo's benchmark: host wall-clock and simulated price, end to end and
layer by layer, over six fixed workloads.

    python3 perf/run.py [--seed N] [--workload NAME ...] [--scale full|smoke]
                        [--out FILE] [--trace-dir DIR]

runs every workload (or the named ones), prints every metric by name with
its unit, checks the outputs against an oracle and, with ``--out``, writes
one JSON result that ``compare.py`` diffs against another.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

is the form ``BENCHMARK.json`` declares: one workload, one kind of run —
``--trace 0`` the untraced run behind the end-to-end metrics, ``--trace 1``
the traced run behind the per-layer ones — and, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Per workload and run: cold children (fresh interpreters that import the
workload's modules, build its spec and run repetition 0), then one
measuring child that goes on to the timed or traced repetitions
(``child.py``).  ``setup_s`` and ``cold_wall_s`` are the fastest over all
of them.  Every child is a fresh process with BLAS pinned to one thread,
``PYTHONHASHSEED=0`` and its temporary files under ``perf/.scratch``.
Nothing under ``src/`` is touched.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
SCRATCH = PERF / ".scratch"

sys.path.insert(0, str(PERF))

from workloads import SCALES  # noqa: E402

#: One BLAS thread: on a shared two-core box it is 2.5x faster and ten
#: times tighter run to run than the default threading.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Per scale: extra cold children, and the repetition limits of the
#: measuring child (timed repetitions of an untraced run, untraced/traced
#: pairs of a traced one); between the limits ``--seconds`` decides.
#: n <= 15 timings per run is too few for a tail percentile: timings are
#: reported as fastest with n, median and max.
PROTOCOL = {
    "full": {"cold_children": 2, "timed": (7, 15), "traced": (3, 6)},
    "smoke": {"cold_children": 1, "timed": (2, 2), "traced": (1, 1)},
}
CHILD_TIMEOUT = 150.0
#: The declared command must be done, result printed, within 180 seconds.
DECLARED_DEADLINE = 170.0


def load_schema() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(mode: str, workload: str, seed: int, scale: str, seconds: float,
          workdir: Path, trace_out: Path | None = None,
          deadline: float | None = None) -> dict:
    """Run one ``child.py`` to completion and return its JSON report.

    The child is killed, and waited for, at ``CHILD_TIMEOUT`` seconds or at
    *deadline* (a ``time.monotonic()`` reading), whichever comes first.
    """
    min_reps, max_reps = PROTOCOL[scale].get(mode, (0, 0))
    env = {**os.environ, **PINNED_ENV, "TMPDIR": str(workdir)}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    workdir.mkdir(parents=True, exist_ok=True)
    argv = [
        sys.executable, str(PERF / "child.py"), "--workload", workload,
        "--mode", mode, "--seed", str(seed), "--scale", scale,
        "--seconds", str(seconds), "--min-reps", str(min_reps),
        "--max-reps", str(max_reps), "--workdir", str(workdir / mode),
    ]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    argv += ["--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    timeout = CHILD_TIMEOUT
    if deadline is not None:
        timeout = min(timeout, max(deadline - time.monotonic(), 0.001))
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} child of {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(samples: list[float], unit: str) -> dict:
    """The metric's value is the fastest sample: the box is shared, outside
    load only ever adds time, so the minimum is the estimate of the
    program's own cost that repeats (see README, "Why the fastest")."""
    return {"value": min(samples), "unit": unit, "n": len(samples),
            "median": statistics.median(samples), "max": max(samples),
            "samples": samples}


def measure(workload: str, seed: int, scale: str, seconds: float, trace: bool,
            schema: dict, workdir: Path, trace_dir: Path | None = None,
            deadline: float | None = None) -> dict:
    """Cold children plus one measuring child: the run's metrics and ops tally."""
    colds = [spawn("cold", workload, seed, scale, seconds, workdir, deadline=deadline)
             for _ in range(PROTOCOL[scale]["cold_children"])]
    if not trace:
        units = {m["name"]: m["unit"] for m in schema["end_to_end"]}
        report = spawn("timed", workload, seed, scale, seconds, workdir, deadline=deadline)
        colds.append(report)
        metrics = {
            "wall_s": summarize(report["reps"], units["wall_s"]),
            "cold_wall_s": summarize([c["cold_wall_s"] for c in colds], units["cold_wall_s"]),
            "setup_s": summarize([c["setup_s"] for c in colds], units["setup_s"]),
            "peak_rss_mb": summarize([report["peak_rss_mb"]], units["peak_rss_mb"]),
        }
    else:
        units = {m["name"]: m["unit"] for m in schema["per_layer"]}
        trace_out = trace_dir / f"{workload}.trace.json" if trace_dir else None
        report = spawn("traced", workload, seed, scale, seconds, workdir, trace_out,
                       deadline=deadline)
        colds.append(report)
        values = {**report["metrics"],
                  "import.modules_s": min(c["setup_s"] for c in colds)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    return {"metrics": metrics, "attempted": report["attempted"],
            "failed": report["failed"], "failures": report["failures"],
            "versions": report["versions"]}


def contract_line(run: dict) -> str:
    """The result line ``BENCHMARK.json``'s command must print last."""
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in run["metrics"].items()},
    })


def environment(seed: int, scale: str, versions: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=10, check=False,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"nproc": os.cpu_count(), "pinned_env": PINNED_ENV, "git_commit": commit,
            "seed": seed, "scale": scale, **versions}


def fmt(value: float) -> str:
    return f"{value:.6g}"


def print_workload(name: str, entry: dict) -> None:
    print(f"\n== {name} ==")
    for metric, m in entry["end_to_end"].items():
        spread = (f"   (fastest of n={m['n']}, median {fmt(m['median'])}, "
                  f"max {fmt(m['max'])})" if m["n"] > 1 else "   (n=1)")
        print(f"  {metric:<28}{fmt(m['value']):>14} {m['unit']}{spread}")
    sim = entry["per_layer"]["sim_s"]["value"]
    print(f"  {'sim_s':<28}{fmt(sim) if sim else 'n/a':>14} sim_s")
    print(f"  {'ops_failed_share':<28}{fmt(entry['ops_failed_share']):>14} ratio"
          f"   ({entry['ops_failed']} of {entry['ops_attempted']} operations)")
    for failure in entry["failures"]:
        print(f"    FAILED {failure}")
    for metric, m in entry["per_layer"].items():
        print(f"  {metric:<28}{fmt(m['value']):>14} {m['unit']}")


def main(argv=None) -> int:
    schema = load_schema()
    names = [w["name"] for w in schema["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="run only this workload (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", choices=SCALES, default="full")
    ap.add_argument("--seconds", type=float, default=float(schema["run_seconds"]),
                    help="how long one child measures timed repetitions")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="one workload, one kind of run, result line last "
                         "(0: end-to-end metrics, 1: per-layer metrics)")
    ap.add_argument("--out", type=Path, help="write the full result JSON here")
    ap.add_argument("--trace-dir", type=Path,
                    help="dump each traced run's spans as Chrome trace-event JSON")
    args = ap.parse_args(argv)
    selected = args.workload or names
    if args.trace is not None and len(selected) != 1:
        ap.error("--trace needs exactly one --workload")
    if not (SRC / "repro").is_dir():
        print(f"perf/run.py: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2

    # The build: byte-compile once, so that no measured child pays for it.
    compileall.compile_dir(str(SRC / "repro"), quiet=2)
    compileall.compile_dir(str(PERF), quiet=2, maxlevels=0)
    if args.trace_dir:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
    workdir = SCRATCH / f"run-{os.getpid()}"
    try:
        if args.trace is not None:
            return run_declared(selected[0], args, schema, workdir)
        return run_all(selected, args, schema, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_declared(workload: str, args, schema: dict, workdir: Path) -> int:
    """One workload, one kind of run; the result line goes last."""
    run = measure(workload, args.seed, args.scale, args.seconds, bool(args.trace),
                  schema, workdir, args.trace_dir,
                  deadline=time.monotonic() + DECLARED_DEADLINE)
    for name, m in run["metrics"].items():
        print(f"{name:<28}{fmt(m['value']):>14} {m['unit']}")
    for failure in run["failures"]:
        print(f"FAILED {failure}")
    print(contract_line(run))
    return 0


def run_all(selected: list[str], args, schema: dict, workdir: Path) -> int:
    """Untraced then traced run of every selected workload, one result file."""
    result = {"schema": 1, "workloads": {}}
    for name in selected:
        timed = measure(name, args.seed, args.scale, args.seconds, False, schema, workdir)
        traced = measure(name, args.seed, args.scale, args.seconds, True, schema,
                         workdir, args.trace_dir)
        attempted = timed["attempted"] + traced["attempted"]
        failed = timed["failed"] + traced["failed"]
        entry = {
            "end_to_end": timed["metrics"],
            "ops_attempted": attempted,
            "ops_failed": failed,
            "ops_failed_share": failed / attempted,
            "failures": timed["failures"] + traced["failures"],
            "per_layer": traced["metrics"],
        }
        result["workloads"][name] = entry
        versions = timed["versions"]
        print_workload(name, entry)
    result["environment"] = environment(args.seed, args.scale, versions)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 1 if any(e["ops_failed"] for e in result["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
