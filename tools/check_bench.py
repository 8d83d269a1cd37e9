#!/usr/bin/env python3
"""Benchmark regression gate: diff a fresh CI bench run against the
committed baseline.

The CI ``bench`` job runs the benchmark suite with
``--benchmark-json BENCH_<run_id>.json`` and then::

    python tools/check_bench.py diff BENCH_<run_id>.json

which compares every gated metric (the ``extra_info`` quality counters
the benchmarks export: grouping ratios, kernel-launch counts, cache hit
rates, simulated preprocessing seconds, ...) against
``benchmarks/baseline.json`` and exits 1 when any metric moved in its bad
direction by more than its tolerance.  Host wall-clock numbers are
reported but never gated — CI runners are too noisy for that; the gated
metrics are the deterministic outputs of the simulated cost model and the
structural grouping counters.

Re-baselining (after a change that legitimately moves a metric)::

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-json fresh.json
    python tools/check_bench.py extract fresh.json -o benchmarks/baseline.json

then commit the regenerated ``benchmarks/baseline.json`` and say in the
PR which metrics moved and why.  ``docs/ci.md`` documents the workflow.

No third-party dependencies — stdlib ``json`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO / "benchmarks" / "baseline.json"

#: Baseline schema version (bump when the extract format changes).
SCHEMA = 1

#: Gate directions.  ``higher``/``lower`` name the *good* direction;
#: ``equal`` flags any change (structural counters that only move when the
#: workload itself changes — that is a re-baseline, not noise).
HIGHER, LOWER, EQUAL = "higher", "lower", "equal"


@dataclass(frozen=True)
class Gate:
    """Direction + relative tolerance of one gated metric."""

    direction: str
    rel_tol: float = 0.0


#: Per-metric gates.  Metrics absent from this table are reported as
#: informational (host wall clock, raw host ``exec_*_s`` walls) and never
#: fail the diff.  Tolerances are relative to the baseline value:
#: deterministic counters get 0, simulated-seconds metrics a float-noise
#: allowance, host-wall speedups a generous CI-noise band.
GATES: dict[str, Gate] = {
    # structural workload counters: any drift means the workload changed
    "n_subdomains": Gate(EQUAL),
    "n_exact_groups": Gate(EQUAL),
    # grouping quality: fewer classes / more sharing is better
    "n_groups": Gate(LOWER),
    "n_geometric_groups": Gate(LOWER),
    "n_near_groups": Gate(LOWER),
    "n_plan_groups": Gate(LOWER),
    "hit_rate": Gate(HIGHER),
    "grouping_ratio": Gate(HIGHER, 0.02),
    "singleton_share": Gate(LOWER, 0.02),
    # partition quality (deterministic given the seed)
    "edge_cut": Gate(LOWER),
    "partition_balance": Gate(LOWER, 0.01),
    # simulated cost model (deterministic; small float allowance)
    "analysis_saved_s": Gate(HIGHER, 0.02),
    "canonical_analysis_speedup": Gate(HIGHER, 0.02),
    "prep_cached_s": Gate(LOWER, 0.02),
    "prep_baseline_s": Gate(LOWER, 0.02),
    "makespan_s": Gate(LOWER, 0.02),
    "throughput": Gate(HIGHER, 0.02),
    # kernel-launch accounting (deterministic)
    "launches_per_member": Gate(LOWER),
    "launches_grouped": Gate(LOWER),
    "union_launches": Gate(LOWER),
    "member_launches": Gate(LOWER),
    "union_launch_reduction": Gate(HIGHER, 0.01),
    # union-execution coverage and padding cost (deterministic)
    "n_union_groups": Gate(HIGHER),
    "n_union_members": Gate(HIGHER),
    "n_union_skipped": Gate(LOWER),
    "union_fill_ratio": Gate(LOWER, 0.01),
    # block multi-RHS solve path (benchmarks/bench_block_solve.py): launch
    # accounting is deterministic, iteration counts get a small band (CG
    # rounding can move them by one), parity/equality flags must hold
    # exactly; the raw solve walls stay informational
    "solve_n_groups": Gate(LOWER),
    "solve_launches_per_iteration": Gate(LOWER),
    "solve_launches_sequential": Gate(EQUAL),
    "solve_launch_reduction": Gate(HIGHER, 0.01),
    "solve_block_iterations": Gate(EQUAL, 0.05),
    "solve_scalar_iterations": Gate(EQUAL, 0.05),
    "solve_iteration_gap_max": Gate(LOWER),
    "solve_iteration_parity": Gate(EQUAL),
    "solve_solution_matches": Gate(EQUAL),
    "solve_n_deflated": Gate(EQUAL),
    # host wall-clock speedups: gated, but with a wide CI-noise band
    "grouped_speedup": Gate(HIGHER, 0.50),
    "unstructured_grouped_speedup": Gate(HIGHER, 0.50),
    # persistent artifact store (benchmarks/bench_store.py): a warm run
    # serves every pattern from the store, so it charges exactly zero
    # analysis seconds and the speedup is deterministically its cap; the
    # raw cold/warm wall times stay info-only like every other wall time
    "store_analysis_speedup": Gate(HIGHER, 0.02),
    "store_hit_rate": Gate(HIGHER),
    "n_quarantined": Gate(EQUAL),
}


@dataclass
class Delta:
    """One compared metric of one benchmark."""

    bench: str
    metric: str
    base: float
    new: float
    gated: bool
    regressed: bool

    @property
    def change(self) -> float:
        """Relative change vs baseline (0.0 when the baseline is 0)."""
        return (self.new - self.base) / self.base if self.base else 0.0

    @property
    def status(self) -> str:
        if self.regressed:
            return "REGRESSED"
        return "ok" if self.gated else "info"


def load_report(path: str | Path) -> dict:
    """Load a ``pytest-benchmark`` JSON report."""
    with open(path) as fh:
        report = json.load(fh)
    if "benchmarks" not in report:
        raise ValueError(f"{path}: not a pytest-benchmark report (no 'benchmarks')")
    return report


def extract_baseline(report: dict, source: str = "") -> dict:
    """Reduce a full bench report to the committed-baseline shape.

    Keeps, per benchmark ``name``: the mean wall seconds (informational)
    and every ``extra_info`` metric (the gated quality counters).
    """
    benches = {}
    for b in report["benchmarks"]:
        extra = {
            k: v
            for k, v in b.get("extra_info", {}).items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        benches[b["name"]] = {"mean_s": b["stats"]["mean"], "extra_info": extra}
    return {"schema": SCHEMA, "source": source, "benchmarks": benches}


def _regressed(gate: Gate, base: float, new: float) -> bool:
    """Did *new* move past the tolerance band in the bad direction?"""
    band = abs(base) * gate.rel_tol
    if gate.direction == EQUAL:
        return abs(new - base) > band
    if gate.direction == HIGHER:
        return new < base - band
    return new > base + band


def diff(baseline: dict, report: dict) -> tuple[list[Delta], list[str]]:
    """Compare *report* against *baseline*.

    Returns ``(deltas, errors)``: one :class:`Delta` per compared metric
    and a list of hard errors (missing benchmarks, schema drift).  The
    diff regressed iff any delta has ``regressed`` or ``errors`` is
    non-empty.
    """
    errors: list[str] = []
    if baseline.get("schema") != SCHEMA:
        errors.append(
            f"baseline schema {baseline.get('schema')!r} != {SCHEMA}; "
            "re-extract with tools/check_bench.py extract"
        )
        return [], errors
    fresh = {b["name"]: b for b in report["benchmarks"]}
    deltas: list[Delta] = []
    for name, base in baseline["benchmarks"].items():
        if name not in fresh:
            errors.append(f"benchmark disappeared from the run: {name}")
            continue
        new_extra = fresh[name].get("extra_info", {})
        deltas.append(
            Delta(name, "mean_s", base["mean_s"], fresh[name]["stats"]["mean"],
                  gated=False, regressed=False)
        )
        for metric, base_val in base["extra_info"].items():
            if metric not in new_extra:
                errors.append(f"{name}: metric disappeared from the run: {metric}")
                continue
            gate = GATES.get(metric)
            new_val = float(new_extra[metric])
            regressed = bool(gate) and _regressed(gate, float(base_val), new_val)
            deltas.append(
                Delta(name, metric, float(base_val), new_val,
                      gated=gate is not None, regressed=regressed)
            )
    return deltas, errors


def render_table(deltas: list[Delta], errors: list[str]) -> str:
    """Markdown delta table (lands in the CI job summary)."""
    lines = [
        "| benchmark | metric | baseline | current | change | status |",
        "|---|---|---:|---:|---:|---|",
    ]
    for d in deltas:
        mark = "**REGRESSED**" if d.regressed else d.status
        lines.append(
            f"| {d.bench} | {d.metric} | {d.base:.6g} | {d.new:.6g} "
            f"| {d.change:+.1%} | {mark} |"
        )
    for err in errors:
        lines.append(f"| — | — | — | — | — | **ERROR: {err}** |")
    n_reg = sum(d.regressed for d in deltas) + len(errors)
    n_gated = sum(d.gated for d in deltas)
    verdict = (
        f"\n{n_reg} regression(s) across {n_gated} gated metric(s)."
        if n_reg
        else f"\nNo regressions across {n_gated} gated metric(s)."
    )
    return "\n".join(lines) + "\n" + verdict


def _atomic_write_text(path: Path, text: str) -> None:
    """tmp + fsync + rename (standalone twin of ``repro.util.atomic`` —
    this tool stays importable without ``src`` on the path)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cmd_extract(args) -> int:
    report = load_report(args.report)
    baseline = extract_baseline(report, source=Path(args.report).name)
    out = Path(args.out)
    _atomic_write_text(out, json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    n_metrics = sum(len(b["extra_info"]) for b in baseline["benchmarks"].values())
    print(f"baseline written to {out}: "
          f"{len(baseline['benchmarks'])} benchmark(s), {n_metrics} metric(s)")
    return 0


def cmd_diff(args) -> int:
    baseline = json.loads(Path(args.baseline).read_text())
    report = load_report(args.report)
    deltas, errors = diff(baseline, report)
    table = render_table(deltas, errors)
    print(table)
    if args.delta_out:
        _atomic_write_text(Path(args.delta_out), table + "\n")
        print(f"\n[delta table written to {args.delta_out}]")
    regressed = any(d.regressed for d in deltas) or bool(errors)
    if regressed:
        print("\nbench gate FAILED — if the movement is intended, re-baseline:")
        print("  python tools/check_bench.py extract <fresh.json> "
              "-o benchmarks/baseline.json")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_bench", description="benchmark regression gate"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_extract = sub.add_parser(
        "extract", help="reduce a bench report to a committed baseline"
    )
    p_extract.add_argument("report", help="pytest-benchmark JSON report")
    p_extract.add_argument(
        "-o", "--out", default=str(DEFAULT_BASELINE),
        help="baseline path (default: benchmarks/baseline.json)",
    )
    p_diff = sub.add_parser("diff", help="gate a fresh report against the baseline")
    p_diff.add_argument("report", help="pytest-benchmark JSON report")
    p_diff.add_argument(
        "--baseline", default=str(DEFAULT_BASELINE),
        help="baseline to diff against (default: benchmarks/baseline.json)",
    )
    p_diff.add_argument(
        "--delta-out", default=None, metavar="FILE",
        help="also write the markdown delta table to FILE",
    )
    args = parser.parse_args(argv)
    return {"extract": cmd_extract, "diff": cmd_diff}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
