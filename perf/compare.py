"""Compare two ``run.py --out`` results under the bounds of ``BENCHMARK.json``.

    python3 perf/compare.py A.json B.json

A is the parent, B the change.  One row per workload x end-to-end metric:
the parent's value, the change's, their ratio (base: the parent) and a
verdict —

* ``ok``         the change is no worse than the parent by more than the bound;
* ``regressed``  it is worse by more than the bound;
* ``unresolved`` on either side no second sample confirms the fastest to
  within the bound — the run was taken under outside load, so one value
  per side cannot settle it — unless every sample of the change beats
  every sample of the parent (``ok``) or loses to every one by more than
  the bound (``regressed``).

Deterministic metrics (the simulated price and the counts a host-speed
change must leave alone) have to be exactly equal, and the change may not
fail a larger share of its operations than the parent.  Exits 1 when any
row regressed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Must repeat exactly between two runs of the same inputs.
DETERMINISTIC = ("sim_s", "gpu.launches", "gpu.flops", "feti.iterations", "batch.n_groups")


def floor_gap(metric: dict) -> float:
    """How far the second-fastest sample lies above the fastest, as a share
    of it: the uncertainty of a value that is the fastest of its samples
    (0.0 for a single sample)."""
    samples = sorted(metric.get("samples") or [metric["value"]])
    if len(samples) < 2 or not samples[0]:
        return 0.0
    return (samples[1] - samples[0]) / abs(samples[0])


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    if max(floor_gap(a), floor_gap(b)) > bound:
        a_samples = [sign * x for x in a.get("samples") or [a["value"]]]
        b_samples = [sign * x for x in b.get("samples") or [b["value"]]]
        if max(b_samples) < min(a_samples):
            return "ok"
        if worse > bound and min(b_samples) > max(a_samples):
            return "regressed"
        return "unresolved"
    return "regressed" if worse > bound else "ok"


def deterministic_values(entry: dict) -> dict:
    return {name: entry["per_layer"][name]["value"] for name in DETERMINISTIC}


def compare(a: dict, b: dict, schema: dict) -> list[tuple]:
    """Rows ``(workload, metric, parent, change, ratio, verdict)``."""
    rows = []
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            rows.append((name, "(workload)", "present", "missing", "", "regressed"))
            continue
        for metric in schema["end_to_end"]:
            key = metric["name"]
            ma, mb = entry_a["end_to_end"][key], entry_b["end_to_end"][key]
            ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
            rows.append((name, key, f"{ma['value']:.6g} {ma['unit']}",
                         f"{mb['value']:.6g}", f"{ratio:.3f} of parent",
                         verdict(ma, mb, metric["better"], metric["bound"])))
        det_a, det_b = deterministic_values(entry_a), deterministic_values(entry_b)
        for key, va in det_a.items():
            vb = det_b.get(key)
            rows.append((name, key, repr(va), repr(vb), "exact",
                         "ok" if va == vb else "regressed"))
        share_a, share_b = entry_a["ops_failed_share"], entry_b["ops_failed_share"]
        rows.append((name, "ops_failed_share",
                     f"{entry_a['ops_failed']}/{entry_a['ops_attempted']}",
                     f"{entry_b['ops_failed']}/{entry_b['ops_attempted']}", "bound 0",
                     "regressed" if share_b > share_a else "ok"))
    return rows


def render(rows: list[tuple]) -> str:
    header = ("workload", "metric", "parent", "change", "ratio", "verdict")
    table = [header, *[tuple(str(c) for c in row) for row in rows]]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                     for r in table)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    schema = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(json.loads(args.parent.read_text()),
                   json.loads(args.change.read_text()), schema)
    print(render(rows))
    tally = {v: sum(1 for r in rows if r[-1] == v) for v in ("ok", "regressed", "unresolved")}
    print(f"\n{tally['ok']} ok, {tally['regressed']} regressed, "
          f"{tally['unresolved']} unresolved")
    return 1 if tally["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
