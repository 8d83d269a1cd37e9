"""The benchmark harness checks itself: two workloads at smoke scale.

Timing values at this scale mean nothing; what is asserted is structure —
every declared metric present under its declared unit, layer self times
summing to the wall, deterministic metrics repeating exactly, the result
line's shape, and ``compare.py`` telling a regression from none.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parent
sys.path.insert(0, str(PERF))

import checks  # noqa: E402
import compare  # noqa: E402
import spans  # noqa: E402

SCHEMA = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_WORKLOADS = ("grid2d_small", "block_solve")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_py(*argv: str, cwd: Path = ROOT, script: Path = PERF / "run.py"):
    return subprocess.run([sys.executable, str(script), *argv], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=170, check=False)


@pytest.fixture(scope="module")
def two_results(tmp_path_factory) -> list[dict]:
    """Two complete smoke runs of the same inputs, side by side."""
    out = tmp_path_factory.mktemp("perf")
    argv = [sys.executable, str(PERF / "run.py"), "--scale", "smoke", "--seed", "0"]
    for name in SMOKE_WORKLOADS:
        argv += ["--workload", name]
    procs = [subprocess.Popen([*argv, "--out", str(out / f"{tag}.json")], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for tag in "AB"]
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=170)
        assert proc.returncode == 0, stdout + stderr
    return [json.loads((out / f"{tag}.json").read_text()) for tag in "AB"]


def test_benchmark_json_is_within_the_contract():
    assert set(SCHEMA) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SCHEMA[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert 2 <= len(SCHEMA["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SCHEMA["workloads"])
    assert 1 <= len(SCHEMA["end_to_end"]) <= 16 and 1 <= len(SCHEMA["per_layer"]) <= 128
    for m in SCHEMA["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SCHEMA["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SCHEMA["end_to_end"] + SCHEMA["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SCHEMA["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert isinstance(SCHEMA["run_seconds"], int) and 1 <= SCHEMA["run_seconds"] <= 60
    assert all((ROOT / p).is_dir() for p in SCHEMA["paths"])


def test_every_declared_metric_is_reported_with_its_unit(two_results):
    for result in two_results:
        assert set(result["workloads"]) == set(SMOKE_WORKLOADS)
        for entry in result["workloads"].values():
            for kind in ("end_to_end", "per_layer"):
                declared = {m["name"]: m["unit"] for m in SCHEMA[kind]}
                reported = {k: m["unit"] for k, m in entry[kind].items()}
                assert reported == declared
                assert all(isinstance(m["value"], (int, float))
                           for m in entry[kind].values())
            assert all(m["value"] > 0 for m in entry["end_to_end"].values())
            assert entry["ops_attempted"] >= 1 and entry["ops_failed_share"] == 0


def test_layer_self_times_sum_to_the_traced_wall(two_results):
    for entry in two_results[0]["workloads"].values():
        layer = {k: m["value"] for k, m in entry["per_layer"].items()}
        attributed = sum(layer[f"{name}.self_s"] for name in spans.LAYERS)
        wall = layer["driver.traced_wall_s"]
        assert attributed + layer["driver.unattributed_s"] == pytest.approx(wall, rel=0.05)
        assert layer["driver.trace_coverage"] == pytest.approx(attributed / wall)
        assert layer["driver.trace_coverage"] >= 0.9


def test_layers_match_the_workloads(two_results):
    grid = {k: m["value"] for k, m in
            two_results[0]["workloads"]["grid2d_small"]["per_layer"].items()}
    solve = {k: m["value"] for k, m in
             two_results[0]["workloads"]["block_solve"]["per_layer"].items()}
    assert grid["feti.self_s"] == 0 and grid["store.self_s"] == 0
    assert grid["part.partition_s"] == 0 and grid["batch.hit_rate"] > 0.5
    assert grid["sparse.relabel_calls"] == grid["dd.n_subdomains"] == 16
    assert solve["feti.self_s"] == max(solve[f"{name}.self_s"] for name in spans.LAYERS)
    assert solve["sparse.relabel_calls"] == 0 and solve["feti.iterations"] > 0
    assert solve["gpu.launches"] > 0 and solve["sim_s"] > 0


def test_deterministic_metrics_repeat_exactly(two_results):
    a, b = two_results
    for name in SMOKE_WORKLOADS:
        assert (compare.deterministic_values(a["workloads"][name])
                == compare.deterministic_values(b["workloads"][name]))
        assert set(compare.deterministic_values(a["workloads"][name])) == set(
            compare.DETERMINISTIC)


def test_compare_passes_a_against_a_and_catches_injected_regressions(two_results, tmp_path):
    a = copy.deepcopy(two_results[0])
    for entry in a["workloads"].values():
        # Two smoke-scale samples can lie 10 % apart, which alone makes a
        # verdict "unresolved"; the verdicts under test must not hang on that.
        for metric in entry["end_to_end"].values():
            metric["samples"] = [metric["value"]]
    (tmp_path / "a.json").write_text(json.dumps(a))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0

    slow = copy.deepcopy(a)
    wall = slow["workloads"]["grid2d_small"]["end_to_end"]["wall_s"]
    wall["value"] *= 1.2
    wall["samples"] = [x * 1.2 for x in wall["samples"]]
    rows = compare.compare(a, slow, SCHEMA)
    assert [r[:2] for r in rows if r[-1] == "regressed"] == [("grid2d_small", "wall_s")]
    (tmp_path / "slow.json").write_text(json.dumps(slow))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "slow.json")]) == 1

    broken = copy.deepcopy(a)
    entry = broken["workloads"]["block_solve"]
    entry["ops_failed"] = 1
    entry["ops_failed_share"] = 1 / entry["ops_attempted"]
    assert [r[:2] for r in compare.compare(a, broken, SCHEMA) if r[-1] == "regressed"] == [
        ("block_solve", "ops_failed_share")]

    drifted = copy.deepcopy(a)
    drifted["workloads"]["block_solve"]["per_layer"]["feti.iterations"]["value"] += 1
    assert any(r[-1] == "regressed" for r in compare.compare(a, drifted, SCHEMA))


def test_verdict_is_unresolved_when_the_fastest_sample_is_unconfirmed():
    noisy = {"value": 0.7, "samples": [0.7, 0.9, 1.0, 1.1, 1.4]}
    worse = {"value": 0.8, "samples": [0.8, 1.0, 1.15, 1.3, 1.5]}
    assert compare.verdict(noisy, worse, "lower", 0.10) == "unresolved"
    clearly_better = {"value": 0.4, "samples": [0.4, 0.5, 0.6]}
    assert compare.verdict(noisy, clearly_better, "lower", 0.10) == "ok"
    steady = {"value": 1.0, "samples": [1.0, 1.01, 1.5]}
    slower = {"value": 1.2, "samples": [1.2, 1.21]}
    assert compare.verdict(steady, slower, "lower", 0.10) == "regressed"


def test_result_line_of_the_declared_command():
    done = run_py("--workload", "grid2d_small", "--seed", "1", "--seconds", "1",
                  "--trace", "0", "--scale", "smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert {k: m["unit"] for k, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SCHEMA["end_to_end"]}
    assert all(set(m) == {"value", "unit"} and m["value"] > 0
               for m in line["metrics"].values())


def test_exits_nonzero_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", ".scratch"))
    done = run_py("--workload", "grid2d_small", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, script=tmp_path / "perf" / "run.py")
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_spans_rebind_every_alias_and_restore_on_exit():
    import repro.batch
    import repro.batch.engine
    import repro.core.assembler

    original = repro.batch.engine.items_from_decomposition
    method = repro.core.assembler.SchurAssembler.__dict__["assemble"]
    with spans.Installed(spans.Recorder()):
        wrapper = repro.batch.engine.items_from_decomposition
        assert wrapper is not original and wrapper.__wrapped__ is original
        assert repro.batch.items_from_decomposition is wrapper
        assert repro.core.assembler.SchurAssembler.__dict__["assemble"] is not method
    assert repro.batch.engine.items_from_decomposition is original
    assert repro.batch.items_from_decomposition is original
    assert repro.core.assembler.SchurAssembler.__dict__["assemble"] is method


def test_spans_self_time_and_foreign_threads():
    import threading

    recorder = spans.Recorder()
    outer = spans.Boundary("x:outer", "batch", "batch.items")
    inner = spans.Boundary("x:inner", "sparse", "sparse.relabel")
    recorder.begin()
    recorder.call(outer, lambda: recorder.call(inner, lambda: None, (), {}), (), {})
    thread = threading.Thread(
        target=lambda: recorder.call(inner, lambda: None, (), {}))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    recorder.finish()
    assert len(recorder.spans) == 3 and recorder.calls("sparse.relabel") == 1
    total = sum(recorder.self_seconds().values())
    root = recorder.spans[0]
    assert total == pytest.approx(root.end - root.start)
    assert recorder.layer_seconds()["sparse"] <= recorder.wall


def test_a_failing_oracle_is_a_failed_operation_not_a_crash():
    tally = checks.run_oracle("solve", {"solution": None, "problem": None}, seed=0)
    assert (tally.attempted, tally.failed) == (1, 1)
    tally = checks.Tally()
    tally.run("op", lambda: 1 / 0)
    tally.run("op", lambda: None)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "ZeroDivisionError" in tally.failures[0]
