"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig05" in out and "table1" in out and "ablation_ordering" in out


def test_cli_solve_2d(capsys):
    rc = main(
        ["solve", "--dim", "2", "--cells", "12", "--grid", "2x2", "--approach", "impl_mkl"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
    assert "impl_mkl" in out


def test_cli_solve_auto(capsys):
    rc = main(["solve", "--cells", "12", "--grid", "2x2", "--approach", "auto"])
    assert rc == 0
    assert "approach:" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [[], ["--rhs", "2", "--block"]], ids=["scalar", "block"])
def test_cli_solve_gates_on_the_error_it_prints(extra, capsys, monkeypatch):
    """A converged PCPG whose solution is off the direct one is a failure:
    exit code 1 and a message on stderr, in both branches of ``solve``."""
    from repro.fem import HeatProblem

    argv = ["solve", "--cells", "12", "--grid", "2x2", *extra]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""

    exact = HeatProblem.solve_direct
    monkeypatch.setattr(HeatProblem, "solve_direct", lambda self: exact(self) + 1e-5)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "max error" in captured.out
    assert "exceeds 1e-6" in captured.err


@pytest.mark.parametrize("rhs", ["8", "16"])
def test_cli_wide_block_solve_converges(rhs, capsys):
    """Wide panels of nearly dependent load cases converge on the 6x6 grid
    (the Cholesky-on-``ρ`` recurrence ran out of iterations at 8 columns and
    raised on non-finite Gram entries at 16)."""
    assert main(["solve", "--grid", "6x6", "--rhs", rhs, "--block"]) == 0
    captured = capsys.readouterr()
    assert f"{rhs} RHS column(s)" in captured.out
    assert captured.err == ""


def test_cli_run_saves_results(tmp_path, capsys):
    rc = main(["run", "fig05", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fig05" in out
    assert (tmp_path / "fig05.txt").exists()


def test_cli_batch(capsys):
    rc = main(["batch", "--dim", "2", "--cells", "12", "--grid", "2x2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hit rate" in out
    assert "pipeline makespan" in out


def test_cli_batch_no_cache_estimate_only(capsys):
    rc = main(
        [
            "batch",
            "--dim",
            "2",
            "--cells",
            "12",
            "--grid",
            "2x2",
            "--device",
            "cpu",
            "--streams",
            "0",
            "--no-cache",
            "--estimate-only",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 hits" in out


def test_cli_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment"):
        main(["run", "fig99"])


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_cli_batch_unstructured_mesh_and_partitioner(capsys):
    rc = main(
        [
            "batch", "--mesh", "jittered", "--partitioner", "rcb",
            "--parts", "6", "--cells", "12", "--floating",
            "--signature", "near", "--seed", "1", "--device", "cpu",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "partition:" in out and "edge cut" in out
    assert "geometric class(es)" in out
    assert "grouping:" in out  # the grouping-efficiency line


def test_cli_batch_validates_flag_combinations():
    with pytest.raises(ValueError, match="contradicts"):
        main(["batch", "--mesh", "jittered", "--dim", "3"])
    with pytest.raises(ValueError, match="--parts only applies"):
        main(["batch", "--parts", "8", "--cells", "12"])


# ---------------------------------------------------------------------------
# assembly-as-a-service: work / store


def _svc(tmp_path) -> str:
    return str(tmp_path / "service")


def test_cli_work_submit_run_status(tmp_path, capsys):
    root = _svc(tmp_path)
    rc = main(["work", "submit", "--root", root, "--grid", "2x2", "--cells", "8",
               "--count", "2", "--device", "cpu"])
    assert rc == 0
    assert "submitted 2 assemble job(s)" in capsys.readouterr().out
    rc = main(["work", "run", "--root", root, "--worker-id", "w1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "worker w1: 2 done" in out
    assert "store:" in out
    rc = main(["work", "status", "--root", root, "--jobs", "--strict"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2 done" in out and "#1 assemble" in out


def test_cli_work_status_strict_fails_on_pending(tmp_path, capsys):
    root = _svc(tmp_path)
    main(["work", "submit", "--root", root, "--device", "cpu"])
    capsys.readouterr()
    assert main(["work", "status", "--root", root, "--strict"]) == 1


def test_cli_work_run_injected_crash_exits_42(tmp_path, capsys):
    root = _svc(tmp_path)
    main(["work", "submit", "--root", root, "--grid", "2x2", "--cells", "8",
          "--device", "cpu"])
    capsys.readouterr()
    rc = main(["work", "run", "--root", root, "--worker-id", "w1",
               "--faults", "worker.job.crash:1"])
    assert rc == 42
    assert "crashed" in capsys.readouterr().err


def test_cli_work_submit_payload_json_overrides(tmp_path, capsys):
    root = _svc(tmp_path)
    rc = main(["work", "submit", "--root", root,
               "--payload", '{"cells": 6, "grid": "2x2", "device": "cpu"}'])
    assert rc == 0
    capsys.readouterr()
    assert main(["work", "run", "--root", root]) == 0


def test_cli_work_run_faults_reach_the_store(tmp_path, capsys):
    """`--faults store.put.torn:1` tears the first commit: the next job
    quarantines and recomputes it, and the store ends up clean."""
    root = _svc(tmp_path)
    main(["work", "submit", "--root", root, "--grid", "2x2", "--cells", "8",
          "--count", "2", "--device", "cpu"])
    capsys.readouterr()
    rc = main(["work", "run", "--root", root, "--worker-id", "w1",
               "--faults", "store.put.torn:1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "worker w1: 2 done" in out
    assert "1 quarantined" in out
    assert main(["store", "verify", "--root", root]) == 0
    assert "1 ok, 0 quarantined" in capsys.readouterr().out


def test_cli_store_stats_ls_verify(tmp_path, capsys):
    root = _svc(tmp_path)
    main(["work", "submit", "--root", root, "--grid", "2x2", "--cells", "8",
          "--device", "cpu"])
    main(["work", "run", "--root", root])
    capsys.readouterr()
    assert main(["store", "stats", "--root", root]) == 0
    out = capsys.readouterr().out
    assert "committed artifact(s)" in out and "symbolic" in out
    assert main(["store", "ls", "--root", root]) == 0
    assert "symbolic" in capsys.readouterr().out
    assert main(["store", "verify", "--root", root]) == 0
    assert "0 quarantined" in capsys.readouterr().out


def test_cli_work_trace_dir_end_to_end_fleet(tmp_path, capsys):
    """Two-worker drill with tracing: crash, reclaim, merge, report."""
    import json

    root = _svc(tmp_path)
    traces = str(tmp_path / "traces")
    assert main(["work", "submit", "--root", root, "--grid", "2x2",
                 "--cells", "8", "--count", "2", "--device", "cpu",
                 "--trace-dir", traces]) == 0
    assert "submit trace written" in capsys.readouterr().out
    rc = main(["work", "run", "--root", root, "--worker-id", "w1",
               "--faults", "worker.job.crash:1", "--lease", "2",
               "--trace-dir", traces])
    assert rc == 42
    assert "crash trace written" in capsys.readouterr().err
    import time

    time.sleep(2.1)  # let w1's stale lease expire
    rc = main(["work", "run", "--root", root, "--worker-id", "w2",
               "--lease", "2", "--backoff", "0.1", "--trace-dir", traces])
    assert rc == 0
    out = capsys.readouterr().out
    assert "worker trace written" in out

    merged_path = tmp_path / "FLEET_TRACE.json"
    rc = main(["trace", "merge",
               str(tmp_path / "traces" / "WORKER_submit.json"),
               str(tmp_path / "traces" / "WORKER_w1.json"),
               str(tmp_path / "traces" / "WORKER_w2.json"),
               "--out", str(merged_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "merged 3 worker trace(s)" in out
    assert "cross-process link(s)" in out
    data = json.loads(merged_path.read_text())
    pids = {ev["args"]["name"] for ev in data["traceEvents"]
            if ev.get("ph") == "M" and ev.get("name") == "process_name"}
    assert pids == {"submit", "w1", "w2"}
    # the reclaimed job draws a flow arrow from the original submit span
    assert any(ev.get("ph") == "f" for ev in data["traceEvents"])

    # the merged trace renders through the normal viewer
    assert main(["trace", str(merged_path), "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "worker.job" in out and "p50" in out

    rc = main(["obs", "report",
               str(tmp_path / "traces" / "WORKER_w1.json"),
               str(tmp_path / "traces" / "WORKER_w2.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fleet obs report" in out and "hit rate" in out


def test_cli_trace_merge_requires_inputs(capsys):
    assert main(["trace", "merge"]) == 2
    assert "no input" in capsys.readouterr().err


def test_cli_trace_rejects_multiple_render_files(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text("{}")
    b.write_text("{}")
    assert main(["trace", str(a), str(b)]) == 2


def test_cli_trace_renders_metrics_only_file(tmp_path, capsys):
    import json

    path = tmp_path / "metrics.json"
    path.write_text(json.dumps({"counters": {"store.hits": 3}, "gauges": {},
                                "histograms": {}}))
    assert main(["trace", str(path)]) == 0
    captured = capsys.readouterr()
    assert "no spans recorded" in captured.out
    assert "metrics-only" in captured.err


def test_cli_obs_report_json(tmp_path, capsys):
    import json

    path = tmp_path / "w.json"
    path.write_text(json.dumps({"counters": {"worker.jobs_done": 2},
                                "gauges": {}, "histograms": {}}))
    assert main(["obs", "report", str(path), "--json"]) == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out[captured.out.index("{"):])
    assert data["fleet"]["counters"]["worker.jobs_done"] == 2
