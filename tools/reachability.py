#!/usr/bin/env python3
"""Which ``src/`` functions does the product reach, and which only the tests?

Runs the product (CI's CLI and service smoke lines, ``examples/*.py``,
the perf smoke and the ten quick ``repro run`` experiments), then tier-1,
each under a ``sys.setprofile`` hook that ``sitecustomize`` installs in
every Python process, subprocesses and threads included.  Prints three
rows: functions (and their lines) reached by the product, reached only by
the tests, and reached by nothing.  ``--list`` also names the last two.

    python tools/reachability.py [--list]      # ~5 min on 2 cores
"""

from __future__ import annotations

import ast
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
HOOK = """import atexit, os, sys, threading
_src, _seen = os.environ["REACH_SRC"], set()
def _hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(_src):
        _seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(_hook)
threading.setprofile(_hook)
@atexit.register
def _dump():
    with open(os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.txt"), "a") as fh:
        fh.writelines(f"{f}\\t{n}\\n" for f, n in _seen)
"""
PY = shlex.quote(sys.executable)
CLI = [
    "--help", "batch --help", "list", "batch --cells 10 --grid 2x2 --device cpu --floating",
    "batch --cells 12 --grid 3x3 --device gpu --floating --execution grouped --workers 2",
    "batch --cells 12 --grid 3x3 --device gpu --floating --no-canonicalize",
    "batch --cells 12 --grid 3x3 --device gpu",
    "batch --dim 3 --cells 6 --grid 2x2x2 --floating --execution per-member",
    "batch --dim 3 --cells 6 --grid 2x2x2 --floating --execution auto",
    *(f"batch --cells 16 --mesh jittered --partitioner rcb --parts 8 --floating --signature near {x}"
      for x in ("--seed 1", "--execution union --union-fill-cap 8.0",
                "--execution union --union-fill-cap 1.0", "--execution grouped")),
    "batch --cells 10 --mesh lshape --partitioner spectral --grid 3x2 --device cpu --signature rotation",
    "batch --cells 12 --grid 3x3 --floating --execution grouped --trace t.json --metrics-out m.csv",
    "trace t.json --top 3", "solve --dim 3 --cells 6 --grid 2x2x2", "solve --rhs 4 --block",
    "solve --grid 4x4 --cells 32 --approach expl_gpu_opt --rhs 4 --block",
    "solve --grid 4x4 --cells 32 --approach impl_mkl --rhs 4 --block", "solve --rhs 2 --sequential",
    "solve --grid 6x6 --rhs 8 --block", "solve --grid 6x6 --rhs 16 --block",
    # service smoke: worker w1 crashes mid-job, w2 reclaims after w1's lease expires
    "work submit --root svc --count 4 --cells 8 --grid 2x2 --device cpu --trace-dir svc/traces",
    "work run --root svc --worker-id w1 --lease 2 --faults worker.job.crash:2 --max-jobs 4"
    " --timeout 60 --trace-dir svc/traces; sleep 3",
    "work run --root svc --worker-id w2 --max-jobs 4 --timeout 120 --trace-dir svc/traces",
    "work status --root svc --strict", "store verify --root svc",
    "trace merge svc/traces/WORKER_*.json --out fleet.json", "obs report svc/traces/WORKER_*.json",
    *(f"run {e} --out runs/{e}" for e in ("table1", "fig05", "fig06", "fig07", "fig08", "fig09",
                                         "fig10", "ablation_ordering", "ablation_pruning",
                                         "elasticity")),
]
PRODUCT = [
    *(f"{PY} -m repro {line}" for line in CLI),
    *(f"{PY} {shlex.quote(str(p))}" for p in sorted((REPO / "examples").glob("*.py"))),
    f"{PY} {shlex.quote(str(REPO / 'perf' / 'run.py'))} --scale smoke",
]
TESTS = [f"cd {shlex.quote(str(REPO))} && {PY} -m pytest -q -p no:cacheprovider"]


def reached(commands: list[str], hook_dir: str) -> set[tuple[str, int]]:
    """``(file, first line)`` of every ``src/`` code object *commands* call."""
    with tempfile.TemporaryDirectory() as work, tempfile.TemporaryDirectory() as out:
        env = {**os.environ, "REACH_SRC": str(SRC), "REACH_OUT": out,
               "PYTHONPATH": os.pathsep.join((hook_dir, str(REPO / "src")))}
        for command in commands:
            subprocess.run(command, shell=True, cwd=work, env=env, stdout=subprocess.DEVNULL)
        return {(f, int(n)) for p in Path(out).iterdir()
                for f, n in (line.split("\t") for line in p.read_text().splitlines())}


def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line incl. decorators) -> (qualified name, lines)``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                name = f"{path.relative_to(SRC.parent)}:{node.lineno}:{node.name}"
                found[(str(path), first)] = (name, node.end_lineno - first + 1)
    return found


def main() -> int:
    with tempfile.TemporaryDirectory() as hook_dir:
        Path(hook_dir, "sitecustomize.py").write_text(HOOK)
        product, tests = reached(PRODUCT, hook_dir), reached(TESTS, hook_dir)
    rows = {"product": [], "test-only": [], "unreached": []}
    for key, (name, lines) in functions().items():
        row = "product" if key in product else "test-only" if key in tests else "unreached"
        rows[row].append((name, lines))
    print("| reached by | functions | lines |\n|---|---:|---:|")
    for row, funcs in rows.items():
        print(f"| {row} | {len(funcs)} | {sum(n for _, n in funcs)} |")
    if "--list" in sys.argv:
        for row in ("test-only", "unreached"):
            print("\n".join(f"{row}: {name} ({n} lines)" for name, n in rows[row]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
