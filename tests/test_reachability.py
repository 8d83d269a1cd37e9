"""Tests for ``tools/reachability.py``: the function index, the profile
hook it installs through ``sitecustomize``, and the table it prints."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TRIANGULAR = str(REPO / "src" / "repro" / "sparse" / "triangular.py")


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location(
        "reachability", REPO / "tools" / "reachability.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _key(index, name):
    """``(file, first line)`` of the function *name* in ``triangular.py``."""
    return next(k for k, (qual, _) in index.items() if k[0] == TRIANGULAR
                and qual.endswith(f":{name}"))


def test_functions_index_every_src_function(reach):
    index = reach.functions()
    _, lines = index[_key(index, "solve_lower")]
    assert lines == 3  # signature, docstring, return
    # A decorated function starts at its first decorator line, as the
    # profiled code object's ``co_firstlineno`` does.
    from repro.batch.stats import BatchStats

    code = BatchStats.hit_rate.fget.__code__
    assert index[(code.co_filename, code.co_firstlineno)][0].endswith(":hit_rate")
    stats = Path(code.co_filename).read_text().splitlines()
    assert stats[code.co_firstlineno - 1].strip() == "@property"


def test_hook_sees_calls_in_subprocesses_and_threads(reach, tmp_path):
    (tmp_path / "sitecustomize.py").write_text(reach.HOOK)
    code = (
        "import threading, numpy as np, scipy.sparse as sp;"
        "from repro.sparse import solve_lower, solve_upper;"
        "l = sp.identity(3, format='csc');"
        "solve_lower(l, np.ones(3));"
        "t = threading.Thread(target=solve_upper, args=(l, np.ones(3))); t.start(); t.join()"
    )
    seen = reach.reached([f'{reach.PY} -c "{code}"'], str(tmp_path))
    index = reach.functions()
    assert _key(index, "solve_lower") in seen
    assert _key(index, "solve_upper") in seen  # called on a second thread
    assert _key(index, "spsolve_lower_sparse") not in seen
    assert all(f.startswith(str(reach.SRC)) for f, _ in seen)


def test_rows_partition_the_index(reach, monkeypatch, capsys):
    index = reach.functions()
    lower, upper = _key(index, "solve_lower"), _key(index, "solve_upper")
    monkeypatch.setattr(
        reach, "reached", lambda commands, _: {lower} if commands is reach.PRODUCT else {upper}
    )
    monkeypatch.setattr(sys, "argv", ["reachability.py", "--list"])
    assert reach.main() == 0
    out = capsys.readouterr().out
    assert "| product | 1 | 3 |" in out
    assert "| test-only | 1 | 3 |" in out
    assert f"| unreached | {len(index) - 2} |" in out
    assert f"test-only: {index[upper][0]} (3 lines)" in out
    assert f"unreached: {index[lower][0]}" not in out
