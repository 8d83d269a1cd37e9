"""Top-level public API: lazy exports and an end-to-end integration pass."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


#: Every subpackage of ``repro``; each one's ``__all__`` must resolve.
SUBPACKAGES = [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
]


def test_lazy_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    assert "SchurAssembler" in dir(repro)
    assert "repro.feti" in SUBPACKAGES and "repro.sparse.ordering" in SUBPACKAGES


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_subpackage_exports_resolve(package):
    """A deleted unit leaves no dangling name behind in an ``__all__``."""
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name, None) is not None, f"{package}.{name}"


#: Knobs the product only ever set to one value, removed along every
#: signature that threaded them: ``module:qualified name`` -> parameter.
REMOVED_KNOBS = [
    ("repro.sparse:cholesky", "engine"),
    ("repro.sparse:solve_lower", "method"),
    ("repro.sparse:solve_upper", "method"),
    ("repro.feti:FetiSolver", "engine"),
    ("repro.feti:FetiSolver.solve_block", "lowrank_rank"),
    ("repro.feti.operator:factorize_subdomain", "engine"),
    ("repro.feti.preconditioner:interior_schur", "engine"),
    ("repro.feti:DirichletPreconditioner", "engine"),
    ("repro.sparse.schur_augmented:schur_augmented", "engine"),
]


@pytest.mark.parametrize(("target", "parameter"), REMOVED_KNOBS)
def test_removed_knob_stays_removed(target, parameter):
    module, qualname = target.split(":")
    obj = importlib.import_module(module)
    for attr in qualname.split("."):
        obj = getattr(obj, attr)
    assert parameter not in inspect.signature(obj).parameters


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no attribute"):
        repro.warp_drive


def test_end_to_end_through_top_level_api():
    """The README quickstart, via `import repro` only."""
    wl = repro.make_workload(dim=3, target_dofs=729)
    base = repro.SchurAssembler(config=repro.baseline_config("sparse"))
    opt = repro.SchurAssembler(config=repro.default_config("gpu", 3))
    r0 = base.assemble(wl.factor, wl.bt)
    r1 = opt.assemble(wl.factor, wl.bt)
    assert np.allclose(r0.f, r1.f, atol=1e-8)
    assert r0.elapsed > 0 and r1.elapsed > 0

    problem = repro.heat_transfer_2d(12, dirichlet=("left",))
    dec = repro.decompose(problem, grid=(2, 2))
    sol = repro.solve_feti(dec, approach="expl_gpu_opt", tol=1e-10)
    assert np.abs(sol.u - problem.solve_direct()).max() < 1e-7
