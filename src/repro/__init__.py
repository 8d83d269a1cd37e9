"""repro — sparsity-aware (simulated-)GPU assembly of Schur complements in FETI.

Reproduction of: Homola, Meca, Říha, Brzobohatý, *Utilizing Sparsity in the
GPU-accelerated Assembly of Schur Complement Matrices in Domain Decomposition
Methods*, SC 2025 (arXiv:2509.21037).

The most common entry points are re-exported here lazily (so that importing
``repro`` stays cheap):

* :class:`repro.core.SchurAssembler` — the paper's contribution,
* :func:`repro.core.default_config` / :func:`repro.core.baseline_config`,
* :func:`repro.fem.heat_transfer_2d` / :func:`repro.fem.heat_transfer_3d`,
* :func:`repro.dd.decompose`,
* :class:`repro.feti.FetiSolver` / :func:`repro.feti.solve_feti`,
* :func:`repro.bench.make_workload`,
* :class:`repro.batch.BatchAssembler` / :class:`repro.batch.PatternCache` —
  population-scale assembly with symbolic-pattern reuse (see
  :mod:`repro.batch`).

See docs/architecture.md for the system inventory and perf/README.md for
the measured record.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.0.0"

_LAZY = {
    "SchurAssembler": ("repro.core", "SchurAssembler"),
    "AssemblyConfig": ("repro.core", "AssemblyConfig"),
    "default_config": ("repro.core", "default_config"),
    "baseline_config": ("repro.core", "baseline_config"),
    "heat_transfer_2d": ("repro.fem", "heat_transfer_2d"),
    "heat_transfer_3d": ("repro.fem", "heat_transfer_3d"),
    "heat_problem": ("repro.fem", "heat_problem"),
    "decompose": ("repro.dd", "decompose"),
    "make_mesh": ("repro.part", "make_mesh"),
    "jittered_square_mesh": ("repro.part", "jittered_square_mesh"),
    "lshape_mesh": ("repro.part", "lshape_mesh"),
    "strip_with_holes_mesh": ("repro.part", "strip_with_holes_mesh"),
    "partition_mesh": ("repro.part", "partition_mesh"),
    "PartitionResult": ("repro.part", "PartitionResult"),
    "FetiSolver": ("repro.feti", "FetiSolver"),
    "solve_feti": ("repro.feti", "solve_feti"),
    "make_workload": ("repro.bench", "make_workload"),
    "BatchAssembler": ("repro.batch", "BatchAssembler"),
    "BatchItem": ("repro.batch", "BatchItem"),
    "PatternCache": ("repro.batch", "PatternCache"),
    "BatchStats": ("repro.batch", "BatchStats"),
    "items_from_decomposition": ("repro.batch", "items_from_decomposition"),
    "geometric_fingerprint": ("repro.batch", "geometric_fingerprint"),
    "canonical_frame": ("repro.sparse", "canonical_frame"),
    "canonical_coords": ("repro.sparse", "canonical_coords"),
    "cholesky": ("repro.sparse", "cholesky"),
    "A100_40GB": ("repro.gpu", "A100_40GB"),
    "EPYC_7763_CORE": ("repro.gpu", "EPYC_7763_CORE"),
}

__all__ = ["__version__", *_LAZY]


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    return getattr(importlib.import_module(module_name), attr)


def __dir__() -> list[str]:
    return sorted(__all__)
