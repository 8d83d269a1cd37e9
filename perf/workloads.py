"""The six fixed benchmark workloads: spec builders and their run functions.

A workload is data (:class:`Workload`): the ``repro.*`` modules it needs,
a spec builder ``(seed, scale) -> dict`` and a ``run(spec, workdir)`` that
drives the whole ``fem -> ... -> feti`` pipeline through the packages'
public functions and returns the outputs the oracles in ``checks.py``
verify.  ``run`` is the timed region of one repetition.

The run functions import the ``repro`` packages locally and call through
the package attribute (``fem.heat_transfer_2d(...)``), never through a
name bound at import time: the traced child rebinds those attributes to
span wrappers (``spans.py``), and importing ``repro`` lazily keeps the
set-up probe honest about what each workload really loads.

``--seed`` drives the mesh jitter, the partitioner seed, the load panels
and the job order; sizes are fixed per scale.  ``full`` is the measured
size, ``smoke`` a seconds-long size for the harness's own tests.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

SCALES = ("full", "smoke")


@dataclass
class Outputs:
    """What one repetition produced: the data the oracle checks, the
    simulated price of the same run (``None`` where there is none), and
    counts that only the workload's own handles expose."""

    sim_s: float | None
    data: dict[str, Any] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    modules: tuple[str, ...]
    sizes: dict[str, dict]
    run: Callable[[dict, Path], Outputs]
    oracle: str  # which check in checks.py verifies the outputs
    #: The work directory carries state from one repetition to the next
    #: (the artifact store), so repetition 0 differs in kind, not only in
    #: lazy initialization; the traced child then traces a second
    #: cold-state repetition in a fresh directory.
    stateful: bool = False

    def spec(self, seed: int, scale: str) -> dict:
        return {"seed": seed, **self.sizes[scale]}

    def load(self) -> None:
        """Import the workload's ``repro`` modules (the set-up cost)."""
        for name in self.modules:
            importlib.import_module(name)


# --- assembly workloads ------------------------------------------------------


def run_assembly(spec: dict, workdir: Path) -> Outputs:
    """Workload spec in, Schur complements and the priced schedule out."""
    import repro.batch as batch
    import repro.core as core
    import repro.dd as dd
    import repro.fem as fem

    seed = spec["seed"]
    if spec["mesh"] == "square":
        problem = fem.heat_transfer_2d(spec["cells"], dirichlet=())
    elif spec["mesh"] == "cube":
        problem = fem.heat_transfer_3d(spec["cells"], dirichlet=())
    else:
        import repro.part as part

        problem = fem.heat_problem(
            part.make_mesh(spec["mesh"], spec["cells"], seed), dirichlet=()
        )
    if "grid" in spec:
        decomposition = dd.decompose(problem, grid=spec["grid"])
    else:
        decomposition = dd.decompose(
            problem, n_subdomains=spec["parts"], partitioner="rcb", seed=seed
        )
    items = batch.items_from_decomposition(decomposition)
    engine = batch.BatchAssembler(
        core.default_config("gpu", problem.mesh.dim),
        cache=batch.PatternCache(),
        signature_mode=spec["signature"],
    )
    result = engine.assemble_batch(items, execution=spec["execution"], n_workers=1)
    pipeline = engine.schedule(result.work, mode="mix", n_threads=16, n_streams=16)
    return Outputs(
        sim_s=pipeline.makespan,
        data={"decomposition": decomposition, "items": items, "batch": result},
    )


# --- block solve ---------------------------------------------------------------


def run_block_solve(spec: dict, workdir: Path) -> Outputs:
    import repro.dd as dd
    import repro.fem as fem
    import repro.feti as feti

    problem = fem.heat_transfer_2d(spec["cells"], dirichlet=("left", "right"))
    decomposition = dd.decompose(problem, grid=spec["grid"])
    solver = feti.FetiSolver(decomposition, approach="expl_gpu_opt")
    timings = solver.preprocess()
    solution = solver.solve_block(n_rhs=spec["n_rhs"], block=True, seed=spec["seed"])
    return Outputs(
        sim_s=timings.preprocessing_total + solution.stats.apply_seconds,
        data={"problem": problem, "solution": solution},
    )


# --- service ---------------------------------------------------------------------

#: The three job shapes of ``service_warm``: structured per-member on the
#: CPU, structured grouped on the GPU model, unstructured union.
SERVICE_PAYLOADS = {
    "full": (
        {"cells": 32, "grid": "4x4"},
        {"cells": 48, "grid": "6x6", "execution": "grouped", "device": "gpu"},
        {"cells": 28, "mesh": "jittered", "partitioner": "rcb", "parts": 8,
         "signature": "near", "execution": "union", "device": "gpu"},
    ),
    "smoke": (
        {"cells": 8, "grid": "2x2"},
        {"cells": 12, "grid": "3x3", "execution": "grouped", "device": "gpu"},
        {"cells": 10, "mesh": "jittered", "partitioner": "rcb", "parts": 4,
         "signature": "near", "execution": "union", "device": "gpu"},
    ),
}


def service_jobs(spec: dict) -> list[dict]:
    """The drain's job list: every payload ``rounds`` times, the jittered
    one seeded, the order shuffled by the seed."""
    jobs = []
    for payload in SERVICE_PAYLOADS[spec["payloads"]]:
        if payload.get("mesh") == "jittered":
            payload = {**payload, "seed": spec["seed"]}
        jobs.extend(dict(payload) for _ in range(spec["rounds"]))
    random.Random(spec["seed"]).shuffle(jobs)
    return jobs


def run_service(spec: dict, workdir: Path) -> Outputs:
    """Submit the jobs and drain them against the store under *workdir*.

    The store directory and the queue file persist across repetitions —
    repetition 0 fills the store, later ones read it — while the
    ``ArtifactStore`` and ``JobQueue`` handles are fresh every time.
    """
    import repro.store as store

    root = workdir / "service"
    artifacts = store.ArtifactStore(root / "store")
    queue = store.JobQueue(root / "queue.db")
    try:
        payloads = service_jobs(spec)
        ids = [queue.submit("assemble", payload) for payload in payloads]
        worker = store.run_worker(queue, artifacts, owner="perf", poll_seconds=0.01)
        jobs = [queue.get(job_id) for job_id in ids]
    finally:
        queue.close()
    return Outputs(
        sim_s=None,
        data={"payloads": payloads, "jobs": jobs, "worker": worker},
        counts={"store.quarantined": artifacts.stats.quarantined},
    )


# --- the table ----------------------------------------------------------------------

_ASSEMBLY_MODULES = ("repro.fem", "repro.dd", "repro.batch", "repro.core")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid2d_small",
            modules=_ASSEMBLY_MODULES,
            sizes={
                "full": dict(mesh="square", cells=120, grid=(8, 8),
                             signature="frame", execution="auto"),
                "smoke": dict(mesh="square", cells=16, grid=(4, 4),
                              signature="frame", execution="auto"),
            },
            run=run_assembly,
            oracle="assembly",
        ),
        Workload(
            name="grid2d_large",
            modules=_ASSEMBLY_MODULES,
            sizes={
                "full": dict(mesh="square", cells=168, grid=(3, 3),
                             signature="frame", execution="auto"),
                # 20 cells/side per part -> 441 DOFs: still above the
                # n > 256 cut where auto stays per-member.
                "smoke": dict(mesh="square", cells=60, grid=(3, 3),
                              signature="frame", execution="auto"),
            },
            run=run_assembly,
            oracle="assembly",
        ),
        Workload(
            name="cube3d_dense",
            modules=_ASSEMBLY_MODULES,
            sizes={
                "full": dict(mesh="cube", cells=22, grid=(2, 2, 2),
                             signature="frame", execution="auto"),
                "smoke": dict(mesh="cube", cells=6, grid=(2, 2, 2),
                              signature="frame", execution="auto"),
            },
            run=run_assembly,
            oracle="assembly",
        ),
        Workload(
            name="jittered_union",
            modules=(*_ASSEMBLY_MODULES, "repro.part"),
            sizes={
                "full": dict(mesh="jittered", cells=96, parts=48,
                             signature="near", execution="union"),
                "smoke": dict(mesh="jittered", cells=16, parts=6,
                              signature="near", execution="union"),
            },
            run=run_assembly,
            oracle="assembly",
        ),
        Workload(
            name="block_solve",
            modules=("repro.fem", "repro.dd", "repro.feti"),
            sizes={
                "full": dict(cells=72, grid=(6, 6), n_rhs=4),
                "smoke": dict(cells=12, grid=(3, 3), n_rhs=2),
            },
            run=run_block_solve,
            oracle="solve",
        ),
        Workload(
            name="service_warm",
            modules=("repro.store",),
            sizes={
                "full": dict(payloads="full", rounds=2),
                "smoke": dict(payloads="smoke", rounds=2),
            },
            run=run_service,
            oracle="service",
            stateful=True,
        ),
    )
}
