"""Outside-in span recorder: layer boundaries timed without touching ``src/``.

The traced benchmark child wraps the public callables in
:data:`BOUNDARIES` from outside — class methods are patched on the class,
module functions are rebound in every loaded ``repro.*`` module that
holds an alias (``items_from_decomposition``, ``build_assemble_inputs``
and ``FetiSolver`` import their callees by name) — and records one span
``(name, layer, start, end, parent)`` per call, in memory.  A layer's
*self* time is its spans' durations minus the part their child spans
cover, so the layers' self times plus the unattributed remainder sum
back to the repetition's wall time.

Counts ride on the same boundaries: a boundary's ``count`` function reads
the call's public return value (``BatchStats``, ``SolveStats``,
``WorkerStats``, ``PartitionResult`` ...) into :attr:`Recorder.counts`, so
every ratio is measured where the work happens.  ``Executor.charge`` is
a count-only boundary: it is the one place every executed kernel's
``KernelCost`` passes through, and the simulated device costs no host
time worth a span.

Only spans of the thread that called :meth:`Recorder.begin` enter the
layer budget; other threads (the worker's heartbeat) keep their own
stack and appear only in the Chrome trace dump.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# --- count functions: (counts, args, kwargs, result) -> None -------------------


def _add(counts: dict, name: str, value: float) -> None:
    counts[name] = counts.get(name, 0) + value


def _count_problem(counts, args, kwargs, problem) -> None:
    _add(counts, "fem.n_dofs", problem.n_dofs)
    _add(counts, "fem.n_elements", problem.mesh.n_elements)


def _count_partition(counts, args, kwargs, report) -> None:
    _add(counts, "part.edge_cut", report.edge_cut)
    # balance is max part size over ideal (>= 1); imbalance its excess.
    counts["part.imbalance"] = max(
        counts.get("part.imbalance", 0.0), report.balance - 1.0
    )


def _count_decomposition(counts, args, kwargs, decomposition) -> None:
    _add(counts, "dd.n_subdomains", decomposition.n_subdomains)
    _add(counts, "dd.n_multipliers", decomposition.n_multipliers)


def _count_factor(counts, args, kwargs, factor) -> None:
    _add(counts, "sparse.factor_nnz", factor.l.nnz)


def _count_batch(counts, args, kwargs, result) -> None:
    stats = result.stats
    for name in ("hits", "misses", "n_groups", "n_grouped", "n_exec_fallbacks",
                 "n_union_members", "union_padded_nnz", "union_member_nnz"):
        _add(counts, f"batch.{name}", getattr(stats, name))


def _count_kernel(counts, args, kwargs, sim_seconds) -> None:
    cost = args[1] if len(args) > 1 else kwargs["cost"]
    _add(counts, "gpu.launches", cost.launches)
    _add(counts, "gpu.flops", cost.flops)
    _add(counts, "gpu.bytes_moved", cost.bytes_moved)
    _add(counts, "gpu.sim_seconds", sim_seconds)


def _count_pipeline(counts, args, kwargs, pipeline) -> None:
    _add(counts, "runtime.sim_makespan_s", pipeline.makespan)


def _count_preprocess(counts, args, kwargs, timings) -> None:
    _add(counts, "feti.sim_preprocess_s", timings.preprocessing_total)


def _count_solve(counts, args, kwargs, solution) -> None:
    stats = solution.stats
    _add(counts, "feti.iterations", stats.iterations)
    _add(counts, "feti.n_deflated", stats.n_deflated)
    _add(counts, "feti.launches_per_iteration", stats.launches_per_iteration)
    _add(counts, "feti.sim_apply_s", stats.apply_seconds)


def _count_get(counts, args, kwargs, obj) -> None:
    _add(counts, "store.hits" if obj is not None else "store.misses", 1)


def _count_put(counts, args, kwargs, committed) -> None:
    if committed:
        store, key, kind = args[0], args[1], args[2]
        _add(counts, "store.puts", 1)
        _add(counts, "store.bytes", store.path_for(key, kind).stat().st_size)


def _count_worker(counts, args, kwargs, stats) -> None:
    _add(counts, "store.jobs_done", stats.n_done)
    _add(counts, "store.jobs_failed", stats.n_failed)
    counts.setdefault("store.job_seconds", []).extend(stats.job_seconds)


# --- the boundary table ----------------------------------------------------------


@dataclass(frozen=True)
class Boundary:
    """One wrapped callable: ``module:qualname`` recorded as span *name*
    in *layer*; ``name=None`` makes it count-only."""

    target: str
    layer: str
    name: str | None
    count: Callable | None = None


#: Layer names are the package names of ``docs/architecture.md``;
#: ``factorize_subdomain`` lives in ``repro.feti.operator`` but is the
#: ``sparse`` layer's numeric factorization, and is booked there.
BOUNDARIES = (
    Boundary("repro.fem.heat_transfer:heat_transfer_2d", "fem", "fem.build", _count_problem),
    Boundary("repro.fem.heat_transfer:heat_transfer_3d", "fem", "fem.build", _count_problem),
    Boundary("repro.fem.heat_transfer:heat_problem", "fem", "fem.build", _count_problem),
    Boundary("repro.part.meshes:make_mesh", "part", "part.mesh"),
    Boundary("repro.part.partitioner:partition_mesh", "part", "part.partition", _count_partition),
    Boundary("repro.dd.decomposition:decompose", "dd", "dd.decompose", _count_decomposition),
    Boundary("repro.sparse.canonical:canonical_relabeling", "sparse", "sparse.relabel"),
    Boundary("repro.feti.operator:factorize_subdomain", "sparse", "sparse.factorize", _count_factor),
    Boundary("repro.batch.engine:items_from_decomposition", "batch", "batch.items"),
    Boundary("repro.batch.engine:BatchAssembler.assemble_batch", "batch", "batch.assemble", _count_batch),
    Boundary("repro.batch.engine:BatchAssembler.analyze", "batch", "batch.analyze"),
    Boundary("repro.core.assembler:SchurAssembler.assemble", "core", "core.assemble"),
    Boundary("repro.core.assembler:SchurAssembler.assemble_group", "core", "core.assemble"),
    Boundary("repro.core.assembler:SchurAssembler.assemble_union", "core", "core.assemble"),
    Boundary("repro.gpu.runtime:Executor.charge", "gpu", None, _count_kernel),
    Boundary("repro.batch.engine:BatchAssembler.schedule", "runtime", "runtime.schedule", _count_pipeline),
    Boundary("repro.feti.solver:FetiSolver.preprocess", "feti", "feti.preprocess", _count_preprocess),
    Boundary("repro.feti.solver:FetiSolver.solve_block", "feti", "feti.solve_block", _count_solve),
    Boundary("repro.feti.operator:GroupedDualOperator.apply_panel", "feti", "feti.apply"),
    Boundary("repro.feti.preconditioner:StackedPreconditioner.apply", "feti", "feti.precond"),
    Boundary("repro.store.store:ArtifactStore.get", "store", "store.get", _count_get),
    Boundary("repro.store.store:ArtifactStore.put", "store", "store.put", _count_put),
    Boundary("repro.store.queue:JobQueue.submit", "store", "store.queue_submit"),
    Boundary("repro.store.queue:JobQueue.claim", "store", "store.queue_claim"),
    Boundary("repro.store.queue:JobQueue.complete", "store", "store.queue_complete"),
    Boundary("repro.store.worker:build_assemble_inputs", "store", "store.input_build"),
    Boundary("repro.store.worker:run_worker", "store", "store.worker", _count_worker),
)

LAYERS = tuple(dict.fromkeys(b.layer for b in BOUNDARIES if b.name is not None))


# --- the recorder ------------------------------------------------------------------


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root
    thread: int


@dataclass
class Recorder:
    """Spans and counts of one traced repetition."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, Any] = field(default_factory=dict)
    main_thread: int = 0
    t_begin: float = 0.0
    t_end: float = 0.0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()

    def begin(self) -> None:
        self.main_thread = threading.get_ident()
        self.t_begin = time.perf_counter()

    def finish(self) -> None:
        self.t_end = time.perf_counter()

    @property
    def wall(self) -> float:
        return self.t_end - self.t_begin

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, boundary: Boundary, fn: Callable, args, kwargs):
        if boundary.name is None:
            result = fn(*args, **kwargs)
        else:
            stack = self._stack()
            span = Span(boundary.name, boundary.layer, 0.0, 0.0,
                        stack[-1] if stack else -1, threading.get_ident())
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
        if boundary.count is not None:
            with self._lock:
                boundary.count(self.counts, args, kwargs, result)
        return result

    # -- aggregation ---------------------------------------------------------

    def _budget_spans(self) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.thread == self.main_thread]

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name over the repetition's own thread."""
        child_time = [0.0] * len(self.spans)
        budget = self._budget_spans()
        for _, span in budget:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for i, span in budget:
            out[span.name] = out.get(span.name, 0.0) + (span.end - span.start) - child_time[i]
        return out

    def inclusive_seconds(self, name: str) -> float:
        return sum(s.end - s.start for _, s in self._budget_spans() if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for _, s in self._budget_spans() if s.name == name)

    def layer_seconds(self) -> dict[str, float]:
        """Self time per layer; every layer present, 0.0 when not called."""
        layer_of = {b.name: b.layer for b in BOUNDARIES if b.name is not None}
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_seconds().items():
            out[layer_of[name]] += seconds
        return out

    def chrome_events(self, pid: int, label: str) -> list[dict]:
        """Complete ('X') trace events, microseconds from ``begin``."""
        events = [{"ph": "M", "pid": pid, "name": "process_name", "args": {"name": label}}]
        for span in self.spans:
            events.append({
                "ph": "X", "pid": pid, "tid": span.thread, "name": span.name,
                "cat": span.layer, "ts": (span.start - self.t_begin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
            })
        return events


def write_chrome_trace(path, recorders: dict[str, Recorder]) -> None:
    """Dump every recorder as one Chrome trace-event JSON (one process each)."""
    events = []
    for pid, (label, recorder) in enumerate(recorders.items(), start=1):
        events.extend(recorder.chrome_events(pid, label))
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# --- install / uninstall -------------------------------------------------------------


class Installed:
    """The patched boundaries; a context manager that restores them on exit.

    ``recorder`` may be swapped between repetitions; the wrappers read it
    at call time.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[Any, str, Any]] = []
        try:
            for boundary in BOUNDARIES:
                self._patch(boundary)
        except BaseException:
            self.uninstall()
            raise

    def _wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self.recorder.call(boundary, fn, args, kwargs)

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, boundary: Boundary) -> None:
        module_name, qualname = boundary.target.split(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            if not inspect.isfunction(original):
                raise TypeError(f"{boundary.target} is not a plain method")
            self._set(owner, attr, self._wrap(boundary, original))
            return
        original = getattr(module, attr)
        if not inspect.isfunction(original):
            raise TypeError(f"{boundary.target} is not a plain function")
        wrapper = self._wrap(boundary, original)
        for name, holder in list(sys.modules.items()):
            if holder is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for alias, value in list(vars(holder).items()):
                if value is original:
                    self._set(holder, alias, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
