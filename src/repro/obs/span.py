"""Nested, thread-aware tracing spans with a no-op fast path.

The span model (documented in ``docs/observability.md``):

* A :class:`Span` is one timed region with a name, attributes, exact wall
  time (``perf_counter`` relative to the tracer's epoch) and CPU time
  (``thread_time``).  Spans opened with ``with tracer.span("name"): ...``
  nest per thread — each thread keeps its own stack, so parentage is always
  consistent within a thread and worker-pool threads get their own top-level
  tracks.
* *Virtual* spans (:meth:`Tracer.add_span`) carry explicit timestamps on an
  explicit track — how :class:`repro.gpu.runtime.Executor` places every
  priced kernel on its simulated-device timeline (simulated seconds, one
  track per executor).
* The process-global default tracer is **disabled**: ``tracer.span(...)``
  then returns a shared do-nothing context manager, so instrumented hot
  loops cost one attribute check when tracing is off (the <2% overhead
  bound asserted in ``tests/test_obs.py``).  Enable collection with
  :func:`tracing` (scoped) or :func:`set_tracer`.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro.obs.context import TraceContext, new_trace_id, process_tag
from repro.obs.metrics import MetricsRegistry


@dataclass
class Span:
    """One finished timed region.

    ``start``/``end`` are seconds relative to the tracer epoch for host
    spans, simulated seconds for virtual device spans; ``cpu`` is the
    thread-CPU time consumed (0.0 for virtual spans); ``track`` identifies
    the timeline (``host:<n>`` per thread, ``sim:...`` per executor).
    """

    name: str
    span_id: int
    parent_id: int | None
    track: str
    start: float
    end: float
    cpu: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NoopSpan:
    """Shared do-nothing context manager — the tracing-off fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """Context manager recording one span on the current thread's stack."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "start", "_cpu0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = next(tracer._ids)
        self.parent_id: int | None = None
        self.start = 0.0
        self._cpu0 = 0.0

    def set(self, **attrs) -> "_LiveSpan":
        """Attach attributes from inside the ``with`` block."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_LiveSpan":
        stack = self._tracer._stack()
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        self._cpu0 = time.thread_time()
        self.start = self._tracer.now()  # last: exclude setup from the span
        return self

    def __exit__(self, *exc) -> bool:
        end = self._tracer.now()
        cpu = time.thread_time() - self._cpu0
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - misuse (exit out of order)
            try:
                stack.remove(self)
            except ValueError:
                pass
        self._tracer._record(
            Span(
                name=self.name,
                span_id=self.span_id,
                parent_id=self.parent_id,
                track=self._tracer._host_track(),
                start=self.start,
                end=end,
                cpu=cpu,
                attrs=self.attrs,
            )
        )
        return False


@dataclass
class Trace:
    """A handle on collected spans + metrics (what ``BatchResult.trace``
    returns and what the exporters consume).

    ``meta`` carries the trace's cross-process identity and clock anchor
    (``trace_id``, ``epoch_unix``, optionally ``worker``) — everything
    :mod:`repro.obs.fleet` needs to stitch per-process traces together.
    """

    spans: list[Span]
    metrics: MetricsRegistry
    meta: dict = field(default_factory=dict)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, *names: str) -> float:
        """Summed inclusive seconds of every span carrying one of *names*."""
        wanted = set(names)
        return sum(s.duration for s in self.spans if s.name in wanted)

    def tracks(self) -> list[str]:
        seen: dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.track)
        return list(seen)

    def to_chrome(self) -> dict:
        from repro.obs.export import chrome_trace

        return chrome_trace(self.spans, metrics=self.metrics, meta=self.meta)

    def save(self, path) -> str:
        from repro.obs.export import write_chrome_trace

        return write_chrome_trace(
            path, self.spans, metrics=self.metrics, meta=self.meta
        )

    def tree(self):
        from repro.obs.render import phase_tree

        return phase_tree(self.spans)

    def render(self, max_depth: int | None = None) -> str:
        from repro.obs.render import render_phase_tree

        return render_phase_tree(self.tree(), max_depth=max_depth)


class Tracer:
    """Collects spans from any number of threads plus a metrics registry.

    One tracer is one trace: the epoch is fixed at construction, every host
    thread that opens a span gets its own ``host:<n>`` track, and virtual
    (simulated-device) spans land on whatever track their producer names.
    ``enabled`` is the single switch the no-op fast path checks.
    """

    def __init__(self, enabled: bool = True, trace_id: str | None = None) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.epoch = time.perf_counter()
        #: Wall-clock instant of the epoch — the anchor the fleet merge
        #: uses to align traces recorded on different monotonic clocks.
        self.epoch_unix = time.time()
        #: Fleet-wide trace id; inherited via *trace_id* when this tracer
        #: continues a trace started elsewhere (a worker process).
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        #: Span-id namespace tag, unique per tracer across processes.
        self.tag = process_tag()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._local = threading.local()
        self._tracks: dict[int, str] = {}

    # -- time --------------------------------------------------------------

    def now(self) -> float:
        """Seconds since this tracer's epoch."""
        return time.perf_counter() - self.epoch

    # -- span creation -----------------------------------------------------

    def span(self, name: str, **attrs):
        """Open a nested span (context manager) on the calling thread.

        With tracing disabled this returns the shared no-op context manager
        without allocating anything.
        """
        if not self.enabled:
            return NOOP_SPAN
        return _LiveSpan(self, name, attrs)

    def count(self, name: str, value: float = 1.0) -> None:
        """Add *value* to counter *name*; nothing is recorded while disabled."""
        if self.enabled:
            self.metrics.count(name, value)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        track: str,
        parent_id: int | None = None,
        **attrs,
    ) -> None:
        """Record a span with explicit timestamps on an explicit *track*.

        This is the simulated-device path: timestamps are whatever timeline
        the producer keeps (e.g. :class:`~repro.gpu.costmodel.CostLedger`
        simulated seconds), not the tracer's wall clock.
        """
        if not self.enabled:
            return
        self._record(
            Span(
                name=name,
                span_id=next(self._ids),
                parent_id=parent_id,
                track=track,
                start=start,
                end=end,
                attrs=attrs,
            )
        )

    # -- cross-process context ---------------------------------------------

    def current_context(self) -> TraceContext:
        """The portable context of the calling thread's innermost open span.

        With no span open (or tracing disabled) the context still carries
        this tracer's ``trace_id``, just without a parent span — follow-up
        work stays on the same fleet trace either way.
        """
        stack = getattr(self._local, "stack", None) if self.enabled else None
        if not stack:
            return TraceContext(trace_id=self.trace_id)
        return TraceContext(
            trace_id=self.trace_id, span_id=f"{self.tag}:{stack[-1].span_id}"
        )

    def meta(self, **extra) -> dict:
        """Identity + clock-anchor metadata embedded in exported traces
        (``otherData``) so :mod:`repro.obs.fleet` can merge them."""
        out = {
            "trace_id": self.trace_id,
            "tag": self.tag,
            "epoch_unix": self.epoch_unix,
        }
        out.update({k: v for k, v in extra.items() if v is not None})
        return out

    # -- collection --------------------------------------------------------

    def mark(self) -> int:
        """Current span count — pass to :meth:`trace` to scope a window."""
        with self._lock:
            return len(self._spans)

    def spans(self, since: int = 0) -> list[Span]:
        with self._lock:
            return list(self._spans[since:])

    def trace(self, since: int = 0, **meta_extra) -> Trace:
        """Snapshot the spans recorded since *since* (a :meth:`mark`)."""
        return Trace(
            spans=self.spans(since),
            metrics=self.metrics,
            meta=self.meta(**meta_extra),
        )

    # -- internals ---------------------------------------------------------

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def _stack(self) -> list[_LiveSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _host_track(self) -> str:
        ident = threading.get_ident()
        track = self._tracks.get(ident)
        if track is None:
            with self._lock:
                track = self._tracks.setdefault(ident, f"host:{len(self._tracks)}")
        return track


#: Process-global default: tracing off, spans are no-ops.
_DEFAULT_TRACER = Tracer(enabled=False)
_current_tracer: Tracer = _DEFAULT_TRACER


def get_tracer() -> Tracer:
    """The process-global current tracer (disabled unless installed)."""
    return _current_tracer


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install *tracer* globally (``None`` restores the disabled default);
    returns the previously installed tracer."""
    global _current_tracer
    previous = _current_tracer
    _current_tracer = tracer if tracer is not None else _DEFAULT_TRACER
    return previous


@contextmanager
def tracing(tracer: Tracer | None = None):
    """Scoped tracing: install a fresh enabled tracer, restore on exit.

    >>> with tracing() as tr:
    ...     engine.assemble_batch(items)
    >>> tr.trace().save("out.json")
    """
    t = tracer if tracer is not None else Tracer(enabled=True)
    previous = set_tracer(t)
    try:
        yield t
    finally:
        set_tracer(previous)


__all__ = [
    "Span",
    "Trace",
    "TraceContext",
    "Tracer",
    "NOOP_SPAN",
    "get_tracer",
    "set_tracer",
    "tracing",
]
