"""Terminal rendering: phase-breakdown trees.

:func:`phase_tree` aggregates spans into a tree keyed by span-name path
(spans with the same name under the same parent path merge into one node
with a count), and :func:`render_phase_tree` prints it with inclusive
wall / CPU time per phase — the ``python -m repro trace`` report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.span import Span
from repro.util import format_si


@dataclass
class PhaseNode:
    """One aggregated phase: all spans sharing a name path."""

    name: str
    count: int = 0
    inclusive: float = 0.0
    cpu: float = 0.0
    children: dict[str, "PhaseNode"] = field(default_factory=dict)

    @property
    def self_seconds(self) -> float:
        """Inclusive time not covered by child phases (clamped at 0: child
        spans on other threads can overlap their parent phase)."""
        return max(0.0, self.inclusive - sum(c.inclusive for c in self.children.values()))

    def walk(self, depth: int = 0):
        """Yield ``(node, depth)`` pairs, children by descending inclusive."""
        yield self, depth
        for child in sorted(
            self.children.values(), key=lambda c: -c.inclusive
        ):
            yield from child.walk(depth + 1)


def phase_tree(spans: list[Span]) -> PhaseNode:
    """Aggregate *spans* into a phase tree under a synthetic ``total`` root.

    Spans without a recorded parent (main-thread roots, worker-thread
    top-level spans, simulated-device kernels) become children of the root;
    the root's inclusive time sums only those, so phases running on
    parallel tracks appear side by side rather than double-counted under
    one another.
    """
    by_id = {s.span_id: s for s in spans}
    root = PhaseNode(name="total")
    for s in spans:
        path = [s.name]
        parent = by_id.get(s.parent_id) if s.parent_id is not None else None
        while parent is not None:
            path.append(parent.name)
            parent = (
                by_id.get(parent.parent_id) if parent.parent_id is not None else None
            )
        node = root
        for name in reversed(path):
            node = node.children.setdefault(name, PhaseNode(name=name))
        node.count += 1
        node.inclusive += s.duration
        node.cpu += s.cpu
        if s.parent_id is None or s.parent_id not in by_id:
            root.count += 1
            root.inclusive += s.duration
            root.cpu += s.cpu
    return root


def render_phase_tree(root: PhaseNode, max_depth: int | None = None) -> str:
    """ASCII tree of phases with inclusive wall and CPU time."""
    lines = [f"{'phase':44s} {'count':>6s} {'inclusive':>11s} {'cpu':>11s}"]
    for node, depth in root.walk():
        if max_depth is not None and depth > max_depth:
            continue
        label = ("  " * depth + node.name)[:44]
        lines.append(
            f"{label:44s} {node.count:6d} "
            f"{format_si(node.inclusive, 's'):>11s} {format_si(node.cpu, 's'):>11s}"
        )
    return "\n".join(lines)


def top_phases(spans: list[Span], n: int = 3) -> list[tuple[str, float, int]]:
    """Top *n* phases by summed inclusive time: ``(name, seconds, count)``.

    Aggregates across the whole trace by span name (tracks and nesting
    ignored) — the CI job-summary view.
    """
    totals: dict[str, tuple[float, int]] = {}
    for s in spans:
        sec, count = totals.get(s.name, (0.0, 0))
        totals[s.name] = (sec + s.duration, count + 1)
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][0])
    return [(name, sec, count) for name, (sec, count) in ranked[:n]]


__all__ = [
    "PhaseNode",
    "phase_tree",
    "render_phase_tree",
    "top_phases",
]
