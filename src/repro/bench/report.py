"""Benchmark result collection and emission.

Every experiment driver returns an :class:`ExperimentResult` holding the
paper-style series tables; the benchmark scripts print them and persist them
under ``benchmarks/results/`` so runs can be diffed (``cmp``) and quoted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.util import Table, atomic_write_text, format_series


@dataclass
class ExperimentResult:
    """Structured output of one table/figure reproduction."""

    experiment_id: str  # e.g. "fig07"
    title: str
    tables: list[tuple[str, str]] = field(default_factory=list)  # (name, rendered)
    notes: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)  # headline numbers

    def add_series(self, name, x_label, x_values, series) -> None:
        self.tables.append(
            (name, format_series(x_label, x_values, series, title=name))
        )

    def add_table(self, name: str, table: Table) -> None:
        self.tables.append((name, table.render()))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} =="]
        for _, rendered in self.tables:
            parts.append(rendered)
            parts.append("")
        if self.metrics:
            parts.append("headline metrics:")
            for k, v in self.metrics.items():
                parts.append(f"  {k} = {v:.4g}")
            parts.append("")
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def save(self, directory: str) -> str:
        path = os.path.join(directory, f"{self.experiment_id}.txt")
        return atomic_write_text(path, self.render() + "\n")


def results_dir() -> str:
    """Default directory for persisted benchmark tables."""
    return os.environ.get(
        "REPRO_RESULTS_DIR",
        os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))), "benchmarks", "results"),
    )


__all__ = ["ExperimentResult", "results_dir"]
