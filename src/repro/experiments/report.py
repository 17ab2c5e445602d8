"""Experiment report rendering.

An :class:`ExperimentReport` carries the rows of one regenerated table
or figure alongside the paper's published values and renders them in a
fixed-width layout that benchmark runs print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class Row:
    """One table row: a label, the paper's value, and ours."""

    label: str
    paper: Optional[float]
    measured: Optional[float]
    unit: str = "%"

    def _format(self, value: Optional[float]) -> str:
        if value is None:
            return "-"
        return f"{value:.1f}{self.unit}"

    def render(self, label_width: int) -> str:
        return (
            f"  {self.label:<{label_width}}  paper={self._format(self.paper):>8}"
            f"  measured={self._format(self.measured):>8}"
        )


@dataclass
class ExperimentReport:
    """A regenerated table/figure with paper-vs-measured rows."""

    experiment_id: str
    title: str
    rows: List[Row] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, label: str, paper: Optional[float], measured: Optional[float], unit: str = "%") -> None:
        self.rows.append(Row(label=label, paper=paper, measured=measured, unit=unit))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        width = max((len(row.label) for row in self.rows), default=10)
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.extend(row.render(width) for row in self.rows)
        lines.extend(f"  note: {text}" for text in self.notes)
        return "\n".join(lines)

    def measured_by_label(self) -> dict:
        return {row.label: row.measured for row in self.rows}

    def __str__(self) -> str:
        return self.render()
