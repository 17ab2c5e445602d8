"""In-memory span recorder for the benchmark's traced runs.

A span records name, start, end, the index of the span that was open
when it began (its parent, ``-1`` for a root) and the run id every span
of one sample shares.  Spans stay in memory until the run ends; the
benchmark then writes them out in one file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.run]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        name, start, end, parent, run = row
        return cls(name, float(start), float(end), int(parent), run)


class Recorder:
    """Records nested spans and named counts for one traced sample."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        #: Counts that could not be read, with the reason.
        self.missing: Set[str] = set()
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap and their
    summed durations are exactly the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - covered[index] for index, span in enumerate(spans)]


@dataclass
class NameTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def totals_by_name(spans: List[Span]) -> Dict[str, NameTotals]:
    """Calls, inclusive seconds and self seconds per span name."""
    totals: Dict[str, NameTotals] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, NameTotals())
        entry.calls += 1
        entry.total_s += span.duration
        entry.self_s += own
    return totals


def has_ancestor(spans: List[Span], index: int, names: Iterable[str]) -> bool:
    """Whether some enclosing span of ``spans[index]`` has one of ``names``."""
    wanted = set(names)
    parent: Optional[int] = spans[index].parent
    while parent is not None and parent >= 0:
        if spans[parent].name in wanted:
            return True
        parent = spans[parent].parent
    return False
