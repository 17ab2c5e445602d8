"""Nestable tracing spans on a monotonic clock.

A :class:`Tracer` records a tree of named spans: the study pipeline
opens one span per stage, and inner layers (the parallel classifier,
the campaign runners, the active drivers) open child spans through the
ambient :func:`span` helper without needing a tracer threaded through
every signature.  :meth:`Tracer.stage_timings` gives the flat
stage-name -> seconds mapping from the **top-level spans only**, so
nested work counts once, inside its stage.

Span durations come from ``time.perf_counter`` (monotonic); start
offsets are relative to the tracer's epoch so a serialized span tree
carries no wall-clock timestamps.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed region; ``children`` are the spans opened inside it."""

    name: str
    attrs: Dict[str, object] = field(default_factory=dict)
    #: Seconds since the tracer's epoch when the span opened.
    start_s: float = 0.0
    duration_s: float = 0.0
    children: List["Span"] = field(default_factory=list)
    #: The span body raised (the duration still covers the whole body).
    failed: bool = False

    def self_seconds(self) -> float:
        """Duration not covered by child spans (never negative)."""
        return max(0.0, self.duration_s - sum(c.duration_s for c in self.children))

    def to_dict(self) -> Dict:
        data: Dict[str, object] = {
            "name": self.name,
            "start_s": round(self.start_s, 9),
            "duration_s": round(self.duration_s, 9),
        }
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        if self.failed:
            data["failed"] = True
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "Span":
        return cls(
            name=str(data["name"]),
            attrs=dict(data.get("attrs", {})),
            start_s=float(data.get("start_s", 0.0)),
            duration_s=float(data.get("duration_s", 0.0)),
            children=[cls.from_dict(child) for child in data.get("children", [])],
            failed=bool(data.get("failed", False)),
        )


class Tracer:
    """Builds a span tree; one tracer per run.

    Always-on by design: opening a span costs two ``perf_counter``
    calls, cheap enough that the pipeline records stage timings whether
    or not full telemetry is enabled (so ``StudyResults.stage_timings``
    is always populated).
    """

    def __init__(self, on_stage_exit: Optional[Callable[[Span], None]] = None) -> None:
        self._epoch = time.perf_counter()
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        #: Called with each top-level span as it closes.
        self._on_stage_exit = on_stage_exit

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        node = Span(name=name, attrs=dict(attrs))
        node.start_s = time.perf_counter() - self._epoch
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)
        try:
            yield node
        except BaseException:
            node.failed = True
            raise
        finally:
            node.duration_s = time.perf_counter() - self._epoch - node.start_s
            self._stack.pop()
            if parent is None and self._on_stage_exit is not None:
                self._on_stage_exit(node)

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Install this tracer as the ambient target of :func:`span`."""
        _ACTIVE.append(self)
        try:
            yield self
        finally:
            _ACTIVE.pop()

    # ------------------------------------------------------------------
    # Stage views
    # ------------------------------------------------------------------
    def stage_timings(self) -> Dict[str, float]:
        """Top-level span name -> seconds, in first-seen order.

        Re-entered names accumulate (a stage entered in a loop sums),
        and child spans are excluded: nested work is already inside its
        parent's duration, so counting it again would double-book the
        stage.
        """
        timings: Dict[str, float] = {}
        for root in self.roots:
            timings[root.name] = timings.get(root.name, 0.0) + root.duration_s
        return {name: round(seconds, 6) for name, seconds in timings.items()}

    def stage_calls(self) -> Dict[str, int]:
        """Top-level span name -> number of times it was opened."""
        calls: Dict[str, int] = {}
        for root in self.roots:
            calls[root.name] = calls.get(root.name, 0) + 1
        return calls

    def total(self) -> float:
        return sum(root.duration_s for root in self.roots)

    def to_dicts(self) -> List[Dict]:
        return [root.to_dict() for root in self.roots]

    @staticmethod
    def from_dicts(data: List[Dict]) -> List[Span]:
        return [Span.from_dict(item) for item in data]


class NullSpan:
    """Context manager returned by :func:`span` with no tracer active."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = NullSpan()

#: Stack of active tracers; :func:`span` targets the innermost one.
_ACTIVE: List[Tracer] = []


def current_tracer() -> Optional[Tracer]:
    return _ACTIVE[-1] if _ACTIVE else None


def span(name: str, **attrs: object):
    """Open a span on the ambient tracer (no-op when none is active).

    This is how inner layers instrument themselves without threading a
    tracer through every call signature: under ``Study.run`` their
    spans nest into the study's span tree; called standalone they cost
    one list lookup.
    """
    tracer = current_tracer()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def flatten(spans: List[Span]) -> List[Span]:
    """Every span in the tree, depth-first pre-order."""
    out: List[Span] = []
    stack = list(reversed(spans))
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.children))
    return out
