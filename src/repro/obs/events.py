"""Typed event stream for run-level accounting.

Everything that used to be ad-hoc logging — retry attempts, circuit
breaker transitions, fault-plan firings, quarantine decisions, BGP
convergence epochs — publishes a typed
:class:`Event` into one :class:`EventStream` per run.  The stream is
what lands in the :class:`~repro.obs.manifest.RunManifest`, so "which
faults fired during run X" has a single answer.

Determinism contract: events carry a sequence number and logical
attributes only, never wall-clock timestamps — two runs with identical
inputs publish identical event logs, and publishing consumes no
randomness, so enabling telemetry cannot perturb a seeded study.

The stream keeps the first ``max_events`` events verbatim and counts
the rest (``dropped``, plus the always-complete per-type ``counts``
table), bounding memory on pathological runs without losing the
aggregate accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Event categories used across the study (free-form, these are the
#: conventional ones).
CATEGORY_RETRY = "retry"
CATEGORY_BREAKER = "breaker"
CATEGORY_FAULT = "fault"
CATEGORY_QUARANTINE = "quarantine"
CATEGORY_BGP = "bgp"
CATEGORY_CAMPAIGN = "campaign"
CATEGORY_ACTIVE = "active"

DEFAULT_MAX_EVENTS = 10000


@dataclass(frozen=True)
class Event:
    """One published event."""

    seq: int
    category: str
    name: str
    attrs: Tuple[Tuple[str, object], ...] = ()

    @property
    def type_key(self) -> str:
        return f"{self.category}:{self.name}"

    def attr(self, name: str, default=None):
        for key, value in self.attrs:
            if key == name:
                return value
        return default

    def to_dict(self) -> Dict:
        data: Dict[str, object] = {
            "seq": self.seq,
            "category": self.category,
            "name": self.name,
        }
        if self.attrs:
            data["attrs"] = {key: value for key, value in self.attrs}
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "Event":
        return cls(
            seq=int(data["seq"]),
            category=str(data["category"]),
            name=str(data["name"]),
            attrs=tuple(sorted(dict(data.get("attrs", {})).items())),
        )


class EventStream:
    """Bounded, append-only stream of typed events."""

    def __init__(
        self, enabled: bool = True, max_events: int = DEFAULT_MAX_EVENTS
    ) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.enabled = enabled
        self.max_events = max_events
        self.events: List[Event] = []
        #: ``category:name`` -> count; complete even past the cap.
        self.counts: Dict[str, int] = {}
        self.dropped = 0
        self._seq = 0

    def publish(
        self, category: str, name: str, /, **attrs: object
    ) -> Optional[Event]:
        """Record one event; returns it (or ``None`` when disabled).

        ``category`` and ``name`` are positional-only so attrs may
        themselves be called ``name`` (e.g. a DNS name).
        """
        if not self.enabled:
            return None
        event = Event(
            seq=self._seq,
            category=category,
            name=name,
            attrs=tuple(sorted(attrs.items())),
        )
        self._seq += 1
        key = event.type_key
        self.counts[key] = self.counts.get(key, 0) + 1
        if len(self.events) < self.max_events:
            self.events.append(event)
        else:
            self.dropped += 1
        return event

    def __len__(self) -> int:
        return len(self.events)

    def of_category(self, category: str) -> List[Event]:
        return [event for event in self.events if event.category == category]

    def count(self, category: str, name: str) -> int:
        return self.counts.get(f"{category}:{name}", 0)

    def to_dicts(self) -> List[Dict]:
        return [event.to_dict() for event in self.events]

    @staticmethod
    def from_dicts(data: List[Dict]) -> List[Event]:
        return [Event.from_dict(item) for item in data]
