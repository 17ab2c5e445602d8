"""Experiment scheduling under real announcement constraints.

The paper obeys a timing rule the live Internet imposes: "We change
announcements at most once per 90 minutes to allow for route
convergence and avoid route flap dampening".  Instantaneous simulation
hides this cost; this module computes the wall-clock calendar a
discovery campaign would occupy on the real testbed — which is why the
paper's experiments span Feb 25 to Apr 27.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

#: The paper's announcement spacing (route-flap-dampening guard).
ANNOUNCEMENT_SPACING_MINUTES = 90


@dataclass(frozen=True)
class ScheduledAnnouncement:
    """One announcement slot on the calendar."""

    minute: int
    description: str


@dataclass
class ExperimentSchedule:
    """A wall-clock calendar of announcement events."""

    spacing_minutes: int = ANNOUNCEMENT_SPACING_MINUTES
    events: List[ScheduledAnnouncement] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.spacing_minutes <= 0:
            raise ValueError("spacing must be positive")

    def add(self, description: str) -> ScheduledAnnouncement:
        """Append the next announcement at the earliest legal minute."""
        minute = 0 if not self.events else self.events[-1].minute + self.spacing_minutes
        event = ScheduledAnnouncement(minute=minute, description=description)
        self.events.append(event)
        return event

    @property
    def total_minutes(self) -> int:
        return 0 if not self.events else self.events[-1].minute + self.spacing_minutes

    @property
    def total_days(self) -> float:
        return self.total_minutes / (60 * 24)


def schedule_discovery(
    num_announcements: int, spacing_minutes: int = ANNOUNCEMENT_SPACING_MINUTES
) -> ExperimentSchedule:
    """Calendar for an alternate-route discovery campaign.

    Each distinct poisoned announcement occupies one slot.
    """
    if num_announcements < 0:
        raise ValueError("announcement count must be non-negative")
    schedule = ExperimentSchedule(spacing_minutes=spacing_minutes)
    for index in range(num_announcements):
        schedule.add(f"poisoned announcement {index + 1}")
    return schedule
