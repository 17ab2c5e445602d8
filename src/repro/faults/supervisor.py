"""Supervision primitives for active control-plane experiments.

The passive campaign can shrug off a lost measurement; an active
experiment cannot shrug off a control plane that is actively failing —
every announcement costs real convergence time and pollutes routing
state for everyone downstream.  :class:`CircuitBreaker` bounds the
damage: a classic closed/open/half-open breaker over announcement
operations.  Consecutive failures open it; while open, operations are
rejected (the caller quarantines the current target instead of
hammering a broken substrate); after a cooldown one probe operation is
allowed through, and its outcome decides whether the breaker closes
again.

The breaker is deterministic: it advances on operation counts (not
wall clock) and serializes its full state to/from JSON, so a resumed
run restores the exact breaker the killed run left behind.  The faults
it counts — every active-phase fault, mux session resets and lost
withdrawals included — are drawn and retried by
:class:`repro.peering.experiments.ActiveSupervisor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.faults.errors import BreakerOpen
from repro.obs.context import publish
from repro.obs.events import CATEGORY_BREAKER

#: Breaker state names.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass
class BreakerStats:
    """Lifetime counters, independent of current breaker state."""

    successes: int = 0
    failures: int = 0
    trips: int = 0
    rejected: int = 0
    half_open_probes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "successes": self.successes,
            "failures": self.failures,
            "trips": self.trips,
            "rejected": self.rejected,
            "half_open_probes": self.half_open_probes,
        }


class CircuitBreaker:
    """Count-driven circuit breaker with full state serialization.

    ``failure_threshold`` consecutive failures trip the breaker open.
    While open, :meth:`allow` returns ``False`` for the next
    ``cooldown`` operations (each rejected operation counts down the
    cooldown — the analogue of elapsed time in a system with no
    clock), then the breaker goes half-open: one operation is let
    through as a probe.  Its success closes the breaker; its failure
    re-opens it for another full cooldown.
    """

    def __init__(self, failure_threshold: int = 3, cooldown: int = 4) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown < 1:
            raise ValueError(f"cooldown must be >= 1, got {cooldown}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.state = CLOSED
        self.consecutive_failures = 0
        self.cooldown_left = 0
        self.stats = BreakerStats()

    # ------------------------------------------------------------------
    # Operation protocol
    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether the next operation may proceed.

        Must be paired with exactly one :meth:`record_success` /
        :meth:`record_failure` when it returns ``True``.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            self.stats.rejected += 1
            self.cooldown_left -= 1
            if self.cooldown_left <= 0:
                self.state = HALF_OPEN
                publish(CATEGORY_BREAKER, "half_open")
            return False
        # Half-open: admit one probe operation.
        self.stats.half_open_probes += 1
        return True

    def check(self, operation: str = "operation") -> None:
        """Raise :class:`BreakerOpen` instead of returning ``False``."""
        if not self.allow():
            raise BreakerOpen(
                f"circuit breaker open; rejecting {operation} "
                f"(cooldown {max(self.cooldown_left, 0)} operation(s) left)"
            )

    def record_success(self) -> None:
        self.stats.successes += 1
        self.consecutive_failures = 0
        if self.state != CLOSED:
            publish(CATEGORY_BREAKER, "closed")
        self.state = CLOSED

    def record_failure(self) -> None:
        self.stats.failures += 1
        if self.state == HALF_OPEN:
            self._trip()
            return
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self.stats.trips += 1
        self.state = OPEN
        self.cooldown_left = self.cooldown
        self.consecutive_failures = 0
        publish(CATEGORY_BREAKER, "open", trips=self.stats.trips)

    # ------------------------------------------------------------------
    # Serialization (checkpoint/resume)
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict:
        return {
            "failure_threshold": self.failure_threshold,
            "cooldown": self.cooldown,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "cooldown_left": self.cooldown_left,
            "stats": self.stats.as_dict(),
        }

    def restore(self, data: Dict) -> None:
        """Overwrite this breaker's state with a journaled snapshot."""
        state = data.get("state", CLOSED)
        if state not in (CLOSED, OPEN, HALF_OPEN):
            raise ValueError(f"unknown breaker state {state!r}")
        self.state = state
        self.consecutive_failures = int(data.get("consecutive_failures", 0))
        self.cooldown_left = int(data.get("cooldown_left", 0))
        stats = data.get("stats", {})
        self.stats = BreakerStats(
            successes=int(stats.get("successes", 0)),
            failures=int(stats.get("failures", 0)),
            trips=int(stats.get("trips", 0)),
            rejected=int(stats.get("rejected", 0)),
            half_open_probes=int(stats.get("half_open_probes", 0)),
        )
