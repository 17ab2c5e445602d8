"""Seeded retry with exponential backoff and full jitter.

The campaign runner wraps every fallible measurement step in a
:class:`RetryPolicy`.  Delays follow AWS-style full jitter
(``uniform(0, min(cap, base * multiplier^(attempt-1)))``) but elapse on
a *virtual* clock: the simulation never sleeps, it only accounts the
time a real campaign would have waited, and enforces the per-attempt
timeout and overall deadline against that clock.

Jitter randomness is derived per ``(policy seed, call key)`` — not from
a shared sequential stream — so a resumed campaign retries the
remaining work exactly as an uninterrupted run would have.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from repro.faults.errors import FaultError, RetryExhausted
from repro.faults.plan import derive_seed
from repro.obs.context import publish
from repro.obs.events import CATEGORY_RETRY


@dataclass
class RetryStats:
    """Attempt/exhaustion counters, aggregated across a campaign."""

    calls: int = 0
    attempts: int = 0
    retries: int = 0
    succeeded_after_retry: int = 0
    exhausted: int = 0
    #: Simulated seconds spent waiting in backoff + timed-out attempts.
    simulated_wait_s: float = 0.0
    #: Retries per fault site, e.g. ``{"atlas/dns": 12}``.
    retries_by_site: Dict[str, int] = field(default_factory=dict)
    #: Exhaustions per fault reason, e.g. ``{"dns-servfail": 3}``.
    exhausted_by_reason: Dict[str, int] = field(default_factory=dict)

    def record_retry(self, error: FaultError) -> None:
        self.retries += 1
        self.retries_by_site[error.site] = self.retries_by_site.get(error.site, 0) + 1

    def record_exhaustion(self, error: FaultError) -> None:
        self.exhausted += 1
        self.exhausted_by_reason[error.reason] = (
            self.exhausted_by_reason.get(error.reason, 0) + 1
        )

    def merge(self, other: "RetryStats") -> None:
        self.calls += other.calls
        self.attempts += other.attempts
        self.retries += other.retries
        self.succeeded_after_retry += other.succeeded_after_retry
        self.exhausted += other.exhausted
        self.simulated_wait_s += other.simulated_wait_s
        for site, count in other.retries_by_site.items():
            self.retries_by_site[site] = self.retries_by_site.get(site, 0) + count
        for reason, count in other.exhausted_by_reason.items():
            self.exhausted_by_reason[reason] = (
                self.exhausted_by_reason.get(reason, 0) + count
            )

    def as_dict(self) -> Dict:
        return {
            "calls": self.calls,
            "attempts": self.attempts,
            "retries": self.retries,
            "succeeded_after_retry": self.succeeded_after_retry,
            "exhausted": self.exhausted,
            "simulated_wait_s": round(self.simulated_wait_s, 3),
            "retries_by_site": dict(sorted(self.retries_by_site.items())),
            "exhausted_by_reason": dict(sorted(self.exhausted_by_reason.items())),
        }


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter on a virtual clock."""

    max_attempts: int = 4
    base_delay_s: float = 0.5
    max_delay_s: float = 30.0
    multiplier: float = 2.0
    #: Virtual cost charged for every failed attempt (models the
    #: per-attempt timeout a real client would wait out).
    attempt_timeout_s: float = 5.0
    #: Overall virtual deadline; ``None`` disables it.
    deadline_s: Optional[float] = 300.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Full-jitter delay before attempt ``attempt + 1``."""
        cap = min(self.max_delay_s, self.base_delay_s * self.multiplier ** (attempt - 1))
        return rng.uniform(0.0, cap)

    def execute(
        self,
        fn: Callable[[int], object],
        *,
        key: Tuple[Union[int, str], ...] = (),
        stats: Optional[RetryStats] = None,
    ):
        """Run ``fn(attempt_number)`` with retries on retryable faults.

        Non-retryable :class:`FaultError`\\ s propagate immediately;
        retryable ones are re-attempted until ``max_attempts`` or the
        virtual ``deadline_s`` runs out, at which point a
        :class:`RetryExhausted` wrapping the last error is raised.
        """
        stats = stats if stats is not None else RetryStats()
        stats.calls += 1
        # Seeded at the first retryable failure, the first draw: most
        # calls never fail, and seeding costs more than the call.
        rng: Optional[random.Random] = None
        elapsed = 0.0
        attempt = 0
        while True:
            attempt += 1
            stats.attempts += 1
            try:
                result = fn(attempt)
            except FaultError as error:
                if not error.retryable:
                    raise
                elapsed += self.attempt_timeout_s
                if rng is None:
                    rng = random.Random(derive_seed(self.seed, "retry", *key))
                delay = self.backoff(attempt, rng)
                out_of_attempts = attempt >= self.max_attempts
                out_of_time = (
                    self.deadline_s is not None and elapsed + delay > self.deadline_s
                )
                if out_of_attempts or out_of_time:
                    stats.simulated_wait_s += elapsed
                    stats.record_exhaustion(error)
                    limit = "deadline" if out_of_time and not out_of_attempts else "attempts"
                    publish(
                        CATEGORY_RETRY,
                        "exhausted",
                        site=error.site,
                        reason=error.reason,
                        attempts=attempt,
                        limit=limit,
                    )
                    raise RetryExhausted(
                        f"gave up after {attempt} attempt(s) ({limit} exhausted): {error}",
                        last_error=error,
                        attempts=attempt,
                    ) from error
                stats.record_retry(error)
                publish(
                    CATEGORY_RETRY,
                    "attempt",
                    site=error.site,
                    reason=error.reason,
                    attempt=attempt,
                )
                elapsed += delay
            else:
                stats.simulated_wait_s += elapsed
                if attempt > 1:
                    stats.succeeded_after_retry += 1
                return result
