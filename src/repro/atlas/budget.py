"""Measurement-credit accounting (RIPE Atlas style).

The paper works inside platform limits twice: "We used maximum probing
rate allowed by RIPE Atlas" (Section 3.1) and "the maximum number of
RIPE Atlas probes allowed within daily probing budget limits" (Section
3.2).  This module models the credit system those limits come from:
measurements debit a ledger, and a campaign can be capped by budget
rather than by measurement count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Credit costs per measurement type, mirroring Atlas pricing shape.
DEFAULT_COSTS = {
    "traceroute": 60,
    "dns": 10,
    "ping": 10,
}


class BudgetExceeded(RuntimeError):
    """A measurement was requested beyond the remaining budget."""


@dataclass
class CreditLedger:
    """Tracks spending against a daily credit budget."""

    daily_budget: int
    costs: Dict[str, int] = field(default_factory=lambda: dict(DEFAULT_COSTS))
    spent: int = 0
    #: (measurement type, count) history for reporting.
    history: List[Tuple[str, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.daily_budget < 0:
            raise ValueError("budget must be non-negative")
        # charge() is check-then-act; the lock makes the check and the
        # debit one step, so no interleaving of charges can overdraw
        # the ledger.
        self._lock = threading.Lock()

    def __getstate__(self) -> Dict:
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def cost_of(self, measurement_type: str, count: int = 1) -> int:
        try:
            unit = self.costs[measurement_type]
        except KeyError:
            raise ValueError(f"unknown measurement type {measurement_type!r}") from None
        return unit * count

    @property
    def remaining(self) -> int:
        return max(0, self.daily_budget - self.spent)

    def can_afford(self, measurement_type: str, count: int = 1) -> bool:
        return self.cost_of(measurement_type, count) <= self.remaining

    def charge(self, measurement_type: str, count: int = 1) -> int:
        """Debit the ledger; raises :class:`BudgetExceeded` if short.

        Atomic under concurrent spenders: the affordability check and
        the debit happen under one lock, so the ledger can never be
        driven past ``daily_budget`` by interleaved charges.
        """
        cost = self.cost_of(measurement_type, count)
        with self._lock:
            if cost > self.remaining:
                raise BudgetExceeded(
                    f"{measurement_type} x{count} costs {cost}, "
                    f"only {self.remaining} credits left"
                )
            self.spent += cost
            self.history.append((measurement_type, count))
        return cost

    def max_affordable(self, measurement_type: str) -> int:
        """How many measurements of this type the remaining budget buys."""
        unit = self.costs.get(measurement_type)
        if unit is None:
            raise ValueError(f"unknown measurement type {measurement_type!r}")
        if unit == 0:
            raise ValueError("zero-cost measurements are unmetered")
        return self.remaining // unit


def plan_campaign(
    ledger: CreditLedger, num_probes: int, num_targets: int
) -> Tuple[int, int]:
    """How much of a (probes x targets) campaign the budget allows.

    Each (probe, target) pair costs one DNS lookup plus one traceroute.
    Returns ``(probes_covered, measurements)`` under the policy the
    paper uses: keep every target and drop probes (coverage of targets
    matters more than probe count).
    """
    if num_probes < 0 or num_targets < 0:
        raise ValueError("counts must be non-negative")
    if num_targets == 0 or num_probes == 0:
        return 0, 0
    pair_cost = ledger.cost_of("dns") + ledger.cost_of("traceroute")
    affordable_pairs = ledger.remaining // pair_cost
    probes_covered = min(num_probes, affordable_pairs // num_targets)
    return probes_covered, probes_covered * num_targets
