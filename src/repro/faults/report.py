"""Robustness accounting for fault-injected campaigns.

The report answers "where did every measurement go?": each attempted
(probe, dns-name) pair ends in exactly one disposition, so

``completed + degraded + quarantined + lost == total_pairs``

where ``total_pairs`` is what a fault-free campaign with the same seed
would have measured.  Per-destination-AS expected/observed counts show
which ASes lost coverage, and the embedded :class:`RetryStats` shows
how hard the campaign had to fight for what it kept.

:class:`ActiveRobustnessReport` is the control-plane mirror of the
same idea for the Section 3.2/4.4 active experiments: every discovery
target ends in exactly one of completed / censored / quarantined, and
every magnet round likewise, so partial data is visible instead of
silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.faults.retry import RetryStats
from repro.faults.supervisor import BreakerStats

@dataclass
class RobustnessReport:
    """Full accounting of one campaign under faults."""

    #: (probe, name) pairs a fault-free run would have measured.
    total_pairs: int = 0
    #: Pairs that produced a clean, usable measurement.
    completed: int = 0
    #: Pairs that produced a measurement of degraded value (reason -> n),
    #: e.g. truncated or looping traceroutes.
    degraded: Dict[str, int] = field(default_factory=dict)
    #: Pairs whose result document was malformed (reason -> n).
    quarantined: Dict[str, int] = field(default_factory=dict)
    #: Pairs that produced nothing at all (reason -> n).
    lost: Dict[str, int] = field(default_factory=dict)
    #: Pairs restored from the checkpoint journal instead of re-run.
    resumed_pairs: int = 0
    retry: RetryStats = field(default_factory=RetryStats)
    #: Fault-free measurements per destination AS.
    per_as_expected: Dict[int, int] = field(default_factory=dict)
    #: Clean measurements per destination AS under faults.
    per_as_observed: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def expect(self, destination_asn: int) -> None:
        self.total_pairs += 1
        self.per_as_expected[destination_asn] = (
            self.per_as_expected.get(destination_asn, 0) + 1
        )

    def record_completed(self, destination_asn: int) -> None:
        self.completed += 1
        self.per_as_observed[destination_asn] = (
            self.per_as_observed.get(destination_asn, 0) + 1
        )

    def record_degraded(self, reason: str) -> None:
        self.degraded[reason] = self.degraded.get(reason, 0) + 1

    def record_quarantined(self, reason: str) -> None:
        self.quarantined[reason] = self.quarantined.get(reason, 0) + 1

    def record_lost(self, reason: str) -> None:
        self.lost[reason] = self.lost.get(reason, 0) + 1

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def degraded_total(self) -> int:
        return sum(self.degraded.values())

    def quarantined_total(self) -> int:
        return sum(self.quarantined.values())

    def lost_total(self) -> int:
        return sum(self.lost.values())

    def accounted(self) -> bool:
        """Every expected pair ended in exactly one disposition."""
        return (
            self.completed
            + self.degraded_total()
            + self.quarantined_total()
            + self.lost_total()
            == self.total_pairs
        )

    def coverage(self) -> float:
        """Fraction of the fault-free campaign that survived cleanly."""
        if self.total_pairs == 0:
            return 1.0
        return self.completed / self.total_pairs

    def as_coverage(self, asn: int) -> float:
        expected = self.per_as_expected.get(asn, 0)
        if expected == 0:
            return 1.0
        return self.per_as_observed.get(asn, 0) / expected

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict:
        return {
            "total_pairs": self.total_pairs,
            "completed": self.completed,
            "degraded": dict(sorted(self.degraded.items())),
            "quarantined": dict(sorted(self.quarantined.items())),
            "lost": dict(sorted(self.lost.items())),
            "resumed_pairs": self.resumed_pairs,
            "coverage": round(self.coverage(), 4),
            "accounted": self.accounted(),
            "retry": self.retry.as_dict(),
            "ases_expected": len(self.per_as_expected),
            "ases_fully_covered": sum(
                1 for asn in self.per_as_expected if self.as_coverage(asn) >= 1.0
            ),
        }

    def render(self) -> str:
        lines = [
            "Robustness report",
            f"  expected pairs:   {self.total_pairs}"
            + (f" ({self.resumed_pairs} restored from checkpoint)" if self.resumed_pairs else ""),
            f"  completed:        {self.completed} ({100.0 * self.coverage():.1f}% coverage)",
        ]
        for label, counts in (
            ("degraded", self.degraded),
            ("quarantined", self.quarantined),
            ("lost", self.lost),
        ):
            total = sum(counts.values())
            detail = ", ".join(
                f"{reason}={count}" for reason, count in sorted(counts.items())
            )
            lines.append(f"  {label + ':':<18}{total}" + (f" ({detail})" if detail else ""))
        retry = self.retry
        lines.append(
            f"  retries:          {retry.retries} "
            f"(recovered {retry.succeeded_after_retry}, exhausted {retry.exhausted}, "
            f"~{retry.simulated_wait_s:.0f}s simulated wait)"
        )
        covered = sum(
            1 for asn in self.per_as_expected if self.as_coverage(asn) >= 1.0
        )
        lines.append(
            f"  destination ASes: {covered}/{len(self.per_as_expected)} fully covered"
        )
        lines.append(
            "  accounting:       "
            + ("balanced" if self.accounted() else "UNBALANCED (bug)")
        )
        return "\n".join(lines)


@dataclass
class ActiveRobustnessReport:
    """Per-target and per-round accounting for the active experiments.

    *Discovery* (iterative poisoning): every target ends in exactly one
    disposition — **completed** (full preference order discovered),
    **censored** (a fault ended discovery early; the partial preference
    order is kept and flagged), or **quarantined** (the control plane
    failed in a way that taints even the partial data — a convergence
    blowout or an open circuit breaker).

    *Magnet rounds*: same three dispositions per mux round, where
    "censored" means the round produced observations with a missing
    channel (e.g. a collector feed gap).
    """

    # --- discovery targets -------------------------------------------
    total_targets: int = 0
    completed: int = 0
    censored: Dict[str, int] = field(default_factory=dict)
    quarantined: Dict[str, int] = field(default_factory=dict)
    #: Targets restored from the checkpoint journal instead of re-run.
    resumed_targets: int = 0
    # --- magnet rounds -----------------------------------------------
    magnet_rounds: int = 0
    magnet_completed: int = 0
    magnet_censored: Dict[str, int] = field(default_factory=dict)
    magnet_quarantined: Dict[str, int] = field(default_factory=dict)
    resumed_magnet_rounds: int = 0
    # --- effort / fault counters -------------------------------------
    #: Supervised announcements that reached the testbed.
    announcements: int = 0
    withdrawals: int = 0
    feed_gaps: int = 0
    #: PEERING mux session resets and lost withdrawals, drawn per attempt.
    mux_session_resets: int = 0
    withdrawal_losses: int = 0
    damping_events: int = 0
    convergence_failures: int = 0
    retry: RetryStats = field(default_factory=RetryStats)
    breaker: BreakerStats = field(default_factory=BreakerStats)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def expect_target(self) -> None:
        self.total_targets += 1

    def record_completed(self) -> None:
        self.completed += 1

    def record_censored(self, reason: str) -> None:
        self.censored[reason] = self.censored.get(reason, 0) + 1

    def record_quarantined(self, reason: str) -> None:
        self.quarantined[reason] = self.quarantined.get(reason, 0) + 1

    def expect_magnet_round(self) -> None:
        self.magnet_rounds += 1

    def record_magnet_completed(self) -> None:
        self.magnet_completed += 1

    def record_magnet_censored(self, reason: str) -> None:
        self.magnet_censored[reason] = self.magnet_censored.get(reason, 0) + 1

    def record_magnet_quarantined(self, reason: str) -> None:
        self.magnet_quarantined[reason] = (
            self.magnet_quarantined.get(reason, 0) + 1
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def censored_total(self) -> int:
        return sum(self.censored.values())

    def quarantined_total(self) -> int:
        return sum(self.quarantined.values())

    def magnet_censored_total(self) -> int:
        return sum(self.magnet_censored.values())

    def magnet_quarantined_total(self) -> int:
        return sum(self.magnet_quarantined.values())

    def accounted(self) -> bool:
        """Every target and round ended in exactly one disposition."""
        targets_ok = (
            self.completed + self.censored_total() + self.quarantined_total()
            == self.total_targets
        )
        rounds_ok = (
            self.magnet_completed
            + self.magnet_censored_total()
            + self.magnet_quarantined_total()
            == self.magnet_rounds
        )
        return targets_ok and rounds_ok

    def coverage(self) -> float:
        """Fraction of targets with a full (uncensored) preference order."""
        if self.total_targets == 0:
            return 1.0
        return self.completed / self.total_targets

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict:
        return {
            "total_targets": self.total_targets,
            "completed": self.completed,
            "censored": dict(sorted(self.censored.items())),
            "quarantined": dict(sorted(self.quarantined.items())),
            "resumed_targets": self.resumed_targets,
            "magnet_rounds": self.magnet_rounds,
            "magnet_completed": self.magnet_completed,
            "magnet_censored": dict(sorted(self.magnet_censored.items())),
            "magnet_quarantined": dict(sorted(self.magnet_quarantined.items())),
            "resumed_magnet_rounds": self.resumed_magnet_rounds,
            "announcements": self.announcements,
            "withdrawals": self.withdrawals,
            "feed_gaps": self.feed_gaps,
            "mux_session_resets": self.mux_session_resets,
            "withdrawal_losses": self.withdrawal_losses,
            "damping_events": self.damping_events,
            "convergence_failures": self.convergence_failures,
            "coverage": round(self.coverage(), 4),
            "accounted": self.accounted(),
            "retry": self.retry.as_dict(),
            "breaker": self.breaker.as_dict(),
        }

    def render(self) -> str:
        lines = [
            "Active robustness report",
            f"  discovery targets: {self.total_targets}"
            + (
                f" ({self.resumed_targets} restored from checkpoint)"
                if self.resumed_targets
                else ""
            ),
            f"  completed:         {self.completed} "
            f"({100.0 * self.coverage():.1f}% full preference orders)",
        ]
        for label, counts in (
            ("censored", self.censored),
            ("quarantined", self.quarantined),
        ):
            total = sum(counts.values())
            detail = ", ".join(
                f"{reason}={count}" for reason, count in sorted(counts.items())
            )
            lines.append(
                f"  {label + ':':<19}{total}" + (f" ({detail})" if detail else "")
            )
        magnet_bits = [f"{self.magnet_completed}/{self.magnet_rounds} completed"]
        if self.magnet_censored:
            magnet_bits.append(f"{self.magnet_censored_total()} censored")
        if self.magnet_quarantined:
            magnet_bits.append(f"{self.magnet_quarantined_total()} quarantined")
        if self.resumed_magnet_rounds:
            magnet_bits.append(f"{self.resumed_magnet_rounds} resumed")
        lines.append(f"  magnet rounds:     {', '.join(magnet_bits)}")
        lines.append(
            f"  announcements:     {self.announcements} "
            f"(+{self.withdrawals} withdrawals)"
        )
        retry = self.retry
        lines.append(
            f"  retries:           {retry.retries} "
            f"(recovered {retry.succeeded_after_retry}, exhausted {retry.exhausted}, "
            f"~{retry.simulated_wait_s:.0f}s simulated wait)"
        )
        breaker = self.breaker
        lines.append(
            f"  breaker:           {breaker.trips} trip(s), "
            f"{breaker.rejected} rejected, "
            f"{breaker.half_open_probes} half-open probe(s)"
        )
        fault_bits = []
        for label, count in (
            ("damping", self.damping_events),
            ("feed gaps", self.feed_gaps),
            ("mux session resets", self.mux_session_resets),
            ("withdrawal losses", self.withdrawal_losses),
            ("convergence failures", self.convergence_failures),
        ):
            if count:
                fault_bits.append(f"{label}={count}")
        if fault_bits:
            lines.append(f"  control-plane faults: {', '.join(fault_bits)}")
        lines.append(
            "  accounting:        "
            + ("balanced" if self.accounted() else "UNBALANCED (bug)")
        )
        return "\n".join(lines)
