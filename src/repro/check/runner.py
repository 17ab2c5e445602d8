"""The differential-check campaign runner behind ``repro check run``.

Runs the full oracle battery (:mod:`repro.check.differential`) over a
contiguous range of seeds and aggregates the outcome into a
:class:`CheckReport` — zero disagreements is the contract every
performance or refactoring PR must preserve.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.check.differential import (
    BGP_FAMILIES,
    HEAVY_SCENARIO_CHECKS,
    SCENARIO_CHECKS,
    SEED_CHECKS,
    Disagreement,
    check_seed,
)
from repro.obs.gc import collector_scope

#: The default battery, in report order; the BGP simulator's three
#: checks are the assertion families of one driver.
ALL_CHECKS = tuple(SCENARIO_CHECKS) + tuple(SEED_CHECKS) + BGP_FAMILIES

#: Everything ``--only`` accepts: the default battery plus the heavy
#: opt-in checks (``ledger-resume``, which runs several end-to-end
#: studies per seed and therefore never runs by default).
KNOWN_CHECKS = ALL_CHECKS + tuple(HEAVY_SCENARIO_CHECKS)


@dataclass
class CheckReport:
    """Outcome of one differential-check campaign."""

    base_seed: int
    seeds_run: int = 0
    decisions_graded: int = 0
    trees_checked: int = 0
    checks: List[str] = field(default_factory=lambda: list(ALL_CHECKS))
    disagreements: List[Disagreement] = field(default_factory=list)
    #: What the seed checks exercised, e.g. ``"bgp-withdraw resets"``.
    tally: Counter = field(default_factory=Counter)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def by_check(self) -> Dict[str, int]:
        tally: Dict[str, int] = {name: 0 for name in self.checks}
        for problem in self.disagreements:
            tally[problem.check] = tally.get(problem.check, 0) + 1
        return tally

    def render(self) -> str:
        lines = [
            "== differential checks ==",
            f"  seeds      {self.base_seed}..{self.base_seed + self.seeds_run - 1}"
            f" ({self.seeds_run} scenarios)",
            f"  decisions  {self.decisions_graded} graded against the label oracle",
            f"  trees      {self.trees_checked} routing trees vs the GR oracle",
            f"  elapsed    {self.elapsed:.1f}s",
        ]
        for name, count in self.by_check().items():
            verdict = "ok" if count == 0 else f"{count} DISAGREEMENT(S)"
            lines.append(f"  {name:<14} {verdict}")
        for name, count in sorted(self.tally.items()):
            lines.append(f"  counted    {name}: {count}")
        for problem in self.disagreements[:20]:
            lines.append(f"  !! {problem}")
        if len(self.disagreements) > 20:
            lines.append(
                f"  .. and {len(self.disagreements) - 20} more disagreements"
            )
        tail = "all oracles agree" if self.ok else "ORACLES DISAGREE"
        lines.append(f"  verdict    {tail}")
        return "\n".join(lines)


def run_checks(
    seeds: int,
    base_seed: int = 0,
    only: Optional[List[str]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> CheckReport:
    """Run the differential battery over ``seeds`` consecutive seeds.

    ``only`` restricts to a subset of :data:`ALL_CHECKS`;
    ``progress(done, total)`` is invoked after every seed when given.
    Raises ``ValueError`` for fewer than one seed or an unknown check.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    if only is not None:
        unknown = sorted(set(only) - set(KNOWN_CHECKS))
        if unknown:
            raise ValueError(
                f"unknown checks {unknown}; known: {sorted(KNOWN_CHECKS)}"
            )
    report = CheckReport(
        base_seed=base_seed,
        checks=list(only) if only is not None else list(ALL_CHECKS),
    )
    started = time.monotonic()
    for offset in range(seeds):
        seed = base_seed + offset
        # One scope per seed: each seed's closing collection scans only
        # that seed's objects, and no seed's garbage outlives it.
        with collector_scope():
            scenario, problems = check_seed(seed, only=only, tally=report.tally)
        report.seeds_run += 1
        if "labels" in report.checks:
            report.decisions_graded += len(scenario.decisions)
        if "gr-tree" in report.checks:
            report.trees_checked += len(scenario.destinations) + len(
                scenario.first_hops_for
            )
        report.disagreements.extend(problems)
        if progress is not None:
            progress(offset + 1, seeds)
    report.elapsed = time.monotonic() - started
    return report
