"""Looking-glass validation of prefix-specific policies (Section 4.3).

The paper validates PSP inferences by finding looking-glass servers in
the neighbor ASes the criteria pruned, and manually checking whether
the neighbor really lacks a direct route for the prefix.  We model a
partial looking-glass deployment answering from the converged
simulator's RIBs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from repro.bgp.routes import Route
from repro.bgp.simulator import BGPSimulator
from repro.core.psp import PSPCase
from repro.net.ip import Prefix


class LookingGlassDeployment:
    """Looking-glass servers hosted by a fraction of ASes."""

    def __init__(
        self,
        simulator: BGPSimulator,
        deployment_rate: float = 0.2,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= deployment_rate <= 1.0:
            raise ValueError("deployment_rate must be in [0, 1]")
        self._simulator = simulator
        rng = random.Random(seed)
        self._hosts: Set[int] = {
            asn
            for asn in simulator.graph.asns()
            if rng.random() < deployment_rate
        }

    @property
    def hosts(self) -> Set[int]:
        return set(self._hosts)

    def has_server(self, asn: int) -> bool:
        return asn in self._hosts

    def query(self, asn: int, prefix: Prefix) -> Optional[Route]:
        """``show ip bgp <prefix>`` at AS ``asn``'s looking glass."""
        if asn not in self._hosts:
            raise LookupError(f"AS{asn} hosts no looking glass")
        return self._simulator.best_route(asn, prefix)


@dataclass
class PSPValidation:
    """Outcome of validating PSP cases against looking glasses."""

    total_cases: int
    unique_neighbors: int
    neighbors_with_lg: int
    checked: int
    confirmed: int
    #: (origin, prefix, neighbor, confirmed) details.
    details: List = field(default_factory=list)

    @property
    def precision(self) -> float:
        return 0.0 if self.checked == 0 else self.confirmed / self.checked


def validate_psp_cases(
    cases: Sequence[PSPCase],
    looking_glasses: LookingGlassDeployment,
    max_checks: Optional[int] = None,
) -> PSPValidation:
    """Check pruned origin edges at neighbors hosting looking glasses.

    A PSP inference for (origin O, prefix P, neighbor N) is confirmed
    when N's looking glass shows either no route for P or a route that
    does not go directly to O — i.e. N really did not receive P over
    the direct edge.
    """
    neighbors: Set[int] = set()
    for case in cases:
        neighbors.update(case.pruned_neighbors)
    with_lg = {asn for asn in neighbors if looking_glasses.has_server(asn)}

    checked = 0
    confirmed = 0
    details = []
    for case in cases:
        for neighbor in sorted(case.pruned_neighbors):
            if neighbor not in with_lg:
                continue
            if max_checks is not None and checked >= max_checks:
                break
            route = looking_glasses.query(neighbor, case.prefix)
            is_confirmed = route is None or route.learned_from != case.origin
            checked += 1
            confirmed += int(is_confirmed)
            details.append((case.origin, case.prefix, neighbor, is_confirmed))
    return PSPValidation(
        total_cases=len(cases),
        unique_neighbors=len(neighbors),
        neighbors_with_lg=len(with_lg),
        checked=checked,
        confirmed=confirmed,
        details=details,
    )
