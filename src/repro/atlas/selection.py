"""Probe selection strategies from the paper.

Section 3.1: "we picked equal number of probes from each continent.
For every continent, we picked probes in a round robin fashion from
different countries and ASes so that selected probes cover a wide range
of ASes."

Section 3.2: "We implement a greedy heuristic that picks probes to
maximize the number of ASes traversed on the default paths toward
PEERING locations."
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Callable, Dict, FrozenSet, List, Sequence, Set

from repro.atlas.probes import Probe


def select_probes_balanced(
    probes: Sequence[Probe], per_continent: int, seed: int = 0
) -> List[Probe]:
    """Continent-balanced, country/AS round-robin probe selection.

    Within each continent, countries take turns contributing a probe,
    and within a country ASes take turns, maximizing AS diversity.
    Continents with fewer probes than requested contribute all of them.
    """
    rng = random.Random(seed)
    by_continent: Dict[str, Dict[str, Dict[int, List[Probe]]]] = defaultdict(
        lambda: defaultdict(lambda: defaultdict(list))
    )
    for probe in probes:
        by_continent[probe.continent][probe.country][probe.asn].append(probe)

    selected: List[Probe] = []
    for continent in sorted(by_continent):
        countries = by_continent[continent]
        # Per country, order ASes randomly, then interleave AS buckets
        # so consecutive picks from a country hit different ASes.
        country_queues: Dict[str, List[Probe]] = {}
        for country, as_buckets in countries.items():
            queue: List[Probe] = []
            buckets = [list(bucket) for bucket in as_buckets.values()]
            for bucket in buckets:
                rng.shuffle(bucket)
            rng.shuffle(buckets)
            while buckets:
                next_round = []
                for bucket in buckets:
                    queue.append(bucket.pop())
                    if bucket:
                        next_round.append(bucket)
                buckets = next_round
            country_queues[country] = queue
        # Round-robin across countries.
        order = sorted(country_queues)
        rng.shuffle(order)
        picked: List[Probe] = []
        while len(picked) < per_continent and any(country_queues[c] for c in order):
            for country in order:
                if len(picked) >= per_continent:
                    break
                if country_queues[country]:
                    picked.append(country_queues[country].pop(0))
        selected.extend(picked)
    return selected


def select_probes_greedy(
    probes: Sequence[Probe],
    covered_ases: Callable[[Probe], FrozenSet[int]],
    budget: int,
) -> List[Probe]:
    """Greedy set-cover selection maximizing traversed ASes.

    ``covered_ases`` maps a probe to the set of ASes on its default
    path toward the measurement targets; the heuristic repeatedly picks
    the probe adding the most uncovered ASes until the budget is spent
    or nothing new is covered.
    """
    if budget <= 0:
        return []
    remaining = list(probes)
    coverage = {probe.probe_id: covered_ases(probe) for probe in remaining}
    covered: Set[int] = set()
    selected: List[Probe] = []
    while remaining and len(selected) < budget:
        best = max(
            remaining,
            key=lambda probe: (
                len(coverage[probe.probe_id] - covered),
                -probe.probe_id,
            ),
        )
        gain = coverage[best.probe_id] - covered
        if not gain and selected:
            break
        covered.update(coverage[best.probe_id])
        selected.append(best)
        remaining.remove(best)
    return selected
