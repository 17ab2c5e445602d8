"""Prefix-specific policy detection (paper Section 4.3).

Interdomain routing is usually abstracted to destination ASes, but real
export policy is per prefix.  The paper correlates BGP feeds with the
topology using two criteria — given origin ``O``, neighbor ``N`` and
prefix ``P``:

* **Criterion 1** (aggressive): do not assume the edge ``N-O`` exists
  for ``P`` unless the feeds show ``O`` announcing ``P`` to ``N``.
* **Criterion 2** (conservative): apply Criterion 1 only when the feeds
  show at least one prefix announced from ``O`` to ``N`` — evidence the
  edge is visible at all, so a missing ``P`` means selective
  announcement rather than poor visibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.net.ip import Prefix
from repro.peering.collectors import FeedArchive
from repro.topology.graph import ASGraph


@dataclass(frozen=True)
class PSPCase:
    """One detected prefix-specific policy.

    ``pruned_neighbors`` are the origin's neighbors the criterion says
    do not receive ``prefix``.
    """

    origin: int
    prefix: Prefix
    pruned_neighbors: FrozenSet[int]
    criterion: int


class FrozenSetInterner:
    """Canonicalizes equal frozensets to one shared instance.

    Different prefixes of the same origin usually resolve to the same
    allowed-first-hop set; interning makes those prefixes share one
    object, so downstream caches keyed by the set (the routing-tree
    cache above all) hash an already-seen instance instead of carrying
    thousands of equal-but-distinct copies.
    """

    def __init__(self) -> None:
        self._pool: Dict[FrozenSet[int], FrozenSet[int]] = {}

    def intern(self, values: FrozenSet[int]) -> FrozenSet[int]:
        return self._pool.setdefault(values, values)

    def __len__(self) -> int:
        return len(self._pool)


class PrefixPolicyAnalysis:
    """Applies the PSP criteria to feeds over an inferred topology."""

    def __init__(self, graph: ASGraph, feeds: FeedArchive) -> None:
        self._graph = graph
        self._feeds = feeds
        #: Shared across criteria so Criterion-1 and Criterion-2 maps
        #: intern against the same pool.
        self._interner = FrozenSetInterner()

    def allowed_first_hops(
        self, prefix: Prefix, origin: int, criterion: int
    ) -> Optional[FrozenSet[int]]:
        """The origin neighbors assumed to receive ``prefix``.

        Returns ``None`` (no restriction) when the feeds carry no path
        for the prefix at all — with zero visibility neither criterion
        can say anything.
        """
        if criterion not in (1, 2):
            raise ValueError(f"unknown PSP criterion {criterion}")
        if not self._feeds.paths_for(prefix):
            return None
        allowed = set()
        for neighbor in self._graph.neighbors(origin):
            if self._feeds.origin_edge_observed(prefix, neighbor, origin):
                allowed.add(neighbor)
            elif criterion == 2 and not self._feeds.any_prefix_via_edge(
                neighbor, origin
            ):
                # Edge never visible in feeds: assume poor visibility,
                # not selective announcement.
                allowed.add(neighbor)
        return self._interner.intern(frozenset(allowed))

    def first_hops_map(
        self, origins: Dict[Prefix, int], criterion: int
    ) -> Dict[Prefix, FrozenSet[int]]:
        """Allowed-first-hop sets for every prefix with an origin."""
        result: Dict[Prefix, FrozenSet[int]] = {}
        for prefix, origin in origins.items():
            allowed = self.allowed_first_hops(prefix, origin, criterion)
            if allowed is not None:
                result[prefix] = allowed
        return result

    def cases(
        self, origins: Dict[Prefix, int], criterion: int
    ) -> List[PSPCase]:
        """Detected prefix-specific policies (pruned edges only)."""
        detected: List[PSPCase] = []
        for prefix, origin in sorted(
            origins.items(), key=lambda item: (item[0].network, item[0].length)
        ):
            allowed = self.allowed_first_hops(prefix, origin, criterion)
            if allowed is None:
                continue
            neighbors = frozenset(self._graph.neighbors(origin))
            pruned = neighbors - allowed
            if pruned:
                detected.append(
                    PSPCase(
                        origin=origin,
                        prefix=prefix,
                        pruned_neighbors=pruned,
                        criterion=criterion,
                    )
                )
        return detected


def case_neighbor_count(cases: Iterable[PSPCase]) -> int:
    """Distinct neighbor ASes across PSP cases (paper: 149 unique)."""
    neighbors = set()
    for case in cases:
        neighbors.update(case.pruned_neighbors)
    return len(neighbors)
