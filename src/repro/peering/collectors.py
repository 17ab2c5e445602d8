"""BGP route collectors (RouteViews / RIPE RIS style).

A collector receives full feeds from a limited set of peer ASes — the
visibility limitation at the heart of the paper: collectors see core
paths well but miss edge peering and alternate routes.  The
:class:`FeedArchive` accumulates collected paths and answers the
origin-edge queries the prefix-specific-policy criteria need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.bgp.simulator import BGPSimulator
from repro.net.ip import Prefix
from repro.topogen.internet import Internet
from repro.topology.asys import ASRole

PathSeq = Tuple[int, ...]


@dataclass(frozen=True)
class RouteCollector:
    """One collector with its feed peers."""

    name: str
    peer_asns: Tuple[int, ...]

    def collect(self, simulator: BGPSimulator, prefix: Prefix) -> Dict[int, PathSeq]:
        """Feed paths per peer AS for one prefix.

        The feed path starts with the peer's own ASN, as real table
        dumps do.
        """
        paths: Dict[int, PathSeq] = {}
        for peer in self.peer_asns:
            route = simulator.best_route(peer, prefix)
            if route is None:
                continue
            paths[peer] = (peer,) + route.as_path.sequence()
        return paths


def default_collectors(
    internet: Internet, seed: int = 0, extra_peers: int = 60
) -> List[RouteCollector]:
    """RouteViews + RIS style collectors.

    Peers are the usual suspects: transit-free cores, a sample of large
    transit networks, and a few research networks — not the edge.
    """
    rng = random.Random(seed)
    graph = internet.graph
    tier1s = [
        asn
        for asn in graph.asns()
        if not graph.providers(asn) and len(graph.customer_cone(asn)) > 20
    ]
    transit = sorted(
        asn
        for asn in graph.asns()
        if graph.customers(asn) and asn not in tier1s
        and graph.get_as(asn).role is ASRole.TRANSIT
    )
    rng.shuffle(transit)
    sample = transit[:extra_peers]
    half = len(sample) // 2
    routeviews = RouteCollector(
        name="route-views", peer_asns=tuple(sorted(set(tier1s) | set(sample[:half])))
    )
    ris = RouteCollector(
        name="rrc00", peer_asns=tuple(sorted(set(tier1s) | set(sample[half:])))
    )
    return [routeviews, ris]


class FeedArchive:
    """Accumulated BGP feed paths across collectors and prefixes."""

    def __init__(self, collectors: Iterable[RouteCollector]) -> None:
        self._collectors = list(collectors)
        #: prefix -> set of feed paths.
        self._paths: Dict[Prefix, Set[PathSeq]] = {}
        #: (neighbor, origin) -> the prefixes with a feed path ending in
        #: that edge: the index the origin-edge queries read.
        self._edges: Dict[Tuple[int, int], Set[Prefix]] = {}

    @property
    def collectors(self) -> List[RouteCollector]:
        return list(self._collectors)

    def record(self, simulator: BGPSimulator, prefixes: Iterable[Prefix]) -> None:
        """Snapshot feeds for ``prefixes`` from the converged simulator."""
        for prefix in prefixes:
            self._paths.setdefault(prefix, set())
            for collector in self._collectors:
                for path in collector.collect(simulator, prefix).values():
                    self.add_path(prefix, path)

    def add_path(self, prefix: Prefix, path: PathSeq) -> None:
        """Archive one feed path for ``prefix`` and index its last edge."""
        self._paths.setdefault(prefix, set()).add(path)
        if len(path) >= 2:
            self._edges.setdefault((path[-2], path[-1]), set()).add(prefix)

    def prefixes(self) -> List[Prefix]:
        return sorted(self._paths, key=lambda p: (p.network, p.length))

    def paths_for(self, prefix: Prefix) -> Set[PathSeq]:
        return set(self._paths.get(prefix, set()))

    def observed_links(self) -> Set[Tuple[int, int]]:
        """Every adjacency seen on any feed path, normalized (low, high)."""
        links: Set[Tuple[int, int]] = set()
        for paths in self._paths.values():
            for path in paths:
                for a, b in zip(path[:-1], path[1:]):
                    if a != b:
                        links.add((min(a, b), max(a, b)))
        return links

    def origin_edge_observed(self, prefix: Prefix, neighbor: int, origin: int) -> bool:
        """Did any feed show ``origin`` announcing ``prefix`` to ``neighbor``?

        True when a feed path for ``prefix`` ends with ``neighbor,
        origin``.
        """
        return prefix in self._edges.get((neighbor, origin), ())

    def any_prefix_via_edge(self, neighbor: int, origin: int) -> bool:
        """Did feeds show *any* prefix announced from ``origin`` to
        ``neighbor``?  (Criteria 2's visibility prerequisite.)"""
        return (neighbor, origin) in self._edges
