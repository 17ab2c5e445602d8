"""Traceroute simulation over converged BGP state.

The engine walks the AS-level forwarding path, expands it to router
hops using the generated interconnect detail, and emits the artifacts
real traceroute campaigns must cope with:

* border hops answering from the shared /30, which belongs to *one*
  side's address space (the third-party-address problem),
* intra-AS hops when a network is crossed between two cities,
* unresponsive routers (``*`` hops), and
* geography-driven RTTs with deterministic jitter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.bgp.simulator import BGPSimulator
from repro.dataplane.latency import rtt_ms
from repro.net.ip import IPAddress, Prefix
from repro.net.trie import PrefixTrie
from repro.topogen.geography import City
from repro.topogen.internet import Internet


@dataclass(frozen=True)
class TracerouteHop:
    """One traceroute response line; ``ip`` is ``None`` for ``*``."""

    ip: Optional[IPAddress]
    rtt: Optional[float]

    def responded(self) -> bool:
        return self.ip is not None


@dataclass
class TracerouteResult:
    """A complete traceroute measurement."""

    source_asn: int
    source_ip: IPAddress
    destination_ip: IPAddress
    hops: List[TracerouteHop] = field(default_factory=list)
    reached: bool = False
    #: Ground-truth AS-level path (for validation only; the analysis
    #: pipeline must *not* read this).
    truth_as_path: Tuple[int, ...] = ()

    def responding_ips(self) -> List[IPAddress]:
        return [hop.ip for hop in self.hops if hop.ip is not None]


class TracerouteEngine:
    """Runs traceroutes over an :class:`Internet` and a converged sim."""

    def __init__(
        self,
        internet: Internet,
        simulator: BGPSimulator,
        announced: PrefixTrie,
        missing_hop_rate: float = 0.04,
    ) -> None:
        self._internet = internet
        self._simulator = simulator
        self._announced = announced
        self._missing_hop_rate = missing_hop_rate

    def destination_prefix(self, destination_ip: IPAddress) -> Optional[Prefix]:
        """The announced prefix covering ``destination_ip``."""
        match = self._announced.lookup_with_prefix(destination_ip)
        return None if match is None else match[0]

    def truth_path(
        self, source_asn: int, destination_ip: IPAddress
    ) -> Optional[Tuple[int, ...]]:
        """The data plane's AS path from ``source_asn`` toward the
        announced prefix covering ``destination_ip`` (``None``: no such
        prefix, or no loop-free route to it)."""
        prefix = self.destination_prefix(destination_ip)
        if prefix is None:
            return None
        return self._simulator.forwarding_path(source_asn, prefix)

    def trace(
        self,
        source_asn: int,
        source_ip: IPAddress,
        source_city: City,
        destination_ip: IPAddress,
        rng: random.Random,
    ) -> TracerouteResult:
        """Run one traceroute, drawing missing-hop and jitter randomness
        from ``rng``.

        The campaign passes a stream keyed by (probe, name), making the
        trace a pure function of that key — the property the resumable
        campaign relies on.
        """
        result = TracerouteResult(
            source_asn=source_asn,
            source_ip=source_ip,
            destination_ip=destination_ip,
        )
        as_path = self.truth_path(source_asn, destination_ip)
        if as_path is None:
            return result
        result.truth_as_path = as_path
        raw_hops = self._expand_hops(as_path, destination_ip)
        for index, (ip, city) in enumerate(raw_hops):
            is_destination = index == len(raw_hops) - 1
            if not is_destination and rng.random() < self._missing_hop_rate:
                result.hops.append(TracerouteHop(ip=None, rtt=None))
                continue
            jitter = rng.random() * 1.5
            rtt = rtt_ms(source_city, city, hop_count=index + 1, jitter=jitter)
            result.hops.append(TracerouteHop(ip=ip, rtt=round(rtt, 3)))
        result.reached = True
        return result

    def _expand_hops(
        self, as_path: Tuple[int, ...], destination_ip: IPAddress
    ) -> List[Tuple[IPAddress, City]]:
        """Router-level hops for an AS path, with ground-truth cities."""
        internet = self._internet
        hops: List[Tuple[IPAddress, City]] = []
        source_asn = as_path[0]
        # First hop: the probe's gateway router inside the source AS.
        home = internet.home_city[source_asn]
        gateway = internet.router_ips.get((source_asn, home.name))
        if gateway is not None:
            hops.append((gateway, home))
        previous_city: Optional[City] = home
        for upstream, downstream in zip(as_path[:-1], as_path[1:]):
            interconnect = internet.interconnect(upstream, downstream)
            if interconnect is None:
                continue
            # If the upstream AS is crossed between two cities, surface
            # an internal router hop at the egress city.
            egress_city = interconnect.city
            if previous_city is not None and egress_city.name != previous_city.name:
                internal = internet.router_ips.get((upstream, egress_city.name))
                if internal is not None:
                    hops.append((internal, egress_city))
            # Border hop: the downstream AS's ingress interface answers
            # from the shared /30 (owned by ``interconnect.owner``).
            hops.append((interconnect.ip_of(downstream), egress_city))
            previous_city = egress_city
        destination_city = internet.location_of_ip(destination_ip)
        if destination_city is None:
            destination_city = internet.home_city[as_path[-1]]
        hops.append((destination_ip, destination_city))
        return hops
