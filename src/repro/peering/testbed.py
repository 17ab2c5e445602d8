"""The PEERING testbed: an AS we control, multihomed to universities.

PEERING "operates an ASN and owns IP address space that we can announce
via several upstream providers" (Section 3.2).  Installing the testbed
adds the PEERING AS to a generated Internet as a customer of several
university host networks (six US-style plus one Brazilian in the
paper), allocates experiment prefixes, and provides announcement
control: which muxes to announce through (anycast or a single magnet)
and which ASes to poison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.bgp.policy import Policy
from repro.bgp.simulator import BGPSimulator
from repro.net.ip import Prefix, PrefixAllocator
from repro.topogen.internet import Interconnect, Internet
from repro.topology.asys import AS, ASRole
from repro.topology.relationships import Relationship
from repro.whois.registry import WhoisRecord

#: Default experiment prefix pool (disjoint from the generator's pool).
_PEERING_POOL = Prefix.parse("100.64.0.0/16")

#: PEERING's real-world AS number.
DEFAULT_PEERING_ASN = 61574


@dataclass(frozen=True)
class Mux:
    """One PEERING point of presence: the university AS hosting it."""

    name: str
    host_asn: int


class PeeringTestbed:
    """Installs and drives a PEERING deployment on an Internet.

    The testbed is the mechanism only and never fails.  Mux faults
    (session resets, lost withdrawals) are drawn, retried and counted
    per announcement by
    :class:`~repro.peering.experiments.ActiveSupervisor`.
    """

    def __init__(self, internet: Internet, num_muxes: int = 7, seed: int = 0) -> None:
        if DEFAULT_PEERING_ASN in internet.graph:
            # A second install would pick PEERING itself as a mux host
            # (an education AS with providers) and self-link it.
            raise ValueError(
                f"the world already holds AS{DEFAULT_PEERING_ASN}: PEERING "
                "was installed into it by an earlier study; study a fresh or "
                "reloaded world instead"
            )
        self.internet = internet
        self.asn = DEFAULT_PEERING_ASN
        rng = random.Random(seed)
        self.muxes = self._choose_muxes(rng, num_muxes)
        self._pool = PrefixAllocator(_PEERING_POOL)
        #: Discovery announces the first prefix, the magnet rounds the last.
        self.prefixes = [self._pool.allocate(24) for _ in range(4)]
        self._install()

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _choose_muxes(self, rng: random.Random, num_muxes: int) -> List[Mux]:
        """Prefer education networks, mostly US plus one Brazilian."""
        graph = self.internet.graph
        education = [
            asn
            for asn in sorted(graph.asns())
            if graph.get_as(asn).role is ASRole.EDUCATION
        ]
        us = [a for a in education if self.internet.graph.get_as(a).country == "US"]
        br = [a for a in education if self.internet.graph.get_as(a).country == "BR"]
        other = [a for a in education if a not in us and a not in br]
        rng.shuffle(us)
        rng.shuffle(br)
        rng.shuffle(other)

        # Prefer upstream diversity: muxes behind disjoint providers
        # expose more distinct routes, which is what makes poisoning
        # and magnet experiments informative.
        hosts: List[int] = []
        covered_upstreams: set = set()

        def pick_from(pool: List[int], count: int) -> None:
            candidates = list(pool)
            while candidates and count > 0:
                best = max(
                    candidates,
                    key=lambda asn: (
                        len(
                            set(self.internet.graph.providers(asn))
                            - covered_upstreams
                        ),
                        -asn,
                    ),
                )
                candidates.remove(best)
                if best in hosts:
                    continue
                hosts.append(best)
                covered_upstreams.update(self.internet.graph.providers(best))
                count -= 1

        pick_from(us, num_muxes - 1)
        if br:
            pick_from(br, 1)
        pick_from(other + us, num_muxes - len(hosts))
        if len(hosts) < 2:
            raise ValueError("not enough host networks for PEERING muxes")
        return [Mux(name=f"mux{i}", host_asn=asn) for i, asn in enumerate(hosts)]

    def _install(self) -> None:
        internet = self.internet
        host_asns = [mux.host_asn for mux in self.muxes]
        countries = sorted(
            {internet.graph.get_as(asn).country for asn in host_asns}
        )
        home = internet.home_city[host_asns[0]]
        internet.graph.add_as(
            AS(
                asn=self.asn,
                name="PEERING",
                org_id="ORG-PEERING",
                country=countries[0],
                presence=frozenset(countries),
                role=ASRole.EDUCATION,
                continent=home.continent,
            )
        )
        internet.home_city[self.asn] = home
        internet.presence_cities[self.asn] = [
            internet.home_city[asn] for asn in host_asns
        ]
        internet.whois.add(
            WhoisRecord(
                asn=self.asn,
                org_name="PEERING Research Testbed",
                org_id="ORG-PEERING",
                email="noc@peering.example",
                country=countries[0],
            )
        )
        internet.prefixes[self.asn] = list(self.prefixes)
        internet.policies[self.asn] = Policy(asn=self.asn)
        for mux in self.muxes:
            internet.graph.add_link(mux.host_asn, self.asn, Relationship.CUSTOMER)
            self._add_interconnect(mux.host_asn)

    def _add_interconnect(self, host_asn: int) -> None:
        """Router-level detail so traceroutes can cross the new link."""
        internet = self.internet
        subnet = self._pool.allocate(30)
        city = internet.home_city[host_asn]
        key = (min(host_asn, self.asn), max(host_asn, self.asn))
        ip_host = subnet.address_at(1)
        ip_peering = subnet.address_at(2)
        internet.interconnects[key] = Interconnect(
            a=key[0],
            b=key[1],
            city=city,
            subnet=subnet,
            ip_a=ip_host if key[0] == host_asn else ip_peering,
            ip_b=ip_peering if key[1] == self.asn else ip_host,
            owner=self.asn,
        )
        internet.ip_locations[ip_host.value] = city
        internet.ip_locations[ip_peering.value] = city
        if (self.asn, city.name) not in internet.router_ips:
            router_ip = self._pool.allocate(32).first_address()
            internet.router_ips[(self.asn, city.name)] = router_ip
            internet.ip_locations[router_ip.value] = city

    # ------------------------------------------------------------------
    # Announcement control
    # ------------------------------------------------------------------
    def mux_asns(self) -> Tuple[int, ...]:
        return tuple(mux.host_asn for mux in self.muxes)

    def announce(
        self,
        simulator: BGPSimulator,
        prefix: Prefix,
        muxes: Optional[Iterable[int]] = None,
        poisoned: Iterable[int] = (),
    ) -> None:
        """Announce ``prefix`` via the given muxes (all by default).

        ``poisoned`` ASNs ride inside an AS-set wrapped by PEERING's own
        ASN, per the paper's announcement shape.
        """
        allowed = frozenset(self.mux_asns() if muxes is None else muxes)
        unknown = allowed - frozenset(self.mux_asns())
        if unknown:
            raise ValueError(f"not PEERING muxes: {sorted(unknown)}")
        self.internet.policies[self.asn].selective_export[prefix] = allowed
        simulator.originate(self.asn, prefix, poisoned=poisoned)

    def withdraw(self, simulator: BGPSimulator, prefix: Prefix) -> None:
        """Withdraw ``prefix`` from all muxes."""
        simulator.withdraw(self.asn, prefix)
        self.internet.policies[self.asn].selective_export.pop(prefix, None)
