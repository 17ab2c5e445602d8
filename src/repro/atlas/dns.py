"""DNS resolution with CDN-style replica mapping.

Each probe resolves every content DNS name before tracerouting
(Section 3.1).  CDNs answer with a nearby replica — often an off-net
cache inside an eyeball ISP — which is why the paper's 34 names fan out
into 218 destination ASes.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.atlas.probes import Probe
from repro.topogen.geography import City, distance_km
from repro.topogen.internet import Internet, Replica


class CDNResolver:
    """Resolves DNS names to replicas near the querying probe."""

    def __init__(self, internet: Internet, locality: int = 2) -> None:
        """``locality``: the resolver answers with one of the
        ``locality`` nearest replicas (CDN mapping is good but not
        perfect)."""
        if locality < 1:
            raise ValueError("locality must be at least 1")
        self._locality = locality
        self._by_name: Dict[str, List[Replica]] = {}
        for provider in internet.content:
            for dns_name, replicas in provider.replicas.items():
                self._by_name[dns_name] = list(replicas)
        #: (probe city, name) -> the name's nearest replicas, ranked the
        #: first time a probe in that city asks: the ranking depends
        #: on nothing else, and a campaign asks once per (probe, name).
        self._windows: Dict[Tuple[City, str], List[Replica]] = {}

    def names(self) -> List[str]:
        return sorted(self._by_name)

    def resolve(
        self,
        dns_name: str,
        probe: Probe,
        rng: random.Random,
    ) -> Optional[Replica]:
        """The replica the CDN would hand this probe, or ``None``.

        ``rng`` picks among the nearest replicas; the campaign passes a
        per-(probe, name) stream so the answer is independent of query
        order (checkpoint/resume determinism).
        """
        city = probe.city
        window = self._windows.get((city, dns_name))
        if window is None:
            replicas = self._by_name.get(dns_name)
            if not replicas:
                return None
            ranked = sorted(
                replicas,
                key=lambda replica: (distance_km(city, replica.city), replica.ip),
            )
            window = self._windows[city, dns_name] = ranked[: self._locality]
        return rng.choice(window)
