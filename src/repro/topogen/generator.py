"""Builds a complete synthetic Internet.

The generator proceeds in layers: AS populations (tier-1 clique,
regional large ISPs, national small ISPs, stubs, content providers,
undersea-cable operators, sibling organizations), relationship wiring,
whois/SOA records, address allocation, router-level interconnect
detail, per-AS policies with injected deviations, and content replica
deployment.  Everything is driven by one :class:`random.Random` seeded
by the caller, so a given ``(config, seed)`` always yields the same
Internet.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bgp.policy import Policy
from repro.net.ip import IPAddress, Prefix, PrefixAllocator
from repro.topogen.config import TopologyConfig
from repro.topogen.geography import City, build_world, distance_km
from repro.topogen.internet import ContentProvider, Interconnect, Internet, Replica
from repro.topology.asys import AS, ASRole
from repro.topology.cables import Cable, CableRegistry
from repro.topology.complex_rel import (
    ComplexRelationships,
    HybridEntry,
    PartialTransitEntry,
)
from repro.topology.graph import ASGraph
from repro.topology.relationships import Relationship
from repro.whois.registry import WhoisRecord, WhoisRegistry
from repro.whois.soa import SOADatabase

#: Address pool carved into per-AS prefixes.
_AS_POOL = Prefix.parse("16.0.0.0/6")

#: Continent pairs separated by ocean, eligible for undersea cables.
_OCEAN_PAIRS = [
    ("NA", "EU"),
    ("NA", "AS"),
    ("NA", "SA"),
    ("EU", "AS"),
    ("EU", "AF"),
    ("EU", "SA"),
    ("AS", "OC"),
    ("AF", "AS"),
]

_CONTENT_NAMES = [
    ("AcmeCDN", "cdn", 3),
    ("StreamFlix", "content", 2),
    ("VidTube", "content", 2),
    ("SocialGraph", "content", 2),
    ("CloudFront9", "cdn", 3),
    ("GameHub", "content", 1),
    ("NewsWire", "content", 1),
    ("PhotoShare", "content", 2),
    ("MusicCast", "content", 2),
    ("EdgeCast7", "cdn", 3),
    ("SearchCo", "content", 2),
    ("MarketPlace", "content", 1),
    ("FileLocker", "content", 1),
    ("LiveMeet", "content", 2),
]


class _Builder:
    """Internal mutable state while generating one Internet."""

    def __init__(self, config: TopologyConfig, seed: int) -> None:
        config.validate()
        self.config = config
        self.rng = random.Random(seed)
        self.world = build_world()
        self.graph = ASGraph()
        self.next_asn = 100
        self.prefixes: Dict[int, List[Prefix]] = {}
        self.pool = PrefixAllocator(_AS_POOL)
        self.infra_allocators: Dict[int, PrefixAllocator] = {}
        self.home_city: Dict[int, City] = {}
        self.presence_cities: Dict[int, List[City]] = {}
        self.interconnects: Dict[Tuple[int, int], Interconnect] = {}
        self.router_ips: Dict[Tuple[int, str], IPAddress] = {}
        self.ip_locations: Dict[int, City] = {}
        self.whois = WhoisRegistry()
        self.soa = SOADatabase()
        self.orgs: Dict[str, List[int]] = {}
        self.cables = CableRegistry()
        self.complex_truth = ComplexRelationships()
        self.policies: Dict[int, Policy] = {}
        self.content: List[ContentProvider] = []
        # Population bookkeeping.
        self.tier1s: List[int] = []
        self.large_isps: List[int] = []
        self.small_isps: List[int] = []
        self.stubs: List[int] = []
        self.cable_asns: List[int] = []
        self.content_asns: List[int] = []

    # ------------------------------------------------------------------
    # AS creation helpers
    # ------------------------------------------------------------------
    def _new_asn(self) -> int:
        asn = self.next_asn
        self.next_asn += 1
        return asn

    def _pick_cities(self, countries: Sequence[str], per_country: int) -> List[City]:
        cities: List[City] = []
        for code in countries:
            available = list(self.world.cities_in_country(code))
            self.rng.shuffle(available)
            cities.extend(available[:per_country])
        return cities

    def _create_as(
        self,
        name: str,
        org_id: str,
        countries: Sequence[str],
        role: ASRole,
        cities_per_country: int = 1,
    ) -> int:
        asn = self._new_asn()
        home_country = countries[0]
        cities = self._pick_cities(countries, cities_per_country)
        if not cities:
            raise ValueError(f"no cities available in {countries}")
        self.graph.add_as(
            AS(
                asn=asn,
                name=name,
                org_id=org_id,
                country=home_country,
                presence=frozenset(countries),
                role=role,
                continent=self.world.continent_of(home_country),
            )
        )
        self.home_city[asn] = cities[0]
        self.presence_cities[asn] = cities
        self.orgs.setdefault(org_id, []).append(asn)
        return asn

    def _register_whois(self, asn: int, org_name: str, domain: str) -> None:
        asys = self.graph.get_as(asn)
        self.whois.add(
            WhoisRecord(
                asn=asn,
                org_name=org_name,
                org_id=asys.org_id,
                email=f"noc@{domain}",
                phone=f"+{asn}",
                country=asys.country,
            )
        )

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def build_populations(self) -> None:
        self._build_tier1s()
        self._build_large_isps()
        self._build_small_isps()
        self._build_stubs()
        self._build_content_providers()
        self._build_cable_ases()

    def _build_tier1s(self) -> None:
        continents = ["NA", "EU", "AS", "SA", "AF", "OC"]
        for index in range(self.config.num_tier1):
            home = continents[index % 3]  # tier-1s concentrate in NA/EU/AS
            spread = self.rng.sample(continents, k=self.rng.randint(3, 5))
            if home not in spread:
                spread[0] = home
            countries = []
            for continent in [home] + [c for c in spread if c != home]:
                options = self.world.countries_in(continent)
                countries.append(self.rng.choice(options).code)
            asn = self._create_as(
                name=f"Tier1-{index}",
                org_id=f"ORG-T1-{index}",
                countries=countries,
                role=ASRole.TRANSIT,
                cities_per_country=2,
            )
            self.tier1s.append(asn)
            self._register_whois(asn, f"Tier1 Backbone {index}", f"tier1-{index}.example")

    def _build_large_isps(self) -> None:
        continents = ["NA", "EU", "AS", "SA", "AF", "OC"]
        org_index = 0
        built = 0
        while built < self.config.num_large_isps:
            continent = continents[built % len(continents)]
            options = self.world.countries_in(continent)
            num_countries = self.rng.randint(1, min(3, len(options)))
            countries = [c.code for c in self.rng.sample(options, k=num_countries)]
            # A minority are multinational across continents.
            if self.rng.random() < 0.15:
                other = self.rng.choice([c for c in continents if c != continent])
                countries.append(self.rng.choice(self.world.countries_in(other)).code)
            org_id = f"ORG-L-{org_index}"
            org_index += 1
            is_sibling_org = (
                self.rng.random() < self.config.sibling_org_rate
                and len(countries) >= 2
            )
            domain = f"large-{org_index}.example"
            public_email = self.rng.random() < self.config.sibling_public_email_rate
            if is_sibling_org:
                members = min(
                    self.rng.randint(2, self.config.max_siblings_per_org),
                    len(countries),
                )
                member_asns = []
                for member in range(members):
                    member_countries = countries[member::members]
                    asn = self._create_as(
                        name=f"LargeISP-{org_index}-{member}",
                        org_id=org_id,
                        countries=member_countries,
                        role=ASRole.TRANSIT,
                        cities_per_country=2,
                    )
                    member_asns.append(asn)
                    email_domain = "hotmail.com" if public_email else domain
                    self._register_whois(asn, f"Large ISP {org_index}", email_domain)
                    self.large_isps.append(asn)
                    built += 1
                # Sibling full mesh.
                for i, a in enumerate(member_asns):
                    for b in member_asns[i + 1:]:
                        self.graph.add_link(a, b, Relationship.SIBLING)
            else:
                asn = self._create_as(
                    name=f"LargeISP-{org_index}",
                    org_id=org_id,
                    countries=countries,
                    role=ASRole.TRANSIT,
                    cities_per_country=2,
                )
                email_domain = "hotmail.com" if public_email else domain
                self._register_whois(asn, f"Large ISP {org_index}", email_domain)
                self.large_isps.append(asn)
                built += 1

    def _build_small_isps(self) -> None:
        all_countries = list(self.world.countries.values())
        for index in range(self.config.num_small_isps):
            country = all_countries[index % len(all_countries)]
            asn = self._create_as(
                name=f"SmallISP-{index}",
                org_id=f"ORG-S-{index}",
                countries=[country.code],
                role=ASRole.TRANSIT,
                cities_per_country=2,
            )
            self.small_isps.append(asn)
            self._register_whois(asn, f"Small ISP {index}", f"small-{index}.example")

    def _build_stubs(self) -> None:
        all_countries = list(self.world.countries.values())
        weights = [3 if c.continent in ("NA", "EU") else 1 for c in all_countries]
        for index in range(self.config.num_stubs):
            country = self.rng.choices(all_countries, weights=weights, k=1)[0]
            role = ASRole.EYEBALL if self.rng.random() < 0.7 else ASRole.EDUCATION
            asn = self._create_as(
                name=f"Stub-{index}",
                org_id=f"ORG-E-{index}",
                countries=[country.code],
                role=role,
                cities_per_country=1,
            )
            self.stubs.append(asn)
            self._register_whois(asn, f"Edge Network {index}", f"stub-{index}.example")

    def _build_content_providers(self) -> None:
        for index in range(self.config.num_content_providers):
            name, kind, num_dns = _CONTENT_NAMES[index % len(_CONTENT_NAMES)]
            role = ASRole.CDN if kind == "cdn" else ASRole.CONTENT
            # Content providers are US/EU based, multinational presence.
            home = self.rng.choice(["US", "US", "NL", "DE", "GB"])
            extra = [
                self.rng.choice(self.world.countries_in(cont)).code
                for cont in self.rng.sample(["EU", "AS", "SA", "NA"], k=2)
            ]
            org_id = f"ORG-C-{index}"
            num_asns = 2 if (role is ASRole.CDN and self.rng.random() < 0.5) else 1
            asns = []
            domain = f"{name.lower()}.example"
            for member in range(num_asns):
                asn = self._create_as(
                    name=f"{name}-{member}" if num_asns > 1 else name,
                    org_id=org_id,
                    countries=[home] + extra,
                    role=role,
                    cities_per_country=2,
                )
                asns.append(asn)
                vanity = domain if member == 0 else f"{name.lower()}-net{member}.example"
                if vanity != domain:
                    self.soa.add(vanity, domain)
                self._register_whois(asn, name, vanity)
                self.content_asns.append(asn)
            for i, a in enumerate(asns):
                for b in asns[i + 1:]:
                    self.graph.add_link(a, b, Relationship.SIBLING)
            dns_names = tuple(
                f"{label}{i}.{name.lower()}.example"
                for i, label in zip(range(num_dns), ["www", "media", "edge", "api"])
            )
            self.content.append(
                ContentProvider(name=name, asns=tuple(asns), dns_names=dns_names)
            )

    def _build_cable_ases(self) -> None:
        for index in range(self.config.num_cable_ases):
            pair = _OCEAN_PAIRS[index % len(_OCEAN_PAIRS)]
            country_a = self.rng.choice(self.world.countries_in(pair[0])).code
            country_b = self.rng.choice(self.world.countries_in(pair[1])).code
            asn = self._create_as(
                name=f"Cable-{index}",
                org_id=f"ORG-CBL-{index}",
                countries=[country_a, country_b],
                role=ASRole.CABLE,
                cities_per_country=1,
            )
            self.cable_asns.append(asn)
            self._register_whois(asn, f"Submarine Cable {index}", f"cable-{index}.example")
            self.cables.add(
                Cable(
                    name=f"CABLE-{index}",
                    landing_countries=frozenset({country_a, country_b}),
                    operator_asn=asn,
                )
            )
        # Consortium cables without their own ASN, for registry realism.
        for index in range(2):
            pair = _OCEAN_PAIRS[(index + 3) % len(_OCEAN_PAIRS)]
            self.cables.add(
                Cable(
                    name=f"CONSORTIUM-{index}",
                    landing_countries=frozenset(
                        {
                            self.rng.choice(self.world.countries_in(pair[0])).code,
                            self.rng.choice(self.world.countries_in(pair[1])).code,
                        }
                    ),
                    owners=frozenset({"Tier1 Backbone 0", "Tier1 Backbone 1"}),
                )
            )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _continent_of(self, asn: int) -> str:
        return self.home_city[asn].continent

    def _country_of(self, asn: int) -> str:
        return self.home_city[asn].country

    def _sample_providers(
        self, candidates: List[int], count: int, same_country: str = "",
        same_continent: str = "",
    ) -> List[int]:
        """Pick up to ``count`` distinct providers, local ones preferred."""
        local = [a for a in candidates if same_country and self._country_of(a) == same_country]
        regional = [
            a
            for a in candidates
            if same_continent and self._continent_of(a) == same_continent
        ]
        picked: List[int] = []
        for group in (local, regional, candidates):
            remaining = [a for a in group if a not in picked]
            self.rng.shuffle(remaining)
            for asn in remaining:
                if len(picked) >= count:
                    return picked
                picked.append(asn)
        return picked

    def wire_relationships(self) -> None:
        rng, config = self.rng, self.config
        # Tier-1 clique.
        for i, a in enumerate(self.tier1s):
            for b in self.tier1s[i + 1:]:
                self.graph.add_link(a, b, Relationship.PEER)
        # Large ISPs buy from tier-1s and peer regionally.
        for asn in self.large_isps:
            count = rng.randint(1, config.max_providers_large)
            providers = self._sample_providers(
                self.tier1s, count, same_continent=self._continent_of(asn)
            )
            for provider in providers:
                if not self.graph.has_link(provider, asn):
                    self.graph.add_link(provider, asn, Relationship.CUSTOMER)
        for i, a in enumerate(self.large_isps):
            for b in self.large_isps[i + 1:]:
                if self.graph.has_link(a, b):
                    continue
                if self._continent_of(a) == self._continent_of(b):
                    if rng.random() < config.peer_prob_large:
                        self.graph.add_link(a, b, Relationship.PEER)
        # Small ISPs buy from large ISPs, peer at the edge.  A large
        # minority buy from foreign regional hubs (the
        # Frankfurt/Amsterdam pattern), giving the model cross-border
        # shortcuts that domestic-preferring ASes then avoid (Table 3).
        for asn in self.small_isps:
            count = rng.randint(1, config.max_providers_small)
            hub_seeking = rng.random() < 0.4
            providers = self._sample_providers(
                self.large_isps,
                count,
                same_country="" if hub_seeking else self._country_of(asn),
                same_continent=self._continent_of(asn),
            )
            for provider in providers:
                if not self.graph.has_link(provider, asn):
                    self.graph.add_link(provider, asn, Relationship.CUSTOMER)
        for i, a in enumerate(self.small_isps):
            for b in self.small_isps[i + 1:]:
                if self.graph.has_link(a, b):
                    continue
                if self._country_of(a) == self._country_of(b):
                    if rng.random() < config.peer_prob_small_domestic:
                        self.graph.add_link(a, b, Relationship.PEER)
                elif self._continent_of(a) == self._continent_of(b):
                    if rng.random() < config.peer_prob_small_continent:
                        self.graph.add_link(a, b, Relationship.PEER)
        # Stubs buy from small (sometimes large) ISPs in-country.
        for asn in self.stubs:
            count = rng.randint(1, config.max_providers_stub)
            pool = self.small_isps if rng.random() < 0.85 else self.large_isps
            providers = self._sample_providers(
                pool,
                count,
                same_country=self._country_of(asn),
                same_continent=self._continent_of(asn),
            )
            for provider in providers:
                if not self.graph.has_link(provider, asn):
                    self.graph.add_link(provider, asn, Relationship.CUSTOMER)
        for i, a in enumerate(self.stubs):
            for b in self.stubs[i + 1:]:
                if self._country_of(a) == self._country_of(b):
                    if rng.random() < config.peer_prob_stub:
                        if not self.graph.has_link(a, b):
                            self.graph.add_link(a, b, Relationship.PEER)
        # Content providers multihome to tier-1s/large ISPs and peer widely.
        for asn in self.content_asns:
            upstream_pool = self.tier1s + self.large_isps
            providers = self._sample_providers(
                upstream_pool, config.content_transit_providers
            )
            for provider in providers:
                if not self.graph.has_link(provider, asn):
                    self.graph.add_link(provider, asn, Relationship.CUSTOMER)
            for isp in self.large_isps:
                if self.graph.has_link(asn, isp):
                    continue
                if rng.random() < config.content_peering_prob:
                    self.graph.add_link(asn, isp, Relationship.PEER)
        # Cable ASes provide point-to-point transit between landing ISPs.
        # Landing ISPs usually prefer the cable over their terrestrial
        # providers (it is the physical shortcut), which we express
        # later as a local-pref override between the provider and peer
        # bands.
        self._cable_customers: List[Tuple[int, int]] = []
        for asn in self.cable_asns:
            asys = self.graph.get_as(asn)
            for country in sorted(asys.presence):
                landed = [
                    isp
                    for isp in self.large_isps + self.small_isps
                    if self._country_of(isp) == country
                ]
                self.rng.shuffle(landed)
                for isp in landed[:4]:
                    if not self.graph.has_link(asn, isp):
                        self.graph.add_link(asn, isp, Relationship.CUSTOMER)
                        self._cable_customers.append((asn, isp))

    # ------------------------------------------------------------------
    # Addressing and router-level detail
    # ------------------------------------------------------------------
    def allocate_addresses(self) -> None:
        for asn in sorted(self.graph.asns()):
            infra = self.pool.allocate(22)
            self.infra_allocators[asn] = PrefixAllocator(infra)
            # Reserve the first /24 of infra space for router loopbacks.
            loopbacks = self.infra_allocators[asn].allocate(24)
            prefixes = [infra]
            role = self.graph.get_as(asn).role
            if role in (ASRole.CONTENT, ASRole.CDN):
                extra = self.rng.randint(2, self.config.max_prefixes_per_origin)
            elif role is ASRole.CABLE:
                extra = 0
            elif asn in self.stubs:
                extra = self.rng.randint(1, 2)
            else:
                extra = self.rng.randint(1, self.config.max_prefixes_per_origin - 1)
            for _ in range(extra):
                prefixes.append(self.pool.allocate(20))
            self.prefixes[asn] = prefixes
            # One router per presence city, numbered from the loopback /24.
            for offset, city in enumerate(self.presence_cities[asn]):
                ip = loopbacks.address_at(offset + 1)
                self.router_ips[(asn, city.name)] = ip
                self.ip_locations[ip.value] = city

    def _interconnect_city(self, a: int, b: int, owner: int) -> City:
        cities_a = self.presence_cities[a]
        cities_b = self.presence_cities[b]
        names_b = {city.name for city in cities_b}
        shared = [city for city in cities_a if city.name in names_b]
        if shared:
            return self.rng.choice(shared)
        countries_b = {city.country for city in cities_b}
        same_country = [city for city in cities_a if city.country in countries_b]
        if same_country:
            return self.rng.choice(same_country)
        return self.home_city[owner]

    def build_interconnects(self) -> None:
        for a, b, rel in self.graph.links():
            # Provider side owns the interconnect addressing; for
            # symmetric links the lower ASN does.
            owner = a if rel is Relationship.CUSTOMER else min(a, b)
            city = self._interconnect_city(a, b, owner)
            subnet = self.infra_allocators[owner].allocate(30)
            ip_owner = subnet.address_at(1)
            ip_other = subnet.address_at(2)
            key = (min(a, b), max(a, b))
            if key[0] == owner:
                ip_low, ip_high = ip_owner, ip_other
            else:
                ip_low, ip_high = ip_other, ip_owner
            self.interconnects[key] = Interconnect(
                a=key[0],
                b=key[1],
                city=city,
                subnet=subnet,
                ip_a=ip_low,
                ip_b=ip_high,
                owner=owner,
            )
            self.ip_locations[ip_owner.value] = city
            self.ip_locations[ip_other.value] = city
            # Ensure both sides have a router in the interconnect city.
            for asn in (a, b):
                if (asn, city.name) not in self.router_ips:
                    ip = self.infra_allocators[asn].allocate(32).first_address()
                    self.router_ips[(asn, city.name)] = ip
                    self.ip_locations[ip.value] = city

    # ------------------------------------------------------------------
    # Policies
    # ------------------------------------------------------------------
    def build_policies(self) -> None:
        rng, config = self.rng, self.config
        for asn in sorted(self.graph.asns()):
            policy = Policy(asn=asn)
            home = self.home_city[asn]
            for neighbor in self.graph.neighbors(asn):
                interconnect = self.interconnects.get(
                    (min(asn, neighbor), max(asn, neighbor))
                )
                if interconnect is None:
                    continue
                cost = int(distance_km(home, interconnect.city) / 50)
                policy.igp_cost[neighbor] = cost + rng.randint(0, 3)
            if rng.random() < config.domestic_preference_rate:
                policy.prefers_domestic = True
                policy.home_country = self._country_of(asn)
            if rng.random() < config.poison_filter_rate:
                policy.filters_poisoned = True
            if rng.random() < config.loop_prevention_disabled_rate:
                policy.loop_prevention_disabled = True
            self.policies[asn] = policy
        self._inject_backup_links()
        self._inject_nongr_preferences()
        self._inject_partial_transit()
        self._inject_hybrid_relationships()
        self._inject_cable_preferences()

    def _inject_cable_preferences(self) -> None:
        """Landing ISPs prefer their cable over terrestrial providers.

        Local-pref 150 sits between the provider (100) and peer (200)
        bands: the cable wins against other providers without upsetting
        the customer>peer>provider ordering, so convergence stays safe.
        """
        for cable, isp in getattr(self, "_cable_customers", []):
            if self.rng.random() < 0.7:
                # Above the peer band: the cable beats terrestrial peer
                # and provider routes for trans-oceanic destinations.
                # Customer routes still win, so convergence stays safe.
                self.policies[isp].neighbor_local_pref[cable] = 250

    def _inject_backup_links(self) -> None:
        for asn in self.stubs + self.small_isps:
            providers = self.graph.providers(asn)
            if len(providers) >= 2 and self.rng.random() < self.config.backup_link_rate:
                backup = self.rng.choice(providers)
                self.policies[asn].neighbor_local_pref[backup] = 50

    def _inject_nongr_preferences(self) -> None:
        for asn in self.large_isps + self.small_isps:
            if self.rng.random() >= self.config.nongr_local_pref_rate:
                continue
            peers = self.graph.peers(asn)
            providers = self.graph.providers(asn)
            if peers and self.rng.random() < 0.6:
                # Prefer one peer over customer routes (e.g. better
                # performance or paid peering).
                self.policies[asn].neighbor_local_pref[self.rng.choice(peers)] = 350
            elif providers:
                # Prefer one provider over peers (e.g. a backup
                # arrangement inverted by traffic engineering).
                self.policies[asn].neighbor_local_pref[self.rng.choice(providers)] = 250

    def _inject_partial_transit(self) -> None:
        candidates = [
            (provider, customer, rel)
            for provider, customer, rel in self.graph.links()
            if rel is Relationship.CUSTOMER
            and provider in set(self.large_isps + self.small_isps)
        ]
        for provider, customer, _rel in candidates:
            if self.rng.random() < self.config.partial_transit_rate:
                self.policies[provider].partial_transit_to.add(customer)
                self.complex_truth.add_partial_transit(
                    PartialTransitEntry(provider=provider, customer=customer)
                )

    def _inject_hybrid_relationships(self) -> None:
        """Pick peer links whose relationship differs by city.

        The routed (ground truth) relationship at the interconnect city
        is PEER while the other city behaves as customer-provider; the
        inference layer will pick up the wrong one for these pairs.
        """
        peer_links = [
            (a, b)
            for a, b, rel in self.graph.links()
            if rel is Relationship.PEER
            and a in set(self.large_isps)
            and b in set(self.large_isps)
        ]
        for a, b in peer_links:
            if self.rng.random() >= self.config.hybrid_rate:
                continue
            interconnect = self.interconnects[(min(a, b), max(a, b))]
            routed_city = interconnect.city.name
            other_cities = [
                city.name
                for city in self.presence_cities[a]
                if city.name != routed_city
            ]
            if not other_cities:
                continue
            other_city = self.rng.choice(other_cities)
            self.complex_truth.add_hybrid(
                HybridEntry(a, b, routed_city, Relationship.PEER)
            )
            self.complex_truth.add_hybrid(
                HybridEntry(a, b, other_city, Relationship.CUSTOMER)
            )

    def inject_selective_exports(self) -> None:
        """Origin-level prefix-specific export policies (Section 4.3)."""
        for asn in sorted(self.graph.asns()):
            providers = self.graph.providers(asn)
            prefixes = self.prefixes.get(asn, [])
            if len(providers) < 2 or len(prefixes) < 2:
                continue
            rate = self.config.selective_export_rate
            if asn in set(self.content_asns):
                # CDNs and content providers steer prefixes between
                # transits far more aggressively than eyeballs do —
                # the paper's Akamai/Netflix skew.
                rate = min(0.85, rate * 2.5)
            if self.rng.random() >= rate:
                continue
            # Announce one non-infrastructure prefix to a strict subset
            # of providers (peers still receive it).  Bias toward the
            # serving prefix (the last one), since that is where the
            # paper observes selective announcement: content hosted on
            # prefixes with their own export arrangements.
            if self.rng.random() < 0.6:
                prefix = prefixes[-1]
            else:
                prefix = self.rng.choice(prefixes[1:])
            # Most selective announcements steer the prefix onto a
            # single transit (the strongest observable policy).
            if self.rng.random() < 0.6:
                keep_count = 1
            else:
                keep_count = self.rng.randint(1, len(providers) - 1)
            keep = self.rng.sample(providers, k=keep_count)
            allowed = set(self.graph.neighbors(asn)) - (set(providers) - set(keep))
            self.policies[asn].selective_export[prefix] = frozenset(allowed)

    def inject_prefix_local_prefs(self) -> None:
        """Per-(neighbor, prefix) preference overrides toward content."""
        content_prefixes = [
            prefix
            for asn in self.content_asns
            for prefix in self.prefixes[asn][1:]
        ]
        if not content_prefixes:
            return
        for asn in self.large_isps + self.small_isps:
            if self.rng.random() >= self.config.prefix_local_pref_rate:
                continue
            neighbors = list(self.graph.neighbors(asn))
            if not neighbors:
                continue
            # Traffic-engineer one to three content prefixes.
            for _ in range(self.rng.randint(1, 3)):
                neighbor = self.rng.choice(neighbors)
                prefix = self.rng.choice(content_prefixes)
                self.policies[asn].prefix_local_pref[(neighbor, prefix)] = (
                    self.rng.choice([80, 250, 350])
                )

    def inject_prepending(self) -> None:
        """Origins prepend toward one provider to steer inbound traffic."""
        for asn in sorted(self.graph.asns()):
            providers = self.graph.providers(asn)
            prefixes = self.prefixes.get(asn, [])
            if len(providers) < 2 or not prefixes:
                continue
            if self.rng.random() >= self.config.prepend_rate:
                continue
            provider = self.rng.choice(providers)
            prefix = prefixes[-1] if self.rng.random() < 0.7 else self.rng.choice(prefixes)
            self.policies[asn].export_prepend[(prefix, provider)] = self.rng.randint(1, 3)

    # ------------------------------------------------------------------
    # Content deployment
    # ------------------------------------------------------------------
    def deploy_content(self) -> None:
        eyeballs = [
            asn
            for asn in self.stubs
            if self.graph.get_as(asn).role is ASRole.EYEBALL
        ]
        for provider in self.content:
            on_net_asn = provider.asns[0]
            is_cdn = self.graph.get_as(on_net_asn).role is ASRole.CDN
            # Off-net cache footprint is per provider; every DNS name is
            # served from the same deployment.
            provider_hosts: List[int] = []
            if is_cdn and eyeballs:
                # Spread caches across continents: sort candidates into
                # continent buckets and draw round-robin.
                by_continent: Dict[str, List[int]] = {}
                for candidate in eyeballs:
                    by_continent.setdefault(
                        self._continent_of(candidate), []
                    ).append(candidate)
                buckets = list(by_continent.values())
                for bucket in buckets:
                    self.rng.shuffle(bucket)
                index = 0
                while len(provider_hosts) < min(12, len(eyeballs)):
                    bucket = buckets[index % len(buckets)]
                    if bucket:
                        provider_hosts.append(bucket.pop())
                    index += 1
                    if all(not bucket for bucket in buckets):
                        break
            for dns_name in provider.dns_names:
                replicas: List[Replica] = []
                # On-net replicas in the provider's own cities.
                for asn in provider.asns:
                    serving_prefix = self.prefixes[asn][-1]
                    for index, city in enumerate(self.presence_cities[asn]):
                        ip = serving_prefix.address_at(index + 10)
                        self.ip_locations[ip.value] = city
                        replicas.append(Replica(ip=ip, asn=asn, city=city))
                # Off-net caches inside eyeball ISPs (CDNs only).
                if provider_hosts:
                    for host in provider_hosts:
                        host_prefix = self.prefixes[host][-1]
                        ip = host_prefix.address_at(self.rng.randint(20, 200))
                        city = self.home_city[host]
                        self.ip_locations[ip.value] = city
                        replicas.append(Replica(ip=ip, asn=host, city=city))
                provider.replicas[dns_name] = replicas

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def build(self) -> Internet:
        self.build_populations()
        self.wire_relationships()
        self.allocate_addresses()
        self.build_interconnects()
        self.build_policies()
        self.inject_selective_exports()
        self.inject_prefix_local_prefs()
        self.inject_prepending()
        self.deploy_content()
        eyeball_asns = [
            asn
            for asn in self.stubs + self.small_isps
            if self.graph.get_as(asn).role in (ASRole.EYEBALL, ASRole.TRANSIT)
        ]
        return Internet(
            world=self.world,
            graph=self.graph,
            policies=self.policies,
            prefixes=self.prefixes,
            interconnects=self.interconnects,
            router_ips=self.router_ips,
            ip_locations=self.ip_locations,
            whois=self.whois,
            soa=self.soa,
            orgs=self.orgs,
            cables=self.cables,
            complex_truth=self.complex_truth,
            content=self.content,
            eyeball_asns=eyeball_asns,
            home_city=self.home_city,
            presence_cities=self.presence_cities,
        )


def generate_internet(
    config: Optional[TopologyConfig] = None, seed: int = 0
) -> Internet:
    """Generate a synthetic Internet from ``config`` and ``seed``."""
    return _Builder(config or TopologyConfig(), seed).build()
