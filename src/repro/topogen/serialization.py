"""Persisting generated Internets as JSON.

A generated Internet is a dataset: regenerating one from a seed is
cheap, but sharing *exactly* the topology a result was produced on —
including every injected policy deviation — needs serialization.
:func:`save_internet` / :func:`load_internet` round-trip everything the
:class:`~repro.topogen.internet.Internet` container holds.

Cities are stored by name and re-bound against the fixed world map at
load time, so files stay small and human-diffable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.bgp.policy import Policy
from repro.net.ip import IPAddress, Prefix
from repro.topogen.geography import City, build_world
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

#: Bump when the on-disk layout changes incompatibly.
FORMAT_VERSION = 1

_REL_CODE = {
    Relationship.CUSTOMER: "c2p",
    Relationship.PEER: "p2p",
    Relationship.SIBLING: "sibling",
    Relationship.PROVIDER: "provider",
}
_CODE_REL = {code: rel for rel, code in _REL_CODE.items()}


def _city_index() -> Dict[str, City]:
    index: Dict[str, City] = {}
    for city in build_world().all_cities():
        if city.name in index:
            raise RuntimeError(f"world map has duplicate city name {city.name!r}")
        index[city.name] = city
    return index


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _policy_to_dict(policy: Policy) -> Dict:
    return {
        "neighbor_local_pref": {
            str(neighbor): pref for neighbor, pref in policy.neighbor_local_pref.items()
        },
        "prefix_local_pref": [
            [neighbor, str(prefix), pref]
            for (neighbor, prefix), pref in policy.prefix_local_pref.items()
        ],
        "igp_cost": {str(neighbor): cost for neighbor, cost in policy.igp_cost.items()},
        "selective_export": [
            [str(prefix), sorted(allowed)]
            for prefix, allowed in policy.selective_export.items()
        ],
        "export_prepend": [
            [str(prefix), neighbor, count]
            for (prefix, neighbor), count in policy.export_prepend.items()
        ],
        "partial_transit_to": sorted(policy.partial_transit_to),
        "home_country": policy.home_country,
        "prefers_domestic": policy.prefers_domestic,
        "filters_poisoned": policy.filters_poisoned,
        "loop_prevention_disabled": policy.loop_prevention_disabled,
    }


def _policy_from_dict(asn: int, data: Dict) -> Policy:
    return Policy(
        asn=asn,
        neighbor_local_pref={
            int(neighbor): pref
            for neighbor, pref in data.get("neighbor_local_pref", {}).items()
        },
        prefix_local_pref={
            (neighbor, Prefix.parse(prefix)): pref
            for neighbor, prefix, pref in data.get("prefix_local_pref", [])
        },
        igp_cost={
            int(neighbor): cost for neighbor, cost in data.get("igp_cost", {}).items()
        },
        selective_export={
            Prefix.parse(prefix): frozenset(allowed)
            for prefix, allowed in data.get("selective_export", [])
        },
        export_prepend={
            (Prefix.parse(prefix), neighbor): count
            for prefix, neighbor, count in data.get("export_prepend", [])
        },
        partial_transit_to=set(data.get("partial_transit_to", [])),
        home_country=data.get("home_country", ""),
        prefers_domestic=data.get("prefers_domestic", False),
        filters_poisoned=data.get("filters_poisoned", False),
        loop_prevention_disabled=data.get("loop_prevention_disabled", False),
    )


def internet_to_dict(internet: Internet) -> Dict:
    """The JSON-compatible representation of a generated Internet."""
    return {
        "format_version": FORMAT_VERSION,
        "ases": [
            {
                "asn": asys.asn,
                "name": asys.name,
                "org_id": asys.org_id,
                "country": asys.country,
                "presence": sorted(asys.presence),
                "role": asys.role.value,
                "continent": asys.continent,
            }
            for asys in sorted(internet.graph.ases(), key=lambda a: a.asn)
        ],
        "links": [
            [a, b, _REL_CODE[rel]] for a, b, rel in internet.graph.links()
        ],
        "policies": {
            str(asn): _policy_to_dict(policy)
            for asn, policy in sorted(internet.policies.items())
        },
        "prefixes": {
            str(asn): [str(prefix) for prefix in prefixes]
            for asn, prefixes in sorted(internet.prefixes.items())
        },
        "interconnects": [
            {
                "a": ic.a,
                "b": ic.b,
                "city": ic.city.name,
                "subnet": str(ic.subnet),
                "ip_a": str(ic.ip_a),
                "ip_b": str(ic.ip_b),
                "owner": ic.owner,
            }
            for ic in (
                internet.interconnects[key]
                for key in sorted(internet.interconnects)
            )
        ],
        "router_ips": [
            [asn, city_name, str(ip)]
            for (asn, city_name), ip in sorted(internet.router_ips.items())
        ],
        "ip_locations": {
            str(value): city.name
            for value, city in sorted(internet.ip_locations.items())
        },
        "whois": [
            {
                "asn": record.asn,
                "org_name": record.org_name,
                "org_id": record.org_id,
                "email": record.email,
                "phone": record.phone,
                "country": record.country,
            }
            for record in sorted(internet.whois, key=lambda r: r.asn)
        ],
        "soa": [list(pair) for pair in internet.soa.records()],
        "orgs": {org: sorted(members) for org, members in sorted(internet.orgs.items())},
        "cables": [
            {
                "name": cable.name,
                "landing_countries": sorted(cable.landing_countries),
                "operator_asn": cable.operator_asn,
                "owners": sorted(cable.owners),
            }
            for cable in internet.cables.cables()
        ],
        "hybrid": [
            [entry.asn, entry.neighbor, entry.city, _REL_CODE[entry.relationship]]
            for entry in internet.complex_truth.hybrid_entries()
        ],
        "partial_transit": [
            [entry.provider, entry.customer, entry.scope, sorted(entry.destinations)]
            for entry in internet.complex_truth.partial_transit_entries()
        ],
        "content": [
            {
                "name": provider.name,
                "asns": list(provider.asns),
                "dns_names": list(provider.dns_names),
                "replicas": {
                    dns_name: [
                        [str(replica.ip), replica.asn, replica.city.name]
                        for replica in replicas
                    ]
                    for dns_name, replicas in sorted(provider.replicas.items())
                },
            }
            for provider in internet.content
        ],
        # Order matters: probe placement draws from this list with
        # weights positionally aligned to it.
        "eyeball_asns": list(internet.eyeball_asns),
        "home_city": {
            str(asn): city.name for asn, city in sorted(internet.home_city.items())
        },
        "presence_cities": {
            str(asn): [city.name for city in cities]
            for asn, cities in sorted(internet.presence_cities.items())
        },
    }


def internet_from_dict(data: Dict) -> Internet:
    """Rebuild an :class:`Internet` from its JSON representation."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version!r}")
    cities = _city_index()

    def city(name: str) -> City:
        try:
            return cities[name]
        except KeyError:
            raise ValueError(f"unknown city {name!r} in dataset") from None

    graph = ASGraph()
    for record in data["ases"]:
        graph.add_as(
            AS(
                asn=record["asn"],
                name=record["name"],
                org_id=record["org_id"],
                country=record["country"],
                presence=frozenset(record["presence"]),
                role=ASRole(record["role"]),
                continent=record["continent"],
            )
        )
    for a, b, code in data["links"]:
        graph.add_link(a, b, _CODE_REL[code])

    whois = WhoisRegistry()
    for record in data["whois"]:
        whois.add(WhoisRecord(**record))

    complex_truth = ComplexRelationships()
    for asn, neighbor, city_name, code in data["hybrid"]:
        complex_truth.add_hybrid(
            HybridEntry(
                asn=asn, neighbor=neighbor, city=city_name, relationship=_CODE_REL[code]
            )
        )
    for provider, customer, scope, destinations in data["partial_transit"]:
        complex_truth.add_partial_transit(
            PartialTransitEntry(
                provider=provider,
                customer=customer,
                scope=scope,
                destinations=frozenset(destinations),
            )
        )

    content = []
    for record in data["content"]:
        provider = ContentProvider(
            name=record["name"],
            asns=tuple(record["asns"]),
            dns_names=tuple(record["dns_names"]),
        )
        for dns_name, replicas in record["replicas"].items():
            provider.replicas[dns_name] = [
                Replica(ip=IPAddress.parse(ip), asn=asn, city=city(city_name))
                for ip, asn, city_name in replicas
            ]
        content.append(provider)

    return Internet(
        world=build_world(),
        graph=graph,
        policies={
            int(asn): _policy_from_dict(int(asn), policy)
            for asn, policy in data["policies"].items()
        },
        prefixes={
            int(asn): [Prefix.parse(prefix) for prefix in prefixes]
            for asn, prefixes in data["prefixes"].items()
        },
        interconnects={
            (record["a"], record["b"]): Interconnect(
                a=record["a"],
                b=record["b"],
                city=city(record["city"]),
                subnet=Prefix.parse(record["subnet"]),
                ip_a=IPAddress.parse(record["ip_a"]),
                ip_b=IPAddress.parse(record["ip_b"]),
                owner=record["owner"],
            )
            for record in data["interconnects"]
        },
        router_ips={
            (asn, city_name): IPAddress.parse(ip)
            for asn, city_name, ip in data["router_ips"]
        },
        ip_locations={
            int(value): city(city_name)
            for value, city_name in data["ip_locations"].items()
        },
        whois=whois,
        soa=SOADatabase(tuple(pair) for pair in data["soa"]),
        orgs={org: list(members) for org, members in data["orgs"].items()},
        cables=CableRegistry(
            Cable(
                name=record["name"],
                landing_countries=frozenset(record["landing_countries"]),
                operator_asn=record["operator_asn"],
                owners=frozenset(record["owners"]),
            )
            for record in data["cables"]
        ),
        complex_truth=complex_truth,
        content=content,
        eyeball_asns=list(data["eyeball_asns"]),
        home_city={
            int(asn): city(city_name)
            for asn, city_name in data["home_city"].items()
        },
        presence_cities={
            int(asn): [city(name) for name in names]
            for asn, names in data["presence_cities"].items()
        },
    )


def save_internet(internet: Internet, path: Union[str, Path]) -> None:
    """Write an Internet to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(internet_to_dict(internet), handle, sort_keys=True)


def load_internet(path: Union[str, Path]) -> Internet:
    """Read an Internet back from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return internet_from_dict(json.load(handle))
