"""Tests for the measurement platform: probes, selection, DNS, campaign."""

import random
from collections import Counter

import pytest

from repro.atlas import (
    CampaignConfig,
    CDNResolver,
    generate_probes,
    run_campaign,
    select_probes_balanced,
    select_probes_greedy,
)
from repro.topogen import generate_internet
from repro.topogen.config import small_config


@pytest.fixture(scope="module")
def internet():
    return generate_internet(small_config(), seed=55)


@pytest.fixture(scope="module")
def probes(internet):
    return generate_probes(internet, count=600, seed=55)


class TestProbeGeneration:
    def test_count_and_hosting(self, internet, probes):
        assert len(probes) == 600
        hosts = set(internet.eyeball_asns)
        assert all(probe.asn in hosts for probe in probes)

    def test_europe_skew(self, probes):
        counts = Counter(probe.continent for probe in probes)
        assert counts["EU"] > counts["SA"]
        assert counts["EU"] > counts["AF"]

    def test_probe_ips_inside_host_prefix(self, internet, probes):
        trie = internet.origin_trie()
        for probe in probes[:100]:
            assert trie.lookup(probe.ip) == probe.asn

    def test_probe_ips_registered_for_geolocation(self, internet, probes):
        for probe in probes[:50]:
            assert internet.ip_locations.get(probe.ip.value) is not None

    def test_deterministic(self, internet):
        a = generate_probes(internet, count=100, seed=1)
        b = generate_probes(internet, count=100, seed=1)
        assert a == b


class TestBalancedSelection:
    def test_per_continent_cap(self, probes):
        selected = select_probes_balanced(probes, per_continent=20, seed=0)
        counts = Counter(probe.continent for probe in selected)
        assert all(count <= 20 for count in counts.values())

    def test_small_continents_fully_used(self, probes):
        population = Counter(probe.continent for probe in probes)
        selected = select_probes_balanced(probes, per_continent=10 ** 6, seed=0)
        assert len(selected) == len(probes)
        assert Counter(p.continent for p in selected) == population

    def test_as_diversity(self, probes):
        selected = select_probes_balanced(probes, per_continent=30, seed=0)
        # Round-robin across ASes: few duplicate ASes among the picks.
        by_continent = {}
        for probe in selected:
            by_continent.setdefault(probe.continent, []).append(probe)
        for continent_probes in by_continent.values():
            asns = [p.asn for p in continent_probes]
            available = len({p.asn for p in probes if p.continent == continent_probes[0].continent})
            assert len(set(asns)) >= min(len(asns), available) * 0.8

    def test_no_duplicates(self, probes):
        selected = select_probes_balanced(probes, per_continent=25, seed=0)
        ids = [p.probe_id for p in selected]
        assert len(ids) == len(set(ids))


class TestGreedySelection:
    def test_maximizes_coverage(self, probes):
        coverage = {
            probe.probe_id: frozenset({probe.asn, probe.asn % 7}) for probe in probes
        }
        selected = select_probes_greedy(
            probes, lambda p: coverage[p.probe_id], budget=5
        )
        assert len(selected) <= 5
        # First pick covers at least as much as any other single probe.
        first_gain = len(coverage[selected[0].probe_id])
        assert first_gain == max(len(c) for c in coverage.values())

    def test_stops_when_nothing_new(self, probes):
        same = frozenset({1, 2})
        selected = select_probes_greedy(probes, lambda p: same, budget=10)
        assert len(selected) == 1

    def test_zero_budget(self, probes):
        assert select_probes_greedy(probes, lambda p: frozenset(), budget=0) == []


class TestCDNResolver:
    def test_resolves_known_names(self, internet, probes):
        resolver = CDNResolver(internet)
        names = resolver.names()
        assert names
        replica = resolver.resolve(names[0], probes[0], random.Random(1))
        assert replica is not None

    def test_unknown_name(self, internet, probes):
        resolver = CDNResolver(internet)
        assert (
            resolver.resolve("nonexistent.example", probes[0], random.Random(1))
            is None
        )

    def test_locality_prefers_nearby(self, internet, probes):
        from repro.topogen.geography import distance_km

        resolver = CDNResolver(internet, locality=1)
        rng = random.Random(1)
        for probe in probes[:20]:
            for name in resolver.names():
                replica = resolver.resolve(name, probe, rng)
                others = [
                    r
                    for r in internet.content[0].replicas.get(name, [])
                ]
                if replica is None or not others:
                    continue
                best = min(distance_km(probe.city, r.city) for r in others)
                # With locality=1 the answer is the closest replica of
                # that name (ties broken deterministically).
                if replica in others:
                    assert distance_km(probe.city, replica.city) == pytest.approx(
                        best
                    )

    def test_invalid_locality(self, internet):
        with pytest.raises(ValueError):
            CDNResolver(internet, locality=0)


class TestCampaign:
    def test_campaign_end_to_end(self, internet, probes):
        selected = select_probes_balanced(probes, per_continent=5, seed=0)
        dataset = run_campaign(internet, selected, CampaignConfig(seed=3))
        assert dataset.measurements
        reached = dataset.successful()
        assert len(reached) >= 0.8 * len(dataset.measurements)
        # Destination ASes cover content and (for CDNs) eyeball hosts.
        assert dataset.destination_asns
        for asn in dataset.destination_asns:
            assert dataset.destination_prefixes[asn]
        # Announced trie maps every replica covered by it to its host.
        for measurement in reached[:50]:
            match = dataset.announced.lookup_with_prefix(
                measurement.traceroute.destination_ip
            )
            assert match is not None
            assert match[1] == measurement.replica.asn
