"""Tests for the latency model and traceroute engine."""

import random

import pytest

from repro.bgp import BGPSimulator
from repro.dataplane import TracerouteEngine, rtt_ms, propagation_delay_ms
from repro.net.ip import IPAddress
from repro.net.trie import PrefixTrie
from repro.topogen import generate_internet
from repro.topogen.config import small_config
from repro.topogen.geography import City

NYC = City("New York", "US", "NA", 40.7, -74.0)
LON = City("London", "GB", "EU", 51.5, -0.1)


class TestLatency:
    def test_zero_distance_small_rtt(self):
        assert rtt_ms(NYC, NYC, hop_count=1) < 1.0

    def test_transatlantic_rtt_plausible(self):
        rtt = rtt_ms(NYC, LON, hop_count=8)
        # Real NY-London RTTs sit around 70-90 ms.
        assert 50 < rtt < 120

    def test_rtt_grows_with_hops_and_jitter(self):
        base = rtt_ms(NYC, LON, hop_count=1)
        assert rtt_ms(NYC, LON, hop_count=10) > base
        assert rtt_ms(NYC, LON, hop_count=1, jitter=5.0) == pytest.approx(base + 5.0)

    def test_negative_hop_count_rejected(self):
        with pytest.raises(ValueError):
            rtt_ms(NYC, LON, hop_count=-1)

    def test_propagation_delay_symmetric(self):
        assert propagation_delay_ms(NYC, LON) == pytest.approx(
            propagation_delay_ms(LON, NYC)
        )


@pytest.fixture(scope="module")
def world():
    internet = generate_internet(small_config(), seed=77)
    simulator = BGPSimulator(
        internet.graph, policies=internet.policies, country_of=internet.country_of
    )
    provider = internet.content[0]
    origin = provider.asns[0]
    prefix = internet.prefixes[origin][-1]
    simulator.originate(origin, prefix)
    announced = PrefixTrie()
    announced.insert(prefix, origin)
    return internet, simulator, announced, origin, prefix


class TestTracerouteEngine:
    def _engine(self, world, missing_hop_rate=0.0):
        internet, simulator, announced, _origin, _prefix = world
        return TracerouteEngine(
            internet, simulator, announced, missing_hop_rate=missing_hop_rate
        )

    def _probe(self, world):
        internet = world[0]
        asn = internet.eyeball_asns[0]
        ip = internet.prefixes[asn][-1].address_at(400)
        return asn, ip, internet.home_city[asn]

    def test_trace_reaches_destination(self, world):
        internet, simulator, _announced, origin, prefix = world
        engine = self._engine(world)
        asn, ip, city = self._probe(world)
        destination = prefix.address_at(10)
        result = engine.trace(asn, ip, city, destination, random.Random(0))
        assert result.reached
        assert result.hops[-1].ip == destination
        assert result.truth_as_path[0] == asn
        assert result.truth_as_path[-1] == origin

    def test_all_hops_respond_without_loss(self, world):
        engine = self._engine(world, missing_hop_rate=0.0)
        asn, ip, city = self._probe(world)
        destination = world[4].address_at(10)
        result = engine.trace(asn, ip, city, destination, random.Random(0))
        assert all(hop.responded() for hop in result.hops)
        assert result.responding_ips() == [hop.ip for hop in result.hops]

    def test_missing_hops_appear_with_loss(self, world):
        engine = self._engine(world, missing_hop_rate=1.0)
        asn, ip, city = self._probe(world)
        destination = world[4].address_at(10)
        result = engine.trace(asn, ip, city, destination, random.Random(0))
        # Everything but the destination must be '*'.
        assert all(not hop.responded() for hop in result.hops[:-1])
        assert result.hops[-1].responded()

    def test_rtts_monotone_in_expectation(self, world):
        engine = self._engine(world)
        asn, ip, city = self._probe(world)
        destination = world[4].address_at(10)
        result = engine.trace(asn, ip, city, destination, random.Random(0))
        rtts = [hop.rtt for hop in result.hops if hop.rtt is not None]
        assert all(rtt >= 0 for rtt in rtts)

    def test_unreachable_destination(self, world):
        engine = self._engine(world)
        asn, ip, city = self._probe(world)
        stranger = IPAddress.parse("203.0.113.1")  # not announced
        result = engine.trace(asn, ip, city, stranger, random.Random(0))
        assert not result.reached
        assert result.hops == []

    def test_deterministic_per_seed(self, world):
        asn, ip, city = self._probe(world)
        destination = world[4].address_at(10)
        first = self._engine(world, missing_hop_rate=0.3).trace(
            asn, ip, city, destination, random.Random(5)
        )
        second = self._engine(world, missing_hop_rate=0.3).trace(
            asn, ip, city, destination, random.Random(5)
        )
        assert first.hops == second.hops

    def test_destination_prefix_lookup(self, world):
        engine = self._engine(world)
        prefix = world[4]
        assert engine.destination_prefix(prefix.address_at(10)) == prefix
        assert engine.destination_prefix(IPAddress.parse("203.0.113.1")) is None
