"""Tests for route collectors and the PEERING testbed."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import ASPathAttribute, BGPSimulator
from repro.net.ip import Prefix
from repro.peering import FeedArchive, PeeringTestbed, RouteCollector, default_collectors
from repro.topogen import generate_internet
from repro.topogen.config import small_config
from repro.topology import ASGraph, Relationship

P1 = Prefix.parse("198.51.100.0/24")


def _world():
    graph = ASGraph()
    graph.add_link(1, 2, Relationship.CUSTOMER)
    graph.add_link(2, 3, Relationship.CUSTOMER)
    sim = BGPSimulator(graph)
    sim.originate(3, P1)
    return graph, sim


FEED_PREFIXES = [Prefix.parse(f"203.0.113.{64 * index}/26") for index in range(3)]


class _FeedView:
    """A stand-in for a converged simulator: each (peer, prefix)'s best
    route is one with the given AS path."""

    def __init__(self, paths):
        self._paths = paths

    def best_route(self, peer, prefix):
        path = self._paths.get((peer, prefix))
        if path is None:
            return None
        return SimpleNamespace(as_path=ASPathAttribute.from_sequence(path))


class TestRouteCollector:
    def test_collect_paths_start_with_peer(self):
        _graph, sim = _world()
        collector = RouteCollector(name="rv", peer_asns=(1, 2))
        paths = collector.collect(sim, P1)
        assert paths[1] == (1, 2, 3)
        assert paths[2] == (2, 3)

    def test_peers_without_route_skipped(self):
        _graph, sim = _world()
        collector = RouteCollector(name="rv", peer_asns=(1,))
        other = Prefix.parse("203.0.113.0/24")
        assert collector.collect(sim, other) == {}

    def test_feed_archive_links_and_edges(self):
        _graph, sim = _world()
        feeds = FeedArchive([RouteCollector(name="rv", peer_asns=(1,))])
        feeds.record(sim, [P1])
        assert feeds.paths_for(P1) == {(1, 2, 3)}
        assert feeds.observed_links() == {(1, 2), (2, 3)}
        assert feeds.origin_edge_observed(P1, 2, 3)
        assert not feeds.origin_edge_observed(P1, 1, 3)
        assert feeds.any_prefix_via_edge(2, 3)
        assert feeds.prefixes() == [P1]

    @given(
        st.lists(
            st.dictionaries(
                st.tuples(st.integers(1, 3), st.sampled_from(FEED_PREFIXES)),
                st.lists(st.integers(1, 6), max_size=4),
            ),
            min_size=1,
            max_size=2,
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_edge_index_answers_like_a_scan_of_every_path(self, rounds, recorded):
        """The origin-edge index answers what scanning every feed path
        answers, after each ``record`` (the magnet rounds record
        PEERING prefixes into the study's archive)."""
        feeds = FeedArchive([RouteCollector(name="rv", peer_asns=(1, 2, 3))])
        for views in rounds:
            feeds.record(_FeedView(views), FEED_PREFIXES[:recorded])
            for neighbor in range(1, 7):
                for origin in range(1, 7):
                    scans = [
                        any(
                            path[-2:] == (neighbor, origin)
                            for path in feeds.paths_for(prefix)
                        )
                        for prefix in FEED_PREFIXES
                    ]
                    indexed = [
                        feeds.origin_edge_observed(prefix, neighbor, origin)
                        for prefix in FEED_PREFIXES
                    ]
                    assert indexed == scans
                    assert feeds.any_prefix_via_edge(neighbor, origin) == any(scans)

    def test_default_collectors_peer_with_core(self):
        internet = generate_internet(small_config(), seed=2)
        collectors = default_collectors(internet, seed=2)
        assert len(collectors) == 2
        for collector in collectors:
            assert collector.peer_asns
            for peer in collector.peer_asns:
                # Feed peers are transit networks, not stubs.
                assert internet.graph.customers(peer)


@pytest.fixture(scope="module")
def testbed_world():
    internet = generate_internet(small_config(), seed=13)
    testbed = PeeringTestbed(internet, num_muxes=5, seed=13)
    simulator = BGPSimulator(
        internet.graph, policies=internet.policies, country_of=internet.country_of
    )
    return internet, testbed, simulator


class TestPeeringTestbed:
    def test_second_install_is_refused_before_touching_the_world(
        self, testbed_world
    ):
        internet, _testbed, _sim = testbed_world
        fingerprint = internet.graph.fingerprint()
        with pytest.raises(ValueError, match="fresh or reloaded world"):
            PeeringTestbed(internet, num_muxes=5, seed=13)
        assert internet.graph.fingerprint() == fingerprint

    def test_installation(self, testbed_world):
        internet, testbed, _sim = testbed_world
        assert testbed.asn in internet.graph
        assert len(testbed.muxes) == 5
        for mux in testbed.muxes:
            assert internet.graph.relationship(mux.host_asn, testbed.asn) is (
                Relationship.CUSTOMER
            )
            assert internet.interconnect(mux.host_asn, testbed.asn) is not None
        assert internet.whois.get(testbed.asn) is not None
        assert internet.prefixes[testbed.asn] == testbed.prefixes

    def test_anycast_announcement_reaches_network(self, testbed_world):
        internet, testbed, sim = testbed_world
        prefix = testbed.prefixes[0]
        testbed.announce(sim, prefix)
        reachable = sim.reachable_ases(prefix)
        assert len(reachable) > len(internet.graph) * 0.8

    def test_single_mux_announcement(self, testbed_world):
        internet, testbed, sim = testbed_world
        prefix = testbed.prefixes[1]
        magnet = testbed.muxes[0].host_asn
        testbed.announce(sim, prefix, muxes=[magnet])
        other_mux = testbed.muxes[1].host_asn
        # The other mux can still have a route, but not directly from
        # PEERING: its next hop must not be the testbed.
        route = sim.best_route(other_mux, prefix)
        if route is not None:
            assert route.learned_from != testbed.asn
        direct = sim.best_route(magnet, prefix)
        assert direct is not None and direct.learned_from == testbed.asn
        testbed.withdraw(sim, prefix)

    def test_announce_rejects_unknown_mux(self, testbed_world):
        _internet, testbed, sim = testbed_world
        with pytest.raises(ValueError):
            testbed.announce(sim, testbed.prefixes[0], muxes=[424242])

    def test_withdraw_clears_routes(self, testbed_world):
        internet, testbed, sim = testbed_world
        prefix = testbed.prefixes[2]
        testbed.announce(sim, prefix)
        testbed.withdraw(sim, prefix)
        assert sim.reachable_ases(prefix) == frozenset()

    def test_poisoned_announcement_excludes_target(self, testbed_world):
        internet, testbed, sim = testbed_world
        prefix = testbed.prefixes[0]
        testbed.announce(sim, prefix)
        mux_host = testbed.muxes[0].host_asn
        victim_route = None
        for asn in internet.graph.providers(mux_host):
            if sim.best_route(asn, prefix) is not None:
                victim_route = asn
                break
        if victim_route is None:
            pytest.skip("no upstream with a route in this topology")
        policy = internet.policies[victim_route]
        if policy.loop_prevention_disabled or policy.filters_poisoned:
            pytest.skip("upstream has nonstandard poisoning behaviour")
        testbed.announce(sim, prefix, poisoned={victim_route})
        assert sim.best_route(victim_route, prefix) is None
        testbed.announce(sim, prefix)  # restore
