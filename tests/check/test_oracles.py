"""Known-answer tests for the reference oracles themselves.

The oracles are the trusted side of every differential check, so they
get their own hand-computed fixtures: tiny topologies and route sets
whose correct answers can be verified on paper.
"""

import pytest

from repro.bgp.attributes import ASPathAttribute
from repro.bgp.decision import DecisionStep
from repro.bgp.messages import Announcement
from repro.bgp.policy import Policy
from repro.bgp.routes import Route
from repro.bgp.simulator import BGPSimulator
from repro.check.oracles import (
    OracleLPM,
    oracle_best_route,
    oracle_label,
    oracle_prefers,
    oracle_routing_info,
    oracle_stable_faults,
)
from repro.core.classification import Decision, DecisionLabel
from repro.net.ip import IPAddress, Prefix
from repro.topology.complex_rel import ComplexRelationships, HybridEntry
from repro.topology.graph import ASGraph
from repro.topology.relationships import Relationship
from repro.whois.siblings import SiblingGroups

PFX = Prefix.parse("203.0.113.0/24")


def _chain_graph():
    """AS1 <- AS2 <- AS3 (provider chains), AS2 -- AS4 (peers).

    add_link(a, b, rel) records ``rel`` as b's role toward a.
    """
    graph = ASGraph()
    graph.add_link(2, 1, Relationship.CUSTOMER)  # 1 is 2's customer
    graph.add_link(3, 2, Relationship.CUSTOMER)  # 2 is 3's customer
    graph.add_link(2, 4, Relationship.PEER)
    return graph


def _decision(asn, next_hop, destination, measured_len, border_city=None):
    return Decision(
        asn=asn,
        next_hop=next_hop,
        destination=destination,
        prefix=PFX,
        measured_len=measured_len,
        source_asn=asn,
        border_city=border_city,
    )


class TestOracleRoutingInfo:
    def test_customer_routes_climb_providers(self):
        info = oracle_routing_info(_chain_graph(), destination=1)
        assert info.customer_dist == {1: 0, 2: 1, 3: 2}
        # AS4 hears AS2's customer route over the peering.
        assert info.peer_dist == {4: 2}
        # Providers re-export their chosen route down customer links,
        # so AS1 hears a (non-best) route back to itself via AS2 and
        # AS2 hears one via AS3.
        assert info.provider_dist == {1: 2, 2: 3}

    def test_provider_routes_descend_customer_links(self):
        # Destination at the top: everyone below learns via providers.
        info = oracle_routing_info(_chain_graph(), destination=3)
        assert info.customer_dist == {3: 0}
        assert info.peer_dist == {}
        assert info.provider_dist == {2: 1, 1: 2}
        # AS4 peers with AS2, whose chosen route is provider-learned:
        # Gao-Rexford forbids exporting it to a peer.
        assert 4 not in info.peer_dist

    def test_peer_route_not_retransited(self):
        # AS4's route to AS1 is peer-learned; its own customers (none
        # here) could hear it, but its providers/peers could not.
        graph = _chain_graph()
        graph.add_link(4, 5, Relationship.CUSTOMER)  # 5 buys from 4
        info = oracle_routing_info(graph, destination=1)
        assert info.provider_dist[5] == 3  # 1-2-4-5 via the chosen peer route

    def test_partial_transit_blocks_provider_learned_export(self):
        # AS2's route toward AS3 is provider-learned; partial transit on
        # the (2, 1) edge must stop it from reaching AS1.
        info = oracle_routing_info(
            _chain_graph(), destination=3, partial_transit=frozenset({(2, 1)})
        )
        assert 1 not in info.provider_dist
        # Customer-learned routes still cross the same edge.
        full = oracle_routing_info(
            _chain_graph(), destination=1, partial_transit=frozenset({(2, 1)})
        )
        assert full.customer_dist == {1: 0, 2: 1, 3: 2}

    def test_allowed_first_hops_drops_announcements(self):
        graph = ASGraph()
        graph.add_link(2, 1, Relationship.CUSTOMER)
        graph.add_link(3, 1, Relationship.CUSTOMER)  # 1 multihomes to 2 and 3
        unrestricted = oracle_routing_info(graph, destination=1)
        assert set(unrestricted.customer_dist) == {1, 2, 3}
        poisoned = oracle_routing_info(
            graph, destination=1, allowed_first_hops=frozenset({2})
        )
        assert set(poisoned.customer_dist) == {1, 2}
        assert 3 not in poisoned.customer_dist

    def test_unknown_destination_raises(self):
        with pytest.raises(KeyError):
            oracle_routing_info(_chain_graph(), destination=999)

    def test_gr_route_length_prefers_customer_class(self):
        graph = _chain_graph()
        info = oracle_routing_info(graph, destination=1)
        assert info.gr_route_length(3) == 2
        assert info.gr_route_length(4) == 2
        assert info.gr_route_length(1) == 0
        assert info.best_class(3) is Relationship.CUSTOMER
        assert info.best_class(4) is Relationship.PEER


class TestOracleLabel:
    def test_customer_hand_off_is_best(self):
        graph = _chain_graph()
        info = oracle_routing_info(graph, destination=1)
        label = oracle_label(_decision(2, 1, 1, measured_len=1), info, graph)
        assert label is DecisionLabel.BEST_SHORT

    def test_provider_hand_off_against_customer_route_is_nonbest(self):
        graph = _chain_graph()
        info = oracle_routing_info(graph, destination=1)
        # AS2 has a customer route to AS1 but hands off to provider AS3.
        label = oracle_label(_decision(2, 3, 1, measured_len=1), info, graph)
        assert label is DecisionLabel.NONBEST_SHORT

    def test_long_measured_path_is_long(self):
        graph = _chain_graph()
        info = oracle_routing_info(graph, destination=1)
        label = oracle_label(_decision(2, 1, 1, measured_len=5), info, graph)
        assert label is DecisionLabel.BEST_LONG

    def test_missing_adjacency_is_never_best(self):
        graph = _chain_graph()
        info = oracle_routing_info(graph, destination=1)
        label = oracle_label(_decision(2, 77, 1, measured_len=1), info, graph)
        assert label is DecisionLabel.NONBEST_SHORT

    def test_no_model_route_is_best_short(self):
        # AS50 buys from AS51 but the island is cut off from AS1: the
        # model offers AS50 nothing, so even a provider hand-off with a
        # long measured path grades Best/Short.
        graph = _chain_graph()
        graph.add_link(51, 50, Relationship.CUSTOMER)
        info = oracle_routing_info(graph, destination=1)
        label = oracle_label(_decision(50, 51, 1, measured_len=9), info, graph)
        assert label is DecisionLabel.BEST_SHORT

    def test_missing_adjacency_beats_no_model_route(self):
        # Same islanded AS, but the next hop is absent from the
        # topology: a hop the model cannot see is never Best.
        graph = _chain_graph()
        graph.ensure_asn(50)
        info = oracle_routing_info(graph, destination=1)
        label = oracle_label(_decision(50, 77, 1, measured_len=9), info, graph)
        assert label is DecisionLabel.NONBEST_SHORT

    def test_sibling_hand_off_always_best(self):
        graph = _chain_graph()
        info = oracle_routing_info(graph, destination=1)
        siblings = SiblingGroups([frozenset({2, 3})])
        label = oracle_label(
            _decision(2, 3, 1, measured_len=1), info, graph, siblings=siblings
        )
        assert label is DecisionLabel.BEST_SHORT

    def test_hybrid_relationship_applies_at_city(self):
        graph = _chain_graph()
        info = oracle_routing_info(graph, destination=1)
        hybrid = ComplexRelationships(
            hybrid=[HybridEntry(2, 3, "Paris", Relationship.CUSTOMER)]
        )
        in_paris = oracle_label(
            _decision(2, 3, 1, measured_len=1, border_city="Paris"),
            info,
            graph,
            complex_rel=hybrid,
        )
        elsewhere = oracle_label(
            _decision(2, 3, 1, measured_len=1, border_city="Tokyo"),
            info,
            graph,
            complex_rel=hybrid,
        )
        assert in_paris is DecisionLabel.BEST_SHORT
        assert elsewhere is DecisionLabel.NONBEST_SHORT


def _route(local_pref=100, path=(64501,), igp_cost=0, age=0, router_id=1):
    return Route(
        as_path=ASPathAttribute.from_sequence(path),
        learned_from=path[0],
        relationship=Relationship.PEER,
        local_pref=local_pref,
        igp_cost=igp_cost,
        age=age,
        router_id=router_id,
    )


class TestOracleBestRoute:
    def test_single_route_is_only_route(self):
        route = _route()
        assert oracle_best_route([route]) == (route, "only route")

    def test_local_pref_dominates(self):
        low = _route(local_pref=80, path=(1,))
        high = _route(local_pref=120, path=(1, 2, 3), router_id=2)
        winner, step = oracle_best_route([low, high])
        assert winner is high
        assert step == "local preference"

    def test_path_length_breaks_pref_tie(self):
        long = _route(path=(1, 2, 3))
        short = _route(path=(1,), router_id=2)
        winner, step = oracle_best_route([long, short])
        assert winner is short
        assert step == "as-path length"

    def test_full_tie_reports_router_id(self):
        a = _route(router_id=1)
        b = _route(router_id=2)
        winner, step = oracle_best_route([a, b])
        assert winner is a
        assert step == "router id"

    def test_prefers_is_asymmetric(self):
        better = _route(igp_cost=0, router_id=1)
        worse = _route(igp_cost=10, router_id=2)
        assert oracle_prefers(better, worse) == "intradomain cost"
        assert oracle_prefers(worse, better) is None
        assert oracle_prefers(better, better) is None

    def test_empty_input(self):
        assert oracle_best_route([]) == (None, None)


class TestOracleStableFaults:
    def test_a_converged_network_is_stable(self):
        simulator = BGPSimulator(_chain_graph())
        simulator.originate(3, PFX, poisoned={4})
        assert oracle_stable_faults(simulator, PFX) == []

    def test_a_rejected_announcement_leaves_no_entry(self):
        """AS4 filters poisoned paths: what AS2 tells it is rejected,
        and the absent Adj-RIB-In entry is the stable one."""
        policies = {4: Policy(asn=4, filters_poisoned=True)}
        simulator = BGPSimulator(_chain_graph(), policies=policies)
        simulator.originate(1, PFX, poisoned={3})
        assert 4 in simulator.speakers[2].advertised(PFX)
        assert simulator.best_route(4, PFX) is None
        assert oracle_stable_faults(simulator, PFX) == []

    def test_updates_in_flight_are_a_fault(self):
        simulator = BGPSimulator(_chain_graph())
        simulator.originate(3, PFX)
        simulator._queue.append(
            (2, Announcement(PFX, ASPathAttribute((3, 3)), 3))
        )
        assert oracle_stable_faults(simulator, PFX) == ["1 update(s) in flight"]

    def test_an_entry_its_sender_no_longer_backs_is_a_fault(self):
        """AS2 forgets telling AS1 its route: AS2's exports and AS1's
        Adj-RIB-In are both faults."""
        simulator = BGPSimulator(_chain_graph())
        simulator.originate(3, PFX)
        speaker = simulator.speakers[2]
        # AS2's provider route reaches only its customer AS1, so a
        # record that told nothing forgets exactly that export.
        assert set(speaker.advertised(PFX)) == {1}
        speaker.record(PFX).told = None
        faults = oracle_stable_faults(simulator, PFX)
        told = [line for line in faults if line.startswith("AS2 told AS1 None")]
        held = [line for line in faults if line.startswith("AS1 holds")]
        assert len(told) == len(held) == 1 and len(faults) == 2
        assert held[0].endswith("from AS2, which sent None")

    def test_a_decision_step_its_candidates_do_not_support_is_a_fault(self):
        simulator = BGPSimulator(_chain_graph())
        simulator.originate(3, PFX)
        simulator.speakers[2].record(PFX).step = DecisionStep.ROUTE_AGE
        assert oracle_stable_faults(simulator, PFX) == [
            "AS2 decided by 'route age', not 'only route'"
        ]


class TestOracleLPM:
    def test_longest_match_wins(self):
        lpm = OracleLPM()
        lpm.insert(Prefix.parse("10.0.0.0/8"), "eight")
        lpm.insert(Prefix.parse("10.1.0.0/16"), "sixteen")
        assert lpm.lookup(IPAddress.parse("10.1.2.3")) == "sixteen"
        assert lpm.lookup(IPAddress.parse("10.2.0.1")) == "eight"
        assert lpm.lookup(IPAddress.parse("11.0.0.1")) is None

    def test_lookup_all_shortest_first(self):
        lpm = OracleLPM()
        lpm.insert(Prefix.parse("0.0.0.0/0"), "default")
        lpm.insert(Prefix.parse("10.0.0.0/8"), "eight")
        lpm.insert(Prefix.parse("10.1.0.0/16"), "sixteen")
        matches = lpm.lookup_all(IPAddress.parse("10.1.2.3"))
        assert [value for _p, value in matches] == ["default", "eight", "sixteen"]

    def test_remove(self):
        lpm = OracleLPM()
        lpm.insert(Prefix.parse("10.0.0.0/8"), "v")
        assert lpm.remove(Prefix.parse("10.0.0.0/8"))
        assert not lpm.remove(Prefix.parse("10.0.0.0/8"))
        assert len(lpm) == 0
