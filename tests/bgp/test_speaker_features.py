"""Tests for speaker-level features: prepending, sibling semantics,
and a dispute wheel, which never converges."""

import pytest

from repro.bgp import BGPSimulator, Policy
from repro.bgp.simulator import ConvergenceError
from repro.net.ip import Prefix
from repro.topology import ASGraph, Relationship

PFX = Prefix.parse("198.51.100.0/24")


def _graph(*links):
    graph = ASGraph()
    for a, b, rel in links:
        graph.add_link(a, b, rel)
    return graph


class TestPrepending:
    def test_prepending_inflates_announced_length(self):
        graph = _graph((1, 4, Relationship.CUSTOMER))
        policies = {4: Policy(asn=4, export_prepend={(PFX, 1): 2})}
        sim = BGPSimulator(graph, policies=policies)
        sim.originate(4, PFX)
        route = sim.best_route(1, PFX)
        assert route.path_length() == 3  # 4 4 4
        assert route.as_path.sequence() == (4, 4, 4)

    def test_prepending_deflects_traffic(self):
        """AS1 avoids the prepended provider path."""
        graph = _graph(
            (1, 2, Relationship.CUSTOMER),
            (1, 3, Relationship.CUSTOMER),
            (2, 4, Relationship.CUSTOMER),
            (3, 5, Relationship.CUSTOMER),
            (5, 4, Relationship.CUSTOMER),
        )
        # Without prepending, 1 -> 2 -> 4 wins on length.
        plain = BGPSimulator(graph)
        plain.originate(4, PFX)
        assert plain.forwarding_path(1, PFX) == (1, 2, 4)
        # Origin prepends 3 hops toward provider 2.
        policies = {4: Policy(asn=4, export_prepend={(PFX, 2): 3})}
        steered = BGPSimulator(graph, policies=policies)
        steered.originate(4, PFX)
        assert steered.forwarding_path(1, PFX) == (1, 3, 5, 4)

    def test_prepending_is_per_prefix(self):
        graph = _graph((1, 4, Relationship.CUSTOMER))
        other = Prefix.parse("203.0.113.0/24")
        policies = {4: Policy(asn=4, export_prepend={(PFX, 1): 2})}
        sim = BGPSimulator(graph, policies=policies)
        sim.originate(4, PFX)
        sim.originate(4, other)
        assert sim.best_route(1, PFX).path_length() == 3
        assert sim.best_route(1, other).path_length() == 1


class TestSiblingSemantics:
    def test_sibling_route_inherits_entry_class(self):
        """A provider route learned via a sibling stays a provider
        route: it is not re-exported to peers."""
        graph = _graph(
            (1, 2, Relationship.SIBLING),
            (3, 2, Relationship.CUSTOMER),   # 3 is 2's provider
            (3, 9, Relationship.CUSTOMER),   # destination 9 behind 3
            (1, 5, Relationship.PEER),
        )
        sim = BGPSimulator(graph)
        sim.originate(9, PFX)
        route_at_1 = sim.best_route(1, PFX)
        assert route_at_1 is not None
        assert route_at_1.relationship is Relationship.SIBLING
        assert route_at_1.effective_class is Relationship.PROVIDER
        # It takes the provider band, not the sibling session's...
        assert route_at_1.local_pref == 100
        # The org's provider route must not leak to 1's peer 5.
        assert sim.best_route(5, PFX) is None
        # ...unless the sibling neighbor has an override of its own.
        override = Policy(asn=1, neighbor_local_pref={2: 170})
        sim = BGPSimulator(graph, policies={1: override})
        sim.originate(9, PFX)
        assert sim.best_route(1, PFX).local_pref == 170

    def test_sibling_customer_route_exported_to_peers(self):
        graph = _graph(
            (1, 2, Relationship.SIBLING),
            (2, 9, Relationship.CUSTOMER),   # 9 is 2's customer
            (1, 5, Relationship.PEER),
        )
        sim = BGPSimulator(graph)
        sim.originate(9, PFX)
        route_at_1 = sim.best_route(1, PFX)
        assert route_at_1.effective_class is Relationship.CUSTOMER
        # Customer routes of the org do go to peers.
        assert sim.best_route(5, PFX) is not None

    def test_two_siblings_with_provider_routes_converge(self):
        """The classic DISAGREE gadget must not oscillate."""
        graph = _graph(
            (1, 2, Relationship.SIBLING),
            (3, 1, Relationship.CUSTOMER),
            (4, 2, Relationship.CUSTOMER),
            (5, 3, Relationship.CUSTOMER),
            (5, 4, Relationship.CUSTOMER),
            (5, 9, Relationship.CUSTOMER),
        )
        sim = BGPSimulator(graph)
        sim.originate(9, PFX)  # raises ConvergenceError on oscillation
        assert sim.best_route(1, PFX) is not None
        assert sim.best_route(2, PFX) is not None

    def test_sibling_chain_resolution(self):
        graph = _graph(
            (1, 2, Relationship.SIBLING),
            (2, 3, Relationship.SIBLING),
            (3, 9, Relationship.CUSTOMER),
        )
        sim = BGPSimulator(graph)
        sim.originate(9, PFX)
        route = sim.best_route(1, PFX)
        assert route.effective_class is Relationship.CUSTOMER

    def test_org_internal_destination_is_customer_class(self):
        graph = _graph((1, 2, Relationship.SIBLING))
        sim = BGPSimulator(graph)
        sim.originate(2, PFX)
        route = sim.best_route(1, PFX)
        assert route.effective_class is Relationship.CUSTOMER


class TestDisputeWheel:
    def test_a_dispute_wheel_is_a_convergence_error(self):
        """Three peers each preferring the next one over the origin
        route form a classic BAD GADGET.  It never settles: the run
        spends the whole event budget, raises and leaves nothing in
        flight.  A withdrawal by the sole origin then leaves the prefix
        empty."""
        graph = _graph(
            (1, 2, Relationship.PEER),
            (2, 3, Relationship.PEER),
            (3, 1, Relationship.PEER),
            (1, 9, Relationship.CUSTOMER),
            (2, 9, Relationship.CUSTOMER),
            (3, 9, Relationship.CUSTOMER),
        )
        policies = {
            1: Policy(asn=1, neighbor_local_pref={2: 400}),
            2: Policy(asn=2, neighbor_local_pref={3: 400}),
            3: Policy(asn=3, neighbor_local_pref={1: 400}),
        }
        sim = BGPSimulator(graph, policies=policies, max_events_per_link=400)
        with pytest.raises(ConvergenceError, match="dispute wheel") as excinfo:
            sim.originate(9, PFX)
        budget = 400 * graph.num_links()
        assert excinfo.value.delivered == sim.delivered == budget == 2400
        assert sim.in_flight() == 0
        sim.withdraw(9, PFX)
        for speaker in sim.speakers.values():
            assert speaker.candidates(PFX) == []
            assert speaker.advertised(PFX) == {}

    def test_generated_policies_stay_far_below_the_budget(self):
        """The generated world's Gao-Rexford policies form no wheel: its
        largest run, over every origination and a discovery-style
        series of poisoned announcements, delivers under 1% of the
        event budget (``max_events_per_link`` x links), the headroom
        that lets the budget be the one convergence guard."""
        from repro.topogen import generate_internet
        from repro.topogen.config import small_config

        internet = generate_internet(small_config(), seed=44)
        sim = BGPSimulator(
            internet.graph, policies=internet.policies, country_of=internet.country_of
        )
        runs = []

        def converge(origin, prefix, poisoned=()):
            delivered = sim.delivered
            sim.originate(origin, prefix, poisoned)
            runs.append(sim.delivered - delivered)

        for origin, prefixes in internet.prefixes.items():
            for prefix in prefixes:
                converge(origin, prefix)
        origin = internet.content[0].asns[0]
        poisoned = set()
        for neighbor in sorted(internet.graph.neighbors(origin)):
            poisoned.add(neighbor)
            converge(origin, internet.prefixes[origin][0], poisoned)
        budget = 400 * internet.graph.num_links()
        assert 0 < max(runs) < 0.01 * budget
        assert sim.in_flight() == 0
