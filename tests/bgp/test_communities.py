"""Tests for BGP communities and in-band sibling entry-class tagging."""

import pytest

from repro.bgp import BGPSimulator
from repro.bgp.communities import (
    entry_class_community,
    read_entry_class,
    strip_entry_class,
)
from repro.net.ip import Prefix
from repro.topology import ASGraph, Relationship

PFX = Prefix.parse("198.51.100.0/24")


def _graph(*links):
    graph = ASGraph()
    for a, b, rel in links:
        graph.add_link(a, b, rel)
    return graph


class TestCommunityValues:
    def test_roundtrip_all_classes(self):
        for relationship in Relationship:
            tag = entry_class_community(65000, relationship)
            assert read_entry_class(frozenset({tag})) is relationship

    def test_read_ignores_foreign_communities(self):
        assert read_entry_class(frozenset({(65000, 100), (1, 2)})) is None

    def test_strip_preserves_foreign_communities(self):
        tag = entry_class_community(65000, Relationship.PEER)
        mixed = frozenset({tag, (65000, 100)})
        assert strip_entry_class(mixed) == frozenset({(65000, 100)})


class TestInBandSiblingClass:
    def test_entry_class_rides_communities_not_oracle(self):
        """Sibling members learn the entry class from the community tag
        alone."""
        graph = _graph(
            (1, 2, Relationship.SIBLING),
            (3, 2, Relationship.CUSTOMER),   # 3 is 2's provider
            (3, 9, Relationship.CUSTOMER),
            (1, 5, Relationship.PEER),
        )
        sim = BGPSimulator(graph)
        sim.originate(9, PFX)
        route_at_1 = sim.best_route(1, PFX)
        assert route_at_1.effective_class is Relationship.PROVIDER
        assert read_entry_class(route_at_1.communities) is Relationship.PROVIDER
        # Provider-class route must not leak to 1's peer.
        assert sim.best_route(5, PFX) is None

    def test_tag_stripped_outside_org(self):
        graph = _graph(
            (1, 2, Relationship.SIBLING),
            (2, 9, Relationship.CUSTOMER),   # 9 is 2's customer
            (1, 5, Relationship.PEER),
        )
        sim = BGPSimulator(graph)
        sim.originate(9, PFX)
        # 1 received the tag over the sibling link...
        assert read_entry_class(sim.best_route(1, PFX).communities) is not None
        # ...but 5, outside the org, must not see org-internal tags.
        route_at_5 = sim.best_route(5, PFX)
        assert route_at_5 is not None
        assert read_entry_class(route_at_5.communities) is None

    def test_tag_preserved_across_sibling_chain(self):
        graph = _graph(
            (1, 2, Relationship.SIBLING),
            (2, 3, Relationship.SIBLING),
            (4, 3, Relationship.CUSTOMER),   # 4 is 3's provider
            (4, 9, Relationship.CUSTOMER),
        )
        sim = BGPSimulator(graph)
        sim.originate(9, PFX)
        route_at_1 = sim.best_route(1, PFX)
        assert route_at_1 is not None
        assert route_at_1.effective_class is Relationship.PROVIDER

    def test_org_origination_tagged_customer(self):
        graph = _graph((1, 2, Relationship.SIBLING))
        sim = BGPSimulator(graph)
        sim.originate(2, PFX)
        route = sim.best_route(1, PFX)
        assert route.effective_class is Relationship.CUSTOMER
        assert read_entry_class(route.communities) is Relationship.CUSTOMER
