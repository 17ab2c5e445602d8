"""Unit tests for route objects and local origination."""

import pytest

from repro.bgp import ASPathAttribute, BGPSimulator, Route
from repro.bgp.routes import LocalRoute
from repro.net.ip import Prefix
from repro.topology import ASGraph, Relationship

PFX = Prefix.parse("198.51.100.0/24")


class TestRoute:
    def test_effective_class_defaults_to_relationship(self):
        route = Route(
            as_path=ASPathAttribute.from_sequence([2, 9]),
            learned_from=2,
            relationship=Relationship.PEER,
            local_pref=200,
        )
        assert route.effective_class is Relationship.PEER
        assert route.next_hop_asn == 2
        assert route.origin_asn == 9
        assert route.path_length() == 2

    def test_explicit_export_class_wins(self):
        route = Route(
            as_path=ASPathAttribute.from_sequence([2, 9]),
            learned_from=2,
            relationship=Relationship.SIBLING,
            local_pref=100,
            export_class=Relationship.PROVIDER,
        )
        assert route.effective_class is Relationship.PROVIDER

    def test_aged_copy(self):
        route = Route(
            as_path=ASPathAttribute.origin(9),
            learned_from=9,
            relationship=Relationship.CUSTOMER,
            local_pref=300,
            age=1,
        )
        older = route.aged(7)
        assert older.age == 7
        assert route.age == 1

    def test_str_contains_key_facts(self):
        route = Route(
            as_path=ASPathAttribute.from_sequence([2, 9]),
            learned_from=2,
            relationship=Relationship.PEER,
            local_pref=200,
        )
        text = str(route)
        assert "AS2" in text and "peer" in text and "lp=200" in text


class TestLocalRoute:
    def test_self_route_beats_learned_routes(self):
        local = LocalRoute(prefix=PFX, origin_asn=9)
        route = local.to_route()
        assert route.learned_from == 9
        assert route.local_pref > 10 ** 6

    def test_exported_path_plain(self):
        local = LocalRoute(prefix=PFX, origin_asn=9)
        assert local.exported_path().sequence() == (9,)

    def test_exported_path_with_poison(self):
        local = LocalRoute(prefix=PFX, origin_asn=9, poisoned=frozenset({4, 5}))
        path = local.exported_path()
        assert frozenset({4, 5}) in path.segments
        assert path.sequence() == (9, 9)
        assert path.length() == 3

    def test_speaker_rejects_foreign_origination(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.PEER)
        sim = BGPSimulator(graph)
        with pytest.raises(ValueError):
            sim.speakers[1].originate(LocalRoute(prefix=PFX, origin_asn=2))

    def test_withdraw_unknown_prefix_is_noop(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.PEER)
        sim = BGPSimulator(graph)
        assert not sim.speakers[1].withdraw_origin(PFX)

    def test_originates_flag(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.PEER)
        sim = BGPSimulator(graph)
        sim.originate(1, PFX)
        assert sim.speakers[1].originates(PFX)
        assert not sim.speakers[2].originates(PFX)
