"""Unit tests for the AS graph and relationship types."""

import pytest

from repro.topology import AS, ASGraph, Relationship
from repro.topology.asys import ASPath


class TestRelationship:
    def test_flipped_inverts_customer_provider(self):
        assert Relationship.CUSTOMER.flipped() is Relationship.PROVIDER
        assert Relationship.PROVIDER.flipped() is Relationship.CUSTOMER

    def test_flipped_preserves_symmetric(self):
        assert Relationship.PEER.flipped() is Relationship.PEER
        assert Relationship.SIBLING.flipped() is Relationship.SIBLING

    def test_rank_order(self):
        assert (
            Relationship.CUSTOMER.rank()
            < Relationship.PEER.rank()
            < Relationship.PROVIDER.rank()
        )

    def test_sibling_ranks_with_customer(self):
        assert Relationship.SIBLING.rank() == Relationship.CUSTOMER.rank()


class TestASGraph:
    def test_add_link_stores_both_perspectives(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.CUSTOMER)
        assert graph.relationship(1, 2) is Relationship.CUSTOMER
        assert graph.relationship(2, 1) is Relationship.PROVIDER

    def test_self_link_rejected(self):
        graph = ASGraph()
        with pytest.raises(ValueError):
            graph.add_link(1, 1, Relationship.PEER)

    def test_neighbor_class_queries(self):
        graph = ASGraph()
        graph.add_link(10, 1, Relationship.CUSTOMER)
        graph.add_link(10, 2, Relationship.PEER)
        graph.add_link(10, 3, Relationship.PROVIDER)
        graph.add_link(10, 4, Relationship.SIBLING)
        assert graph.customers(10) == [1]
        assert graph.peers(10) == [2]
        assert graph.providers(10) == [3]
        assert graph.siblings(10) == [4]
        assert graph.degree(10) == 4

    def test_relationship_none_when_not_adjacent(self):
        graph = ASGraph()
        graph.ensure_asn(1)
        graph.ensure_asn(2)
        assert graph.relationship(1, 2) is None
        assert not graph.has_link(1, 2)

    def test_remove_link(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.PEER)
        assert graph.remove_link(1, 2)
        assert graph.relationship(2, 1) is None
        assert not graph.remove_link(1, 2)

    def test_links_yields_each_edge_once(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.CUSTOMER)
        graph.add_link(2, 3, Relationship.PEER)
        graph.add_link(4, 3, Relationship.SIBLING)
        links = list(graph.links())
        assert (1, 2, Relationship.CUSTOMER) in links
        assert (2, 3, Relationship.PEER) in links
        assert (3, 4, Relationship.SIBLING) in links
        assert len(links) == 3
        assert graph.num_links() == 3

    def test_relink_overwrites(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.PEER)
        graph.add_link(1, 2, Relationship.CUSTOMER)
        assert graph.relationship(2, 1) is Relationship.PROVIDER
        assert graph.num_links() == 1

    def test_customer_cone(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.CUSTOMER)
        graph.add_link(2, 3, Relationship.CUSTOMER)
        graph.add_link(2, 4, Relationship.PEER)
        assert graph.customer_cone(1) == frozenset({1, 2, 3})
        assert graph.customer_cone(3) == frozenset({3})

        # A customer shared by two providers is in both cones, once.
        shared = ASGraph()
        shared.add_link(1, 3, Relationship.CUSTOMER)
        shared.add_link(2, 3, Relationship.CUSTOMER)
        assert shared.customer_cone(1) == frozenset({1, 3})
        assert shared.customer_cone(2) == frozenset({2, 3})

        # A corrupted provider->customer cycle terminates.
        cycle = ASGraph()
        cycle.add_link(1, 2, Relationship.CUSTOMER)
        cycle.add_link(2, 3, Relationship.CUSTOMER)
        cycle.add_link(3, 1, Relationship.CUSTOMER)
        for asn in (1, 2, 3):
            assert cycle.customer_cone(asn) == frozenset({1, 2, 3})

    def test_copy_is_independent(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.PEER)
        clone = graph.copy()
        clone.add_link(2, 3, Relationship.CUSTOMER)
        assert not graph.has_link(2, 3)
        assert clone.has_link(2, 3)

    def test_fingerprint_tracks_links(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.CUSTOMER)
        same = ASGraph()
        same.add_link(2, 1, Relationship.PROVIDER)
        assert graph.fingerprint() == same.fingerprint()
        before = graph.fingerprint()
        graph.add_link(2, 3, Relationship.PEER)
        assert graph.fingerprint() != before

    def test_fingerprint_of_copies_never_stale(self):
        # Every copy starts at version 0 and freed ids are reused, so a
        # cache keyed by (id, version) served one graph's digest for the
        # other's copies.
        first = ASGraph()
        first.add_link(1, 2, Relationship.CUSTOMER)
        second = ASGraph()
        second.add_link(1, 2, Relationship.PEER)
        expected = {0: first.fingerprint(), 1: second.fingerprint()}
        assert expected[0] != expected[1]
        for index in range(200):
            source = (first, second)[index % 2]
            assert source.copy().fingerprint() == expected[index % 2]

    def test_subgraph(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.CUSTOMER)
        graph.add_link(2, 3, Relationship.CUSTOMER)
        sub = graph.subgraph({1, 2})
        assert sub.has_link(1, 2)
        assert 3 not in sub

    def test_as_metadata_preserved(self):
        graph = ASGraph()
        graph.add_as(AS(asn=65000, name="ExampleNet", country="US"))
        assert graph.get_as(65000).name == "ExampleNet"
        assert graph.get_as(65000).presence == frozenset({"US"})


class TestASPath:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ASPath(())

    def test_endpoints(self):
        path = ASPath((1, 2, 3))
        assert path.source == 1
        assert path.destination == 3
        assert len(path) == 3

    def test_suffix_from(self):
        path = ASPath((1, 2, 3, 4))
        assert path.suffix_from(3) == ASPath((3, 4))
        assert path.suffix_from(1) == path
        assert path.suffix_from(9) is None

    def test_adjacencies(self):
        assert ASPath((1, 2, 3)).adjacencies() == ((1, 2), (2, 3))

    def test_str(self):
        assert str(ASPath((10, 20))) == "10 20"
