"""Tests for AS-type classification, complex relationships and cables."""

import pytest

from repro.topology import (
    ASGraph,
    ASType,
    Cable,
    CableRegistry,
    ComplexRelationships,
    HybridEntry,
    PartialTransitEntry,
    Relationship,
    classify_as_type,
)
from repro.topology.classify_as import classify_all


def _chain_graph():
    """Tier-1 (1) -> large ISP (2) -> small ISPs -> stubs."""
    graph = ASGraph()
    graph.add_link(1, 2, Relationship.CUSTOMER)
    next_asn = 3
    small_isps = []
    for _ in range(6):
        graph.add_link(2, next_asn, Relationship.CUSTOMER)
        small_isps.append(next_asn)
        next_asn += 1
    for isp in small_isps:
        for _ in range(10):
            graph.add_link(isp, next_asn, Relationship.CUSTOMER)
            next_asn += 1
    return graph


class TestClassifyAS:
    def test_stub(self):
        graph = _chain_graph()
        # Leaf ASes have no customers.
        leaf = max(graph.asns())
        assert classify_as_type(graph, leaf, large_isp_cone=5) is ASType.STUB
        assert classify_as_type(graph, 9, large_isp_cone=5) is ASType.STUB

    def test_tier1_requires_no_providers(self):
        graph = _chain_graph()
        assert classify_as_type(graph, 1, large_isp_cone=5) is ASType.TIER1
        assert classify_as_type(graph, 2, large_isp_cone=5) is ASType.LARGE_ISP

    def test_small_isp_has_customers_but_small_cone(self):
        graph = _chain_graph()
        assert classify_as_type(graph, 3, large_isp_cone=50) is ASType.SMALL_ISP

    def test_classify_all_covers_every_asn(self):
        graph = _chain_graph()
        types = classify_all(graph, large_isp_cone=5)
        assert set(types) == set(graph.asns())
        assert types[1] is ASType.TIER1

    def test_isolated_as_is_stub(self):
        graph = ASGraph()
        graph.ensure_asn(99)
        assert classify_as_type(graph, 99) is ASType.STUB


class TestComplexRelationships:
    def test_hybrid_lookup_by_city(self):
        dataset = ComplexRelationships(
            hybrid=[HybridEntry(1, 2, "Frankfurt", Relationship.PEER)]
        )
        assert dataset.hybrid_relationship(1, 2, "Frankfurt") is Relationship.PEER
        assert dataset.hybrid_relationship(1, 2, "Singapore") is None
        assert dataset.hybrid_relationship(1, 2, None) is None

    def test_hybrid_is_symmetric(self):
        dataset = ComplexRelationships(
            hybrid=[HybridEntry(1, 2, "Paris", Relationship.CUSTOMER)]
        )
        # AS2 is AS1's customer in Paris, so AS1 is AS2's provider there.
        assert dataset.hybrid_relationship(2, 1, "Paris") is Relationship.PROVIDER

    def test_has_hybrid(self):
        dataset = ComplexRelationships(
            hybrid=[HybridEntry(5, 6, "Tokyo", Relationship.PEER)]
        )
        assert dataset.has_hybrid(5, 6)
        assert dataset.has_hybrid(6, 5)
        assert not dataset.has_hybrid(5, 7)

    def test_partial_transit_entry(self):
        dataset = ComplexRelationships(
            partial_transit=[PartialTransitEntry(provider=10, customer=20)]
        )
        entry = dataset.partial_transit(10, 20)
        assert entry is not None
        assert entry.scope == "peers-and-customers"
        assert dataset.partial_transit(20, 10) is None

    def test_explicit_partial_transit_requires_destinations(self):
        with pytest.raises(ValueError):
            PartialTransitEntry(provider=1, customer=2, scope="explicit")
            ComplexRelationships(
                partial_transit=[
                    PartialTransitEntry(provider=1, customer=2, scope="explicit")
                ]
            )

    def test_len_counts_pairs_once(self):
        dataset = ComplexRelationships(
            hybrid=[HybridEntry(1, 2, "Paris", Relationship.PEER)],
            partial_transit=[PartialTransitEntry(provider=3, customer=4)],
        )
        assert len(dataset) == 2


class TestCableRegistry:
    def test_independent_cable_asns(self):
        registry = CableRegistry(
            [
                Cable("EAC-C2C", frozenset({"JP", "SG"}), operator_asn=64600),
                Cable("Americas-II", frozenset({"US", "BR"}), owners=frozenset({"ATT"})),
            ]
        )
        assert registry.cable_asns() == {64600}
        assert registry.is_cable_asn(64600)
        assert not registry.is_cable_asn(1)
        assert registry.cable_for_asn(64600).name == "EAC-C2C"

    def test_duplicate_operator_rejected(self):
        registry = CableRegistry()
        registry.add(Cable("A", frozenset({"US", "JP"}), operator_asn=100))
        with pytest.raises(ValueError):
            registry.add(Cable("B", frozenset({"US", "BR"}), operator_asn=100))

    def test_cables_between(self):
        registry = CableRegistry(
            [
                Cable("A", frozenset({"US", "JP"}), operator_asn=100),
                Cable("B", frozenset({"US", "BR"}), operator_asn=101),
            ]
        )
        names = [c.name for c in registry.cables_between("US", "JP")]
        assert names == ["A"]
