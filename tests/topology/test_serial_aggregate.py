"""Tests for serial-format I/O and multi-snapshot aggregation."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import ASGraph, Relationship, aggregate_snapshots
from repro.topology.serial import (
    dump_relationships,
    link_set,
    load_relationships,
    parse_relationship_lines,
)


class TestSerialFormat:
    def test_parse_basic(self):
        graph = parse_relationship_lines(
            ["# header", "1|2|-1", "2|3|0", "4|5|2", ""]
        )
        assert graph.relationship(1, 2) is Relationship.CUSTOMER
        assert graph.relationship(2, 3) is Relationship.PEER
        assert graph.relationship(4, 5) is Relationship.SIBLING

    def test_parse_rejects_bad_code(self):
        with pytest.raises(ValueError):
            parse_relationship_lines(["1|2|7"])

    def test_parse_rejects_short_line(self):
        with pytest.raises(ValueError):
            parse_relationship_lines(["1|2"])

    def test_parse_rejects_non_integer(self):
        with pytest.raises(ValueError):
            parse_relationship_lines(["a|2|0"])

    def test_roundtrip_through_stream(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.CUSTOMER)
        graph.add_link(2, 3, Relationship.PEER)
        graph.add_link(3, 4, Relationship.SIBLING)
        text = dump_relationships(graph)
        reloaded = load_relationships(io.StringIO(text))
        assert link_set(reloaded) == link_set(graph)

    def test_roundtrip_through_file(self, tmp_path):
        graph = ASGraph()
        graph.add_link(10, 20, Relationship.CUSTOMER)
        path = tmp_path / "rels.txt"
        dump_relationships(graph, path)
        reloaded = load_relationships(path)
        assert reloaded.relationship(10, 20) is Relationship.CUSTOMER


def _graph(*links):
    graph = ASGraph()
    for a, b, rel in links:
        graph.add_link(a, b, rel)
    return graph


class TestAggregation:
    def test_union_of_disjoint_snapshots(self):
        s1 = _graph((1, 2, Relationship.PEER))
        s2 = _graph((3, 4, Relationship.CUSTOMER))
        merged = aggregate_snapshots([s1, s2])
        assert merged.relationship(1, 2) is Relationship.PEER
        assert merged.relationship(3, 4) is Relationship.CUSTOMER

    def test_latest_two_override_majority(self):
        """Three old snapshots say peer; the last two agree on c2p -> c2p."""
        old = [_graph((1, 2, Relationship.PEER)) for _ in range(3)]
        new = [_graph((1, 2, Relationship.CUSTOMER)) for _ in range(2)]
        merged = aggregate_snapshots(old + new)
        assert merged.relationship(1, 2) is Relationship.CUSTOMER

    def test_weighted_majority_when_latest_disagree(self):
        """Recency weighting decides when the last two snapshots differ."""
        snapshots = [
            _graph((1, 2, Relationship.CUSTOMER)),  # weight 1
            _graph((1, 2, Relationship.CUSTOMER)),  # weight 2
            _graph((1, 2, Relationship.CUSTOMER)),  # weight 3
            _graph((1, 2, Relationship.PEER)),      # weight 4
            _graph((1, 2, Relationship.CUSTOMER)),  # weight 5
        ]
        merged = aggregate_snapshots(snapshots)
        # customer weight 1+2+3+5=11 vs peer 4.
        assert merged.relationship(1, 2) is Relationship.CUSTOMER

    def test_direction_of_c2p_is_preserved(self):
        snapshots = [_graph((7, 3, Relationship.CUSTOMER))] * 2
        merged = aggregate_snapshots(snapshots)
        # AS3 is the customer of AS7 regardless of ASN ordering.
        assert merged.relationship(7, 3) is Relationship.CUSTOMER
        assert merged.relationship(3, 7) is Relationship.PROVIDER

    def test_min_appearances_filters_transients(self):
        s1 = _graph((1, 2, Relationship.PEER), (3, 4, Relationship.PEER))
        s2 = _graph((1, 2, Relationship.PEER))
        s3 = _graph((1, 2, Relationship.PEER))
        merged = aggregate_snapshots([s1, s2, s3], min_appearances=2)
        assert merged.has_link(1, 2)
        assert not merged.has_link(3, 4)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate_snapshots([])

    def test_single_snapshot_is_identity(self):
        s1 = _graph((1, 2, Relationship.PEER), (2, 3, Relationship.CUSTOMER))
        merged = aggregate_snapshots([s1])
        assert link_set(merged) == link_set(s1)

    rel_strategy = st.sampled_from(
        [Relationship.CUSTOMER, Relationship.PEER, Relationship.SIBLING]
    )

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=8),
                    st.integers(min_value=9, max_value=16),
                    rel_strategy,
                ),
                max_size=10,
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_aggregate_links_subset_of_union(self, snapshot_links):
        """Aggregation never invents links absent from all snapshots."""
        snapshots = []
        union_pairs = set()
        for links in snapshot_links:
            graph = ASGraph()
            for a, b, rel in links:
                graph.add_link(a, b, rel)
                union_pairs.add((min(a, b), max(a, b)))
            snapshots.append(graph)
        merged = aggregate_snapshots(snapshots)
        merged_pairs = {(min(a, b), max(a, b)) for a, b, _ in merged.links()}
        assert merged_pairs == union_pairs
