"""ParallelClassifier: precompute dedup and the batched grading path.

The batched path (one kernel sweep per engine, arena grading) must be
identical to the per-decision serial references.
"""

import pytest

from repro.core.classification import (
    Decision,
    LayerConfig,
    classify_decisions_serial,
    label_decisions_serial,
)
from repro.core.gao_rexford import GaoRexfordEngine
from repro.net.ip import Prefix
from repro.perf.parallel import ParallelClassifier
from repro.topology import ASGraph, Relationship

pytestmark = pytest.mark.tier1

PFX = Prefix.parse("198.51.100.0/24")


def _ladder_graph(rungs=6):
    """Two provider chains joined by peer rungs; destination at 1."""
    graph = ASGraph()
    for i in range(1, rungs):
        graph.add_link(2 * i + 1, 2 * i - 1, Relationship.CUSTOMER)
        graph.add_link(2 * i + 2, 2 * i, Relationship.CUSTOMER)
        graph.add_link(2 * i - 1, 2 * i, Relationship.PEER)
    graph.add_link(2, 1, Relationship.CUSTOMER)
    return graph


def _decisions(graph, destinations):
    asns = sorted(graph.asns())
    decisions = []
    for destination in destinations:
        for asn in asns:
            for next_hop in asns:
                if asn in (next_hop, destination) or next_hop == destination:
                    continue
                decisions.append(
                    Decision(
                        asn=asn,
                        next_hop=next_hop,
                        destination=destination,
                        prefix=PFX,
                        measured_len=2,
                        source_asn=asn,
                    )
                )
    return decisions


class TestPrecompute:
    def test_warm_cache_counts_as_reuse(self):
        graph = _ladder_graph()
        engine = GaoRexfordEngine(graph)
        layer = LayerConfig(engine=engine)
        classifier = ParallelClassifier()
        decisions = _decisions(graph, destinations=[1, 2])
        first = classifier.precompute(decisions, [layer])
        assert first.trees_computed == 2
        second = classifier.precompute(decisions, [layer])
        assert second.trees_computed == 0
        assert second.trees_reused == 2

    def test_shared_engine_collected_once(self):
        graph = _ladder_graph()
        engine = GaoRexfordEngine(graph)
        layers = [LayerConfig(engine=engine), LayerConfig(engine=engine)]
        classifier = ParallelClassifier()
        decisions = _decisions(graph, destinations=[1])
        report = classifier.precompute(decisions, layers)
        # The second layer's identical tree needs are deduplicated.
        assert report.trees_computed == 1
        assert report.trees_reused == 1


class TestBatchedPath:
    def test_batched_matches_serial(self):
        graph = _ladder_graph()
        destinations = sorted(graph.asns())[:4]
        decisions = _decisions(graph, destinations)

        serial_engine = GaoRexfordEngine(graph)
        expected_counts = classify_decisions_serial(decisions, serial_engine)
        expected_labels = label_decisions_serial(decisions, serial_engine)

        engine = GaoRexfordEngine(graph)
        layer = LayerConfig(engine=engine)
        classifier = ParallelClassifier()
        counts = classifier.classify_layers(decisions, {"Simple": layer})

        assert classifier.last_report is not None
        assert classifier.last_report.trees_computed == len(destinations)
        assert counts["Simple"].counts == expected_counts.counts
        # The precomputed trees were installed into the engine cache.
        assert engine.cache_stats().size == len(destinations)
        assert classifier.label_layer(decisions, layer) == expected_labels

    def test_batched_respects_first_hop_restrictions(self):
        graph = _ladder_graph()
        decisions = _decisions(graph, destinations=[1, 2])
        first_hops = {PFX: frozenset({2, 3})}

        serial_engine = GaoRexfordEngine(graph)
        expected = label_decisions_serial(
            decisions, serial_engine, first_hops_for=first_hops
        )

        layer = LayerConfig(engine=GaoRexfordEngine(graph), first_hops_for=first_hops)
        classifier = ParallelClassifier()
        assert classifier.label_layer(decisions, layer) == expected
        assert classifier.last_report is not None
        assert classifier.last_report.trees_computed == 2
