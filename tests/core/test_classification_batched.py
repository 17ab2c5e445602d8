"""Batched grading must be indistinguishable from per-decision grading.

The batched arena path (grouping by routing tree, duplicate
collapsing, vectorized grading) is a pure optimization: for every input
and every refinement configuration it must produce exactly the labels
and counts of the per-decision reference implementation.
"""

import random

import pytest

from repro.core.classification import (
    Decision,
    classify_decisions,
    classify_decisions_serial,
    label_decisions,
    label_decisions_serial,
)
from repro.core.gao_rexford import GaoRexfordEngine
from repro.core.hotpath.grade import DecisionArena
from repro.core.pipeline import FIGURE1_LAYERS, figure1_layer_configs
from repro.net.ip import Prefix
from repro.topology import ASGraph, Relationship
from repro.topology.complex_rel import ComplexRelationships, HybridEntry
from repro.whois.siblings import SiblingGroups

pytestmark = pytest.mark.tier1

PFX = Prefix.parse("198.51.100.0/24")
PFX_B = Prefix.parse("203.0.113.0/24")


def _graph(*links):
    graph = ASGraph()
    for a, b, rel in links:
        graph.add_link(a, b, rel)
    return graph


def _decision(asn, next_hop, destination, measured_len, prefix=PFX, **kwargs):
    return Decision(
        asn=asn,
        next_hop=next_hop,
        destination=destination,
        prefix=prefix,
        measured_len=measured_len,
        source_asn=kwargs.pop("source_asn", asn),
        **kwargs,
    )


class TestStudyLayerEquivalence:
    """All seven Figure-1 layers on the full quick-study decision set."""

    @pytest.fixture(scope="class")
    def layers(self, study):
        engine_simple = GaoRexfordEngine(study.inferred)
        engine_complex = GaoRexfordEngine(
            study.inferred,
            partial_transit=study.engine_complex.partial_transit,
        )
        return figure1_layer_configs(
            engine_simple,
            engine_complex,
            known_complex=study.known_complex,
            siblings=study.siblings,
            first_hops_1=study.first_hops_1,
            first_hops_2=study.first_hops_2,
        )

    @pytest.mark.parametrize("layer_name", FIGURE1_LAYERS)
    def test_counts_identical(self, study, layers, layer_name):
        layer = layers[layer_name]
        batched = classify_decisions(
            study.decisions,
            layer.engine,
            first_hops_for=layer.first_hops_for,
            complex_rel=layer.complex_rel,
            siblings=layer.siblings,
        )
        serial = classify_decisions_serial(
            study.decisions,
            layer.engine,
            first_hops_for=layer.first_hops_for,
            complex_rel=layer.complex_rel,
            siblings=layer.siblings,
        )
        assert batched.counts == serial.counts
        # And both must match what the study pipeline reported.
        assert batched.counts == study.figure1[layer_name].counts

    @pytest.mark.parametrize("layer_name", FIGURE1_LAYERS)
    def test_labels_identical(self, study, layers, layer_name):
        layer = layers[layer_name]
        batched = label_decisions(
            study.decisions,
            layer.engine,
            first_hops_for=layer.first_hops_for,
            complex_rel=layer.complex_rel,
            siblings=layer.siblings,
        )
        serial = label_decisions_serial(
            study.decisions,
            layer.engine,
            first_hops_for=layer.first_hops_for,
            complex_rel=layer.complex_rel,
            siblings=layer.siblings,
        )
        assert batched == serial


class TestRandomizedEquivalence:
    """Property-style: random graphs, decisions and refinement configs."""

    @staticmethod
    def _random_case(rng):
        num_ases = rng.randint(4, 14)
        asns = list(range(1, num_ases + 1))
        graph = ASGraph()
        for asn in asns:
            graph.ensure_asn(asn)
        for a in asns:
            for b in asns:
                if a < b and rng.random() < 0.35:
                    rel = rng.choice(list(Relationship))
                    graph.add_link(a, b, rel)
        destinations = rng.sample(asns, k=min(3, len(asns)))
        cities = [None, "Paris", "Tokyo"]
        decisions = []
        for _ in range(rng.randint(5, 60)):
            asn, next_hop = rng.sample(asns, k=2)
            decisions.append(
                _decision(
                    asn,
                    next_hop,
                    rng.choice(destinations),
                    measured_len=rng.randint(1, 6),
                    prefix=rng.choice([PFX, PFX_B]),
                    border_city=rng.choice(cities),
                )
            )
        first_hops_for = None
        if rng.random() < 0.7:
            first_hops_for = {
                prefix: frozenset(rng.sample(asns, k=rng.randint(0, len(asns))))
                for prefix in (PFX, PFX_B)
                if rng.random() < 0.8
            }
        complex_rel = None
        if rng.random() < 0.5:
            a, b = rng.sample(asns, k=2)
            complex_rel = ComplexRelationships(
                hybrid=[HybridEntry(a, b, "Paris", rng.choice(list(Relationship)))]
            )
        siblings = None
        if rng.random() < 0.5:
            siblings = SiblingGroups([frozenset(rng.sample(asns, k=2))])
        return graph, decisions, first_hops_for, complex_rel, siblings

    @pytest.mark.parametrize("seed", range(1000, 1025))
    def test_random_trial(self, seed):
        rng = random.Random(seed)
        graph, decisions, first_hops_for, complex_rel, siblings = self._random_case(
            rng
        )
        engine = GaoRexfordEngine(graph)
        batched = label_decisions(
            decisions,
            engine,
            first_hops_for=first_hops_for,
            complex_rel=complex_rel,
            siblings=siblings,
        )
        serial = label_decisions_serial(
            decisions,
            engine,
            first_hops_for=first_hops_for,
            complex_rel=complex_rel,
            siblings=siblings,
        )
        assert batched == serial
        counts_batched = classify_decisions(
            decisions,
            engine,
            first_hops_for=first_hops_for,
            complex_rel=complex_rel,
            siblings=siblings,
        )
        counts_serial = classify_decisions_serial(
            decisions,
            engine,
            first_hops_for=first_hops_for,
            complex_rel=complex_rel,
            siblings=siblings,
        )
        assert counts_batched.counts == counts_serial.counts


class TestGroupedDecisions:
    def test_groups_by_destination_and_allowed(self):
        decisions = [
            _decision(1, 2, 9, measured_len=2, prefix=PFX),
            _decision(1, 2, 9, measured_len=2, prefix=PFX_B),
            _decision(1, 2, 8, measured_len=2, prefix=PFX),
        ]
        first_hops = {PFX: frozenset({2})}
        grouped = DecisionArena(decisions).grouping(first_hops)
        assert set(grouped.tree_keys) == {
            (9, frozenset({2})),
            (9, None),
            (8, frozenset({2})),
        }

    def test_duplicates_collapse(self):
        decisions = [_decision(1, 2, 9, measured_len=2) for _ in range(5)]
        decisions.append(_decision(1, 3, 9, measured_len=2))
        arena = DecisionArena(decisions)
        assert len(arena) == 6
        assert arena.grouping(None).num_uniques == 2

    def test_border_city_distinguishes(self):
        decisions = [
            _decision(1, 2, 9, measured_len=2, border_city="Paris"),
            _decision(1, 2, 9, measured_len=2, border_city="Tokyo"),
        ]
        assert DecisionArena(decisions).grouping(None).num_uniques == 2

    def test_labels_preserve_input_order(self):
        diamond = _graph(
            (1, 2, Relationship.CUSTOMER),
            (2, 9, Relationship.CUSTOMER),
            (1, 3, Relationship.PEER),
            (3, 9, Relationship.CUSTOMER),
        )
        engine = GaoRexfordEngine(diamond)
        decisions = [
            _decision(1, 3, 9, measured_len=2),
            _decision(1, 2, 9, measured_len=2),
            _decision(1, 3, 9, measured_len=2),
        ]
        labeled = label_decisions(decisions, engine)
        assert [d for d, _ in labeled] == decisions
        assert labeled[0][1] == labeled[2][1]
