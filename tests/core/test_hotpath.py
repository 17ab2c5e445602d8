"""The array hot path must be indistinguishable from the dict reference.

The hot path (CSR compilation, batched tree kernel, lazy routing-tree
wrappers, vectorized arena grading) is how the engine computes and
grades trees: for every graph, restriction, partial-transit set, and
decision batch it must produce exactly the distances and labels of the
readable dict construction in :mod:`repro.check.oracles` graded by the
scalar :func:`~repro.core.classification.grade_decision` — which these
tests drive side by side.
"""

import os
import pickle
import random

import numpy as np
import pytest

from repro.check.oracles import compute_routing_info
from repro.core.classification import (
    Decision,
    LabelCounts,
    LayerConfig,
    classify_decisions,
    grade_decision,
    label_decisions,
)
from repro.core.gao_rexford import GaoRexfordEngine
from repro.core.hotpath import (
    ArrayRoutingInfo,
    compile_topology,
    compute_tree_batch,
)
from repro.core.hotpath.csr import RANK_MISSING
from repro.net.ip import Prefix
from repro.perf.parallel import ParallelClassifier
from repro.topology import ASGraph, Relationship
from repro.topology.complex_rel import ComplexRelationships, HybridEntry
from repro.whois.siblings import SiblingGroups

pytestmark = pytest.mark.tier1

PFX = Prefix.parse("198.51.100.0/24")

RELS = [
    Relationship.PROVIDER,
    Relationship.PEER,
    Relationship.CUSTOMER,
    Relationship.SIBLING,
]


def _random_graph(rng, size=None):
    graph = ASGraph()
    count = size or rng.randint(3, 30)
    asns = [100 + i for i in range(count)]
    for asn in asns:
        graph.ensure_asn(asn)
    for _ in range(rng.randint(count, count * 3)):
        a, b = rng.sample(asns, 2)
        graph.add_link(a, b, rng.choice(RELS))
    return graph, asns


def _diamond_graph():
    """1 buys transit from 2 and 3, which peer; 4 provides to both."""
    graph = ASGraph()
    graph.add_link(1, 2, Relationship.PROVIDER)
    graph.add_link(1, 3, Relationship.PROVIDER)
    graph.add_link(2, 3, Relationship.PEER)
    graph.add_link(2, 4, Relationship.PROVIDER)
    graph.add_link(3, 4, Relationship.PROVIDER)
    return graph


class TestCSRTopology:
    def test_ids_are_sorted_asns(self):
        graph, asns = _random_graph(random.Random(1))
        csr = compile_topology(graph)
        assert list(csr.ids) == sorted(graph.asns())
        for asn in asns:
            assert int(csr.ids[csr.id_of(asn)]) == asn
        assert csr.id_of(999999) == -1

    def test_ids_of_vectorized_matches_id_of(self):
        graph, asns = _random_graph(random.Random(2))
        csr = compile_topology(graph)
        probe = np.asarray(asns + [999999, -5], dtype=np.int64)
        got = csr.ids_of(probe)
        assert [int(x) for x in got] == [csr.id_of(int(a)) for a in probe]

    def test_edge_partitions_match_adjacency(self):
        graph, _asns = _random_graph(random.Random(3))
        csr = compile_topology(graph)
        adjacency = graph.routing_adjacency()
        for edges, reference in (
            (csr.up, adjacency.up),
            (csr.peers, adjacency.peers),
            (csr.down, adjacency.down),
        ):
            got = set()
            for s, d in zip(edges.src, edges.dst):
                got.add((int(csr.ids[s]), int(csr.ids[d])))
            want = {
                (asn, neighbor)
                for asn, neighbors in reference.items()
                for neighbor in neighbors
            }
            assert got == want

    def test_rel_ranks_match_graph_relationship(self):
        graph, asns = _random_graph(random.Random(4))
        csr = compile_topology(graph)
        rng = random.Random(5)
        pairs = [tuple(rng.sample(asns, 2)) for _ in range(50)]
        pairs.append((asns[0], asns[0]))
        src = csr.ids_of(np.asarray([a for a, _ in pairs], dtype=np.int64))
        dst = csr.ids_of(np.asarray([b for _, b in pairs], dtype=np.int64))
        ranks = csr.rel_ranks(src, dst)
        for (a, b), rank in zip(pairs, ranks):
            rel = graph.relationship(a, b)
            want = RANK_MISSING if rel is None else rel.rank()
            assert int(rank) == want

    def test_compilation_cached_until_graph_mutates(self):
        graph, asns = _random_graph(random.Random(6))
        first = compile_topology(graph)
        assert compile_topology(graph) is first
        graph.add_link(max(asns) + 1, asns[0], Relationship.CUSTOMER)
        rebuilt = compile_topology(graph)
        assert rebuilt is not first
        assert rebuilt.n == first.n + 1


class TestKernelVsReference:
    @pytest.mark.parametrize("trial", range(8))
    def test_distances_match_dict_reference(self, trial):
        rng = random.Random(40 + trial)
        graph, asns = _random_graph(rng)
        csr = compile_topology(graph)

        partial = frozenset()
        if trial % 2:
            partial = frozenset(
                tuple(rng.sample(asns, 2)) for _ in range(rng.randint(1, 3))
            )
        keys = []
        for _ in range(rng.randint(1, 8)):
            dest = rng.choice(asns)
            allowed = None
            if rng.random() < 0.5:
                allowed = frozenset(rng.sample(asns, rng.randint(1, len(asns))))
            keys.append((dest, allowed))

        batch = compute_tree_batch(
            csr,
            [csr.id_of(dest) for dest, _ in keys],
            [csr.allowed_mask(allowed) for _, allowed in keys],
            csr.partial_mask(partial),
        )
        for j, (dest, allowed) in enumerate(keys):
            reference = compute_routing_info(
                graph, dest, partial_transit=partial, allowed_first_hops=allowed
            )
            info = ArrayRoutingInfo(dest, csr.ids, *batch.row(j))
            assert info.customer_dist == reference.customer_dist
            assert info.peer_dist == reference.peer_dist
            assert info.provider_dist == reference.provider_dist

    @pytest.mark.parametrize("trial", range(8))
    def test_parents_and_paths_match_dict_reference(self, trial):
        """Parent tie-breaks follow the reference, so every route the
        model reconstructs (Table 3 reads them) is the same route."""
        rng = random.Random(70 + trial)
        graph, asns = _random_graph(rng, size=rng.randint(10, 40))
        partial = frozenset(
            tuple(rng.sample(asns, 2)) for _ in range(rng.randint(0, 3))
        )
        engine = GaoRexfordEngine(graph, partial_transit=partial)
        keys = [(dest, None) for dest in asns]
        keys += [
            (dest, frozenset(rng.sample(asns, rng.randint(1, len(asns)))))
            for dest in rng.sample(asns, 5)
        ]
        engine.warm_batch(keys)
        for dest, allowed in keys:
            info = engine.routing_info(dest, allowed)
            reference = compute_routing_info(
                graph, dest, partial_transit=partial, allowed_first_hops=allowed
            )
            assert info.customer_parent == reference.customer_parent
            assert info.peer_parent == reference.peer_parent
            assert info.provider_parent == reference.provider_parent
            for asn in asns:
                assert info.gr_route_path(asn) == reference.gr_route_path(asn)

    def test_empty_batch_and_unknown_destination(self):
        graph = _diamond_graph()
        csr = compile_topology(graph)
        batch = compute_tree_batch(csr, [], [])
        assert batch.customer.shape == (0, csr.n)
        engine = GaoRexfordEngine(graph)
        with pytest.raises(KeyError):
            engine.routing_info(999999, None)


class TestArrayRoutingInfo:
    def _pair(self, destination=4, allowed=None):
        graph = _diamond_graph()
        array_info = GaoRexfordEngine(graph).routing_info(destination, allowed)
        dict_info = compute_routing_info(
            graph, destination, allowed_first_hops=allowed
        )
        return graph, array_info, dict_info

    def test_routing_info_surface_matches_dict(self):
        graph, array_info, dict_info = self._pair()
        for asn in graph.asns():
            assert array_info.best_class(asn) == dict_info.best_class(asn)
            assert array_info.has_route(asn) == dict_info.has_route(asn)
            assert array_info.gr_route_length(asn) == dict_info.gr_route_length(
                asn
            )

    def test_path_reconstruction_is_valid(self):
        graph, array_info, _dict_info = self._pair()
        for asn in graph.asns():
            length = array_info.gr_route_length(asn)
            if length is None:
                assert array_info.gr_route_path(asn) is None
                continue
            path = array_info.gr_route_path(asn)
            assert path is not None
            assert len(path) - 1 == length
            assert path[0] == asn and path[-1] == 4
            for hop, nxt in zip(path, path[1:]):
                assert graph.has_link(hop, nxt)

    def test_wrapper_is_picklable(self):
        _graph, array_info, dict_info = self._pair()
        clone = pickle.loads(pickle.dumps(array_info))
        assert clone.customer_dist == dict_info.customer_dist
        assert clone.peer_dist == dict_info.peer_dist
        assert clone.provider_dist == dict_info.provider_dist


class TestWarmBatch:
    def test_warm_batch_stats_match_per_tree_accounting(self):
        """One kernel sweep charges the cache exactly what computing
        the same trees one ``routing_info`` call at a time does."""
        graph = _diamond_graph()
        keys = [(4, None), (1, None), (4, None), (2, frozenset({1, 3}))]
        batched = GaoRexfordEngine(graph)
        assert batched.warm_batch(keys) == 3  # one duplicate
        single = GaoRexfordEngine(graph)
        for destination, allowed in dict.fromkeys(keys):
            single.routing_info(destination, allowed)
        stats = batched.cache_stats()
        assert stats.as_dict() == single.cache_stats().as_dict()
        # Second warm finds everything cached and charges nothing.
        assert batched.warm_batch(keys) == 0
        assert batched.cache_stats().as_dict() == stats.as_dict()


def _random_decisions(rng, asns, count=80):
    decisions = []
    for _ in range(count):
        asn = rng.choice(asns)
        decisions.append(
            Decision(
                asn=asn,
                next_hop=rng.choice(asns + [999999]),
                destination=rng.choice(asns),
                prefix=PFX,
                measured_len=rng.randint(1, 6),
                source_asn=asn,
                border_city=rng.choice([None, "nyc", "lon"]),
            )
        )
    return decisions


def _reference_labels(graph, decisions, first_hops, complex_rel, siblings):
    """Scalar grades over independently built dict reference trees."""
    labels = []
    for decision in decisions:
        allowed = first_hops.get(decision.prefix) if first_hops else None
        info = compute_routing_info(
            graph, decision.destination, allowed_first_hops=allowed
        )
        labels.append(
            grade_decision(
                decision, info, graph, complex_rel=complex_rel, siblings=siblings
            )
        )
    return labels


def _tally(labels):
    counts = LabelCounts()
    for label in labels:
        counts.add(label)
    return counts.counts


class TestArrayGrading:
    def _world(self, seed):
        rng = random.Random(seed)
        graph, asns = _random_graph(rng, size=16)
        complex_rel = ComplexRelationships()
        for _ in range(2):
            a, b = rng.sample(asns, 2)
            if graph.relationship(a, b) is not None:
                complex_rel.add_hybrid(
                    HybridEntry(a, b, "nyc", rng.choice(RELS[:3]))
                )
        siblings = SiblingGroups([frozenset(rng.sample(asns, 3))])
        first_hops = {
            PFX: frozenset(rng.sample(asns, rng.randint(1, len(asns))))
        }
        decisions = _random_decisions(rng, asns)
        return graph, complex_rel, siblings, first_hops, decisions

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_classify_and_label_match_dict(self, seed):
        graph, complex_rel, siblings, first_hops, decisions = self._world(seed)
        reference = _reference_labels(
            graph, decisions, first_hops, complex_rel, siblings
        )
        engine = GaoRexfordEngine(graph)
        counts = classify_decisions(
            decisions,
            engine,
            first_hops_for=first_hops,
            complex_rel=complex_rel,
            siblings=siblings,
        ).counts
        labels = [
            label
            for _d, label in label_decisions(
                decisions,
                engine,
                first_hops_for=first_hops,
                complex_rel=complex_rel,
                siblings=siblings,
            )
        ]
        assert labels == reference
        assert counts == _tally(reference)

    def test_parallel_classifier_all_array_layers(self):
        graph, complex_rel, siblings, first_hops, decisions = self._world(21)
        engine = GaoRexfordEngine(graph)
        layers = {
            "Simple": LayerConfig(engine=engine),
            "Refined": LayerConfig(
                engine=engine,
                first_hops_for=first_hops,
                complex_rel=complex_rel,
                siblings=siblings,
            ),
        }
        classifier = ParallelClassifier()
        counts = classifier.classify_layers(decisions, layers)
        assert counts["Simple"].counts == _tally(
            _reference_labels(graph, decisions, None, None, None)
        )
        assert counts["Refined"].counts == _tally(
            _reference_labels(graph, decisions, first_hops, complex_rel, siblings)
        )
        # Every tree was precomputed up front: grading only hit the cache.
        for name in layers:
            delta = classifier.last_layer_cache_stats[name]["delta"]
            assert delta["misses"] == 0 and delta["hits"] > 0

    def test_parallel_classifier_label_layer_array(self):
        graph, complex_rel, siblings, first_hops, decisions = self._world(22)
        layer = LayerConfig(
            engine=GaoRexfordEngine(graph),
            first_hops_for=first_hops,
            complex_rel=complex_rel,
            siblings=siblings,
        )
        labels = [
            label for _d, label in ParallelClassifier().label_layer(decisions, layer)
        ]
        assert labels == _reference_labels(
            graph, decisions, first_hops, complex_rel, siblings
        )


class TestGoldenFigure1:
    @pytest.mark.golden
    def test_array_backend_reproduces_blessed_figure1(self, study):
        """The golden gate, through the array backend end to end."""
        import json

        golden_file = os.path.join(
            os.path.dirname(os.path.dirname(__file__)),
            "golden",
            "study_quick_seed0.json",
        )
        with open(golden_file, "r", encoding="utf-8") as handle:
            blessed = json.load(handle)["figure1"]

        from repro.core.pipeline import figure1_layer_configs

        partial = study.engine_complex.partial_transit
        engine_simple = GaoRexfordEngine(study.inferred)
        engine_complex = GaoRexfordEngine(study.inferred, partial_transit=partial)
        layers = figure1_layer_configs(
            engine_simple,
            engine_complex,
            known_complex=study.known_complex,
            siblings=study.siblings,
            first_hops_1=study.first_hops_1,
            first_hops_2=study.first_hops_2,
        )
        figure1 = ParallelClassifier().classify_layers(
            study.decisions, layers
        )
        got = {
            name: {label.value: n for label, n in counts.counts.items()}
            for name, counts in figure1.items()
        }
        assert got == blessed
