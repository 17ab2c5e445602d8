"""Topology-completeness analysis (Oliveira et al. style).

The paper's motivation leans on the known incompleteness of inferred
topologies: route monitors "expose few paths to and from eyeball and
content networks" and miss "the rich peering mesh which exists near the
edge".  Given a ground-truth graph and an inferred one, this module
quantifies exactly that: per-relationship-class recall, precision, and
label accuracy, split by whether a link touches the network edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from repro.topology.graph import ASGraph
from repro.topology.relationships import Relationship


def _pair(a: int, b: int) -> Tuple[int, int]:
    return (min(a, b), max(a, b))


def _normalized_links(graph: ASGraph) -> Dict[Tuple[int, int], str]:
    """Each undirected link mapped to a direction-aware label."""
    links: Dict[Tuple[int, int], str] = {}
    for a, b, rel in graph.links():
        if rel is Relationship.CUSTOMER:
            label = f"c2p:{a}>{b}"  # a is the provider
        elif rel is Relationship.SIBLING:
            label = "sibling"
        else:
            label = "p2p"
        links[_pair(a, b)] = label
    return links


def _edge_asns(graph: ASGraph, degree_threshold: int = 4) -> Set[int]:
    return {
        asn
        for asn in graph.asns()
        if not graph.customers(asn) or graph.degree(asn) <= degree_threshold
    }


@dataclass
class CompletenessReport:
    """How much of the truth an inferred topology captures."""

    true_links: int = 0
    inferred_links: int = 0
    found_links: int = 0
    correctly_labeled: int = 0
    spurious_links: int = 0
    #: Recall split by link population.
    edge_peering_true: int = 0
    edge_peering_found: int = 0
    core_true: int = 0
    core_found: int = 0

    @property
    def recall(self) -> float:
        return 0.0 if self.true_links == 0 else self.found_links / self.true_links

    @property
    def precision(self) -> float:
        if self.inferred_links == 0:
            return 0.0
        return (self.inferred_links - self.spurious_links) / self.inferred_links

    @property
    def label_accuracy(self) -> float:
        """Among found links, the fraction with the right label."""
        return 0.0 if self.found_links == 0 else self.correctly_labeled / self.found_links

    @property
    def edge_peering_recall(self) -> float:
        if self.edge_peering_true == 0:
            return 0.0
        return self.edge_peering_found / self.edge_peering_true

    @property
    def core_recall(self) -> float:
        return 0.0 if self.core_true == 0 else self.core_found / self.core_true


def completeness(truth: ASGraph, inferred: ASGraph) -> CompletenessReport:
    """Compare an inferred topology against the ground truth."""
    true_links = _normalized_links(truth)
    inferred_links = _normalized_links(inferred)
    edge = _edge_asns(truth)

    report = CompletenessReport(
        true_links=len(true_links),
        inferred_links=len(inferred_links),
    )
    for pair, label in true_links.items():
        a, b = pair
        is_edge_peering = label == "p2p" and a in edge and b in edge
        if is_edge_peering:
            report.edge_peering_true += 1
        else:
            report.core_true += 1
        inferred_label = inferred_links.get(pair)
        if inferred_label is None:
            continue
        report.found_links += 1
        if is_edge_peering:
            report.edge_peering_found += 1
        else:
            report.core_found += 1
        # Sibling links have no inference class; any label counts as
        # found but never as correctly labeled.
        if inferred_label == label:
            report.correctly_labeled += 1
    report.spurious_links = sum(
        1 for pair in inferred_links if pair not in true_links
    )
    return report
