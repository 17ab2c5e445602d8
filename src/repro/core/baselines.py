"""Baseline routing models for comparison with Gao-Rexford.

Section 2 of the paper describes the model family used across
simulation studies: the Gao-Rexford preferences, the simplification
where "ASes only consider the next hop AS on the path", and the
restriction of "path selection to the shortest among all paths
satisfying Local Preference".  This module implements those baselines
plus a policy-free shortest-path model, and an evaluator that scores
each model's ability to predict measured next-hop decisions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Protocol, Tuple

from repro.core.classification import Decision
from repro.core.gao_rexford import GaoRexfordEngine
from repro.topology.graph import ASGraph
from repro.topology.relationships import Relationship


class RoutingModel(Protocol):
    """A model that predicts routing choices toward a destination."""

    name: str

    def predicted_next_hops(self, asn: int, destination: int) -> FrozenSet[int]:
        """Next hops the model considers (equally) best for ``asn``."""

    def predicted_length(self, asn: int, destination: int) -> Optional[int]:
        """AS-path length of the model's predicted route, or ``None``."""


class ShortestPathModel:
    """Policy-free shortest paths over the undirected AS graph.

    The strawman baseline: pretend business relationships do not exist
    and route along graph-shortest paths.
    """

    name = "shortest-path"

    def __init__(self, graph: ASGraph) -> None:
        self._graph = graph
        self._distance_cache: Dict[int, Dict[int, int]] = {}

    def _distances(self, destination: int) -> Dict[int, int]:
        cached = self._distance_cache.get(destination)
        if cached is not None:
            return cached
        distances = {destination: 0}
        queue = deque([destination])
        while queue:
            current = queue.popleft()
            for neighbor in self._graph.neighbors(current):
                if neighbor not in distances:
                    distances[neighbor] = distances[current] + 1
                    queue.append(neighbor)
        self._distance_cache[destination] = distances
        return distances

    def predicted_next_hops(self, asn: int, destination: int) -> FrozenSet[int]:
        distances = self._distances(destination)
        own = distances.get(asn)
        if own is None or own == 0:
            return frozenset()
        return frozenset(
            neighbor
            for neighbor in self._graph.neighbors(asn)
            if distances.get(neighbor) == own - 1
        )

    def predicted_length(self, asn: int, destination: int) -> Optional[int]:
        return self._distances(destination).get(asn)


class GaoRexfordModel:
    """The full model: local preference first, then shortest path."""

    name = "gao-rexford"

    def __init__(self, graph: ASGraph) -> None:
        self._graph = graph
        self._engine = GaoRexfordEngine(graph)

    def _usable_length_via(self, info, asn: int, neighbor: int) -> Optional[int]:
        """Length of the route ``asn`` would have via ``neighbor``."""
        relationship = self._graph.relationship(asn, neighbor)
        if relationship is None:
            return None
        if relationship in (Relationship.CUSTOMER, Relationship.SIBLING, Relationship.PEER):
            # Customers/siblings/peers only export their chosen
            # *customer* routes to us (valley-free exports).
            neighbor_dist = info.customer_dist.get(neighbor)
        else:
            # Providers export whatever they chose.
            neighbor_dist = (
                info.customer_dist.get(neighbor)
                if neighbor in info.customer_dist
                else info.peer_dist.get(neighbor)
                if neighbor in info.peer_dist
                else info.provider_dist.get(neighbor)
            )
        return None if neighbor_dist is None else neighbor_dist + 1

    def _candidates(
        self, asn: int, destination: int
    ) -> List[Tuple[int, Relationship, int]]:
        info = self._engine.routing_info(destination)
        candidates = []
        for neighbor, relationship in self._graph.neighbors(asn).items():
            if neighbor == destination:
                candidates.append((neighbor, relationship, 1))
                continue
            length = self._usable_length_via(info, asn, neighbor)
            if length is not None:
                candidates.append((neighbor, relationship, length))
        return candidates

    def predicted_next_hops(self, asn: int, destination: int) -> FrozenSet[int]:
        candidates = self._candidates(asn, destination)
        if not candidates:
            return frozenset()
        best_rank = min(rel.rank() for _n, rel, _l in candidates)
        in_class = [c for c in candidates if c[1].rank() == best_rank]
        best_length = min(length for _n, _rel, length in in_class)
        return frozenset(
            neighbor for neighbor, _rel, length in in_class if length == best_length
        )

    def predicted_length(self, asn: int, destination: int) -> Optional[int]:
        if asn == destination:
            return 0
        return self._engine.routing_info(destination).gr_route_length(asn)


class NextHopOnlyModel(GaoRexfordModel):
    """Gao-Rexford preferences judged on the next hop only.

    The simplification some studies adopt: an AS ranks routes purely by
    the business class of the next hop, ignoring path length entirely —
    so every best-class neighbor is an equally plausible choice.
    """

    name = "next-hop-only"

    def predicted_next_hops(self, asn: int, destination: int) -> FrozenSet[int]:
        candidates = self._candidates(asn, destination)
        if not candidates:
            return frozenset()
        best_rank = min(rel.rank() for _n, rel, _l in candidates)
        return frozenset(
            neighbor for neighbor, rel, _l in candidates if rel.rank() == best_rank
        )

    def predicted_length(self, asn: int, destination: int) -> Optional[int]:
        # Length is undefined under next-hop-only preferences; report
        # the class-respecting minimum for comparability.
        return super().predicted_length(asn, destination)


@dataclass
class ModelScore:
    """Accuracy of one model over a decision set."""

    name: str
    decisions: int = 0
    next_hop_hits: int = 0
    length_matches: int = 0
    #: Mean size of the predicted next-hop set (a model predicting
    #: "anything goes" scores high hit rates trivially; this exposes it).
    prediction_set_size_total: int = 0
    #: Sum of 1/|prediction set| over hits: the probability of naming
    #: the measured next hop when forced to pick one candidate.
    precision_weighted_hits: float = 0.0

    @property
    def next_hop_accuracy(self) -> float:
        return 0.0 if self.decisions == 0 else self.next_hop_hits / self.decisions

    @property
    def pointwise_accuracy(self) -> float:
        """Expected accuracy of a single guess drawn from the
        prediction set — the tie-size-fair comparison metric."""
        return (
            0.0 if self.decisions == 0 else self.precision_weighted_hits / self.decisions
        )

    @property
    def length_accuracy(self) -> float:
        return 0.0 if self.decisions == 0 else self.length_matches / self.decisions

    @property
    def mean_prediction_set_size(self) -> float:
        if self.decisions == 0:
            return 0.0
        return self.prediction_set_size_total / self.decisions


def evaluate_models(
    models: Iterable[RoutingModel], decisions: Iterable[Decision]
) -> List[ModelScore]:
    """Score each model's next-hop and length predictions."""
    models = list(models)
    scores = [ModelScore(name=model.name) for model in models]
    for decision in decisions:
        for model, score in zip(models, scores):
            predicted = model.predicted_next_hops(decision.asn, decision.destination)
            score.decisions += 1
            score.prediction_set_size_total += len(predicted)
            if decision.next_hop in predicted:
                score.next_hop_hits += 1
                score.precision_weighted_hits += 1.0 / len(predicted)
            length = model.predicted_length(decision.asn, decision.destination)
            if length is not None and length == decision.measured_len:
                score.length_matches += 1
    return scores
