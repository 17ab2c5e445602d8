"""Decision classification into the Best/Short taxonomy (Section 3.3).

Every routing decision observed on a measured path — an AS ``x``
forwarding toward destination ``d`` via next hop ``n`` — is graded on
two properties against the Gao-Rexford model computed over the inferred
topology:

* **Best** — the relationship of ``n`` to ``x`` is at least as good as
  the best class through which the model says ``x`` can reach ``d``.
* **Short** — the measured path from ``x`` to ``d`` is no longer than
  the route the model predicts for ``x``.

Refinement layers adjust the grading exactly as the paper does: hybrid
relationships substitute the per-city relationship at the geolocated
interconnect (Section 4.1), sibling next hops count as Best (Section
4.2), and prefix-specific-policy criteria restrict which first hops the
destination's announcement reaches (Section 4.3).

Batches are graded by the vectorized arena grader
(:mod:`repro.core.hotpath.grade`); :func:`grade_decision` is the
per-decision definition it is checked against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.gao_rexford import GaoRexfordEngine
from repro.net.ip import Prefix
from repro.topology.graph import ASGraph
from repro.topology.complex_rel import ComplexRelationships
from repro.whois.siblings import SiblingGroups

if TYPE_CHECKING:
    from repro.core.hotpath.info import ArrayRoutingInfo


class DecisionLabel(enum.Enum):
    """Figure 1's four categories."""

    BEST_SHORT = "Best/Short"
    NONBEST_SHORT = "NonBest/Short"
    BEST_LONG = "Best/Long"
    NONBEST_LONG = "NonBest/Long"

    @classmethod
    def from_properties(cls, best: bool, short: bool) -> "DecisionLabel":
        if best:
            return cls.BEST_SHORT if short else cls.BEST_LONG
        return cls.NONBEST_SHORT if short else cls.NONBEST_LONG

    @property
    def is_violation(self) -> bool:
        """Whether the decision deviates from the model on either axis."""
        return self is not DecisionLabel.BEST_SHORT


@dataclass(frozen=True)
class Decision:
    """One observed routing decision."""

    asn: int
    next_hop: int
    destination: int
    prefix: Prefix
    #: Edges from ``asn`` to the destination along the measured path.
    measured_len: int
    source_asn: int
    path: Tuple[int, ...] = ()
    #: Geolocated city of the interconnect between asn and next_hop.
    border_city: Optional[str] = None
    dns_name: str = ""


@dataclass
class LabelCounts:
    """Tally of decisions per label, with percentage helpers."""

    counts: Dict[DecisionLabel, int] = field(
        default_factory=lambda: {label: 0 for label in DecisionLabel}
    )

    def add(self, label: DecisionLabel, count: int = 1) -> None:
        self.counts[label] += count

    def total(self) -> int:
        return sum(self.counts.values())

    def fraction(self, label: DecisionLabel) -> float:
        total = self.total()
        return 0.0 if total == 0 else self.counts[label] / total

    def percent(self, label: DecisionLabel) -> float:
        return 100.0 * self.fraction(label)

    def violations(self) -> int:
        return self.total() - self.counts[DecisionLabel.BEST_SHORT]

    def as_percent_dict(self) -> Dict[str, float]:
        return {label.value: round(self.percent(label), 1) for label in DecisionLabel}

    def __add__(self, other: "LabelCounts") -> "LabelCounts":
        merged = LabelCounts()
        for label in DecisionLabel:
            merged.counts[label] = self.counts[label] + other.counts[label]
        return merged


def grade_decision(
    decision: Decision,
    info: "ArrayRoutingInfo",
    graph: ASGraph,
    complex_rel: Optional[ComplexRelationships] = None,
    siblings: Optional[SiblingGroups] = None,
) -> DecisionLabel:
    """Grade one decision against a precomputed routing tree.

    Pure function of its arguments — no engine, no cache — which makes
    it the seam the reference oracles (:mod:`repro.check`) grade
    through with independently computed trees.  ``info`` is any tree
    answering ``best_class`` and ``gr_route_length``.
    """
    if siblings is not None and siblings.are_siblings(decision.asn, decision.next_hop):
        # Traffic handed to a sibling stays inside the organization; the
        # paper marks these decisions as satisfying Best (Section 4.2).
        best = True
    else:
        relationship = graph.relationship(decision.asn, decision.next_hop)
        if complex_rel is not None:
            hybrid = complex_rel.hybrid_relationship(
                decision.asn, decision.next_hop, decision.border_city
            )
            if hybrid is not None:
                relationship = hybrid
        best_class = info.best_class(decision.asn)
        if relationship is None:
            # The measured adjacency is absent from the inferred
            # topology; the model cannot call it Best.
            best = False
        elif best_class is None:
            # The model offers no route at all, so any real choice
            # beats it.
            best = True
        else:
            best = relationship.rank() <= best_class.rank()
    # Measured paths may be *shorter* than the model's prediction when
    # they use links the inferred topology misses; those still count as
    # Short (the AS is not taking a longer path than the model expects).
    model_len = info.gr_route_length(decision.asn)
    short = model_len is None or decision.measured_len <= model_len
    return DecisionLabel.from_properties(best, short)


def classify_decision(
    decision: Decision,
    engine: GaoRexfordEngine,
    allowed_first_hops: Optional[FrozenSet[int]] = None,
    complex_rel: Optional[ComplexRelationships] = None,
    siblings: Optional[SiblingGroups] = None,
) -> DecisionLabel:
    """Classify one decision under a given refinement configuration."""
    info = engine.routing_info(decision.destination, allowed_first_hops)
    return grade_decision(
        decision, info, engine.graph, complex_rel=complex_rel, siblings=siblings
    )


def classify_decisions_serial(
    decisions: Iterable[Decision],
    engine: GaoRexfordEngine,
    first_hops_for: Optional[Dict[Prefix, FrozenSet[int]]] = None,
    complex_rel: Optional[ComplexRelationships] = None,
    siblings: Optional[SiblingGroups] = None,
) -> LabelCounts:
    """Per-decision reference implementation of :func:`classify_decisions`.

    Grades every decision independently through
    :func:`classify_decision`: the equivalence baseline the arena path
    is tested (and benchmarked) against.
    """
    counts = LabelCounts()
    for decision in decisions:
        allowed = None
        if first_hops_for is not None:
            allowed = first_hops_for.get(decision.prefix)
        counts.add(
            classify_decision(
                decision,
                engine,
                allowed_first_hops=allowed,
                complex_rel=complex_rel,
                siblings=siblings,
            )
        )
    return counts


def label_decisions_serial(
    decisions: Iterable[Decision],
    engine: GaoRexfordEngine,
    first_hops_for: Optional[Dict[Prefix, FrozenSet[int]]] = None,
    complex_rel: Optional[ComplexRelationships] = None,
    siblings: Optional[SiblingGroups] = None,
) -> List[Tuple[Decision, DecisionLabel]]:
    """Per-decision reference implementation of :func:`label_decisions`."""
    labeled = []
    for decision in decisions:
        allowed = None
        if first_hops_for is not None:
            allowed = first_hops_for.get(decision.prefix)
        labeled.append(
            (
                decision,
                classify_decision(
                    decision,
                    engine,
                    allowed_first_hops=allowed,
                    complex_rel=complex_rel,
                    siblings=siblings,
                ),
            )
        )
    return labeled


# ---------------------------------------------------------------------------
# Batched grading
# ---------------------------------------------------------------------------

#: Which routing tree grades a decision: (destination, allowed first hops).
TreeKey = Tuple[int, Optional[FrozenSet[int]]]


@dataclass
class LayerConfig:
    """Grading configuration of one refinement layer (Figure 1)."""

    engine: GaoRexfordEngine
    first_hops_for: Optional[Dict[Prefix, FrozenSet[int]]] = None
    complex_rel: Optional[ComplexRelationships] = None
    siblings: Optional[SiblingGroups] = None


def classify_decisions(
    decisions: Iterable[Decision],
    engine: GaoRexfordEngine,
    first_hops_for: Optional[Dict[Prefix, FrozenSet[int]]] = None,
    complex_rel: Optional[ComplexRelationships] = None,
    siblings: Optional[SiblingGroups] = None,
) -> LabelCounts:
    """Classify a batch of decisions into a :class:`LabelCounts`.

    ``first_hops_for`` maps a prefix to the allowed first-hop set the
    PSP criteria computed for it; prefixes absent from the map are
    unrestricted.

    The batch is interned into a decision arena, duplicates collapse,
    every routing tree comes from one kernel sweep and the labels are
    tallied with one bincount (:mod:`repro.core.hotpath.grade`) —
    results are identical to :func:`classify_decisions_serial`.
    """
    # Imported lazily: the arena grader imports this module's types.
    from repro.core.hotpath.grade import arena_for, classify_arena

    return classify_arena(
        arena_for(decisions).grouping(first_hops_for),
        engine,
        complex_rel=complex_rel,
        siblings=siblings,
    )


def label_decisions(
    decisions: Iterable[Decision],
    engine: GaoRexfordEngine,
    first_hops_for: Optional[Dict[Prefix, FrozenSet[int]]] = None,
    complex_rel: Optional[ComplexRelationships] = None,
    siblings: Optional[SiblingGroups] = None,
) -> List[Tuple[Decision, DecisionLabel]]:
    """Like :func:`classify_decisions` but keeps per-decision labels."""
    from repro.core.hotpath.grade import arena_for, label_arena

    return label_arena(
        arena_for(decisions).grouping(first_hops_for),
        engine,
        complex_rel=complex_rel,
        siblings=siblings,
    )
