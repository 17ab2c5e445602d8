"""Per-decision violation attribution.

The paper's conclusion summarizes: "We explained a significant fraction
of these differences due to factors such as sibling ASes, selective
prefix announcements and undersea cables."  This module turns that
sentence into an analysis: for every decision that deviates under the
plain model, find which single factor first explains it when factors
are applied in the paper's order — complex relationships, siblings,
prefix-specific policies (criterion 1 then 2), undersea cables,
domestic-path preference — or mark it unexplained.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional

from repro.core.classification import Decision, classify_decision
from repro.core.gao_rexford import GaoRexfordEngine
from repro.core.geography import GeographyAnalysis, LabeledTrace
from repro.net.ip import Prefix
from repro.topology.cables import CableRegistry
from repro.topology.complex_rel import ComplexRelationships
from repro.whois.siblings import SiblingGroups


class Explanation(enum.Enum):
    """Why a decision deviates from the plain model (or that it doesn't)."""

    CONSISTENT = "consistent with model"
    COMPLEX = "complex relationship"
    SIBLING = "sibling AS"
    PSP_1 = "prefix-specific policy (criterion 1)"
    PSP_2 = "prefix-specific policy (criterion 2)"
    CABLE = "undersea cable AS"
    DOMESTIC = "domestic-path preference"
    UNEXPLAINED = "unexplained"


@dataclass
class AttributionReport:
    """How the violation mass distributes across explanations."""

    counts: Dict[Explanation, int] = field(
        default_factory=lambda: {explanation: 0 for explanation in Explanation}
    )

    def add(self, explanation: Explanation) -> None:
        self.counts[explanation] += 1

    def total(self) -> int:
        return sum(self.counts.values())

    def violations(self) -> int:
        return self.total() - self.counts[Explanation.CONSISTENT]

    def explained(self) -> int:
        return self.violations() - self.counts[Explanation.UNEXPLAINED]

    def explained_fraction(self) -> float:
        violations = self.violations()
        return 0.0 if violations == 0 else self.explained() / violations

    def percent_of_violations(self, explanation: Explanation) -> float:
        violations = self.violations()
        if violations == 0 or explanation is Explanation.CONSISTENT:
            return 0.0
        return 100.0 * self.counts[explanation] / violations


@dataclass
class ViolationExplainer:
    """Attributes each deviating decision to its first explaining factor."""

    engine_simple: GaoRexfordEngine
    engine_complex: Optional[GaoRexfordEngine] = None
    complex_rel: Optional[ComplexRelationships] = None
    siblings: Optional[SiblingGroups] = None
    first_hops_1: Dict[Prefix, FrozenSet[int]] = field(default_factory=dict)
    first_hops_2: Dict[Prefix, FrozenSet[int]] = field(default_factory=dict)
    cables: Optional[CableRegistry] = None
    geography: Optional[GeographyAnalysis] = None

    def explain(
        self, decision: Decision, trace: Optional[LabeledTrace] = None
    ) -> Explanation:
        """The first factor, in the paper's order, that explains it."""
        base = classify_decision(decision, self.engine_simple)
        if not base.is_violation:
            return Explanation.CONSISTENT
        if self.engine_complex is not None and self.complex_rel is not None:
            fixed = classify_decision(
                decision, self.engine_complex, complex_rel=self.complex_rel
            )
            if not fixed.is_violation:
                return Explanation.COMPLEX
        if self.siblings is not None:
            fixed = classify_decision(
                decision, self.engine_simple, siblings=self.siblings
            )
            if not fixed.is_violation:
                return Explanation.SIBLING
        allowed_1 = self.first_hops_1.get(decision.prefix)
        if allowed_1 is not None:
            fixed = classify_decision(
                decision, self.engine_simple, allowed_first_hops=allowed_1
            )
            if not fixed.is_violation:
                return Explanation.PSP_1
        allowed_2 = self.first_hops_2.get(decision.prefix)
        if allowed_2 is not None and allowed_2 != allowed_1:
            fixed = classify_decision(
                decision, self.engine_simple, allowed_first_hops=allowed_2
            )
            if not fixed.is_violation:
                return Explanation.PSP_2
        if self.cables is not None:
            cable_asns = self.cables.cable_asns()
            if decision.asn in cable_asns or decision.next_hop in cable_asns:
                return Explanation.CABLE
        if (
            self.geography is not None
            and trace is not None
            and self.geography.trace_country(trace) is not None
        ):
            home = {
                country
                for country in (
                    self.geography.whois_country_of(decision.source_asn),
                    self.geography.whois_country_of(decision.destination),
                    self.geography.trace_country(trace),
                )
                if country
            }
            if self.geography.model_path_is_multinational(decision, home):
                return Explanation.DOMESTIC
        return Explanation.UNEXPLAINED

    def attribute(
        self, traces: Iterable[LabeledTrace]
    ) -> AttributionReport:
        """Attribute every decision on every trace."""
        report = AttributionReport()
        for trace in traces:
            for decision, _label in trace.decisions:
                report.add(self.explain(decision, trace))
        return report
