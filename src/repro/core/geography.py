"""Geographic analysis of routing decisions (paper Section 6).

Three questions from the paper:

* **Figure 3** — are decisions on traceroutes that stay within one
  continent more model-consistent than intercontinental ones?
* **Table 3 / domestic paths** — how many deviating decisions are
  explained by ASes preferring a route that stays in-country over a
  cheaper/shorter multinational alternative?
* **Table 4 / undersea cables** — how many deviations involve
  independent undersea-cable ASes, whose economics confuse relationship
  inference?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.classification import Decision, DecisionLabel, LabelCounts
from repro.core.gao_rexford import GaoRexfordEngine
from repro.ipmap.geolocation import GeoDatabase
from repro.topology.cables import CableRegistry
from repro.whois.registry import WhoisRegistry

#: Figure 3's continent order.
CONTINENT_ORDER = ("AF", "NA", "EU", "SA", "AS", "OC")


@dataclass
class LabeledTrace:
    """One measurement's labeled decisions plus its hop addresses.

    ``hop_ips`` are the responding hop addresses (destination last);
    ``source_continent`` comes from the probe's own metadata.
    """

    decisions: List[Tuple[Decision, DecisionLabel]]
    hop_ips: List
    source_continent: Optional[str]


@dataclass
class ContinentalBreakdown:
    """Figure 3's bars: per-continent, all-continental, and the rest."""

    per_continent: Dict[str, LabelCounts] = field(default_factory=dict)
    continental: LabelCounts = field(default_factory=LabelCounts)
    intercontinental: LabelCounts = field(default_factory=LabelCounts)

    def continental_trace_fraction(self) -> float:
        total = self.continental.total() + self.intercontinental.total()
        return 0.0 if total == 0 else self.continental.total() / total


@dataclass
class DomesticRow:
    """One Table 3 row."""

    continent: str
    violations: int
    explained: int

    @property
    def percent_explained(self) -> float:
        return 0.0 if self.violations == 0 else 100.0 * self.explained / self.violations


@dataclass
class CableRow:
    """One Table 4 row."""

    label: DecisionLabel
    decisions: int
    involving_cables: int

    @property
    def percent(self) -> float:
        return 0.0 if self.decisions == 0 else 100.0 * self.involving_cables / self.decisions


@dataclass
class CableSummary:
    rows: List[CableRow]
    paths_total: int
    paths_with_cables: int
    cable_decisions: int
    cable_decisions_deviating: int

    @property
    def path_fraction(self) -> float:
        return 0.0 if self.paths_total == 0 else self.paths_with_cables / self.paths_total

    @property
    def deviating_fraction(self) -> float:
        if self.cable_decisions == 0:
            return 0.0
        return self.cable_decisions_deviating / self.cable_decisions


class GeographyAnalysis:
    """Runs the Section 6 analyses over labeled measurements."""

    def __init__(
        self,
        geo: GeoDatabase,
        whois: WhoisRegistry,
        cables: CableRegistry,
        engine: GaoRexfordEngine,
    ) -> None:
        self._geo = geo
        self._whois = whois
        self._cables = cables
        self._engine = engine

    # ------------------------------------------------------------------
    # Hop geography
    # ------------------------------------------------------------------
    def trace_continent(self, trace: LabeledTrace) -> Optional[str]:
        """The single continent a trace stays in, or ``None``.

        Based on geolocating responding hop addresses; hops missing
        from the geolocation database are ignored (the paper can only
        reason about hops Alidade covers).
        """
        continents = set()
        if trace.source_continent:
            continents.add(trace.source_continent)
        for ip in trace.hop_ips:
            continent = self._geo.continent_of(ip)
            if continent is not None:
                continents.add(continent)
        if len(continents) == 1:
            return next(iter(continents))
        return None

    def trace_country(self, trace: LabeledTrace) -> Optional[str]:
        """The single country a trace stays in, or ``None``."""
        countries = set()
        for ip in trace.hop_ips:
            country = self._geo.country_of(ip)
            if country is not None:
                countries.add(country)
        if len(countries) == 1:
            return next(iter(countries))
        return None

    # ------------------------------------------------------------------
    # Figure 3
    # ------------------------------------------------------------------
    def continental_breakdown(
        self, traces: Sequence[LabeledTrace]
    ) -> ContinentalBreakdown:
        breakdown = ContinentalBreakdown(
            per_continent={code: LabelCounts() for code in CONTINENT_ORDER}
        )
        for trace in traces:
            continent = self.trace_continent(trace)
            for _decision, label in trace.decisions:
                if continent is None:
                    breakdown.intercontinental.add(label)
                else:
                    breakdown.continental.add(label)
                    if continent in breakdown.per_continent:
                        breakdown.per_continent[continent].add(label)
        return breakdown

    # ------------------------------------------------------------------
    # Table 3: domestic-path preference
    # ------------------------------------------------------------------
    def whois_country_of(self, asn: int) -> Optional[str]:
        return self._whois.country_of(asn)

    def model_path_is_multinational(
        self, decision: Decision, home_countries: set
    ) -> bool:
        """Public wrapper used by the violation explainer."""
        return self._model_path_is_multinational(decision, home_countries)

    def _model_path_is_multinational(
        self, decision: Decision, home_countries: set
    ) -> bool:
        """Does the model's preferred route leave the home countries?

        Uses whois registration countries, with the paper's caveat that
        multinational ASes register in a single country.
        """
        info = self._engine.routing_info(decision.destination)
        path = info.gr_route_path(decision.asn)
        if path is None:
            return False
        for asn in path[1:-1]:
            country = self._whois.country_of(asn)
            if country is not None and country not in home_countries:
                return True
        return False

    def domestic_rows(self, traces: Sequence[LabeledTrace]) -> List[DomesticRow]:
        """Table 3: deviating decisions explained by domestic preference."""
        per_continent: Dict[str, List[int]] = {
            code: [0, 0] for code in CONTINENT_ORDER
        }
        for trace in traces:
            country = self.trace_country(trace)
            if country is None:
                continue  # not a single-country trace
            continent = self.trace_continent(trace)
            if continent not in per_continent:
                continue
            for decision, label in trace.decisions:
                if not label.is_violation:
                    continue
                per_continent[continent][0] += 1
                source_country = self._whois.country_of(decision.source_asn)
                destination_country = self._whois.country_of(decision.destination)
                home = {c for c in (source_country, destination_country) if c}
                home.add(country)
                if self._model_path_is_multinational(decision, home):
                    per_continent[continent][1] += 1
        return [
            DomesticRow(continent=code, violations=pair[0], explained=pair[1])
            for code, pair in per_continent.items()
        ]

    def domestic_explained_fraction(self, traces: Sequence[LabeledTrace]) -> float:
        """Overall fraction across continents (paper: more than 40%)."""
        rows = self.domestic_rows(traces)
        violations = sum(row.violations for row in rows)
        explained = sum(row.explained for row in rows)
        return 0.0 if violations == 0 else explained / violations

    # ------------------------------------------------------------------
    # Table 4: undersea cables
    # ------------------------------------------------------------------
    def cable_summary(self, traces: Sequence[LabeledTrace]) -> CableSummary:
        cable_asns = self._cables.cable_asns()
        per_label: Dict[DecisionLabel, List[int]] = {
            label: [0, 0] for label in DecisionLabel
        }
        paths_total = 0
        paths_with_cables = 0
        cable_decisions = 0
        cable_deviating = 0
        for trace in traces:
            if not trace.decisions:
                continue
            paths_total += 1
            path_ases = {d.asn for d, _ in trace.decisions} | {
                d.next_hop for d, _ in trace.decisions
            }
            on_cable_path = bool(path_ases & cable_asns)
            if on_cable_path:
                paths_with_cables += 1
            for decision, label in trace.decisions:
                per_label[label][0] += 1
                involves = (
                    decision.asn in cable_asns or decision.next_hop in cable_asns
                )
                if involves:
                    per_label[label][1] += 1
                    cable_decisions += 1
                    if label.is_violation:
                        cable_deviating += 1
        rows = [
            CableRow(label=label, decisions=pair[0], involving_cables=pair[1])
            for label, pair in per_label.items()
        ]
        return CableSummary(
            rows=rows,
            paths_total=paths_total,
            paths_with_cables=paths_with_cables,
            cable_decisions=cable_decisions,
            cable_decisions_deviating=cable_deviating,
        )
