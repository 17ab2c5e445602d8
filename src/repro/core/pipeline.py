"""End-to-end study orchestration.

:class:`Study` wires the full reproduction together: generate a
synthetic Internet, derive inferred topology snapshots and aggregate
them (Section 3.3), run the passive traceroute campaign (Section 3.1),
convert traceroutes to AS paths and routing decisions, classify the
decisions under every refinement layer (Figure 1), run the skew and
geography analyses (Figures 2-3, Tables 3-4), validate PSP cases
against looking glasses, and optionally run the active PEERING
experiments (Table 2, Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.atlas.campaign import (
    CampaignConfig,
    CampaignDataset,
    Measurement,
    run_campaign,
)
from repro.atlas.probes import Probe, generate_probes
from repro.atlas.selection import select_probes_balanced, select_probes_greedy
from repro.core.active_analysis import (
    MagnetDecisionTable,
    PreferenceOrderSummary,
    classify_preference_orders,
    infer_magnet_decisions,
)
from repro.core.classification import (
    Decision,
    DecisionLabel,
    LabelCounts,
    LayerConfig,
)
from repro.core.gao_rexford import GaoRexfordEngine
from repro.core.geography import (
    CableSummary,
    ContinentalBreakdown,
    DomesticRow,
    GeographyAnalysis,
    LabeledTrace,
)
from repro.core.looking_glass import LookingGlassDeployment, PSPValidation, validate_psp_cases
from repro.core.psp import PrefixPolicyAnalysis, PSPCase
from repro.core.skew import ViolationSkew, compute_skew
from repro.faults import (
    ActiveRobustnessReport,
    FaultPlan,
    MalformedResultError,
    RetryPolicy,
    RobustnessReport,
    RunLedger,
    StoragePolicy,
)
from repro.ipmap.geolocation import GeoDatabase
from repro.ipmap.ip2as import IPToASMapper
from repro.ipmap.path_conversion import ASLevelPath, convert_traceroute
from repro.net.ip import Prefix
from repro.peering.collectors import FeedArchive, default_collectors
from repro.peering.experiments import (
    ActiveRunConfig,
    ActiveSupervisor,
    DiscoveryResult,
    discover_alternate_routes,
    run_magnet_experiments,
)
from repro.obs.context import get_obs
from repro.obs.gc import collector_scope
from repro.obs.manifest import RunManifest, _primitive, build_manifest, peak_rss_mb
from repro.obs.trace import Span, Tracer
from repro.peering.testbed import PeeringTestbed
from repro.topogen.config import TopologyConfig, small_config
from repro.topogen.generator import generate_internet
from repro.topogen.inference import InferenceConfig, inferred_snapshots
from repro.topogen.internet import Internet
from repro.topology.aggregate import aggregate_snapshots
from repro.topology.classify_as import classify_all
from repro.topology.complex_rel import ComplexRelationships
from repro.topology.asys import ASType
from repro.topology.graph import ASGraph
from repro.whois.siblings import SiblingGroups, infer_siblings

#: Figure 1's layer names, in presentation order.
FIGURE1_LAYERS = ("Simple", "Complex", "Sibs", "PSP-1", "PSP-2", "All-1", "All-2")


def figure1_layer_configs(
    engine_simple: GaoRexfordEngine,
    engine_complex: GaoRexfordEngine,
    known_complex: Optional[ComplexRelationships],
    siblings: Optional[SiblingGroups],
    first_hops_1: Dict[Prefix, FrozenSet[int]],
    first_hops_2: Dict[Prefix, FrozenSet[int]],
) -> Dict[str, LayerConfig]:
    """The seven Figure-1 refinement layers as grading configurations.

    Shared by the study pipeline and the benchmark suite so both grade
    exactly the same layer definitions.
    """
    return {
        "Simple": LayerConfig(engine=engine_simple),
        "Complex": LayerConfig(engine=engine_complex, complex_rel=known_complex),
        "Sibs": LayerConfig(engine=engine_simple, siblings=siblings),
        "PSP-1": LayerConfig(engine=engine_simple, first_hops_for=first_hops_1),
        "PSP-2": LayerConfig(engine=engine_simple, first_hops_for=first_hops_2),
        "All-1": LayerConfig(
            engine=engine_complex,
            first_hops_for=first_hops_1,
            complex_rel=known_complex,
            siblings=siblings,
        ),
        "All-2": LayerConfig(
            engine=engine_complex,
            first_hops_for=first_hops_2,
            complex_rel=known_complex,
            siblings=siblings,
        ),
    }


@dataclass
class StudyConfig:
    """All the knobs of one end-to-end study."""

    topology: TopologyConfig = field(default_factory=TopologyConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    seed: int = 0
    num_probes: int = 1000
    probes_per_continent: int = 50
    geo_error_rate: float = 0.02
    geo_miss_rate: float = 0.03
    missing_hop_rate: float = 0.04
    lg_deployment_rate: float = 0.25
    #: Run the PEERING active experiments too.
    active_experiments: bool = True
    num_muxes: int = 7
    active_vp_budget: int = 96
    max_discovery_targets: int = 36
    #: Resilience: inject faults into the passive campaign and the
    #: active phase, and retry transient ones.  Every active-phase
    #: fault, mux session resets and lost withdrawals included, is
    #: drawn by the phase's ``ActiveSupervisor``; the testbed never
    #: fails.
    fault_plan: Optional[FaultPlan] = None
    retry_policy: Optional[RetryPolicy] = None
    #: Continue the journals in ``run_dir`` instead of starting fresh.
    resume: bool = False
    #: Durable run ledger (DESIGN.md §12): the campaign and active
    #: journals live in this one run directory under a single lock,
    #: with config/graph fingerprints guarding resume.  Without it the
    #: study journals nothing.
    run_dir: Optional[str] = None
    #: Storage durability policy for every run-directory write:
    #: ``fsync`` (default), ``flush`` or ``none``
    #: (see :mod:`repro.faults.storage`).
    durability: Optional[str] = None


#: Config fields that control *how* a study persists and executes, not
#: *what* it computes — two runs differing only here produce identical
#: results, so the run ledger's identity fingerprint must ignore them
#: (a fresh run and its resume legitimately differ in ``resume`` and
#: ``run_dir``).
_PERSISTENCE_FIELDS = frozenset(
    {
        "fault_plan",
        "retry_policy",
        "resume",
        "run_dir",
        "durability",
    }
)


#: The study scales :func:`build_study_config` knows.
SCALES: Tuple[str, ...] = ("small", "full")


def build_study_config(seed: int = 0, scale: str = "small") -> StudyConfig:
    """The canonical study configuration for one (seed, scale).

    This is the one place the quick-scale parameter block lives:
    ``repro study --small`` and
    :func:`repro.experiments.scenario.quick_study` both call through
    here, so they cannot drift apart.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r} (expected one of {SCALES})")
    if scale == "small":
        return StudyConfig(
            topology=small_config(),
            seed=seed,
            num_probes=400,
            probes_per_continent=25,
            active_vp_budget=40,
            max_discovery_targets=20,
        )
    return StudyConfig(seed=seed)


def study_fingerprint(config: StudyConfig) -> str:
    """Digest of the result-determining part of a study configuration.

    The run ledger records this on open and refuses to resume a run
    directory whose fingerprint differs — mixing checkpoints from two
    different studies would silently produce a franken-dataset.  The
    fault plan is fingerprinted separately (it has its own stable
    digest that campaign journal headers already verify).
    """
    import hashlib
    import json
    from dataclasses import fields as dataclass_fields

    payload = {
        f.name: _primitive(getattr(config, f.name))
        for f in dataclass_fields(config)
        if f.name not in _PERSISTENCE_FIELDS
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


@dataclass
class ProbeTableRow:
    """One Table 1 row."""

    as_type: ASType
    probes: int
    distinct_ases: int
    distinct_countries: int


@dataclass
class StudyResults:
    """Everything a study produced, consumed by benchmarks and reports."""

    config: StudyConfig
    internet: Internet
    inferred: ASGraph
    siblings: SiblingGroups
    probes: List[Probe]
    selected_probes: List[Probe]
    dataset: CampaignDataset
    decisions: List[Decision]
    traces: List[LabeledTrace]
    figure1: Dict[str, LabelCounts]
    labeled_simple: List[Tuple[Decision, DecisionLabel]]
    skew: ViolationSkew
    continental: ContinentalBreakdown
    domestic_rows: List[DomesticRow]
    cable_summary: CableSummary
    psp_cases_1: List[PSPCase]
    psp_cases_2: List[PSPCase]
    psp_validation: PSPValidation
    probe_table: List[ProbeTableRow]
    #: Fault/retry/coverage accounting for the campaign, plus
    #: measurements quarantined during decision extraction.
    robustness: RobustnessReport
    #: Reusable build artifacts for benchmarks and ablations.
    engine: Optional[GaoRexfordEngine] = None
    engine_complex: Optional[GaoRexfordEngine] = None
    known_complex: Optional[ComplexRelationships] = None
    geo: Optional[GeoDatabase] = None
    feeds: Optional[FeedArchive] = None
    snapshots: List[ASGraph] = field(default_factory=list)
    origins: Dict[Prefix, int] = field(default_factory=dict)
    first_hops_1: Dict[Prefix, FrozenSet[int]] = field(default_factory=dict)
    first_hops_2: Dict[Prefix, FrozenSet[int]] = field(default_factory=dict)
    preference_summary: Optional[PreferenceOrderSummary] = None
    discovery: Optional[DiscoveryResult] = None
    magnet_table: Optional[MagnetDecisionTable] = None
    magnet_observations: List = field(default_factory=list)
    #: Wall-clock seconds per pipeline stage (top-level spans of the
    #: run's tracer; see repro.obs.trace).
    stage_timings: Dict[str, float] = field(default_factory=dict)
    #: Per-layer routing-cache stats from the Figure-1 grading pass:
    #: layer -> {"delta": ..., "cumulative": ...}.  The delta is what
    #: the layer itself did; the cumulative view is the engine's
    #: lifetime counters at that point.
    layer_cache_stats: Dict[str, Dict[str, Dict[str, float]]] = field(
        default_factory=dict
    )
    #: Telemetry manifest — populated when observability is enabled
    #: (``repro study --obs-out FILE`` or an installed repro.obs context).
    manifest: Optional[RunManifest] = None
    #: Per-target/per-round accounting for the active experiments
    #: (populated whenever the active phase runs).
    active_robustness: Optional[ActiveRobustnessReport] = None

    def figure1_counts(self) -> Dict[str, Dict[str, int]]:
        """Raw Figure-1 label counts per layer, as plain JSON-able data.

        The canonical shape the golden-run regression gates
        (:mod:`repro.check.golden`) snapshot and diff: layer order is
        presentation order, label order is enum order, values are raw
        tallies (not percentages) so a one-decision drift is visible.
        """
        return {
            layer: {
                label.value: self.figure1[layer].counts[label]
                for label in DecisionLabel
            }
            for layer in FIGURE1_LAYERS
            if layer in self.figure1
        }


def _mark_peak_rss(stage: Span) -> None:
    """Record the process's peak RSS at ``stage``'s exit.

    It is the high-water mark so far, so a stage's own growth is the
    rise from the stage before it.
    """
    peak = peak_rss_mb()
    if peak is not None:
        stage.attrs["peak_rss_mb"] = peak


class Study:
    """Builds and runs the full reproduction pipeline.

    Pass a pre-built ``internet`` (e.g. loaded with
    :func:`repro.topogen.load_internet`) to study a shared dataset
    instead of regenerating one; note the study mutates it when active
    experiments are enabled (the PEERING testbed installs itself), so
    a second active study of the same object is refused: study a fresh
    or reloaded world instead.
    """

    def __init__(
        self,
        config: Optional[StudyConfig] = None,
        internet: Optional[Internet] = None,
    ) -> None:
        self.config = config or StudyConfig()
        self._internet = internet
        self._results: Optional[StudyResults] = None
        self._ledger: Optional[RunLedger] = None

    def run(self) -> StudyResults:
        """Run every stage; results are cached after the first call.

        The run is traced end to end: each stage is a top-level span,
        inner layers (parallel classifier, campaign runners, active
        drivers) nest child spans through the ambient tracer, and
        ``results.stage_timings`` is the top-level view of that tree.
        When an observability context is enabled the run also binds a
        :class:`~repro.obs.manifest.RunManifest` into the results, and
        each stage span carries the ``peak_rss_mb`` of its exit.
        """
        if self._results is not None:
            return self._results
        config = self.config
        self._open_ledger()
        obs = get_obs()
        tracer = Tracer(on_stage_exit=_mark_peak_rss if obs.enabled else None)
        # The stages run under one collector policy, whose closing
        # collection the manifest below counts; the tracer stays active
        # across the scope's exit, so that collection is a top-level
        # ``collect`` span beside the stages.
        with tracer.activate(), collector_scope():
            # A crash (or injected crash drill) anywhere in here leaves
            # the ledger ``running`` and the run-directory lock in
            # place — exactly the state ``--resume`` recovers from.
            results = self._run_stages(tracer)
        results.stage_timings = tracer.stage_timings()
        if obs.enabled:
            plan = config.fault_plan
            meta = {
                "decisions": len(results.decisions),
                "measurements": len(results.dataset.measurements),
                "selected_probes": len(results.selected_probes),
                "active_experiments": config.active_experiments,
                "resumed": config.resume,
                "run_dir": config.run_dir,
            }
            peak = peak_rss_mb()
            if peak is not None:
                meta["peak_rss_mb"] = peak
            results.manifest = build_manifest(
                obs,
                tracer,
                kind="study",
                config=config,
                topology_seed=config.seed,
                fault_plan_seed=plan.seed if plan is not None else None,
                fault_plan_fingerprint=(
                    plan.fingerprint() if plan is not None else None
                ),
                meta=meta,
            )
        if self._ledger is not None:
            self._ledger.finalize()
        self._results = results
        return results

    def _open_ledger(self) -> None:
        """Open the durable run ledger when ``config.run_dir`` is set.

        The ledger locks the run directory, bumps the storage-fault
        generation, and records (fresh) or verifies (resume) the
        config and fault-plan fingerprints.  ``resume`` without a run
        directory is refused: there are no journals to resume from.
        """
        config = self.config
        if self._ledger is not None:
            return
        if config.run_dir is None:
            if config.resume:
                raise ValueError(
                    "resume=True requires run_dir: only a ledger-managed "
                    "run directory holds journals to resume from"
                )
            return
        ledger = RunLedger(
            config.run_dir,
            durability=config.durability,
            fault_plan=config.fault_plan,
        )
        fingerprints = {"config": study_fingerprint(config)}
        if config.fault_plan is not None:
            fingerprints["fault_plan"] = config.fault_plan.fingerprint()
        ledger.open(fingerprints, resume=config.resume)
        self._ledger = ledger

    def _checkpoint_paths(self) -> Tuple[Optional[str], Optional[str]]:
        """(campaign, active) journal paths for this run — the ledger's
        layout inside the run directory, or no journals without one."""
        if self._ledger is None:
            return None, None
        return self._ledger.campaign_path, self._ledger.active_path

    def _storage(self) -> Optional[StoragePolicy]:
        return self._ledger.storage() if self._ledger is not None else None

    def _run_stages(self, tracer: Tracer) -> StudyResults:
        config = self.config
        seed = config.seed
        timer = tracer

        campaign_checkpoint = self._checkpoint_paths()[0]
        storage = self._storage()

        # Stage 1: the world and what inference sees of it.
        with timer.span("topology"):
            internet = self._internet or generate_internet(config.topology, seed=seed)
            snapshots, known_complex = inferred_snapshots(
                internet, config.inference, seed=seed + 1
            )
            inferred = aggregate_snapshots(snapshots)
            siblings = infer_siblings(internet.whois, internet.soa)
            if self._ledger is not None:
                # Recording the topology fingerprint lets resume refuse
                # a run directory whose journals describe a different
                # graph.
                self._ledger.record_graph(internet.graph.fingerprint())

        # Stage 2: testbed install (before the simulator is built, so
        # PEERING's links exist in the speakers' world).
        testbed = None
        if config.active_experiments:
            with timer.span("testbed"):
                testbed = PeeringTestbed(
                    internet, num_muxes=config.num_muxes, seed=seed + 2
                )

        # Stage 3: probes and the passive campaign.
        with timer.span("campaign"):
            probes = generate_probes(internet, count=config.num_probes, seed=seed + 3)
            selected = select_probes_balanced(
                probes, per_continent=config.probes_per_continent, seed=seed + 4
            )
            campaign_config = CampaignConfig(
                seed=seed + 5,
                missing_hop_rate=config.missing_hop_rate,
                fault_plan=config.fault_plan,
                retry=config.retry_policy,
                checkpoint_path=campaign_checkpoint,
                resume=config.resume,
                storage=storage,
            )
            dataset = run_campaign(internet, selected, campaign_config)

        # Stage 4: control-plane visibility.
        with timer.span("feeds"):
            feeds = FeedArchive(default_collectors(internet, seed=seed + 6))
            all_prefixes = [
                prefix
                for prefixes in dataset.destination_prefixes.values()
                for prefix in prefixes
            ]
            feeds.record(dataset.simulator, all_prefixes)

        # Stage 5: measurement-pipeline datasets.
        with timer.span("ipmap"):
            mapper = IPToASMapper.from_prefix_map(internet.prefixes)
            geo = GeoDatabase.from_internet(
                internet,
                error_rate=config.geo_error_rate,
                miss_rate=config.geo_miss_rate,
                seed=seed + 7,
            )

        # Stage 6: decisions from traceroutes.  Malformed measurements
        # are quarantined into the robustness report, never raised.
        robustness = dataset.robustness
        with timer.span("extract_decisions"):
            per_measurement, pipeline_quarantined = self._extract_decisions(
                dataset, mapper, geo
            )
            for reason, count in pipeline_quarantined.items():
                robustness.quarantined[f"pipeline:{reason}"] = (
                    robustness.quarantined.get(f"pipeline:{reason}", 0) + count
                )
            decisions = [
                decision for _m, _path, group in per_measurement for decision in group
            ]
            metrics = get_obs().metrics
            if metrics.enabled:
                metrics.counter(
                    "repro_decisions_extracted_total",
                    "Routing decisions extracted from the campaign.",
                ).inc(len(decisions))
                quarantine_counter = metrics.counter(
                    "repro_measurements_quarantined_total",
                    "Measurements quarantined during decision extraction.",
                )
                for reason, count in sorted(pipeline_quarantined.items()):
                    quarantine_counter.labels(reason=reason).inc(count)

        # Stage 7: classification layers (Figure 1).  Routing trees for
        # all seven layers are precomputed in one kernel sweep per
        # engine, then each layer grades against warm caches.
        with timer.span("psp"):
            partial = frozenset(
                (entry.provider, entry.customer)
                for entry in known_complex.partial_transit_entries()
            )
            engine_simple = GaoRexfordEngine(inferred)
            engine_complex = GaoRexfordEngine(inferred, partial_transit=partial)
            origins: Dict[Prefix, int] = {}
            for asn, prefixes in dataset.destination_prefixes.items():
                for prefix in prefixes:
                    origins[prefix] = asn
            psp = PrefixPolicyAnalysis(inferred, feeds)
            first_hops_1 = psp.first_hops_map(origins, criterion=1)
            first_hops_2 = psp.first_hops_map(origins, criterion=2)

        with timer.span("figure1"):
            # Imported lazily: repro.perf.parallel itself imports from
            # repro.core, so a module-level import here would cycle.
            # The first import (numpy and the kernel) is most of
            # figure1's time outside its classification spans.
            with timer.span("import_classifier"):
                from repro.perf.parallel import ParallelClassifier

            classifier = ParallelClassifier()
            layer_configs = figure1_layer_configs(
                engine_simple,
                engine_complex,
                known_complex=known_complex,
                siblings=siblings,
                first_hops_1=first_hops_1,
                first_hops_2=first_hops_2,
            )
            figure1 = classifier.classify_layers(decisions, layer_configs)

        with timer.span("label_decisions"):
            labeled_simple = classifier.label_layer(
                decisions, layer_configs["Simple"]
            )
            # Pairs are keyed by the decision's value (Decision is a
            # frozen dataclass): equal decisions grade identically, and
            # copies made anywhere in the pipeline still resolve.  A
            # trace holds the Simple layer's own pairs.
            pair_of: Dict[Decision, Tuple[Decision, DecisionLabel]] = {
                pair[0]: pair for pair in labeled_simple
            }
            traces: List[LabeledTrace] = []
            for measurement, _path, group in per_measurement:
                if not group:
                    continue
                traces.append(
                    LabeledTrace(
                        decisions=[pair_of[d] for d in group],
                        hop_ips=measurement.traceroute.responding_ips(),
                        source_continent=measurement.probe.continent,
                    )
                )

        # Stage 8: skew, geography, validation.
        with timer.span("skew_geography"):
            skew = compute_skew(labeled_simple)
            geography = GeographyAnalysis(
                geo, internet.whois, internet.cables, engine_simple
            )
            continental = geography.continental_breakdown(traces)
            domestic = geography.domestic_rows(traces)
            cable_summary = geography.cable_summary(traces)
        with timer.span("psp_validation"):
            psp_cases_1 = psp.cases(origins, criterion=1)
            psp_cases_2 = psp.cases(origins, criterion=2)
            looking_glasses = LookingGlassDeployment(
                dataset.simulator,
                deployment_rate=config.lg_deployment_rate,
                seed=seed + 8,
            )
            psp_validation = validate_psp_cases(psp_cases_1, looking_glasses)

        probe_table = self._probe_table(selected, inferred)

        results = StudyResults(
            config=config,
            internet=internet,
            inferred=inferred,
            siblings=siblings,
            probes=probes,
            selected_probes=selected,
            dataset=dataset,
            decisions=decisions,
            traces=traces,
            figure1=figure1,
            labeled_simple=labeled_simple,
            skew=skew,
            continental=continental,
            domestic_rows=domestic,
            cable_summary=cable_summary,
            psp_cases_1=psp_cases_1,
            psp_cases_2=psp_cases_2,
            psp_validation=psp_validation,
            probe_table=probe_table,
            robustness=robustness,
            layer_cache_stats=dict(classifier.last_layer_cache_stats),
            engine=engine_simple,
            engine_complex=engine_complex,
            known_complex=known_complex,
            geo=geo,
            feeds=feeds,
            snapshots=snapshots,
            origins=origins,
            first_hops_1=first_hops_1,
            first_hops_2=first_hops_2,
        )

        # Stage 9: active experiments (Table 2, Section 4.4).
        if testbed is not None:
            with timer.span("active_experiments"):
                self._run_active(results, testbed, probes, inferred, internet, seed)

        return results

    # ------------------------------------------------------------------
    # Decision extraction
    # ------------------------------------------------------------------
    def _extract_decisions(
        self,
        dataset: CampaignDataset,
        mapper: IPToASMapper,
        geo: GeoDatabase,
    ) -> Tuple[
        List[Tuple[Measurement, ASLevelPath, List[Decision]]], Dict[str, int]
    ]:
        """Decisions per measurement, plus quarantine counts by reason.

        A malformed measurement (recorded files, fault-injected
        campaigns) is quarantined rather than allowed to abort the
        study: the pipeline completes on partial data.
        """
        extracted: List[Tuple[Measurement, ASLevelPath, List[Decision]]] = []
        quarantined: Dict[str, int] = {}
        for measurement in dataset.successful():
            try:
                path = convert_traceroute(measurement.traceroute, mapper)
            except MalformedResultError as error:
                quarantined[error.reason] = quarantined.get(error.reason, 0) + 1
                continue
            except (KeyError, ValueError) as error:
                reason = type(error).__name__
                quarantined[reason] = quarantined.get(reason, 0) + 1
                continue
            if path is None:
                continue
            match = dataset.announced.lookup_with_prefix(
                measurement.traceroute.destination_ip
            )
            if match is None:
                continue
            prefix, origin = match
            border = self._border_cities(measurement, path, mapper, geo)
            group: List[Decision] = []
            hops = path.hops
            for index in range(len(hops) - 1):
                asn, next_hop = hops[index], hops[index + 1]
                if asn == origin:
                    break
                group.append(
                    Decision(
                        asn=asn,
                        next_hop=next_hop,
                        destination=origin,
                        prefix=prefix,
                        measured_len=len(hops) - 1 - index,
                        source_asn=hops[0],
                        path=hops,
                        border_city=border.get((asn, next_hop)),
                        dns_name=measurement.dns_name,
                    )
                )
            extracted.append((measurement, path, group))
        return extracted, quarantined

    def _border_cities(
        self,
        measurement: Measurement,
        path: ASLevelPath,
        mapper: IPToASMapper,
        geo: GeoDatabase,
    ) -> Dict[Tuple[int, int], str]:
        """Geolocated interconnect city per AS adjacency on the path.

        Takes the last responding hop attributed to the upstream AS of
        each adjacency — the egress border router — and geolocates it.
        """
        hop_as: List[Tuple[int, object]] = []
        for hop in measurement.traceroute.hops:
            if hop.ip is None:
                continue
            asn = mapper.lookup(hop.ip)
            if asn is not None:
                hop_as.append((asn, hop.ip))
        borders: Dict[Tuple[int, int], str] = {}
        for upstream, downstream in path.adjacencies():
            last_ip = None
            for asn, ip in hop_as:
                if asn == upstream:
                    last_ip = ip
                if asn == downstream and last_ip is not None:
                    break
            if last_ip is None:
                continue
            city = geo.city_of(last_ip)
            if city is not None:
                borders[(upstream, downstream)] = city.name
        return borders

    # ------------------------------------------------------------------
    # Table 1
    # ------------------------------------------------------------------
    def _probe_table(
        self, selected: List[Probe], inferred: ASGraph
    ) -> List[ProbeTableRow]:
        types = classify_all(inferred)
        rows: Dict[ASType, Tuple[int, Set[int], Set[str]]] = {}
        for probe in selected:
            as_type = types.get(probe.asn, ASType.STUB)
            count, ases, countries = rows.get(as_type, (0, set(), set()))
            ases = set(ases) | {probe.asn}
            countries = set(countries) | {probe.country}
            rows[as_type] = (count + 1, ases, countries)
        table = []
        for as_type in (ASType.STUB, ASType.SMALL_ISP, ASType.LARGE_ISP, ASType.TIER1):
            count, ases, countries = rows.get(as_type, (0, set(), set()))
            table.append(
                ProbeTableRow(
                    as_type=as_type,
                    probes=count,
                    distinct_ases=len(ases),
                    distinct_countries=len(countries),
                )
            )
        return table

    # ------------------------------------------------------------------
    # Active experiments
    # ------------------------------------------------------------------
    def _run_active(
        self,
        results: StudyResults,
        testbed: PeeringTestbed,
        probes: List[Probe],
        inferred: ASGraph,
        internet: Internet,
        seed: int,
    ) -> None:
        config = self.config
        simulator = results.dataset.simulator
        discovery_prefix = testbed.prefixes[0]
        testbed.announce(simulator, discovery_prefix)

        def covered(probe: Probe) -> FrozenSet[int]:
            path = simulator.forwarding_path(probe.asn, discovery_prefix)
            return frozenset(path or ())

        vp_probes = select_probes_greedy(probes, covered, budget=config.active_vp_budget)
        vp_asns = sorted({probe.asn for probe in vp_probes})

        # Targets: ASes observed on default paths toward PEERING,
        # excluding PEERING itself and its direct mux hosts.
        on_path: Set[int] = set()
        for probe in vp_probes:
            path = simulator.forwarding_path(probe.asn, discovery_prefix)
            if path:
                on_path.update(path[:-1])
        targets = sorted(on_path - {testbed.asn})[: config.max_discovery_targets]

        # One supervisor spans both active phases: the breaker sees the
        # control plane as a whole, and a single journal (the ledger's
        # ``active.jsonl`` when a run directory is set) covers discovery
        # and magnet rounds so ``--resume`` restores the whole active
        # phase.
        supervisor = ActiveSupervisor(
            ActiveRunConfig(
                fault_plan=config.fault_plan,
                retry=config.retry_policy,
                checkpoint_path=self._checkpoint_paths()[1],
                resume=config.resume,
                storage=self._storage(),
            )
        )
        try:
            results.discovery = discover_alternate_routes(
                testbed,
                simulator,
                targets,
                prefix=discovery_prefix,
                monitor_asns=vp_asns,
                supervisor=supervisor,
            )
            results.preference_summary = classify_preference_orders(
                results.discovery.observations, inferred
            )

            magnet_feeds = FeedArchive(default_collectors(internet, seed=seed + 9))
            observations = run_magnet_experiments(
                testbed,
                simulator,
                magnet_feeds,
                vp_asns=vp_asns,
                supervisor=supervisor,
            )
            results.magnet_observations = observations
            results.magnet_table = infer_magnet_decisions(observations, inferred)
        finally:
            results.active_robustness = supervisor.report
            supervisor.close()
