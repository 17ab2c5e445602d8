"""The passive traceroute campaign (paper Section 3.1).

Ties the substrates together: originate every prefix of every
destination AS into the BGP simulator, resolve each content DNS name at
each probe, traceroute to the resolved replica, and collect the raw
measurements the analysis pipeline consumes.

:func:`run_campaign` is the one runner.  Every per-pair random choice
is keyed by (seed, probe, name), so the dataset is a pure function of
the configuration: a journaled or resumed run measures exactly what a
plain run measures, and a fault plan loses or degrades pairs without
re-drawing the others.  Faults from a seeded
:class:`~repro.faults.FaultPlan` (a no-op plan by default) fire at every
substrate boundary and are retried with backoff, finalized pairs go to
an append-only journal when a checkpoint path is set, and a
:class:`~repro.faults.RobustnessReport` accounts for every pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.atlas.dns import CDNResolver
from repro.atlas.probes import Probe
from repro.bgp.simulator import BGPSimulator
from repro.dataplane.traceroute import TracerouteEngine, TracerouteResult
from repro.faults import (
    ApiRateLimit,
    ApiServerError,
    DnsServfail,
    DnsTimeout,
    FaultPlan,
    FaultSite,
    JournaledUnits,
    MalformedResultError,
    ProbeFlapError,
    RetryExhausted,
    RetryPolicy,
    RetryStats,
    RobustnessReport,
    StoragePolicy,
    derive_seed,
)
from repro.net.ip import Prefix
from repro.net.trie import PrefixTrie
from repro.obs.context import get_obs, publish
from repro.obs.events import CATEGORY_CAMPAIGN, CATEGORY_QUARANTINE
from repro.obs.trace import span
from repro.topogen.internet import Internet, Replica


@dataclass
class CampaignConfig:
    """Knobs for one campaign run.

    ``fault_plan`` injects failures (none when unset), ``retry``
    governs backoff, ``checkpoint_path`` journals finalized work (no
    journal when unset), ``resume`` restores a previous journal, and
    ``abort_after`` is a crash-injection drill (kill the campaign after
    N newly finalized pairs).
    """

    seed: int = 0
    missing_hop_rate: float = 0.04
    dns_locality: int = 2
    fault_plan: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None
    checkpoint_path: Optional[str] = None
    resume: bool = False
    abort_after: Optional[int] = None
    #: Durability/fault policy the checkpoint journal is written under;
    #: defaults to the process-wide durability with this campaign's
    #: fault plan (so storage fault sites fire even without a ledger).
    storage: Optional[StoragePolicy] = None


@dataclass(frozen=True)
class Measurement:
    """One probe's traceroute toward one resolved DNS name."""

    probe: Probe
    dns_name: str
    replica: Replica
    traceroute: TracerouteResult


@dataclass
class CampaignDataset:
    """Everything a campaign produced.

    ``simulator`` stays converged on the destination prefixes, so BGP
    collectors can be pointed at it afterwards for the control-plane
    side of the analysis (prefix-specific policy criteria).
    """

    measurements: List[Measurement]
    announced: PrefixTrie
    simulator: BGPSimulator
    destination_asns: Set[int]
    #: Fault/retry/coverage accounting for every (probe, name) pair.
    robustness: RobustnessReport
    destination_prefixes: Dict[int, List[Prefix]] = field(default_factory=dict)

    def successful(self) -> List[Measurement]:
        return [m for m in self.measurements if m.traceroute.reached]


def destination_ases(internet: Internet) -> Set[int]:
    """Every AS hosting at least one content replica."""
    return {
        replica.asn
        for provider in internet.content
        for replica in provider.all_replicas()
    }


def _originate_destinations(
    internet: Internet, simulator: BGPSimulator
) -> Tuple[Set[int], PrefixTrie, Dict[int, List[Prefix]]]:
    """Originate every prefix of every destination AS, so the BGP feeds
    expose per-prefix export behaviour (needed by the PSP criteria)."""
    targets = destination_ases(internet)
    announced: PrefixTrie = PrefixTrie()
    destination_prefixes: Dict[int, List[Prefix]] = {}
    for asn in sorted(targets):
        for prefix in internet.prefixes[asn]:
            simulator.originate(asn, prefix)
            announced.insert(prefix, asn)
        destination_prefixes[asn] = list(internet.prefixes[asn])
    return targets, announced, destination_prefixes


#: Journal disposition values.
_COMPLETED = "completed"
_DEGRADED = "degraded"
_QUARANTINED = "quarantined"
_LOST = "lost"


def _garble(document: Dict, roll: float) -> Dict:
    """Corrupt a result document the way real feeds corrupt them."""
    mutated = dict(document)
    if roll < 0.25:
        mutated.pop("from_asn", None)
    elif roll < 0.5:
        mutated.pop("src_addr", None)
    elif roll < 0.75:
        mutated["type"] = "ping"
    else:
        mutated["result"] = "garbled"
    return mutated


def _truncate_hops(trace: TracerouteResult, roll: float) -> None:
    """Cut the tail of the traceroute; it no longer reaches."""
    if len(trace.hops) > 1:
        cut = 1 + int(roll * (len(trace.hops) - 1))
        trace.hops = trace.hops[:cut]
    trace.reached = False


def _inject_loop(trace: TracerouteResult, roll: float) -> None:
    """Repeat a hop window, as a forwarding loop would."""
    if len(trace.hops) < 2:
        return
    start = int(roll * (len(trace.hops) - 1))
    window = trace.hops[start : start + 2]
    trace.hops = trace.hops[: start + 2] + window * 2 + trace.hops[start + 2 :]


def run_campaign(
    internet: Internet,
    probes: List[Probe],
    config: Optional[CampaignConfig] = None,
    simulator: Optional[BGPSimulator] = None,
) -> CampaignDataset:
    """Run the full passive campaign and return the raw dataset.

    * every per-pair random choice (replica selection, traceroute
      artifacts, fault decisions, retry jitter) is derived from the
      (seed, probe, name) key, so the output is a pure function of the
      configuration — a resumed run and an uninterrupted run produce
      byte-identical datasets;
    * faults from ``config.fault_plan`` fire at each substrate boundary
      and are retried per ``config.retry`` when transient;
    * finalized pairs are journaled to ``config.checkpoint_path``, and
      ``config.resume`` skips journaled work;
    * a fresh pair and a replayed journal pair are accounted by one
      function from the same record, and every measurement goes through
      the Atlas JSON round trip (parsed once: a fresh pair's document
      when it is fetched, a replayed pair's from the journal), so the
      two are the same object;
    * the returned dataset carries a :class:`RobustnessReport` in which
      every fault-free pair is accounted for exactly once.
    """
    # Imported lazily: repro.atlas.api imports Measurement from here.
    from repro.atlas.api import traceroute_from_json, traceroute_to_json

    config = config or CampaignConfig()
    plan = config.fault_plan or FaultPlan.none(seed=config.seed)
    retry = config.retry or RetryPolicy(seed=config.seed)
    if simulator is None:
        simulator = BGPSimulator(
            internet.graph,
            policies=internet.policies,
            country_of=internet.country_of,
        )
    with span("originate_destinations"):
        targets, announced, destination_prefixes = _originate_destinations(
            internet, simulator
        )
    resolver = CDNResolver(internet, locality=config.dns_locality)
    engine = TracerouteEngine(
        internet,
        simulator,
        announced,
        missing_hop_rate=config.missing_hop_rate,
    )

    report = RobustnessReport()
    units = JournaledUnits(
        config.checkpoint_path,
        {"campaign_seed": config.seed, "plan_fingerprint": plan.fingerprint()},
        resume=config.resume,
        storage=config.storage or StoragePolicy(fault_plan=config.fault_plan),
        abort_after=config.abort_after,
    )
    measurements: List[Measurement] = []
    names = resolver.names()

    def apply(
        record: Dict,
        probe: Probe,
        replica: Replica,
        trace: Optional[TracerouteResult] = None,
    ) -> None:
        """Account one finalized pair from its journal record.

        A fresh pair passes the traceroute it already parsed; a
        replayed one is parsed from the record's document, and its
        ground-truth path, which the journal does not carry, is read
        from the data plane the destinations converged to before the
        sweep.
        """
        status = record.get("status")
        reason = record.get("reason")
        if status in (_COMPLETED, _DEGRADED):
            if trace is None:
                trace = traceroute_from_json(record["document"])
                trace.truth_as_path = engine.truth_path(probe.asn, replica.ip) or ()
            measurements.append(
                Measurement(
                    probe=probe,
                    dns_name=record["name"],
                    replica=replica,
                    traceroute=trace,
                )
            )
            if status == _COMPLETED:
                report.record_completed(replica.asn)
            else:
                report.record_degraded(reason or "degraded")
        elif status == _QUARANTINED:
            report.record_quarantined(reason or "malformed-result")
        else:
            report.record_lost(reason or "lost")

    def finalize(
        probe: Probe,
        dns_name: str,
        replica: Replica,
        status: str,
        reason: Optional[str],
        attempts: int = 0,
        document: Optional[Dict] = None,
        trace: Optional[TracerouteResult] = None,
    ) -> None:
        record = {
            "probe": probe.probe_id,
            "name": dns_name,
            "status": status,
            "reason": reason,
            "attempts": attempts,
        }
        if document is not None:
            record["document"] = document
        apply(record, probe, replica, trace)
        units.finalize(record)

    with span("probe_sweep"), units:
        for probe in probes:
            probe_down = plan.fires(FaultSite.PROBE_DROPOUT, probe.probe_id)
            for dns_name in names:
                pid = probe.probe_id
                # Ground-truth resolution on a per-pair stream.  It pins
                # down what the fault-free campaign would measure, so
                # every loss can be attributed to its destination AS even
                # when the faulted campaign never learns the replica.
                pair_rng = random.Random(derive_seed(config.seed, "resolve", pid, dns_name))
                replica = resolver.resolve(dns_name, probe, rng=pair_rng)
                if replica is None:
                    continue
                report.expect(replica.asn)

                record = units.replayed.get((pid, dns_name))
                if record is not None:
                    report.resumed_pairs += 1
                    apply(record, probe, replica)
                    continue
                if probe_down:
                    finalize(probe, dns_name, replica, _LOST, "probe-dropout")
                    continue

                def attempt(attempt_no: int, probe=probe, dns_name=dns_name,
                            replica=replica, pid=pid):
                    # --- probe scheduling -----------------------------------
                    if plan.fires(FaultSite.PROBE_FLAP, pid, dns_name, attempt_no):
                        raise ProbeFlapError(f"probe {pid} missed round {attempt_no}")
                    # --- DNS ------------------------------------------------
                    # SERVFAIL is keyed per pair (persistent: retries will
                    # exhaust); timeouts per attempt (transient: clear).
                    if plan.fires(FaultSite.DNS_SERVFAIL, pid, dns_name):
                        raise DnsServfail(f"SERVFAIL resolving {dns_name!r}")
                    if plan.fires(FaultSite.DNS_TIMEOUT, pid, dns_name, attempt_no):
                        raise DnsTimeout(f"timeout resolving {dns_name!r}")
                    # --- traceroute -----------------------------------------
                    trace = engine.trace(
                        probe.asn,
                        probe.ip,
                        probe.city,
                        replica.ip,
                        rng=random.Random(derive_seed(config.seed, "trace", pid, dns_name)),
                    )
                    status, reason = _COMPLETED, None
                    if plan.fires(FaultSite.TRACEROUTE_TRUNCATE, pid, dns_name):
                        _truncate_hops(
                            trace, plan.roll(FaultSite.TRACEROUTE_TRUNCATE, pid, dns_name, "cut")
                        )
                        status, reason = _DEGRADED, "truncated"
                    elif plan.fires(FaultSite.TRACEROUTE_LOOP, pid, dns_name):
                        _inject_loop(
                            trace, plan.roll(FaultSite.TRACEROUTE_LOOP, pid, dns_name, "at")
                        )
                        status, reason = _DEGRADED, "loop"
                    # --- result fetch (Atlas API) ---------------------------
                    if plan.fires(FaultSite.API_RATE_LIMIT, pid, dns_name, attempt_no):
                        raise ApiRateLimit(f"429 fetching results for probe {pid}")
                    if plan.fires(FaultSite.API_SERVER_ERROR, pid, dns_name, attempt_no):
                        raise ApiServerError(f"503 fetching results for probe {pid}")
                    document = traceroute_to_json(trace, probe_id=pid)
                    document["dns_name"] = dns_name
                    if plan.fires(FaultSite.TRACEROUTE_GARBLE, pid, dns_name):
                        document = _garble(
                            document,
                            plan.roll(FaultSite.TRACEROUTE_GARBLE, pid, dns_name, "how"),
                        )
                    parsed = traceroute_from_json(document)  # may raise Malformed...
                    parsed.truth_as_path = trace.truth_as_path
                    return status, reason, parsed, document

                call_stats = RetryStats()
                parsed = document = None
                try:
                    status, reason, parsed, document = retry.execute(
                        attempt, key=(pid, dns_name), stats=call_stats
                    )
                except MalformedResultError as error:
                    status, reason = _QUARANTINED, error.reason
                    publish(
                        CATEGORY_QUARANTINE,
                        "pair",
                        probe=pid,
                        name=dns_name,
                        reason=reason,
                    )
                except RetryExhausted as error:
                    status, reason = _LOST, error.reason
                if status == _LOST:
                    publish(
                        CATEGORY_CAMPAIGN,
                        "pair_lost",
                        probe=pid,
                        name=dns_name,
                        reason=reason,
                    )
                report.retry.merge(call_stats)
                finalize(
                    probe, dns_name, replica, status, reason,
                    call_stats.attempts, document, parsed,
                )

    _record_campaign_metrics(report, len(measurements))
    return CampaignDataset(
        measurements=measurements,
        announced=announced,
        simulator=simulator,
        destination_asns=targets,
        destination_prefixes=destination_prefixes,
        robustness=report,
    )


def _record_campaign_metrics(report: RobustnessReport, measurements: int) -> None:
    """Fold one campaign's accounting into the metrics registry.

    Folded once at campaign end — never incremented per pair — so the
    instrumented hot loop pays nothing beyond the disposition events.
    """
    metrics = get_obs().metrics
    if not metrics.enabled:
        return
    metrics.counter(
        "repro_campaign_measurements_total",
        "Measurements collected by the passive campaign.",
    ).inc(measurements)
    pairs = metrics.counter(
        "repro_campaign_pairs_total",
        "Campaign (probe, name) pairs by final disposition.",
    )
    pairs.labels(disposition="completed").inc(report.completed)
    pairs.labels(disposition="degraded").inc(sum(report.degraded.values()))
    pairs.labels(disposition="quarantined").inc(sum(report.quarantined.values()))
    pairs.labels(disposition="lost").inc(sum(report.lost.values()))
    pairs.labels(disposition="resumed").inc(report.resumed_pairs)
    retries = metrics.counter(
        "repro_retry_attempts_total",
        "Retry attempts spent by the campaign, per fault site.",
    )
    for site, count in sorted(report.retry.retries_by_site.items()):
        retries.labels(site=site).inc(count)
    metrics.gauge(
        "repro_retry_simulated_wait_seconds",
        "Virtual seconds the campaign spent in retry backoff.",
    ).set(round(report.retry.simulated_wait_s, 3))
