"""Drivers for the paper's two active control-plane experiments.

*Alternate-route discovery* (Section 3.2): announce anycast, observe
the target AS's next hop, poison it, and repeat — each round reveals
the target's next-most-preferred route, reverse-engineering its full
preference order.

*Magnet/anycast* (Section 3.2): announce from a single mux (the
magnet), let routes settle and age, then anycast from all muxes and
watch which ASes switch and which keep the old route — exposing
decision-process steps (intradomain tie-breakers, route age) invisible
to passive measurement.

Both drivers record what real monitoring would see: RIB views at
targets, collector feed paths, and the AS paths from traceroute vantage
points — the analysis in :mod:`repro.core.active_analysis` consumes
only these observations.

Both drivers are *supervised*: an :class:`ActiveSupervisor` owns the
fault plan and every active-phase fault (poison filtering, long-path
rejection, route-flap damping, convergence stalls, collector feed gaps,
mux session resets, lost withdrawals), the retries, a
:class:`~repro.faults.CircuitBreaker` over announcement operations, and
:class:`~repro.faults.JournaledUnits` so a killed run resumes
byte-identically.  A fault that cuts discovery short *censors* the
target (its partial preference order is kept and flagged); a control
plane that fails hard — a :class:`~repro.bgp.simulator.ConvergenceError`
or an open breaker — *quarantines* it.  Every target lands in exactly
one disposition, accounted by
:class:`~repro.faults.ActiveRobustnessReport`.

Announcement state restoration always runs in ``finally`` paths and
calls the testbed directly, which never faults: no exit from a driver —
fault, kill drill, or ``KeyboardInterrupt`` — leaves the testbed
announcing a poisoned prefix.  The simulator drops a failed run's
undelivered messages itself, so the withdrawal that opens the next
target or round copies the empty state as any other does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bgp.decision import DecisionStep
from repro.bgp.simulator import BGPSimulator, ConvergenceError
from repro.faults import (
    ActiveRobustnessReport,
    BreakerOpen,
    CircuitBreaker,
    ConvergenceStall,
    FaultError,
    FaultPlan,
    FaultSite,
    JournaledUnits,
    LongPathRejected,
    MuxSessionReset,
    PoisonFiltered,
    RetryExhausted,
    RetryPolicy,
    RouteFlapDamped,
    StoragePolicy,
    WithdrawalLost,
)
from repro.net.ip import Prefix
from repro.obs.context import publish
from repro.obs.events import CATEGORY_ACTIVE
from repro.obs.trace import span
from repro.peering.collectors import FeedArchive
from repro.peering.testbed import PeeringTestbed

PathSeq = Tuple[int, ...]

#: Journal unit names (the ``name`` half of a journal pair key).
DISCOVERY_UNIT = "discovery"
MAGNET_UNIT = "magnet"

#: Disposition values, shared with the journal records.
COMPLETED = "completed"
CENSORED = "censored"
QUARANTINED = "quarantined"


# ---------------------------------------------------------------------------
# Supervision
# ---------------------------------------------------------------------------


@dataclass
class ActiveRunConfig:
    """Supervision knobs for one active-experiment phase.

    The defaults describe a disarmed supervisor: no faults, no journal
    and a breaker that never sees a failure.
    """

    fault_plan: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None
    #: Consecutive announcement failures that trip the breaker.
    breaker_threshold: int = 3
    #: Operations the breaker stays open for before half-opening.
    breaker_cooldown: int = 4
    #: Poison sets at least this large are exposed to long-path filters.
    long_path_limit: int = 6
    checkpoint_path: Optional[str] = None
    resume: bool = False
    #: Crash drill: kill the run after N newly finalized units.
    abort_after: Optional[int] = None
    #: Durability/fault policy for the checkpoint journal.
    storage: Optional[StoragePolicy] = None


class ActiveSupervisor:
    """Shared supervision state for one active phase (both drivers).

    Owns the fault plan, retry policy, circuit breaker, robustness
    report and checkpoint journal.  Every active-phase fault is drawn,
    retried and counted here; the testbed it drives never fails.
    ``Study._run_active`` threads one supervisor through discovery
    *and* the magnet rounds so the breaker sees the control plane as a
    whole and a single journal covers the phase.
    """

    def __init__(self, config: Optional[ActiveRunConfig] = None) -> None:
        self.config = config or ActiveRunConfig()
        self.plan = self.config.fault_plan or FaultPlan.none()
        self.retry = self.config.retry or RetryPolicy(seed=self.plan.seed)
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
        )
        self.report = ActiveRobustnessReport()
        self.report.breaker = self.breaker.stats
        self.units = JournaledUnits(
            self.config.checkpoint_path,
            {"phase": "active", "plan_fingerprint": self.plan.fingerprint()},
            resume=self.config.resume,
            storage=self.config.storage
            or StoragePolicy(fault_plan=self.config.fault_plan),
            abort_after=self.config.abort_after,
        )

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def replayed(self, unit: str, key: int) -> Optional[Dict]:
        """The journaled record of one unit, or ``None`` when it must run.

        The breaker is sequential state shared across units, so a
        replayed unit restores the breaker snapshot its record carries:
        the next fresh unit sees the breaker an uninterrupted run left.
        """
        record = self.units.replayed.get((key, unit))
        if record is not None and record.get("breaker"):
            self.breaker.restore(record["breaker"])
            self.report.breaker = self.breaker.stats
        return record

    def record(self, unit: str, key: int, fields: Dict) -> Dict:
        """The journal record of one finalized unit, breaker included."""
        return dict(fields, probe=key, name=unit, breaker=self.breaker.as_dict())

    def close(self) -> None:
        self.units.close()

    # ------------------------------------------------------------------
    # Supervised operations
    # ------------------------------------------------------------------
    def announce(
        self,
        testbed: PeeringTestbed,
        simulator: BGPSimulator,
        prefix: Prefix,
        *,
        key: Tuple,
        poisoned: Iterable[int] = (),
        muxes: Optional[Iterable[int]] = None,
    ) -> None:
        """One supervised announcement: breaker gate, faults, retries.

        Fault keys derive from the *logical* identity of the
        announcement (unit, target or mux, round), never from global
        operation counts, so skipping journaled work on resume cannot
        perturb the faults the remaining work sees.
        """
        self.breaker.check("announcement")
        plan = self.plan
        poison_set = frozenset(poisoned)

        def attempt(attempt_no: int) -> None:
            # Standing filters are keyed per announcement identity
            # (persistent: retries exhaust); damping, stalls and mux
            # session resets include the attempt number (transient:
            # retries can clear).
            if poison_set and plan.fires(FaultSite.POISON_FILTERED, *key):
                raise PoisonFiltered(
                    f"intermediate AS filtered poisoned announcement {key}"
                )
            if (
                len(poison_set) >= self.config.long_path_limit
                and plan.fires(FaultSite.LONG_PATH_REJECTED, *key)
            ):
                raise LongPathRejected(
                    f"{len(poison_set)}-AS poison set rejected by a "
                    f"maximum-path-length import filter ({key})"
                )
            if plan.fires(FaultSite.ROUTE_FLAP_DAMPING, *key, attempt_no):
                self.report.damping_events += 1
                raise RouteFlapDamped(
                    f"announcement {key} suppressed by route-flap damping "
                    f"(attempt {attempt_no})"
                )
            if plan.fires(FaultSite.CONVERGENCE_STALL, *key, attempt_no):
                raise ConvergenceStall(
                    f"announcement {key} did not settle in the observation "
                    f"window (attempt {attempt_no})"
                )
            if plan.fires(FaultSite.MUX_RESET, *key, attempt_no):
                self.report.mux_session_resets += 1
                raise MuxSessionReset(
                    f"mux session reset announcing {key} (attempt {attempt_no})"
                )
            testbed.announce(simulator, prefix, muxes=muxes, poisoned=poison_set)

        try:
            self.retry.execute(attempt, key=key, stats=self.report.retry)
        except (ConvergenceError, FaultError):
            self.breaker.record_failure()
            raise
        else:
            self.report.announcements += 1
            self.breaker.record_success()

    def withdraw(
        self,
        testbed: PeeringTestbed,
        simulator: BGPSimulator,
        prefix: Prefix,
        *,
        key: Tuple,
    ) -> None:
        """One supervised withdrawal: a lost withdrawal is retried.

        ``key`` is ``(unit, target or mux, "withdraw")``.  The loss is
        drawn per attempt under it, so a retry can clear it; exhausted
        retries raise :class:`~repro.faults.RetryExhausted`, as an
        announcement's do.  A withdrawal never touches the breaker,
        which gates announcements only.
        """
        plan = self.plan

        def attempt(attempt_no: int) -> None:
            if plan.fires(FaultSite.MUX_WITHDRAWAL_LOSS, *key, attempt_no):
                self.report.withdrawal_losses += 1
                raise WithdrawalLost(
                    f"mux lost withdrawal {key} (attempt {attempt_no})"
                )
            testbed.withdraw(simulator, prefix)

        self.retry.execute(attempt, key=key, stats=self.report.retry)
        self.report.withdrawals += 1


def _restore_unpoisoned(
    testbed: PeeringTestbed, simulator: BGPSimulator, prefix: Prefix
) -> None:
    """Leave ``prefix`` cleanly announced — or withdrawn, never poisoned.

    Runs in ``finally`` paths, so it calls the testbed directly (it
    never faults): the prefix is withdrawn and re-announced clean, and
    a re-announcement that does not converge downgrades to a withdrawn
    (still unpoisoned) testbed.
    """
    testbed.withdraw(simulator, prefix)
    try:
        testbed.announce(simulator, prefix)
    except ConvergenceError:
        testbed.withdraw(simulator, prefix)


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RouteView:
    """What monitoring reveals about one AS's route: next hop and path.

    ``path`` runs from the next hop to the origin (the observed AS
    itself excluded), mirroring a route's AS_PATH at that AS.
    """

    next_hop: int
    path: PathSeq


@dataclass
class AlternateRouteObservation:
    """Preference order discovered for one target AS."""

    target: int
    #: Routes in discovery order: most preferred first.
    routes: List[RouteView] = field(default_factory=list)
    #: Poison sets used, one per announcement round after the first.
    poison_rounds: List[FrozenSet[int]] = field(default_factory=list)
    #: Discovery ended early on a control-plane fault: ``routes`` is a
    #: *censored* partial preference order, not a complete one.
    censored: bool = False
    censor_reason: Optional[str] = None


@dataclass
class DiscoveryResult:
    """Everything alternate-route discovery produced."""

    observations: List[AlternateRouteObservation]
    #: Distinct announcement configurations used (poison sets).
    distinct_announcements: int
    #: Links observed on any monitored path during the experiments.
    observed_links: Set[Tuple[int, int]]
    #: Links observed only while some AS was poisoned.
    poisoned_only_links: Set[Tuple[int, int]]
    #: target ASN -> disposition (completed / censored / quarantined).
    dispositions: Dict[int, str] = field(default_factory=dict)


def _links_of_path(path: Sequence[int]) -> Set[Tuple[int, int]]:
    return {
        (min(a, b), max(a, b)) for a, b in zip(path[:-1], path[1:]) if a != b
    }


def _monitored_links(
    simulator: BGPSimulator,
    prefix: Prefix,
    monitor_asns: Iterable[int],
) -> Set[Tuple[int, int]]:
    """Links visible on monitors' current paths toward ``prefix``."""
    links: Set[Tuple[int, int]] = set()
    for asn in monitor_asns:
        path = simulator.forwarding_path(asn, prefix)
        if path:
            links.update(_links_of_path(path))
    return links


# ---------------------------------------------------------------------------
# Journal (de)serialization
# ---------------------------------------------------------------------------


def _route_view_to_json(view: RouteView) -> List:
    return [view.next_hop, list(view.path)]


def _route_view_from_json(data) -> RouteView:
    return RouteView(
        next_hop=int(data[0]), path=tuple(int(asn) for asn in data[1])
    )


def _links_to_json(links: Set[Tuple[int, int]]) -> List[List[int]]:
    return sorted([a, b] for a, b in links)


def _links_from_json(data) -> Set[Tuple[int, int]]:
    return {(int(a), int(b)) for a, b in data}


# ---------------------------------------------------------------------------
# Alternate-route discovery
# ---------------------------------------------------------------------------


def discover_alternate_routes(
    testbed: PeeringTestbed,
    simulator: BGPSimulator,
    targets: Sequence[int],
    prefix: Optional[Prefix] = None,
    monitor_asns: Sequence[int] = (),
    max_rounds: int = 10,
    supervisor: Optional[ActiveSupervisor] = None,
) -> DiscoveryResult:
    """Run supervised iterative poisoning against each target AS.

    ``monitor_asns`` are the traceroute vantage points whose paths
    contribute to the observed-link accounting; the targets' own RIB
    views (what BGP feeds from them would show) contribute as well.

    Every target's discovery starts from a withdrawn-then-reannounced
    prefix.  PEERING is the prefix's only origin, so the withdrawal
    copies the simulator's empty state and leaves no AS with a route
    from an earlier target's poisoned announcements.  Each target's
    result is therefore a pure function of the topology and the fault
    plan, independent of which targets ran before it: the property
    that makes journal resumption byte-identical.

    A target whose next hop is already poisoned ignores poisoning (an
    AS without loop prevention, Section 4.4); it ends censored with
    reason ``poison-ineffective`` rather than re-announcing the same
    poison set until ``max_rounds``.

    Each target runs in a ``discovery_target`` span whose attributes
    give its rounds, its status, how many of its convergences the
    simulator copied from a known state (``reused``: its withdrawal
    copies the empty state, every target re-announces the same
    baseline, and targets with one next hop share their first poison
    round) and how many BGP messages its convergences delivered
    (``delivered``).
    """
    prefix = prefix or testbed.prefixes[0]
    supervisor = supervisor or ActiveSupervisor()
    report = supervisor.report
    monitors = list(monitor_asns)
    observations: List[AlternateRouteObservation] = []
    dispositions: Dict[int, str] = {}
    announcement_configs: Set[FrozenSet[int]] = set()
    observed_links: Set[Tuple[int, int]] = set()
    baseline_links: Set[Tuple[int, int]] = set()
    poisoned_links: Set[Tuple[int, int]] = set()

    def apply(
        record: Dict, observation: Optional[AlternateRouteObservation] = None
    ) -> None:
        """Account one finalized target from its journal record; a fresh
        target passes the observation it built, a replayed one is
        rebuilt from the record."""
        target = int(record["probe"])
        status = record.get("status", COMPLETED)
        reason = record.get("reason")
        dispositions[target] = status
        poison_rounds = [
            frozenset(int(asn) for asn in poison)
            for poison in record.get("poison_rounds", [])
        ]
        if record.get("baseline_ok"):
            announcement_configs.add(frozenset())
        announcement_configs.update(poison_rounds)
        round_links = _links_from_json(record.get("round_links", []))
        baseline_links.update(_links_from_json(record.get("baseline_links", [])))
        observed_links.update(round_links)
        poisoned_links.update(round_links)
        if status == QUARANTINED:
            report.record_quarantined(reason or "quarantined")
            return
        if observation is None:
            observation = AlternateRouteObservation(
                target=target,
                routes=[
                    _route_view_from_json(view) for view in record.get("routes", [])
                ],
                poison_rounds=poison_rounds,
            )
        if status == CENSORED:
            observation.censored = True
            observation.censor_reason = reason
            report.record_censored(reason or "censored")
        else:
            report.record_completed()
        observations.append(observation)

    with span("discovery", targets=len(targets)):
        try:
            for target in targets:
                report.expect_target()
                record = supervisor.replayed(DISCOVERY_UNIT, target)
                if record is not None:
                    report.resumed_targets += 1
                    apply(record)
                    continue

                with span("discovery_target", target=target) as target_span:
                    reused_before = simulator.reused
                    delivered_before = simulator.delivered
                    observation = AlternateRouteObservation(target=target)
                    status, reason = COMPLETED, None
                    baseline_ok = False
                    target_baseline: Set[Tuple[int, int]] = set()
                    target_links: Set[Tuple[int, int]] = set()
                    poisoned: Set[int] = set()
                    try:
                        # Reset the prefix to a history-independent state.
                        supervisor.withdraw(
                            testbed,
                            simulator,
                            prefix,
                            key=(DISCOVERY_UNIT, target, "withdraw"),
                        )
                        supervisor.announce(
                            testbed,
                            simulator,
                            prefix,
                            key=(DISCOVERY_UNIT, target, "baseline"),
                        )
                        baseline_ok = True
                        target_baseline = _monitored_links(
                            simulator, prefix, monitors + [target]
                        )
                        for round_no in range(max_rounds):
                            route = simulator.best_route(target, prefix)
                            if route is None or route.learned_from == target:
                                break
                            next_hop = route.learned_from
                            if next_hop in poisoned:
                                # The poison did not take: the next hop
                                # ignores it (Section 4.4).  Re-announcing
                                # the same set would only repeat this route.
                                status, reason = CENSORED, "poison-ineffective"
                                break
                            observation.routes.append(
                                RouteView(
                                    next_hop=next_hop, path=route.as_path.sequence()
                                )
                            )
                            if next_hop == testbed.asn:
                                break
                            poisoned.add(next_hop)
                            supervisor.announce(
                                testbed,
                                simulator,
                                prefix,
                                poisoned=poisoned,
                                key=(DISCOVERY_UNIT, target, round_no),
                            )
                            observation.poison_rounds.append(frozenset(poisoned))
                            target_links.update(
                                _monitored_links(
                                    simulator, prefix, monitors + [target]
                                )
                            )
                    except (RetryExhausted, LongPathRejected) as error:
                        # The control plane refused to go deeper; what was
                        # discovered so far is a valid partial order.
                        status, reason = CENSORED, error.reason
                    except BreakerOpen as error:
                        status, reason = QUARANTINED, error.reason
                    except ConvergenceError:
                        # The epoch never converged: the observed routes for
                        # this target may reflect a half-propagated network.
                        report.convergence_failures += 1
                        status, reason = QUARANTINED, "convergence-error"

                    if target_span is not None:
                        target_span.attrs.update(
                            rounds=len(observation.poison_rounds),
                            status=status,
                            reused=simulator.reused - reused_before,
                            delivered=simulator.delivered - delivered_before,
                        )
                    publish(
                        CATEGORY_ACTIVE,
                        "discovery_target",
                        target=target,
                        status=status,
                        reason=reason,
                    )
                    record = supervisor.record(
                        DISCOVERY_UNIT,
                        target,
                        {
                            "status": status,
                            "reason": reason,
                            "baseline_ok": baseline_ok,
                            "routes": [
                                _route_view_to_json(view)
                                for view in observation.routes
                            ],
                            "poison_rounds": [
                                sorted(poison)
                                for poison in observation.poison_rounds
                            ],
                            "baseline_links": _links_to_json(target_baseline),
                            "round_links": _links_to_json(target_links),
                        },
                    )
                    apply(record, observation)
                    supervisor.units.finalize(record)
        finally:
            # No escape — fault, kill drill, KeyboardInterrupt — leaves
            # the testbed announcing a poisoned prefix.
            _restore_unpoisoned(testbed, simulator, prefix)

    observed_links.update(baseline_links)
    return DiscoveryResult(
        observations=observations,
        distinct_announcements=len(announcement_configs),
        observed_links=observed_links,
        poisoned_only_links=poisoned_links - baseline_links,
        dispositions=dispositions,
    )


# ---------------------------------------------------------------------------
# Magnet / anycast experiments
# ---------------------------------------------------------------------------


@dataclass
class MagnetObservation:
    """One magnet round: single-mux phase then anycast phase."""

    magnet_mux: int
    prefix: Prefix
    magnet_routes: Dict[int, RouteView] = field(default_factory=dict)
    anycast_routes: Dict[int, RouteView] = field(default_factory=dict)
    #: Ground-truth decision step per AS after anycast (validation only;
    #: the paper-style analysis must infer this from the routes).
    truth_decision_steps: Dict[int, DecisionStep] = field(default_factory=dict)
    #: ASes whose decisions are visible via BGP feeds.
    feed_visible: FrozenSet[int] = frozenset()
    #: ASes whose decisions are visible via vantage-point traceroutes.
    vp_visible: FrozenSet[int] = frozenset()
    #: A fault blinded one observation channel for this round (e.g. a
    #: collector feed gap); the remaining channels are still usable.
    censored: bool = False
    censor_reason: Optional[str] = None


def _route_views(simulator: BGPSimulator, prefix: Prefix) -> Dict[int, RouteView]:
    views: Dict[int, RouteView] = {}
    for asn, route in simulator.rib_dump(prefix).items():
        if route.learned_from == asn:
            continue  # the origin itself
        views[asn] = RouteView(
            next_hop=route.learned_from, path=route.as_path.sequence()
        )
    return views


def _path_visibility(
    simulator: BGPSimulator, prefix: Prefix, monitor_asns: Iterable[int]
) -> FrozenSet[int]:
    """ASes whose next-hop decision appears on a monitored path."""
    visible: Set[int] = set()
    for asn in monitor_asns:
        path = simulator.forwarding_path(asn, prefix)
        if path:
            visible.update(path[:-1])
    return frozenset(visible)


def _magnet_observation_to_json(observation: MagnetObservation) -> Dict:
    return {
        "magnet_mux": observation.magnet_mux,
        "prefix": str(observation.prefix),
        "magnet_routes": {
            str(asn): _route_view_to_json(view)
            for asn, view in sorted(observation.magnet_routes.items())
        },
        "anycast_routes": {
            str(asn): _route_view_to_json(view)
            for asn, view in sorted(observation.anycast_routes.items())
        },
        "truth_decision_steps": {
            str(asn): step.name
            for asn, step in sorted(observation.truth_decision_steps.items())
        },
        "feed_visible": sorted(observation.feed_visible),
        "vp_visible": sorted(observation.vp_visible),
        "censored": observation.censored,
        "censor_reason": observation.censor_reason,
    }


def _magnet_observation_from_json(data: Dict) -> MagnetObservation:
    return MagnetObservation(
        magnet_mux=int(data["magnet_mux"]),
        prefix=Prefix.parse(data["prefix"]),
        magnet_routes={
            int(asn): _route_view_from_json(view)
            for asn, view in data.get("magnet_routes", {}).items()
        },
        anycast_routes={
            int(asn): _route_view_from_json(view)
            for asn, view in data.get("anycast_routes", {}).items()
        },
        truth_decision_steps={
            int(asn): DecisionStep[name]
            for asn, name in data.get("truth_decision_steps", {}).items()
        },
        feed_visible=frozenset(
            int(asn) for asn in data.get("feed_visible", [])
        ),
        vp_visible=frozenset(int(asn) for asn in data.get("vp_visible", [])),
        censored=bool(data.get("censored", False)),
        censor_reason=data.get("censor_reason"),
    )


def run_magnet_experiments(
    testbed: PeeringTestbed,
    simulator: BGPSimulator,
    feeds: FeedArchive,
    vp_asns: Sequence[int] = (),
    prefix: Optional[Prefix] = None,
    supervisor: Optional[ActiveSupervisor] = None,
) -> List[MagnetObservation]:
    """Use each mux as the magnet once (paper Section 3.2), supervised.

    For every round: withdraw, announce via the magnet only (routes
    arrive and age), then anycast via all muxes and record who moved.
    A collector feed gap censors the round's feed channel (the
    traceroute channel survives); an announcement failure or an open
    breaker quarantines the round.  Each round starts from a withdrawn
    prefix — a copy of the empty state in the simulator, since PEERING
    is the only origin — so no route survives from an earlier round and
    journaled rounds can be skipped on resume without perturbing the
    rest.  The copy never moves the simulator clock back, so magnet
    routes stay older than anycast routes, as the age tie-breaker
    expects.  Each round runs in a ``magnet_round`` span (mux, status,
    ``reused``: copied convergences, the withdrawal's included, and
    ``delivered``).
    """
    prefix = prefix or testbed.prefixes[-1]
    supervisor = supervisor or ActiveSupervisor()
    report = supervisor.report
    observations: List[MagnetObservation] = []

    def apply(record: Dict, observation: Optional[MagnetObservation] = None) -> None:
        """Account one finalized round from its journal record; a fresh
        round passes the observation it built, a replayed one is rebuilt
        from the record."""
        status = record.get("status", COMPLETED)
        reason = record.get("reason")
        if status == QUARANTINED:
            report.record_magnet_quarantined(reason or "quarantined")
            return
        if observation is None:
            observation = _magnet_observation_from_json(record["observation"])
        observations.append(observation)
        if status == CENSORED:
            report.record_magnet_censored(reason or "censored")
        else:
            report.record_magnet_completed()

    with span("magnet_rounds", muxes=len(testbed.muxes)):
        try:
            for mux in testbed.muxes:
                report.expect_magnet_round()
                record = supervisor.replayed(MAGNET_UNIT, mux.host_asn)
                if record is not None:
                    report.resumed_magnet_rounds += 1
                    apply(record)
                    continue

                with span("magnet_round", mux=mux.host_asn) as round_span:
                    reused_before = simulator.reused
                    delivered_before = simulator.delivered
                    status, reason = COMPLETED, None
                    observation: Optional[MagnetObservation] = None
                    try:
                        supervisor.withdraw(
                            testbed,
                            simulator,
                            prefix,
                            key=(MAGNET_UNIT, mux.host_asn, "withdraw"),
                        )
                        supervisor.announce(
                            testbed,
                            simulator,
                            prefix,
                            muxes=[mux.host_asn],
                            key=(MAGNET_UNIT, mux.host_asn, "magnet"),
                        )
                        magnet_routes = _route_views(simulator, prefix)
                        supervisor.announce(
                            testbed,
                            simulator,
                            prefix,
                            key=(MAGNET_UNIT, mux.host_asn, "anycast"),
                        )
                        feed_gap = supervisor.plan.fires(
                            FaultSite.COLLECTOR_FEED_GAP, MAGNET_UNIT, mux.host_asn
                        )
                        if feed_gap:
                            report.feed_gaps += 1
                            status, reason = CENSORED, "feed-gap"
                        else:
                            feeds.record(simulator, [prefix])
                        anycast_routes = _route_views(simulator, prefix)
                        truth_steps = {
                            asn: simulator.decision_step(asn, prefix)
                            for asn in anycast_routes
                            if simulator.decision_step(asn, prefix) is not None
                        }
                        feed_peers = {
                            peer
                            for collector in feeds.collectors
                            for peer in collector.peer_asns
                        }
                        observation = MagnetObservation(
                            magnet_mux=mux.host_asn,
                            prefix=prefix,
                            magnet_routes=magnet_routes,
                            anycast_routes=anycast_routes,
                            truth_decision_steps=truth_steps,
                            feed_visible=(
                                frozenset()
                                if feed_gap
                                else _path_visibility(simulator, prefix, feed_peers)
                            ),
                            vp_visible=_path_visibility(simulator, prefix, vp_asns),
                            censored=feed_gap,
                            censor_reason="feed-gap" if feed_gap else None,
                        )
                    except (RetryExhausted, LongPathRejected, BreakerOpen) as error:
                        status, reason = QUARANTINED, error.reason
                    except ConvergenceError:
                        report.convergence_failures += 1
                        status, reason = QUARANTINED, "convergence-error"

                    if round_span is not None:
                        round_span.attrs.update(
                            status=status,
                            reused=simulator.reused - reused_before,
                            delivered=simulator.delivered - delivered_before,
                        )
                    publish(
                        CATEGORY_ACTIVE,
                        "magnet_round",
                        mux=mux.host_asn,
                        status=status,
                        reason=reason,
                    )
                    record = supervisor.record(
                        MAGNET_UNIT,
                        mux.host_asn,
                        {
                            "status": status,
                            "reason": reason,
                            "observation": (
                                None
                                if observation is None
                                else _magnet_observation_to_json(observation)
                            ),
                        },
                    )
                    apply(record, observation)
                    supervisor.units.finalize(record)
        finally:
            testbed.withdraw(simulator, prefix)
    return observations
