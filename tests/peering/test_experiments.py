"""Tests for the active experiment drivers (discovery and magnet)."""

import dataclasses

import pytest

from repro.bgp import BGPSimulator
from repro.faults import CampaignInterrupted, FaultPlan, FaultSite
from repro.peering import (
    ActiveRunConfig,
    ActiveSupervisor,
    FeedArchive,
    PeeringTestbed,
    RouteCollector,
    discover_alternate_routes,
    run_magnet_experiments,
)
from repro.topogen import generate_internet
from repro.topogen.config import small_config


def _fresh_world():
    internet = generate_internet(small_config(), seed=31)
    testbed = PeeringTestbed(internet, num_muxes=4, seed=31)
    simulator = BGPSimulator(
        internet.graph, policies=internet.policies, country_of=internet.country_of
    )
    return internet, testbed, simulator


@pytest.fixture(scope="module")
def world():
    return _fresh_world()


class TestDiscovery:
    def test_discovers_multiple_routes_for_transit(self, world):
        internet, testbed, sim = world
        # Transit ASes with several neighbors have alternate routes.
        targets = [
            asn for asn in internet.graph.asns() if internet.graph.degree(asn) >= 5
        ][:5]
        result = discover_alternate_routes(testbed, sim, targets)
        assert len(result.observations) == len(targets)
        multi = [o for o in result.observations if len(o.routes) >= 2]
        assert multi, "no target revealed alternate routes"
        for observation in multi:
            # Next hops are distinct across rounds (each got poisoned).
            next_hops = [route.next_hop for route in observation.routes]
            assert len(next_hops) == len(set(next_hops))

    def test_discovery_order_is_preference_order(self, world):
        internet, testbed, sim = world
        targets = [
            asn for asn in internet.graph.asns() if internet.graph.degree(asn) >= 5
        ][:3]
        result = discover_alternate_routes(testbed, sim, targets)
        for observation in result.observations:
            # First discovered route must match the unpoisoned best.
            testbed.announce(sim, testbed.prefixes[0])
            route = sim.best_route(observation.target, testbed.prefixes[0])
            if route is not None and observation.routes:
                assert observation.routes[0].next_hop == route.learned_from

    def test_announcement_accounting(self, world):
        internet, testbed, sim = world
        targets = [
            asn for asn in internet.graph.asns() if internet.graph.degree(asn) >= 5
        ][:4]
        result = discover_alternate_routes(testbed, sim, targets)
        rounds = sum(len(o.poison_rounds) for o in result.observations)
        # Distinct announcements <= rounds + 1 (the shared anycast).
        assert result.distinct_announcements <= rounds + 1
        assert result.distinct_announcements >= 1

    def test_observed_links_present(self, world):
        internet, testbed, sim = world
        vps = internet.eyeball_asns[:10]
        targets = [
            asn for asn in internet.graph.asns() if internet.graph.degree(asn) >= 5
        ][:3]
        result = discover_alternate_routes(
            testbed, sim, targets, monitor_asns=vps
        )
        assert result.observed_links
        assert result.poisoned_only_links <= result.observed_links


    def test_poison_ignoring_next_hop_ends_censored(self, world):
        """Section 4.4: an AS without loop prevention ignores the poison."""
        internet, testbed, _ = world
        target = _transit_targets(internet, 1)[0]
        prefix = testbed.prefixes[0]
        plain = BGPSimulator(
            internet.graph, policies=internet.policies, country_of=internet.country_of
        )
        testbed.announce(plain, prefix)
        next_hop = plain.best_route(target, prefix).learned_from
        assert next_hop != testbed.asn
        policies = dict(internet.policies)
        policies[next_hop] = dataclasses.replace(
            policies[next_hop], loop_prevention_disabled=True
        )
        sim = BGPSimulator(
            internet.graph, policies=policies, country_of=internet.country_of
        )
        result = discover_alternate_routes(testbed, sim, [target], prefix=prefix)
        [observation] = result.observations
        assert observation.censored
        assert observation.censor_reason == "poison-ineffective"
        assert result.dispositions[target] == "censored"
        # One poisoned announcement, and the unmoved route recorded once.
        assert [route.next_hop for route in observation.routes] == [next_hop]
        assert observation.poison_rounds == [frozenset({next_hop})]


class TestHistoryIndependence:
    """Each target starts from the same withdrawn state: the direct
    reset leaves no route from an earlier target's poisoned
    announcements, so a target's discovery does not depend on which
    targets ran before it."""

    TARGETS = [100, 101, 102, 103, 104]

    def test_discovery_independent_of_target_order(self):
        def observe(targets):
            _, testbed, sim = _fresh_world()
            result = discover_alternate_routes(testbed, sim, targets)
            return {o.target: o for o in result.observations}, result.dispositions

        forward = observe(self.TARGETS)
        backward = observe(self.TARGETS[::-1])
        alone = observe(self.TARGETS[-1:])
        assert forward == backward
        assert alone[0][104] == forward[0][104]
        assert alone[1][104] == forward[1][104]


class TestMagnet:
    def test_rounds_per_mux(self, world):
        internet, testbed, sim = world
        feeds = FeedArchive([RouteCollector(name="rv", peer_asns=tuple(internet.graph.asns())[:20])])
        observations = run_magnet_experiments(
            testbed, sim, feeds, vp_asns=internet.eyeball_asns[:10]
        )
        assert len(observations) == len(testbed.muxes)
        for observation in observations:
            assert observation.magnet_mux in testbed.mux_asns()
            assert observation.anycast_routes
            # Anycast reaches at least as many ASes as the magnet phase.
            assert len(observation.anycast_routes) >= len(observation.magnet_routes)

    def test_magnet_phase_restricted_to_one_mux(self, world):
        internet, testbed, sim = world
        feeds = FeedArchive([])
        observations = run_magnet_experiments(testbed, sim, feeds)
        for observation in observations:
            # During the magnet phase, every routed path ends at the
            # magnet mux host before PEERING.
            for asn, view in observation.magnet_routes.items():
                path = view.path
                assert path[-1] == testbed.asn
                if len(path) >= 2:
                    assert path[-2] == observation.magnet_mux

    def test_truth_steps_recorded(self, world):
        internet, testbed, sim = world
        feeds = FeedArchive([])
        observations = run_magnet_experiments(testbed, sim, feeds)
        assert any(observation.truth_decision_steps for observation in observations)


def _transit_targets(internet, count):
    return [
        asn for asn in internet.graph.asns() if internet.graph.degree(asn) >= 5
    ][:count]


def _supervisor(**rates_and_opts):
    rates = rates_and_opts.pop("rates", {})
    return ActiveSupervisor(
        ActiveRunConfig(fault_plan=FaultPlan(seed=7, rates=rates), **rates_and_opts)
    )


class TestSupervisedDiscovery:
    def test_zero_fault_supervisor_matches_unsupervised(self, world):
        internet, testbed, sim = world
        targets = _transit_targets(internet, 4)
        plain = discover_alternate_routes(testbed, sim, targets)
        supervised = discover_alternate_routes(
            testbed, sim, targets, supervisor=ActiveSupervisor()
        )
        assert plain.observations == supervised.observations
        assert plain.distinct_announcements == supervised.distinct_announcements
        assert plain.observed_links == supervised.observed_links
        assert all(
            status == "completed" for status in supervised.dispositions.values()
        )

    def test_poison_filtering_censors_partial_orders(self, world):
        internet, testbed, sim = world
        targets = _transit_targets(internet, 5)
        supervisor = _supervisor(rates={FaultSite.POISON_FILTERED: 1.0})
        result = discover_alternate_routes(
            testbed, sim, targets, supervisor=supervisor
        )
        report = supervisor.report
        assert report.accounted()
        # Every poisoned announcement was filtered, so any target that
        # needed one ends censored with only its clean best route.
        censored = [o for o in result.observations if o.censored]
        assert censored
        for observation in censored:
            assert observation.censor_reason == "exhausted:poison-filtered"
            assert len(observation.routes) == 1
            assert result.dispositions[observation.target] == "censored"
        # Observations still cover every non-quarantined target.
        assert len(result.observations) == len(targets)

    def test_long_path_rejection_is_terminal(self, world):
        internet, testbed, sim = world
        targets = _transit_targets(internet, 4)
        supervisor = _supervisor(
            rates={FaultSite.LONG_PATH_REJECTED: 1.0}, long_path_limit=1
        )
        result = discover_alternate_routes(
            testbed, sim, targets, supervisor=supervisor
        )
        censored = [o for o in result.observations if o.censored]
        assert censored
        assert all(o.censor_reason == "long-path-rejected" for o in censored)
        # Non-retryable: the retry machinery never spun.
        assert supervisor.report.retry.retries == 0

    def test_breaker_quarantines_after_repeated_failures(self, world):
        internet, testbed, sim = world
        targets = _transit_targets(internet, 3)
        supervisor = _supervisor(
            rates={FaultSite.POISON_FILTERED: 1.0},
            breaker_threshold=1,
            breaker_cooldown=10,
        )
        result = discover_alternate_routes(
            testbed, sim, targets, supervisor=supervisor
        )
        report = supervisor.report
        assert report.accounted()
        assert report.quarantined.get("breaker-open", 0) >= 1
        quarantined = [
            target
            for target, status in result.dispositions.items()
            if status == "quarantined"
        ]
        observed = {o.target for o in result.observations}
        # Quarantined targets are excluded from the observations.
        assert observed.isdisjoint(quarantined)
        assert report.breaker.trips >= 1

    def test_transient_damping_recovered_by_retry(self, world):
        internet, testbed, sim = world
        targets = _transit_targets(internet, 4)
        supervisor = _supervisor(rates={FaultSite.ROUTE_FLAP_DAMPING: 0.4})
        result = discover_alternate_routes(
            testbed, sim, targets, supervisor=supervisor
        )
        report = supervisor.report
        assert report.accounted()
        assert report.damping_events > 0
        # Transient faults are keyed per attempt: retries recover some.
        assert report.retry.succeeded_after_retry > 0
        # Recovered rounds look exactly like fault-free ones.
        reference = discover_alternate_routes(testbed, sim, targets)
        recovered = [
            o
            for o in result.observations
            if not o.censored
            and result.dispositions[o.target] == "completed"
        ]
        reference_by_target = {o.target: o for o in reference.observations}
        for observation in recovered:
            assert observation.routes == reference_by_target[observation.target].routes

    def test_escape_leaves_testbed_unpoisoned(self, world):
        """Satellite: any escape restores the clean announcement (finally)."""
        internet, testbed, sim = world
        targets = _transit_targets(internet, 3)
        prefix = testbed.prefixes[0]
        testbed.announce(sim, prefix)
        clean_reachable = sim.reachable_ases(prefix)
        supervisor = ActiveSupervisor(ActiveRunConfig(abort_after=1))
        with pytest.raises(CampaignInterrupted):
            discover_alternate_routes(
                testbed, sim, targets, prefix=prefix, supervisor=supervisor
            )
        # The kill fired right after the first target's poisoned rounds,
        # but the finally path re-announced the unpoisoned prefix.
        assert sim.reachable_ases(prefix) == clean_reachable

    @pytest.mark.faults
    def test_never_converging_target_quarantined(self, world):
        """An event budget too small for any announcement to converge
        stands in for a dispute wheel: the target's first announcement
        raises ConvergenceError, the target ends quarantined for it, and
        the testbed prefix is left unpoisoned with nothing in flight."""
        internet, testbed, _ = world
        target = _transit_targets(internet, 1)[0]
        prefix = testbed.prefixes[0]
        sim = BGPSimulator(
            internet.graph,
            policies=internet.policies,
            country_of=internet.country_of,
            max_events_per_link=1,
        )
        supervisor = ActiveSupervisor()
        result = discover_alternate_routes(
            testbed, sim, [target], prefix=prefix, supervisor=supervisor
        )
        report = supervisor.report
        assert result.dispositions == {target: "quarantined"}
        assert result.observations == []
        assert report.quarantined == {"convergence-error": 1}
        assert report.convergence_failures == 1
        assert report.accounted()
        assert sim.in_flight() == 0
        for speaker in sim.speakers.values():
            origination = speaker.origination(prefix)
            assert origination is None or not origination.poisoned
            for route in speaker.candidates(prefix):  # no AS-set: no poison
                assert route.as_path.sequence() == route.as_path.segments


class TestSupervisedMagnet:
    def test_feed_gap_censors_round_but_keeps_traceroutes(self, world):
        internet, testbed, sim = world
        feeds = FeedArchive(
            [RouteCollector(name="rv", peer_asns=tuple(internet.graph.asns())[:20])]
        )
        supervisor = _supervisor(rates={FaultSite.COLLECTOR_FEED_GAP: 1.0})
        observations = run_magnet_experiments(
            testbed,
            sim,
            feeds,
            vp_asns=internet.eyeball_asns[:10],
            supervisor=supervisor,
        )
        report = supervisor.report
        assert report.accounted()
        assert report.feed_gaps == len(testbed.muxes)
        assert len(observations) == len(testbed.muxes)
        for observation in observations:
            assert observation.censored
            assert observation.censor_reason == "feed-gap"
            assert observation.feed_visible == frozenset()
            # The traceroute channel survives the feed gap.
            assert observation.vp_visible
        # Nothing was recorded into the gapped archive.
        assert not feeds._paths

    def test_magnet_accounting_balances_fault_free(self, world):
        internet, testbed, sim = world
        supervisor = ActiveSupervisor()
        run_magnet_experiments(
            testbed, sim, FeedArchive([]), supervisor=supervisor
        )
        report = supervisor.report
        assert report.accounted()
        assert report.magnet_completed == len(testbed.muxes)
