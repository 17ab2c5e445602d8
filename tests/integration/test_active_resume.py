"""Integration tests for the supervised, resumable active experiments.

Acceptance criteria for the control-plane resilience layer: a discovery
run killed mid-flight and resumed from its journal must reproduce the
uninterrupted run's :class:`DiscoveryResult` and preference summaries
byte-for-byte; and a full ``Study.run`` under an active fault plan
(poison filtering, damping, convergence stalls, feed gaps, mux session
resets, withdrawal loss) must complete without raising, with every
target and magnet round accounted in the :class:`ActiveRobustnessReport`.
The testbed is built without a plan: the supervisor draws every active
fault, the mux sites included.
"""

import os

import pytest

from repro.bgp import BGPSimulator
from repro.core.active_analysis import classify_preference_orders
from repro.core.pipeline import Study, StudyConfig, build_study_config
from repro.experiments import alternate_routes
from repro.faults import CampaignInterrupted, CheckpointJournal, FaultPlan, FaultSite
from repro.peering import (
    ActiveRunConfig,
    ActiveSupervisor,
    FeedArchive,
    PeeringTestbed,
    default_collectors,
    discover_alternate_routes,
    run_magnet_experiments,
)
from repro.topogen import generate_internet
from repro.topogen.config import small_config

pytestmark = pytest.mark.faults

ACTIVE_PLAN = FaultPlan(
    seed=17,
    rates={
        FaultSite.POISON_FILTERED: 0.15,
        FaultSite.LONG_PATH_REJECTED: 0.1,
        FaultSite.ROUTE_FLAP_DAMPING: 0.2,
        FaultSite.CONVERGENCE_STALL: 0.15,
        FaultSite.COLLECTOR_FEED_GAP: 0.25,
        FaultSite.MUX_WITHDRAWAL_LOSS: 0.15,
        FaultSite.MUX_RESET: 0.08,
    },
)

STUDY_PLAN = FaultPlan(
    seed=17,
    rates=dict(
        ACTIVE_PLAN.rates,
        **{
            FaultSite.PROBE_DROPOUT: 0.04,
            FaultSite.DNS_TIMEOUT: 0.06,
            FaultSite.TRACEROUTE_TRUNCATE: 0.04,
        },
    ),
)


def _build_world():
    internet = generate_internet(small_config(), seed=3)
    testbed = PeeringTestbed(internet, num_muxes=4, seed=5)
    simulator = BGPSimulator(
        internet.graph, policies=internet.policies, country_of=internet.country_of
    )
    prefix = testbed.prefixes[0]
    testbed.announce(simulator, prefix)
    targets = sorted(simulator.reachable_ases(prefix))[:10]
    return internet, testbed, simulator, prefix, targets


def _run_active_phase(world, checkpoint=None, resume=False, abort_after=None):
    internet, testbed, simulator, prefix, targets = world
    supervisor = ActiveSupervisor(
        ActiveRunConfig(
            fault_plan=ACTIVE_PLAN,
            checkpoint_path=checkpoint,
            resume=resume,
            abort_after=abort_after,
        )
    )
    try:
        discovery = discover_alternate_routes(
            testbed, simulator, targets, prefix=prefix, supervisor=supervisor
        )
        feeds = FeedArchive(default_collectors(internet, seed=9))
        magnets = run_magnet_experiments(
            testbed, simulator, feeds, vp_asns=targets[:4], supervisor=supervisor
        )
    finally:
        supervisor.close()
    return discovery, magnets, supervisor.report


class TestMuxFaultsPerAnnouncement:
    def test_mux_faults_are_drawn_per_announcement(self):
        """A reset or a lost withdrawal hits one announcement, not every
        announcement of the prefix."""
        losses = []
        for seed in range(6):
            plan = FaultPlan(
                seed=seed,
                rates={FaultSite.MUX_RESET: 0.3, FaultSite.MUX_WITHDRAWAL_LOSS: 0.3},
            )
            _internet, testbed, simulator, prefix, targets = _build_world()
            supervisor = ActiveSupervisor(ActiveRunConfig(fault_plan=plan))
            discover_alternate_routes(
                testbed, simulator, targets, prefix=prefix, supervisor=supervisor
            )
            report = supervisor.report
            assert report.accounted()
            # Some announcements were reset, and some went through.
            assert report.mux_session_resets > 0, seed
            assert report.announcements > 0, seed
            # Some withdrawals were confirmed.
            assert report.withdrawals > 0, seed
            losses.append(report.withdrawal_losses)
        assert sum(losses) > 0


class TestActiveKillAndResume:
    def test_resume_matches_uninterrupted(self, tmp_path):
        journal_path = str(tmp_path / "active.jsonl")

        # Reference: uninterrupted, unjournaled run.
        reference_world = _build_world()
        ref_discovery, ref_magnets, ref_report = _run_active_phase(reference_world)
        assert ref_report.accounted()

        # Kill drill: a fresh world, killed after 4 finalized units.
        killed_world = _build_world()
        with pytest.raises(CampaignInterrupted) as excinfo:
            _run_active_phase(killed_world, checkpoint=journal_path, abort_after=4)
        assert excinfo.value.completed_pairs == 4

        # Simulate a torn write at the kill point.
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "pair", "probe": 1, "na')

        # Resume on yet another fresh world (a real restart).
        resumed_world = _build_world()
        discovery, magnets, report = _run_active_phase(
            resumed_world, checkpoint=journal_path, resume=True
        )

        # Byte-identical results and accounting.
        assert discovery.observations == ref_discovery.observations
        assert discovery.distinct_announcements == ref_discovery.distinct_announcements
        assert discovery.observed_links == ref_discovery.observed_links
        assert discovery.poisoned_only_links == ref_discovery.poisoned_only_links
        assert discovery.dispositions == ref_discovery.dispositions
        assert magnets == ref_magnets
        assert report.accounted()
        assert report.resumed_targets == 4
        assert ref_report.resumed_targets == 0
        # Replayed units restore the breaker state their records carry.
        assert report.breaker == ref_report.breaker

        # The graded preference orders are identical too.
        graph = resumed_world[0].graph
        resumed_summary = classify_preference_orders(discovery.observations, graph)
        reference_summary = classify_preference_orders(
            ref_discovery.observations, graph
        )
        assert resumed_summary == reference_summary

        # Disposition accounting matches the uninterrupted run exactly;
        # only effort counters (announcements, retries, damping) differ,
        # since replayed units spend no new testbed announcements.
        for field in (
            "total_targets",
            "completed",
            "censored",
            "quarantined",
            "magnet_rounds",
            "magnet_completed",
            "magnet_censored",
            "magnet_quarantined",
        ):
            assert getattr(report, field) == getattr(ref_report, field), field
        assert report.announcements < ref_report.announcements

    def test_run_without_resume_starts_a_fresh_journal(self, tmp_path):
        journal_path = str(tmp_path / "active.jsonl")
        with pytest.raises(CampaignInterrupted):
            _run_active_phase(
                _build_world(), checkpoint=journal_path, abort_after=2
            )
        other_plan = FaultPlan(seed=99, rates={FaultSite.POISON_FILTERED: 0.5})
        supervisor = ActiveSupervisor(
            ActiveRunConfig(fault_plan=other_plan, checkpoint_path=journal_path)
        )
        internet, testbed, simulator, prefix, targets = _build_world()
        try:
            discover_alternate_routes(
                testbed, simulator, targets, prefix=prefix, supervisor=supervisor
            )
        finally:
            supervisor.close()
        header, records = CheckpointJournal(journal_path).load()
        assert header["plan_fingerprint"] == other_plan.fingerprint()
        assert [record["probe"] for record in records] == targets

        # The journal is the new plan's, so resuming under it is accepted.
        resumed = ActiveSupervisor(
            ActiveRunConfig(
                fault_plan=other_plan, checkpoint_path=journal_path, resume=True
            )
        )
        resumed.close()

    def test_resume_with_wrong_plan_rejected(self, tmp_path):
        journal_path = str(tmp_path / "active.jsonl")
        world = _build_world()
        with pytest.raises(CampaignInterrupted):
            _run_active_phase(world, checkpoint=journal_path, abort_after=2)
        other_plan = FaultPlan(seed=99, rates={FaultSite.POISON_FILTERED: 0.5})
        with pytest.raises(ValueError, match="refusing to resume"):
            ActiveSupervisor(
                ActiveRunConfig(
                    fault_plan=other_plan,
                    checkpoint_path=journal_path,
                    resume=True,
                )
            )


@pytest.fixture(scope="module")
def faulted_study(tmp_path_factory):
    run_dir = str(tmp_path_factory.mktemp("study") / "run")
    config = StudyConfig(
        seed=13,
        topology=small_config(),
        num_probes=300,
        probes_per_continent=20,
        active_vp_budget=40,
        max_discovery_targets=16,
        fault_plan=STUDY_PLAN,
        run_dir=run_dir,
    )
    results = Study(config).run()  # must not raise
    return config, run_dir, results


class TestStudyWithActiveFaults:
    def test_mux_faults_counted_by_the_active_report_only(self, faulted_study):
        _config, _run_dir, results = faulted_study
        active = results.active_robustness
        assert active.mux_session_resets > 0
        assert active.withdrawal_losses > 0
        assert active.retry.retries_by_site.get("peering/testbed", 0) > 0
        assert "peering/testbed" not in results.robustness.retry.retries_by_site

    def test_mux_reset_plan_completes(self):
        """Resets drawn per announcement retry and quarantine; they never
        escape the study."""
        config = build_study_config(0, "small")
        config.fault_plan = FaultPlan(seed=63, rates={FaultSite.MUX_RESET: 0.3})
        results = Study(config).run()  # must not raise
        report = results.active_robustness
        assert report.accounted()
        assert report.mux_session_resets > 0

    def test_study_completes_with_accounted_active_report(self, faulted_study):
        _config, _run_dir, results = faulted_study
        report = results.active_robustness
        assert report is not None
        assert report.accounted()
        assert report.total_targets > 0
        assert report.magnet_rounds > 0
        # The headline analyses still exist on partial active data.
        assert results.preference_summary is not None
        assert results.discovery is not None
        assert results.magnet_table is not None

    def test_section_44_report_accounts_for_censoring(self, faulted_study):
        _config, _run_dir, results = faulted_study
        report = alternate_routes.run(results)
        rendered = report.render()
        summary = results.preference_summary
        if summary.censored or summary.censored_uninformative:
            assert "censored partial orders graded" in rendered

    def test_study_resume_restores_active_phase(self, faulted_study):
        config, run_dir, first = faulted_study
        assert os.path.exists(os.path.join(run_dir, "active.jsonl"))
        resumed_config = StudyConfig(**{**vars(config), "resume": True})
        resumed = Study(resumed_config).run()
        report = resumed.active_robustness
        assert report.accounted()
        # Every unit came back from the journal, none were re-announced.
        assert report.resumed_targets == report.total_targets
        assert report.resumed_magnet_rounds == report.magnet_rounds
        assert report.announcements == 0
        assert (
            resumed.discovery.observations == first.discovery.observations
        )
        assert resumed.preference_summary == first.preference_summary
        assert [
            obs.anycast_routes for obs in resumed.magnet_observations
        ] == [obs.anycast_routes for obs in first.magnet_observations]
