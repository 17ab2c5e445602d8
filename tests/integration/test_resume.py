"""Integration tests: kill-mid-run + resume, and Study.run under faults.

These are the acceptance tests for the resilience work: a campaign
killed mid-run and resumed from its checkpoint must produce the same
final measurement set as an uninterrupted run with the same seed,
without measuring a journaled pair again; and a full ``Study.run`` under
a non-trivial fault plan must complete without raising, with a
``RobustnessReport`` whose accounting balances.
"""

import pytest

from repro.atlas import (
    CampaignConfig,
    dump_measurements,
    generate_probes,
    run_campaign,
)
from repro.core.pipeline import Study, StudyConfig
from repro.faults import (
    CampaignInterrupted,
    CheckpointJournal,
    FaultPlan,
    FaultSite,
)
from repro.topogen import generate_internet
from repro.topogen.config import small_config

pytestmark = pytest.mark.faults

PLAN = FaultPlan(
    seed=11,
    rates={
        FaultSite.PROBE_DROPOUT: 0.05,
        FaultSite.PROBE_FLAP: 0.08,
        FaultSite.DNS_SERVFAIL: 0.04,
        FaultSite.DNS_TIMEOUT: 0.08,
        FaultSite.TRACEROUTE_TRUNCATE: 0.04,
        FaultSite.TRACEROUTE_LOOP: 0.03,
        FaultSite.TRACEROUTE_GARBLE: 0.04,
        FaultSite.API_RATE_LIMIT: 0.08,
        FaultSite.API_SERVER_ERROR: 0.04,
    },
)


@pytest.fixture(scope="module")
def world():
    internet = generate_internet(small_config(), seed=31)
    probes = generate_probes(internet, count=20, seed=31)
    return internet, probes


class TestKillAndResume:
    def test_resume_matches_uninterrupted_without_double_spend(
        self, world, tmp_path
    ):
        internet, probes = world
        journal_path = str(tmp_path / "campaign.jsonl")

        # Reference: uninterrupted run, no checkpointing.
        reference = run_campaign(
            internet, probes, CampaignConfig(seed=6, fault_plan=PLAN)
        )
        assert len(reference.measurements) > 40

        # First attempt: killed after 25 finalized pairs.
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_campaign(
                internet,
                probes,
                CampaignConfig(
                    seed=6,
                    fault_plan=PLAN,
                    checkpoint_path=journal_path,
                    abort_after=25,
                ),
            )
        assert excinfo.value.completed_pairs == 25

        # Simulate a torn write at the kill point.
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "pair", "probe": 1, "na')

        # Resume: skips journaled pairs, finishes the rest.
        resumed = run_campaign(
            internet,
            probes,
            CampaignConfig(
                seed=6,
                fault_plan=PLAN,
                checkpoint_path=journal_path,
                resume=True,
            ),
        )

        assert dump_measurements(resumed.measurements) == dump_measurements(
            reference.measurements
        )
        # Disposition accounting is identical; only the retry effort and
        # replay counters differ (the resumed run skipped 25 pairs' work).
        skip = {"retry", "resumed_pairs"}
        resumed_view = {
            k: v for k, v in resumed.robustness.as_dict().items() if k not in skip
        }
        reference_view = {
            k: v for k, v in reference.robustness.as_dict().items() if k not in skip
        }
        assert resumed_view == reference_view
        # Replay count proves resumption actually skipped journaled work
        # (the reference run replayed nothing): no pair is measured twice.
        assert resumed.robustness.resumed_pairs == 25
        assert reference.robustness.resumed_pairs == 0

    def test_replayed_pairs_keep_their_ground_truth_path(self, world, tmp_path):
        """The journal carries no ground-truth path, yet every resumed
        measurement has the uninterrupted run's (``dump_measurements``
        omits the field)."""
        internet, probes = world
        journal_path = str(tmp_path / "campaign.jsonl")
        reference = run_campaign(internet, probes, CampaignConfig(seed=6))
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                internet,
                probes,
                CampaignConfig(seed=6, checkpoint_path=journal_path, abort_after=25),
            )
        resumed = run_campaign(
            internet,
            probes,
            CampaignConfig(seed=6, checkpoint_path=journal_path, resume=True),
        )
        assert resumed.robustness.resumed_pairs == 25
        truth = [m.traceroute.truth_as_path for m in resumed.measurements]
        assert truth == [m.traceroute.truth_as_path for m in reference.measurements]
        assert all(truth)

    def test_run_without_resume_starts_a_fresh_journal(self, world, tmp_path):
        internet, probes = world
        journal_path = str(tmp_path / "campaign.jsonl")
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                internet,
                probes,
                CampaignConfig(
                    seed=6, fault_plan=PLAN, checkpoint_path=journal_path,
                    abort_after=5,
                ),
            )
        other_plan = FaultPlan(seed=99, rates={FaultSite.DNS_TIMEOUT: 0.5})
        fresh = run_campaign(
            internet,
            probes,
            CampaignConfig(
                seed=6, fault_plan=other_plan, checkpoint_path=journal_path
            ),
        )
        header, records = CheckpointJournal(journal_path).load()
        assert header["plan_fingerprint"] == other_plan.fingerprint()
        assert len(records) == fresh.robustness.total_pairs

        # The journal is the new plan's, so resuming under it is accepted.
        resumed = run_campaign(
            internet,
            probes,
            CampaignConfig(
                seed=6,
                fault_plan=other_plan,
                checkpoint_path=journal_path,
                resume=True,
            ),
        )
        assert resumed.robustness.resumed_pairs == fresh.robustness.total_pairs
        assert dump_measurements(resumed.measurements) == dump_measurements(
            fresh.measurements
        )

    def test_resume_with_wrong_plan_rejected(self, world, tmp_path):
        internet, probes = world
        journal_path = str(tmp_path / "campaign.jsonl")
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                internet,
                probes,
                CampaignConfig(
                    seed=6,
                    fault_plan=PLAN,
                    checkpoint_path=journal_path,
                    abort_after=5,
                ),
            )
        other_plan = FaultPlan(seed=99, rates={FaultSite.DNS_TIMEOUT: 0.5})
        with pytest.raises(ValueError, match="refusing to resume"):
            run_campaign(
                internet,
                probes,
                CampaignConfig(
                    seed=6,
                    fault_plan=other_plan,
                    checkpoint_path=journal_path,
                    resume=True,
                ),
            )

    def test_journal_records_every_disposition(self, world, tmp_path):
        internet, probes = world
        journal_path = str(tmp_path / "campaign.jsonl")
        dataset = run_campaign(
            internet,
            probes,
            CampaignConfig(
                seed=6, fault_plan=PLAN, checkpoint_path=journal_path
            ),
        )
        report = dataset.robustness
        _header, records = CheckpointJournal(journal_path).load()
        statuses = [r["status"] for r in records]
        # Every accounted pair was finalized exactly once into the journal.
        assert len(records) == report.total_pairs
        assert statuses.count("completed") == report.completed
        assert statuses.count("degraded") == report.degraded_total()
        assert statuses.count("quarantined") == report.quarantined_total()
        assert statuses.count("lost") == report.lost_total()


class TestStudyUnderFaults:
    def test_study_completes_with_accounted_report(self):
        config = StudyConfig(
            seed=13,
            topology=small_config(),
            num_probes=300,
            probes_per_continent=20,
            active_vp_budget=40,
            max_discovery_targets=20,
            fault_plan=PLAN,
        )
        results = Study(config).run()  # must not raise
        report = results.robustness
        assert report.accounted()
        assert report.completed > 0
        assert 0.0 < report.coverage() <= 1.0
        # The study still produces its headline artifacts on partial data.
        assert results.figure1
        assert results.decisions

    def test_study_fault_free_total_matches_clean_run(self):
        small = dict(
            topology=small_config(),
            num_probes=300,
            probes_per_continent=20,
            active_vp_budget=40,
            max_discovery_targets=20,
        )
        faulted = Study(StudyConfig(seed=13, fault_plan=PLAN, **small)).run()
        clean = Study(StudyConfig(seed=13, **small)).run()
        assert (
            faulted.robustness.total_pairs
            == clean.robustness.total_pairs
            == clean.robustness.completed
        )
