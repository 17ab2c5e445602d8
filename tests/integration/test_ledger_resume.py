"""Integration tests: the durable run ledger under filesystem chaos.

The acceptance property for the storage layer: a ``repro study
--run-dir`` killed by injected filesystem faults (torn appends, ENOSPC,
crash-before-rename, stale locks) and resumed — as many times as it
takes — produces byte-identical outputs to an uninterrupted run of the
same configuration, and leaves a completed, unlocked run directory
behind.
"""

import json
import os

import pytest

from repro.atlas import dump_measurements
from repro.core.pipeline import Study, StudyConfig
from repro.faults import CampaignInterrupted, FaultPlan, FaultSite, RunLedger
from repro.faults.storage import LockHeldError
from repro.topogen.config import small_config

pytestmark = pytest.mark.faults

#: Storage-only chaos: crashes the run but never alters its outputs,
#: so the chaos run is byte-comparable to a fresh reference.
PLAN = FaultPlan(
    seed=5,
    rates={
        FaultSite.STORAGE_TORN_APPEND: 0.004,
        FaultSite.STORAGE_ENOSPC: 0.002,
        FaultSite.STORAGE_RENAME_CRASH: 0.05,
        FaultSite.STORAGE_STALE_LOCK: 0.3,
    },
)

MAX_ATTEMPTS = 25


def _config(run_dir=None, resume=False, seed=21):
    return StudyConfig(
        seed=seed,
        topology=small_config(),
        num_probes=100,
        probes_per_continent=8,
        active_vp_budget=24,
        max_discovery_targets=8,
        fault_plan=PLAN,
        durability="flush",
        run_dir=run_dir,
        resume=resume,
    )


@pytest.fixture(scope="module")
def chaos_outcome(tmp_path_factory):
    """One fresh reference run plus one chaos run resumed to completion."""
    run_dir = str(tmp_path_factory.mktemp("ledger") / "run")
    # The reference carries the same (storage-only) fault plan so both
    # runs take the resilient-campaign code path; without a run
    # directory there are no journals, so no storage fault ever fires.
    fresh = Study(_config()).run()
    crashes = 0
    results = None
    for attempt in range(MAX_ATTEMPTS):
        config = _config(run_dir=run_dir, resume=attempt > 0)
        try:
            results = Study(config).run()
            break
        except (CampaignInterrupted, OSError):
            crashes += 1
    return fresh, results, crashes, run_dir


class TestChaosResume:
    def test_completes_after_injected_crashes(self, chaos_outcome):
        _fresh, results, crashes, _run_dir = chaos_outcome
        assert results is not None, f"never completed in {MAX_ATTEMPTS} attempts"
        # The drill is vacuous unless at least one injected crash fired.
        assert crashes >= 1

    def test_outputs_byte_identical_to_fresh_run(self, chaos_outcome):
        fresh, results, _crashes, _run_dir = chaos_outcome
        assert dump_measurements(results.dataset.measurements) == dump_measurements(
            fresh.dataset.measurements
        )
        assert results.figure1_counts() == fresh.figure1_counts()
        assert len(results.decisions) == len(fresh.decisions)
        assert len(results.psp_cases_1) == len(fresh.psp_cases_1)
        assert len(results.psp_cases_2) == len(fresh.psp_cases_2)

    def test_run_directory_layout(self, chaos_outcome):
        _fresh, _results, crashes, run_dir = chaos_outcome
        document = RunLedger.read(run_dir)
        assert document["status"] == "completed"
        assert document["schema"] == 1
        assert document["runs"] == crashes + 1
        assert document["generation"] == crashes + 1
        assert set(document["fingerprints"]) == {"config", "fault_plan", "graph"}
        for journal in ("campaign.jsonl", "active.jsonl"):
            assert os.path.exists(os.path.join(run_dir, journal)), journal
        assert not os.path.exists(os.path.join(run_dir, ".lock"))

    def test_reopening_completed_dir_without_resume_refused(self, chaos_outcome):
        _fresh, _results, _crashes, run_dir = chaos_outcome
        with pytest.raises(ValueError, match="--resume"):
            Study(_config(run_dir=run_dir)).run()
        assert not os.path.exists(os.path.join(run_dir, ".lock"))

    def test_resume_with_different_config_refused(self, chaos_outcome):
        _fresh, _results, _crashes, run_dir = chaos_outcome
        with pytest.raises(ValueError, match="different study configuration"):
            Study(_config(run_dir=run_dir, resume=True, seed=22)).run()

    def test_resume_under_live_foreign_lock_refused(self, chaos_outcome):
        _fresh, _results, _crashes, run_dir = chaos_outcome
        lock_path = os.path.join(run_dir, ".lock")
        with open(lock_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"pid": 1}))  # init: alive, not us
        try:
            with pytest.raises(LockHeldError):
                Study(_config(run_dir=run_dir, resume=True)).run()
        finally:
            os.unlink(lock_path)
