"""Integration tests: the durable run ledger under filesystem chaos.

The acceptance property for the storage layer: a ``repro study
--run-dir`` killed by injected filesystem faults (torn appends, ENOSPC,
crash-before-rename, stale locks) and resumed — as many times as it
takes — produces byte-identical outputs to a plain run of the same
study, and leaves a completed, unlocked run directory behind.  More
generally, options that change only how a study persists (a run
directory, its durability, a no-op fault plan) never change what it
computes.
"""

import dataclasses
import json
import os

import pytest

from repro.atlas import dump_measurements
from repro.check.golden import serialize, snapshot_study
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


def _plain_config(seed=21):
    return StudyConfig(
        seed=seed,
        topology=small_config(),
        num_probes=100,
        probes_per_continent=8,
        active_vp_budget=24,
        max_discovery_targets=8,
    )


def _config(run_dir=None, resume=False, seed=21):
    return dataclasses.replace(
        _plain_config(seed),
        fault_plan=PLAN,
        durability="flush",
        run_dir=run_dir,
        resume=resume,
    )


@pytest.fixture(scope="module")
def chaos_outcome(tmp_path_factory):
    """One plain reference run plus one chaos run resumed to completion."""
    run_dir = str(tmp_path_factory.mktemp("ledger") / "run")
    fresh = Study(_plain_config()).run()
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


def _tiny_config(**persistence):
    return StudyConfig(
        seed=1,
        topology=small_config(),
        num_probes=100,
        probes_per_continent=8,
        max_discovery_targets=2,
        num_muxes=2,
        active_vp_budget=8,
        **persistence,
    )


@pytest.fixture(scope="module")
def tiny_plain_snapshot():
    return serialize(snapshot_study(Study(_tiny_config()).run()))


class TestPersistenceInvariance:
    @pytest.mark.parametrize(
        "durability, fault_plan",
        [("fsync", None), ("flush", None), ("none", None), (None, FaultPlan.none(1))],
        ids=["run-dir-fsync", "run-dir-flush", "run-dir-none", "none-plan"],
    )
    def test_snapshot_matches_plain_study(
        self, durability, fault_plan, tiny_plain_snapshot, tmp_path
    ):
        run_dir = None if durability is None else os.fspath(tmp_path / "run")
        config = _tiny_config(
            run_dir=run_dir, durability=durability, fault_plan=fault_plan
        )
        assert serialize(snapshot_study(Study(config).run())) == tiny_plain_snapshot

    def test_resume_without_run_dir_refused(self):
        with pytest.raises(ValueError, match="run_dir"):
            Study(_tiny_config(resume=True)).run()
