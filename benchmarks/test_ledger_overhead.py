"""Durability overhead gate: per-append fsync costs < 5% of a campaign.

Measured on the quick study (``quick_study``, the ``repro study
--small`` scenario), without the ``--benchmark-only`` flag, which
would skip it::

    python -m pytest benchmarks/test_ledger_overhead.py -q -s
"""

import os
import shutil
import tempfile
import time

import pytest

from repro.atlas import dump_measurements
from repro.atlas.campaign import CampaignConfig, run_campaign
from repro.experiments.scenario import quick_study
from repro.faults import CheckpointJournal
from repro.faults.storage import DURABILITY_FSYNC, DURABILITY_NONE, StoragePolicy

pytestmark = pytest.mark.bench

#: Largest accepted cost of fsync durability, in percent of the campaign.
BOUND_PCT = 5.0
#: Rounds of each timed leg (campaigns and replays); each keeps its best.
REPEATS = 5


def ledger_durability_overhead(study, repeats: int) -> dict:
    """Cost of full durability (per-append fsync) on a journaled campaign.

    Two measurements compose the overhead figure.  First, two full
    campaign legs journal every pair to a throwaway run directory
    under ``durability=none`` and ``durability=fsync`` (the ledger
    default: per-record flush, group-committed fsync every
    ``fsync_interval`` records and on close) — these prove the outputs
    identical and time the campaign baseline.  Second, the exact
    record stream the campaign journaled is replayed through fresh
    journals under both policies, timing just the appends; the replay
    delta is the I/O the durability policy actually adds.  The
    reported ``overhead_pct`` is that delta relative to the campaign
    baseline — campaign wall time on a loaded CI box jitters by more
    than the whole durability cost, so timing the added I/O directly
    is the only way the gate measures policy, not scheduler noise.
    """
    internet = study.internet
    probes = study.selected_probes
    # The pipeline's campaign stage uses seed + 5 (see Study.run).
    campaign_seed = study.config.seed + 5

    def run_leg(durability: str):
        tmp = tempfile.mkdtemp(prefix="bench-ledger-")
        try:
            path = os.path.join(tmp, "campaign.jsonl")
            start = time.perf_counter()
            dataset = run_campaign(
                internet,
                probes,
                CampaignConfig(
                    seed=campaign_seed,
                    missing_hop_rate=study.config.missing_hop_rate,
                    checkpoint_path=path,
                    storage=StoragePolicy(durability=durability),
                ),
            )
            elapsed = time.perf_counter() - start
            _header, records = CheckpointJournal(path).load()
            return elapsed, dataset, records
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def replay(records, durability: str) -> float:
        tmp = tempfile.mkdtemp(prefix="bench-ledger-")
        try:
            journal = CheckpointJournal(
                os.path.join(tmp, "campaign.jsonl"),
                storage=StoragePolicy(durability=durability),
            )
            start = time.perf_counter()
            with journal:
                for record in records:
                    journal.append(record)
            return time.perf_counter() - start
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    campaign_s = float("inf")
    none_dataset = fsync_dataset = None
    records: list = []
    for _ in range(repeats):
        elapsed, none_dataset, records = run_leg(DURABILITY_NONE)
        campaign_s = min(campaign_s, elapsed)
        elapsed, fsync_dataset, _records = run_leg(DURABILITY_FSYNC)
        campaign_s = min(campaign_s, elapsed)
    identical = dump_measurements(none_dataset.measurements) == dump_measurements(
        fsync_dataset.measurements
    )

    append_none_s = append_fsync_s = float("inf")
    for _ in range(repeats):
        append_none_s = min(append_none_s, replay(records, DURABILITY_NONE))
        append_fsync_s = min(append_fsync_s, replay(records, DURABILITY_FSYNC))
    added_s = max(0.0, append_fsync_s - append_none_s)
    return {
        "journaled_pairs": none_dataset.robustness.total_pairs,
        "campaign_seconds": campaign_s,
        "append_none_seconds": append_none_s,
        "append_fsync_seconds": append_fsync_s,
        "added_seconds": added_s,
        "overhead_pct": round(added_s / campaign_s * 100.0, 2),
        "results_identical": identical,
    }


def test_fsync_durability_overhead_within_bound():
    ledger = ledger_durability_overhead(quick_study(), repeats=REPEATS)
    print()
    print(
        f"ledger durability (fsync vs none): appends "
        f"{ledger['append_none_seconds']:.4f}s -> "
        f"{ledger['append_fsync_seconds']:.4f}s, "
        f"+{ledger['added_seconds']:.4f}s on a "
        f"{ledger['campaign_seconds']:.3f}s campaign "
        f"({ledger['overhead_pct']:+.1f}%, "
        f"{ledger['journaled_pairs']} journaled pairs)"
    )
    assert ledger["results_identical"], (
        "fsync-durable campaign disagrees with the baseline"
    )
    assert ledger["overhead_pct"] <= BOUND_PCT, (
        f"durability overhead {ledger['overhead_pct']}% exceeds "
        f"{BOUND_PCT}% budget"
    )
