"""Golden gate for the bytes a study's journals hold.

``tests/golden/journals_small_seed0.json`` holds the size and sha256
of the three journals of ``build_study_config(0, "small")`` run in a
run directory: ``campaign.jsonl`` and ``active.jsonl`` from
``Study.run``, and ``temporal.jsonl`` from ``run_incremental`` over the
study's own snapshots.  A journal record carries a campaign pair's
traceroute document (hop addresses as text, RTT floats), an active
unit's outcome and an epoch's Figure-1 counts, so the bytes pin what
the campaign, the active phase and the series compute as well as
how they write it.

Re-bless (only for an intentional change, recorded in CHANGES.md)::

    PYTHONPATH=src python -m tests.integration.test_journal_bytes
"""

import dataclasses
import hashlib
import json
import os
from typing import Dict

import pytest

from repro.core.pipeline import Study, build_study_config
from repro.faults.ledger import ACTIVE_JOURNAL, CAMPAIGN_JOURNAL, TEMPORAL_JOURNAL
from repro.temporal import TemporalInputs, run_incremental

pytestmark = pytest.mark.golden

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
GOLDEN_PATH = os.path.join(REPO_ROOT, "tests", "golden", "journals_small_seed0.json")
JOURNALS = (CAMPAIGN_JOURNAL, ACTIVE_JOURNAL, TEMPORAL_JOURNAL)


def journal_digests(run_dir: str) -> Dict[str, Dict[str, object]]:
    """Run the small seed-0 study and its series into ``run_dir``; the
    size and sha256 of each journal written there."""
    config = dataclasses.replace(build_study_config(0, "small"), run_dir=run_dir)
    results = Study(config).run()
    run_incremental(
        results.snapshots,
        TemporalInputs.from_study(results),
        journal_path=os.path.join(run_dir, TEMPORAL_JOURNAL),
    )
    digests = {}
    for name in JOURNALS:
        with open(os.path.join(run_dir, name), "rb") as handle:
            data = handle.read()
        digests[name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return digests


def test_journal_bytes_match_golden(tmp_path):
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        blessed = json.load(handle)
    assert journal_digests(os.fspath(tmp_path / "run")) == blessed


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = journal_digests(os.path.join(scratch, "run"))
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"blessed {len(digests)} journals into {GOLDEN_PATH}")
