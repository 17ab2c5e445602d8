"""Golden gate for the longitudinal Figure-1 series.

``tests/golden/temporal_small_seed0/`` holds the per-epoch Figure-1
counts of the small seed-0 study graded over a 12-snapshot series at
the default churn, one ``serialize_epoch(epoch_snapshot(...))`` file
per epoch.  :func:`run_incremental` must reproduce every file byte for
byte, both straight through and when resumed from a journal that a
crash tore in the middle of the series.

Re-bless (only for an intentional change, recorded in CHANGES.md)::

    PYTHONPATH=src python -m tests.temporal.test_golden_series
"""

import dataclasses
import os

import pytest

from repro.temporal.study import (
    TemporalInputs,
    epoch_snapshot,
    run_incremental,
    serialize_epoch,
)
from repro.topogen.generator import generate_internet
from repro.topogen.inference import inferred_snapshots

pytestmark = pytest.mark.temporal

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
GOLDEN_DIR = os.path.join(REPO_ROOT, "tests", "golden", "temporal_small_seed0")
SNAPSHOTS = 12


def golden_series_inputs(study):
    """The 12-snapshot series of the study's own (freshly generated)
    world at its configured churn, plus the study's temporal inputs."""
    world = generate_internet(study.config.topology, seed=study.config.seed)
    inference = dataclasses.replace(study.config.inference, num_snapshots=SNAPSHOTS)
    snapshots, _known = inferred_snapshots(world, inference, seed=study.config.seed + 1)
    return snapshots, TemporalInputs.from_study(study)


def epoch_bytes(series):
    return [
        serialize_epoch(epoch_snapshot(index, figure1))
        for index, figure1 in enumerate(series)
    ]


def golden_path(index: int) -> str:
    return os.path.join(GOLDEN_DIR, f"epoch_{index:02d}.json")


def blessed_bytes():
    blessed = []
    for index in range(SNAPSHOTS):
        with open(golden_path(index), "r", encoding="utf-8") as handle:
            blessed.append(handle.read())
    return blessed


@pytest.fixture(scope="module")
def golden_inputs(study):
    return golden_series_inputs(study)


def test_series_matches_golden(golden_inputs):
    snapshots, inputs = golden_inputs
    results = run_incremental(snapshots, inputs)
    assert epoch_bytes(results.figure1_series()) == blessed_bytes()


def test_resume_from_torn_journal_matches_golden(golden_inputs, tmp_path):
    snapshots, inputs = golden_inputs
    journal_path = os.fspath(tmp_path / "temporal.jsonl")
    run_incremental(snapshots, inputs, journal_path=journal_path)

    # A crash mid-append: keep the header and six whole epoch records,
    # then half of the seventh.
    with open(journal_path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    assert len(lines) == 1 + SNAPSHOTS
    torn = b"".join(lines[:7]) + lines[7][: len(lines[7]) // 2]
    with open(journal_path, "wb") as handle:
        handle.write(torn)

    resumed = run_incremental(snapshots, inputs, journal_path=journal_path, resume=True)
    assert resumed.resumed_epochs == 6
    assert [epoch.resumed for epoch in resumed.epochs] == [True] * 6 + [False] * 6
    assert epoch_bytes(resumed.figure1_series()) == blessed_bytes()


if __name__ == "__main__":
    from repro.experiments.scenario import quick_study

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    snapshots, inputs = golden_series_inputs(quick_study(0))
    series = run_incremental(snapshots, inputs).figure1_series()
    for index, text in enumerate(epoch_bytes(series)):
        with open(golden_path(index), "w", encoding="utf-8") as handle:
            handle.write(text)
    print(f"blessed {SNAPSHOTS} epochs into {GOLDEN_DIR}")
