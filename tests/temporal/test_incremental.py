"""The longitudinal series against a per-snapshot reference, and resume.

Every epoch ``run_incremental`` emits must equal grading that snapshot
alone through the per-decision reference path
(:func:`~repro.core.classification.classify_decisions_serial` on fresh
engines), including a churnier series, total churn and a zero-diff
epoch; a journal-backed resume must continue into the identical series.
"""

import json
import os
import weakref

import pytest

from repro.core.classification import classify_decisions_serial
from repro.core.gao_rexford import GaoRexfordEngine
from repro.core.hotpath import csr as csr_module
from repro.core.pipeline import figure1_layer_configs
from repro.faults.journal import KIND_EPOCH, CheckpointJournal
from repro.temporal import study as study_module
from repro.temporal.study import (
    TemporalInputs,
    _counts_dict,
    epoch_snapshot,
    run_incremental,
    serialize_epoch,
    series_fingerprint,
)
from repro.topogen.inference import InferenceConfig, inferred_snapshots

pytestmark = pytest.mark.temporal


@pytest.fixture(scope="module")
def series(study):
    return study.snapshots


def _epoch_bytes(series):
    return [
        serialize_epoch(epoch_snapshot(index, figure1))
        for index, figure1 in enumerate(series)
    ]


def _serial_restudy(snapshots, inputs):
    """Each snapshot graded alone, decision by decision, on cold engines."""
    series = []
    for snapshot in snapshots:
        layers = figure1_layer_configs(
            GaoRexfordEngine(snapshot),
            GaoRexfordEngine(snapshot, partial_transit=inputs.partial_transit),
            known_complex=inputs.known_complex,
            siblings=inputs.siblings,
            first_hops_1=inputs.first_hops_1,
            first_hops_2=inputs.first_hops_2,
        )
        figure1 = {
            name: classify_decisions_serial(
                inputs.decisions,
                layer.engine,
                first_hops_for=layer.first_hops_for,
                complex_rel=layer.complex_rel,
                siblings=layer.siblings,
            )
            for name, layer in layers.items()
        }
        series.append(_counts_dict(figure1))
    return series


class TestSeriesMatchesPerSnapshotReference:
    def test_study_series_byte_identical(self, study, series):
        inputs = TemporalInputs.from_study(study)
        results = run_incremental(series, inputs)
        assert _epoch_bytes(results.figure1_series()) == _epoch_bytes(
            _serial_restudy(series, inputs)
        )

    def test_total_churn_series(self, study):
        """100% churn: every epoch still equals its own restudy."""
        inference = InferenceConfig(num_snapshots=3, snapshot_churn=1.0)
        snapshots, _known = inferred_snapshots(
            study.internet, inference, seed=study.config.seed + 1
        )
        inputs = TemporalInputs.from_study(study)
        results = run_incremental(snapshots, inputs)
        assert results.figure1_series() == _serial_restudy(snapshots, inputs)
        for epoch in results.epochs[1:]:
            assert sum(epoch.delta.values()) > 0

    def test_zero_diff_epoch_repeats_counts(self, study, series):
        """An identical consecutive snapshot reports no churn and the
        same counts as the epoch before it."""
        doubled = [series[0], series[0].copy(), series[1]]
        results = run_incremental(doubled, TemporalInputs.from_study(study))
        zero = results.epochs[1]
        assert sum(zero.delta.values()) == 0
        assert zero.figure1 == results.epochs[0].figure1
        assert zero.cache_misses == results.epochs[0].cache_misses > 0


class TestOneCompiledTopologyAtATime:
    def test_each_epoch_releases_its_compiled_topology(
        self, study, series, monkeypatch
    ):
        """Grading an epoch releases the epoch before it's compiled
        topology: no snapshot graph keeps its compilation, and the
        memoized arena keeps per-topology rows for one topology only.
        The Figure-1 counts are the per-snapshot reference's."""
        assert len(series) >= 3
        compiled = []

        class Recorded(csr_module.CSRTopology):
            def __init__(self, graph):
                super().__init__(graph)
                compiled.append(weakref.ref(self))

        alive = []
        grade = study_module._grade_snapshot

        def graded(snapshot, inputs):
            result = grade(snapshot, inputs)
            alive.append([ref() is not None for ref in compiled])
            return result

        monkeypatch.setattr(csr_module, "CSRTopology", Recorded)
        monkeypatch.setattr(study_module, "_grade_snapshot", graded)
        inputs = TemporalInputs.from_study(study)
        results = run_incremental(series, inputs)
        # One compilation per epoch, and after each epoch only its own
        # is alive, without a cyclic collection.
        assert alive == [
            [False] * index + [True] for index in range(len(series))
        ]
        for snapshot in series:
            for value in vars(snapshot).values():
                held = value if isinstance(value, tuple) else (value,)
                assert not any(isinstance(item, Recorded) for item in held)
        assert results.figure1_series() == _serial_restudy(series, inputs)


class TestJournalResume:
    def test_resume_replays_prefix_and_matches_uninterrupted(
        self, study, series, tmp_path
    ):
        inputs = TemporalInputs.from_study(study)
        journal_path = os.fspath(tmp_path / "temporal.jsonl")
        full = run_incremental(series, inputs, journal_path=journal_path)
        assert full.resumed_epochs == 0

        # Truncate the journal to its first three epochs, as a crash
        # between epochs would leave it.
        journal = CheckpointJournal(journal_path, record_kind=KIND_EPOCH)
        header, records = journal.load()
        assert header["fingerprint"] == series_fingerprint(series, inputs)
        assert len(records) == len(series)
        truncated = CheckpointJournal(journal_path, record_kind=KIND_EPOCH)
        os.remove(journal_path)
        truncated.open_append()
        truncated.write_header(header)
        for record in records[:3]:
            truncated.append(record)
        truncated.close()

        resumed = run_incremental(
            series, inputs, journal_path=journal_path, resume=True
        )
        assert resumed.resumed_epochs == 3
        assert [epoch.resumed for epoch in resumed.epochs] == [
            True,
            True,
            True,
            False,
            False,
        ]
        assert _epoch_bytes(resumed.figure1_series()) == _epoch_bytes(
            full.figure1_series()
        )
        # The journal is whole again after the resumed run.
        _header, completed = CheckpointJournal(
            journal_path, record_kind=KIND_EPOCH
        ).load()
        assert len(completed) == len(series)

    def test_resume_refuses_foreign_series(self, study, series, tmp_path):
        inputs = TemporalInputs.from_study(study)
        journal_path = os.fspath(tmp_path / "temporal.jsonl")
        run_incremental(series, inputs, journal_path=journal_path)
        inference = InferenceConfig(num_snapshots=len(series), snapshot_churn=0.3)
        other, _known = inferred_snapshots(study.internet, inference, seed=99)
        with pytest.raises(ValueError, match="refusing to resume"):
            run_incremental(
                other, inputs, journal_path=journal_path, resume=True
            )

    def test_journal_records_are_json_lines(self, study, series, tmp_path):
        inputs = TemporalInputs.from_study(study)
        journal_path = os.fspath(tmp_path / "temporal.jsonl")
        results = run_incremental(series, inputs, journal_path=journal_path)
        _header, records = CheckpointJournal(
            journal_path, record_kind=KIND_EPOCH
        ).load()
        for record, epoch in zip(records, results.epochs):
            assert record["epoch"] == epoch.index
            assert record["figure1"] == epoch.figure1
            json.dumps(record)  # every record is JSON-serializable
