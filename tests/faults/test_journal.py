"""Tests for the append-only checkpoint journal and its journaled units."""

import json

import pytest

from repro.faults import (
    CampaignInterrupted,
    CheckpointJournal,
    JournalCorrupted,
    JournaledUnits,
    pair_key,
)
from repro.faults.journal import KIND_EPOCH

pytestmark = pytest.mark.faults


def _record(probe, name, **extra):
    record = {"probe": probe, "name": name, "status": "completed", "charged": 70}
    record.update(extra)
    return record


class TestRoundtrip:
    def test_append_and_load(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        with CheckpointJournal(path) as journal:
            journal.write_header({"campaign_seed": 1, "plan_fingerprint": "abc"})
            journal.append(_record(1, "cdn-a.example"))
            journal.append(_record(1, "cdn-b.example"))
        header, records = CheckpointJournal(path).load()
        assert header["campaign_seed"] == 1
        assert header["plan_fingerprint"] == "abc"
        assert [pair_key(r) for r in records] == [
            (1, "cdn-a.example"),
            (1, "cdn-b.example"),
        ]

    def test_missing_file_is_empty(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "nope.jsonl"))
        assert journal.load() == (None, [])
        assert not journal.exists()

    def test_append_after_load_preserves_existing(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        with CheckpointJournal(path) as journal:
            journal.append(_record(1, "a"))
        with CheckpointJournal(path) as journal:
            journal.append(_record(2, "b"))
        _header, records = CheckpointJournal(path).load()
        assert len(records) == 2


class TestTornLines:
    def test_torn_trailing_line_dropped(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        with CheckpointJournal(path) as journal:
            journal.append(_record(1, "a"))
            journal.append(_record(1, "b"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"probe": 1, "name": "c", "stat')  # torn write
        journal = CheckpointJournal(path)
        _header, records = journal.load()
        assert [pair_key(r) for r in records] == [(1, "a"), (1, "b")]
        assert journal.torn_lines == 1

    def test_multiple_torn_tail_lines_dropped(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        with CheckpointJournal(path) as journal:
            journal.append(_record(1, "a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"half"')
        journal = CheckpointJournal(path)
        _header, records = journal.load()
        assert len(records) == 1
        assert journal.torn_lines == 2

    def test_interior_corruption_raises(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(_record(1, "a")) + "\n")
            handle.write("corrupted line\n")
            handle.write(json.dumps(_record(1, "b")) + "\n")
        with pytest.raises(JournalCorrupted):
            CheckpointJournal(path).load()

    def test_torn_tail_truncated_before_append(self, tmp_path):
        """Regression: reopening a torn journal for append used to leave
        the partial line in place, so the next append glued onto it and
        produced an unparseable *interior* line on the following load."""
        path = str(tmp_path / "campaign.jsonl")
        with CheckpointJournal(path) as journal:
            journal.append(_record(1, "a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"probe": 1, "name": "b", "stat')  # torn write
        with CheckpointJournal(path) as journal:
            journal.append(_record(1, "c"))
        journal = CheckpointJournal(path)
        _header, records = journal.load()  # must not raise JournalCorrupted
        assert [pair_key(r) for r in records] == [(1, "a"), (1, "c")]
        assert journal.torn_lines == 0  # the tear was repaired, not kept

    def test_torn_tail_physically_removed(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        with CheckpointJournal(path) as journal:
            journal.append(_record(1, "a"))
        clean_size = len(open(path, "rb").read())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage with no newline")
        journal = CheckpointJournal(path)
        journal.open_append()  # repair happens on reopen
        journal.close()
        assert len(open(path, "rb").read()) == clean_size

    def test_unterminated_final_line_treated_as_torn(self, tmp_path):
        # Even a line that *parses* is torn if it lacks its newline: the
        # write may have stopped mid-payload at a point that happens to
        # be valid JSON.  Only a terminated line is trusted.
        path = str(tmp_path / "campaign.jsonl")
        with CheckpointJournal(path) as journal:
            journal.append(_record(1, "a"))
        with open(path, "rb+") as handle:
            handle.seek(0, 2)
            size = handle.tell()
            handle.truncate(size - 1)  # strip the trailing newline
        journal = CheckpointJournal(path)
        _header, records = journal.load()
        assert records == []
        assert journal.torn_lines == 1

    def test_pair_record_without_key_raises(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "pair", "status": "completed"}) + "\n")
            handle.write(json.dumps(_record(1, "b", kind="pair")) + "\n")
        with pytest.raises(JournalCorrupted):
            CheckpointJournal(path).load()


class TestJournaledUnits:
    HEADER = {"campaign_seed": 1, "plan_fingerprint": "abc"}

    def _units(self, path, header=None, **kwargs):
        return JournaledUnits(path, header or self.HEADER, **kwargs)

    def test_resume_replays_records_by_key(self, tmp_path):
        path = str(tmp_path / "units.jsonl")
        with self._units(path) as units:
            units.finalize(_record(1, "a"))
            units.finalize(_record(2, "b"))
        with self._units(path, resume=True) as units:
            assert sorted(units.replayed) == [(1, "a"), (2, "b")]
            units.finalize(_record(3, "c"))
        header, records = CheckpointJournal(path).load()
        assert header["plan_fingerprint"] == "abc"
        assert [pair_key(r) for r in records] == [(1, "a"), (2, "b"), (3, "c")]

    def test_run_without_resume_replaces_the_journal(self, tmp_path):
        path = str(tmp_path / "units.jsonl")
        with self._units(path) as units:
            units.finalize(_record(1, "a"))
        other = dict(self.HEADER, plan_fingerprint="def")
        with self._units(path, header=other) as units:
            assert units.replayed == {}
            units.finalize(_record(2, "b"))
        header, records = CheckpointJournal(path).load()
        assert header["plan_fingerprint"] == "def"
        assert [pair_key(r) for r in records] == [(2, "b")]

    def test_resume_refuses_a_different_header(self, tmp_path):
        path = str(tmp_path / "units.jsonl")
        self._units(path).close()
        for key in ("campaign_seed", "plan_fingerprint"):
            with pytest.raises(ValueError, match="refusing to resume"):
                self._units(path, header=dict(self.HEADER, **{key: 2}), resume=True)

    def test_torn_header_is_rewritten_on_resume(self, tmp_path):
        path = str(tmp_path / "units.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"kind": "header", "campaign_se')
        self._units(path, resume=True).close()
        header, records = CheckpointJournal(path).load()
        assert header["plan_fingerprint"] == "abc"
        assert records == []

    def test_kill_drill_runs_without_a_journal(self):
        units = self._units(None, abort_after=2)
        units.finalize(_record(1, "a"))
        with pytest.raises(CampaignInterrupted) as excinfo:
            units.finalize(_record(2, "b"))
        assert excinfo.value.completed_pairs == 2

    def test_epoch_units_are_keyed_by_index(self, tmp_path):
        path = str(tmp_path / "temporal.jsonl")
        header = {"fingerprint": "f"}
        with JournaledUnits(path, header, kind=KIND_EPOCH) as units:
            units.finalize({"epoch": 0, "figure1": {}})
        units = JournaledUnits(path, header, resume=True, kind=KIND_EPOCH)
        units.close()
        assert list(units.replayed) == [0]
