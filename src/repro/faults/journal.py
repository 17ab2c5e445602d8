"""Append-only JSONL checkpoint journal for resumable campaigns.

Every finalized (probe, dns-name) pair — completed, degraded,
quarantined or lost — is appended as one JSON line, so a resumed
campaign skips the pair instead of measuring it again.

Writes go through the durable-storage layer
(:mod:`repro.faults.storage`): each line is CRC32-framed and pushed to
disk under the journal's :class:`~repro.faults.storage.StoragePolicy`,
so a flipped byte is detected on load instead of being parsed into a
wrong record.  Under the default ``fsync`` policy appends are
group-committed — flushed per record, fsynced every
``fsync_interval`` records and on close — bounding the data a power
loss can take to one trailing batch.  Legacy unframed journals remain
loadable.

A crash can tear the trailing line (partial write, possibly without the
terminating newline).  ``load`` detects the torn tail and drops it —
the pair simply re-runs on resume — and ``open_append`` truncates the
torn bytes before appending, so the next record starts on a clean line
instead of gluing onto the fragment and corrupting the *interior* of
the file.  Corruption before the tail (which a crash cannot produce on
an append-only log) raises :class:`JournalCorrupted`.

:class:`JournaledUnits` is the one way units of work are journaled —
campaign pairs, active discovery targets and magnet rounds, temporal
epochs: it starts a fresh journal or continues a checked one,
hands back the replayed records by key, and finalizes each new unit
(append, then the ``abort_after`` kill drill).
"""

from __future__ import annotations

import errno
import json
import os
from typing import IO, Callable, Dict, Hashable, List, Optional, Tuple

from repro.faults.errors import CampaignInterrupted
from repro.faults.plan import FaultSite
from repro.faults.storage import (
    DURABILITY_FLUSH,
    DURABILITY_FSYNC,
    StoragePolicy,
    decode_line,
    durable_append,
    frame_line,
)

JOURNAL_SCHEMA = 1

KIND_HEADER = "header"
#: A (probe, name) unit: a campaign pair, or an active discovery
#: target or magnet round (probe = target or mux, name = the unit).
KIND_PAIR = "pair"
#: One graded epoch of the temporal series.
KIND_EPOCH = "epoch"


class JournalCorrupted(ValueError):
    """Unparseable journal content *before* the trailing line."""


def pair_key(record: Dict) -> Tuple[int, str]:
    """The (probe_id, dns_name) identity of a journaled pair."""
    return int(record["probe"]), str(record["name"])


def epoch_key(record: Dict) -> int:
    """The index of a journaled epoch."""
    return int(record["epoch"])


#: Per data-record kind: the keys every record must carry (a record
#: missing one raises :class:`JournalCorrupted`) and the unit identity
#: a resumed run looks records up by.
RECORD_KINDS: Dict[str, Tuple[Tuple[str, ...], Callable[[Dict], Hashable]]] = {
    KIND_PAIR: (("probe", "name"), pair_key),
    KIND_EPOCH: (("epoch", "figure1"), epoch_key),
}


class CheckpointJournal:
    """One run's checkpoint file.

    ``record_kind`` is the ``kind`` tag stamped on appended records and
    selected by ``load`` (header records are always ``KIND_HEADER``).
    """

    def __init__(
        self,
        path: str,
        storage: Optional[StoragePolicy] = None,
        record_kind: str = KIND_PAIR,
    ) -> None:
        self.path = path
        self.storage = storage or StoragePolicy()
        self.record_kind = record_kind
        self.required_fields = RECORD_KINDS[record_kind][0]
        self._handle: Optional[IO[str]] = None
        #: Torn trailing lines dropped by the last ``load`` call.
        self.torn_lines = 0
        #: Byte offset just past the last intact line seen by ``load``;
        #: ``None`` until a load (or after an append) — ``open_append``
        #: truncates the file here to shed a torn tail.
        self._valid_bytes: Optional[int] = None
        #: Records appended through this instance (fault-key ordinal).
        self._appended = 0
        #: Appends since the last fsync (group commit under ``fsync``).
        self._unsynced = 0

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def exists(self) -> bool:
        return os.path.exists(self.path)

    def load(self) -> Tuple[Optional[Dict], List[Dict]]:
        """Parse the journal into ``(header, pair records)``.

        Returns ``(None, [])`` when the file does not exist.  Torn
        trailing lines — unparseable, failing their CRC frame, or
        missing the terminating newline — are dropped (counted in
        ``torn_lines``); corrupt interior lines raise
        :class:`JournalCorrupted`.
        """
        self.torn_lines = 0
        self._valid_bytes = 0
        if not self.exists():
            return None, []
        with open(self.path, "rb") as handle:
            raw = handle.read()
        pieces = raw.split(b"\n")
        if pieces and pieces[-1] == b"":
            pieces.pop()
            final_terminated = True
        else:
            final_terminated = not pieces
        # (line number, parsed document or None, byte offset past the
        # line).  A document of None marks an unusable line; blank lines
        # parse to the {} sentinel and are skipped later.
        parsed: List[Tuple[int, Optional[Dict], int]] = []
        offset = 0
        for index, piece in enumerate(pieces):
            terminated = index < len(pieces) - 1 or final_terminated
            offset += len(piece) + (1 if terminated else 0)
            document: Optional[Dict]
            text = piece.decode("utf-8", errors="replace")
            if not text.strip():
                document = {}
            elif not terminated:
                # No newline: the write was torn mid-line.  Even if the
                # fragment happens to parse, it cannot be trusted.
                document = None
            else:
                payload, crc_ok = decode_line(text)
                if crc_ok is False:
                    document = None
                else:
                    try:
                        document = json.loads(payload)
                        if not isinstance(document, dict):
                            document = None
                    except json.JSONDecodeError:
                        document = None
            parsed.append((index + 1, document, offset))
        # Only a trailing run of unusable lines is crash-consistent.
        while parsed and parsed[-1][1] is None:
            parsed.pop()
            self.torn_lines += 1
        bad = [number for number, document, _ in parsed if document is None]
        if bad:
            raise JournalCorrupted(
                f"{self.path}: unparseable journal line(s) {bad} before the tail"
            )
        self._valid_bytes = parsed[-1][2] if parsed else 0
        header: Optional[Dict] = None
        records: List[Dict] = []
        for number, document, _ in parsed:
            assert document is not None
            kind = document.get("kind")
            if kind == KIND_HEADER:
                if header is None:
                    header = document
                continue
            if kind == self.record_kind:
                missing = [
                    name for name in self.required_fields if name not in document
                ]
                if missing:
                    raise JournalCorrupted(
                        f"{self.path}: line {number} lacks required "
                        f"key(s) {missing}"
                    )
                records.append(document)
        return header, records

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def open_append(self) -> None:
        if self._handle is not None:
            return
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._repair_tail()
        self._handle = open(self.path, "a", encoding="utf-8")

    def _repair_tail(self) -> None:
        """Truncate a torn trailing line before appending.

        Without this, the first append after a torn write glues onto
        the partial line, turning a recoverable torn *tail* into an
        interior corrupt line that poisons every future load.
        """
        if not self.exists():
            return
        if self._valid_bytes is None:
            self.load()
        assert self._valid_bytes is not None
        size = os.path.getsize(self.path)
        if self._valid_bytes >= size:
            return
        with open(self.path, "r+b") as handle:
            handle.truncate(self._valid_bytes)
            if self.storage.durability == DURABILITY_FSYNC:
                os.fsync(handle.fileno())

    def write_header(self, header: Dict) -> None:
        record = dict(header)
        record["kind"] = KIND_HEADER
        record["schema"] = JOURNAL_SCHEMA
        self._append_line(record)

    def append(self, record: Dict) -> None:
        line = dict(record)
        line["kind"] = self.record_kind
        self._append_line(line)

    def _append_line(self, record: Dict) -> None:
        if self._handle is None:
            self.open_append()
        assert self._handle is not None
        line = frame_line(json.dumps(record, sort_keys=True))
        ordinal = self._appended
        basename = os.path.basename(self.path)
        if self.storage.fires(FaultSite.STORAGE_ENOSPC, basename, ordinal):
            raise OSError(
                errno.ENOSPC, f"injected ENOSPC appending to {self.path}"
            )
        if self.storage.fires(FaultSite.STORAGE_TORN_APPEND, basename, ordinal):
            # A torn write: part of the line lands on disk, no newline,
            # and the process dies.  ``load``/``open_append`` on resume
            # must shed exactly this fragment.
            fragment = line[: max(1, len(line) // 2)]
            self._handle.write(fragment)
            self._handle.flush()
            self.close()
            self._valid_bytes = None
            raise CampaignInterrupted(
                f"injected torn append to {self.path} at record {ordinal}"
            )
        if self.storage.durability == DURABILITY_FSYNC:
            # Group commit: every append is flushed to the OS, but the
            # disk sync is amortized over ``fsync_interval`` records
            # (plus one on close).  A crash loses at most the trailing
            # unsynced batch, which loads as a clean shorter prefix and
            # simply re-runs on resume.
            durable_append(self._handle, line + "\n", DURABILITY_FLUSH)
            self._unsynced += 1
            if self._unsynced >= self.storage.fsync_interval:
                os.fsync(self._handle.fileno())
                self._unsynced = 0
        else:
            durable_append(self._handle, line + "\n", self.storage.durability)
        self._appended += 1
        self._valid_bytes = None

    def close(self) -> None:
        if self._handle is not None:
            if self._unsynced and self.storage.durability == DURABILITY_FSYNC:
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._unsynced = 0
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointJournal":
        self.open_append()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class JournaledUnits:
    """One run's journaled units of work, fresh or resumed.

    With a ``path`` the journal there is continued when ``resume`` is
    set — its stored header must match ``header`` on every key, and its
    intact records come back in :attr:`replayed`, by unit key — and
    otherwise replaced by a fresh file under ``header``.  A journal
    without a stored header (missing, or only a torn header line) gets
    ``header`` written.  Without a path nothing is written, but
    :meth:`finalize` still runs the kill drill.

    The caller looks each unit up in :attr:`replayed`, applies a
    replayed record instead of recomputing the unit, and passes every
    new unit's record to :meth:`finalize`.
    """

    def __init__(
        self,
        path: Optional[str],
        header: Dict,
        *,
        resume: bool = False,
        storage: Optional[StoragePolicy] = None,
        abort_after: Optional[int] = None,
        kind: str = KIND_PAIR,
    ) -> None:
        #: Unit key -> journaled record, for a resumed run.
        self.replayed: Dict[Hashable, Dict] = {}
        #: Crash drill: kill the run after this many finalized units.
        self.abort_after = abort_after
        #: Units finalized by this run (replayed units excluded).
        self.finalized = 0
        self.journal: Optional[CheckpointJournal] = None
        if path is None:
            return
        journal = CheckpointJournal(path, storage=storage, record_kind=kind)
        stored: Optional[Dict] = None
        if resume:
            stored, records = journal.load()
            for name, value in header.items():
                if stored is not None and stored.get(name) != value:
                    raise ValueError(
                        f"{path} was written under a different "
                        f"{name.replace('_', ' ')} ({stored.get(name)!r}, "
                        f"expected {value!r}); refusing to resume"
                    )
            unit_key = RECORD_KINDS[kind][1]
            self.replayed = {unit_key(record): record for record in records}
        elif journal.exists():
            os.remove(path)
        journal.open_append()
        if stored is None:
            journal.write_header(header)
        self.journal = journal

    def finalize(self, record: Dict) -> None:
        """Journal one newly finalized unit, then run the kill drill."""
        if self.journal is not None:
            self.journal.append(record)
        self.finalized += 1
        if self.abort_after is not None and self.finalized >= self.abort_after:
            self.close()
            raise CampaignInterrupted(
                f"run killed after {self.finalized} finalized unit(s)",
                completed_pairs=self.finalized,
            )

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "JournaledUnits":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
