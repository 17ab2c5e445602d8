"""The durable run ledger: one directory holding a whole study's state.

Before the ledger, a resumable study was uncoordinated checkpoint
files (passive campaign, active experiments) whose paths the operator
had to thread through flags individually.  A :class:`RunLedger` scopes
them all to one run directory:

.. code-block:: text

    <run>/
      ledger.json       # schema, fingerprints, status, run count
      campaign.jsonl    # passive DNS campaign checkpoint
      active.jsonl      # active poisoning/magnet checkpoint
      temporal.jsonl    # longitudinal epoch journal (repro temporal)
      .lock             # advisory pidfile (repro.faults.storage.RunLock)
      .generation       # one byte appended per open; size = generation

``ledger.json`` is rewritten atomically
(:func:`~repro.faults.storage.atomic_replace`) and records the config
and fault-plan fingerprints on open plus the graph fingerprint once the
topology stage has run — resuming into a directory whose fingerprints
do not match the current invocation is refused rather than silently
producing a franken-run.

The ``.generation`` file is the anti-livelock mechanism for injected
storage crashes: fault decisions are pure hashes, so a crash keyed only
by (file, record) would fire identically on every resume and the study
would never finish.  Every :meth:`open` appends one byte to
``.generation`` with plain (never fault-injected) I/O and uses the
resulting size as the :class:`~repro.faults.storage.StoragePolicy`
salt, so each resume re-rolls every remaining crash point — the drill
stays deterministic given the crash history while guaranteeing
progress.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro.faults.plan import FaultPlan, FaultSite
from repro.faults.storage import (
    RunLock,
    StoragePolicy,
    atomic_replace,
    default_durability,
    plant_stale_lock,
)

LEDGER_SCHEMA = 1

LEDGER_FILE = "ledger.json"
CAMPAIGN_JOURNAL = "campaign.jsonl"
ACTIVE_JOURNAL = "active.jsonl"
TEMPORAL_JOURNAL = "temporal.jsonl"
LOCK_FILE = ".lock"
GENERATION_FILE = ".generation"

STATUS_RUNNING = "running"
STATUS_COMPLETED = "completed"


class LedgerRefused(ValueError):
    """The ledger refuses a run directory: it already holds a run and
    the caller did not resume, or it belongs to another run (a recorded
    fingerprint does not match)."""


class RunLedger:
    """Crash-consistent bookkeeping for one study run directory."""

    def __init__(
        self,
        run_dir: str,
        durability: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.run_dir = run_dir
        self.durability = durability or default_durability()
        self.fault_plan = fault_plan
        self.generation = 0
        self.fingerprints: Dict[str, str] = {}
        self.runs = 0
        self._lock: Optional[RunLock] = None
        self._write_seq = 0

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def ledger_path(self) -> str:
        return os.path.join(self.run_dir, LEDGER_FILE)

    @property
    def campaign_path(self) -> str:
        return os.path.join(self.run_dir, CAMPAIGN_JOURNAL)

    @property
    def active_path(self) -> str:
        return os.path.join(self.run_dir, ACTIVE_JOURNAL)

    @property
    def temporal_path(self) -> str:
        return os.path.join(self.run_dir, TEMPORAL_JOURNAL)

    @property
    def lock_path(self) -> str:
        return os.path.join(self.run_dir, LOCK_FILE)

    @property
    def generation_path(self) -> str:
        return os.path.join(self.run_dir, GENERATION_FILE)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def storage(self) -> StoragePolicy:
        """The policy every journal and ledger write runs under."""
        return StoragePolicy(
            durability=self.durability,
            fault_plan=self.fault_plan,
            salt=self.generation,
        )

    def open(self, fingerprints: Dict[str, str], resume: bool = False) -> "RunLedger":
        """Acquire the run directory and stamp/verify its identity.

        A directory that already holds a ledger requires ``resume=True``
        (anything else risks silently interleaving two different runs);
        resuming verifies that every fingerprint recorded by the
        original run matches this invocation.  Resuming an empty
        directory is allowed and degrades to a fresh start.
        """
        os.makedirs(self.run_dir, exist_ok=True)
        self._bump_generation()
        if self.storage().fires(FaultSite.STORAGE_STALE_LOCK, self.generation):
            # Simulate the lockfile a crashed run leaves behind; the
            # RunLock below must detect the dead owner and break it.
            if not os.path.exists(self.lock_path):
                plant_stale_lock(self.lock_path)
        self._lock = RunLock(self.lock_path).acquire()
        try:
            existing = self.read(self.run_dir)
            if existing is not None:
                if not resume:
                    raise LedgerRefused(
                        f"{self.run_dir} already contains a run ledger "
                        f"(status {existing.get('status')!r}); pass --resume "
                        "to continue it or choose a fresh --run-dir"
                    )
                self._verify_fingerprints(existing.get("fingerprints", {}), fingerprints)
                # Keep fingerprints the original run recorded that this
                # invocation has not (re)computed yet — e.g. the graph
                # fingerprint, verified later by record_graph.
                merged = dict(existing.get("fingerprints", {}))
                merged.update(fingerprints)
                fingerprints = merged
                self.runs = int(existing.get("runs", 0))
            self.fingerprints = dict(fingerprints)
            self.runs += 1
            self._write_ledger(STATUS_RUNNING)
        except BaseException:
            self._release_lock()
            raise
        return self

    def record_graph(self, fingerprint: str) -> None:
        """Record (or verify, on resume) the topology fingerprint."""
        previous = self.fingerprints.get("graph")
        if previous is not None and previous != fingerprint:
            raise LedgerRefused(
                f"{self.run_dir}: graph fingerprint {fingerprint} does not "
                f"match the ledger's {previous}; refusing to mix runs"
            )
        if previous == fingerprint:
            return
        self.fingerprints["graph"] = fingerprint
        self._write_ledger(STATUS_RUNNING)

    def finalize(self, status: str = STATUS_COMPLETED) -> None:
        """Mark the run finished and release the directory lock.

        Only called on clean completion — a crash leaves the ledger
        ``running`` and the lock in place, which is exactly the state
        resume-with-stale-lock recovery handles.
        """
        self._write_ledger(status)
        self._release_lock()

    def close(self) -> None:
        self._release_lock()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def read(run_dir: str) -> Optional[Dict]:
        """The parsed ``ledger.json``, or ``None`` if absent."""
        path = os.path.join(run_dir, LEDGER_FILE)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None

    def _bump_generation(self) -> None:
        # Plain I/O on purpose: the generation file is what guarantees
        # injected crashes make progress, so it must never crash itself.
        with open(self.generation_path, "ab") as handle:
            handle.write(b".")
            handle.flush()
            os.fsync(handle.fileno())
        self.generation = os.path.getsize(self.generation_path)

    @staticmethod
    def _verify_fingerprints(recorded: Dict, offered: Dict[str, str]) -> None:
        for name, value in offered.items():
            expected = recorded.get(name)
            if expected is not None and expected != value:
                raise LedgerRefused(
                    f"refusing to resume: {name} fingerprint {value} does not "
                    f"match the ledger's {expected} — this run directory "
                    "belongs to a different study configuration"
                )

    def _write_ledger(self, status: str) -> None:
        self._write_seq += 1
        document = {
            "schema": LEDGER_SCHEMA,
            "status": status,
            "fingerprints": dict(sorted(self.fingerprints.items())),
            "runs": self.runs,
            "generation": self.generation,
            "durability": self.durability,
        }
        atomic_replace(
            self.ledger_path,
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            self.storage(),
            self._write_seq,
        )

    def _release_lock(self) -> None:
        if self._lock is not None:
            self._lock.release()
            self._lock = None
