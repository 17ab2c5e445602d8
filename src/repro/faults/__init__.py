"""Fault injection and resilience machinery.

The measurement substrate the paper runs on is lossy: probes go dark,
DNS fails, traceroutes truncate or loop, the Atlas API throttles, and
PEERING mux sessions reset.  The control plane the active experiments
drive is lossy too: poisoned announcements get filtered, long paths get
rejected, route-flap damping suppresses updates, convergence stalls,
collector feeds gap, and withdrawals get lost.  This package provides
the generic pieces the campaign, experiment and analysis layers use to
survive all of that:

* :class:`FaultPlan` — seeded, hash-keyed deterministic fault injection
  per substrate boundary (:class:`FaultSite`),
* :class:`RetryPolicy` / :class:`RetryStats` — seeded exponential
  backoff with full jitter on a virtual clock,
* :class:`CircuitBreaker` — the supervision primitive that stops an
  active experiment from hammering a failing control plane (see
  :mod:`repro.faults.supervisor`); the active phase's one owner of
  faults, :class:`repro.peering.ActiveSupervisor`, draws, retries and
  counts every control-plane and mux fault around it,
* :class:`CheckpointJournal` — append-only JSONL checkpointing with
  torn-tail recovery, and :class:`JournaledUnits`, the one way a
  campaign, an active phase or a temporal series journals, resumes
  and kill-drills its units of work,
* :class:`StoragePolicy` / :func:`durable_append` /
  :func:`atomic_replace` / :class:`RunLock` — the crash-consistent
  storage primitives every persistent artifact is written through
  (see :mod:`repro.faults.storage`),
* :class:`RunLedger` — one run directory unifying the passive and
  active checkpoints behind ``repro study --run-dir`` (see
  :mod:`repro.faults.ledger`); it refuses a directory that holds
  another run with :class:`LedgerRefused`,
* :class:`RobustnessReport` / :class:`ActiveRobustnessReport` — full
  where-did-every-measurement-go accounting for the passive campaign
  and the active experiments, and
* the structured fault taxonomy in :mod:`repro.faults.errors`.

This package deliberately imports nothing from the measurement layers,
so any of them can depend on it without cycles.
"""

from repro.faults.errors import (
    ApiRateLimit,
    ApiServerError,
    AtlasApiError,
    BreakerOpen,
    CampaignInterrupted,
    ConvergenceStall,
    DnsServfail,
    DnsTimeout,
    FaultError,
    LongPathRejected,
    MalformedResultError,
    MuxSessionReset,
    PoisonFiltered,
    ProbeFlapError,
    RetryExhausted,
    RouteFlapDamped,
    WithdrawalLost,
)
from repro.faults.journal import (
    CheckpointJournal,
    JournalCorrupted,
    JournaledUnits,
    pair_key,
)
from repro.faults.ledger import LedgerRefused, RunLedger
from repro.faults.plan import FaultPlan, FaultSite, derive_seed
from repro.faults.report import ActiveRobustnessReport, RobustnessReport
from repro.faults.retry import RetryPolicy, RetryStats
from repro.faults.storage import (
    LockHeldError,
    RunLock,
    StoragePolicy,
    atomic_replace,
    durable_append,
    write_text_atomic,
)
from repro.faults.supervisor import BreakerStats, CircuitBreaker

__all__ = [
    "ActiveRobustnessReport",
    "ApiRateLimit",
    "ApiServerError",
    "AtlasApiError",
    "BreakerOpen",
    "BreakerStats",
    "CampaignInterrupted",
    "CheckpointJournal",
    "CircuitBreaker",
    "ConvergenceStall",
    "DnsServfail",
    "DnsTimeout",
    "FaultError",
    "FaultPlan",
    "FaultSite",
    "JournalCorrupted",
    "JournaledUnits",
    "LedgerRefused",
    "LockHeldError",
    "LongPathRejected",
    "MalformedResultError",
    "MuxSessionReset",
    "PoisonFiltered",
    "ProbeFlapError",
    "RetryExhausted",
    "RetryPolicy",
    "RetryStats",
    "RobustnessReport",
    "RouteFlapDamped",
    "RunLedger",
    "RunLock",
    "StoragePolicy",
    "WithdrawalLost",
    "atomic_replace",
    "derive_seed",
    "durable_append",
    "pair_key",
    "write_text_atomic",
]
