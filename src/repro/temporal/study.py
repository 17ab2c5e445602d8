"""Longitudinal study over an inferred-snapshot series.

The study pipeline grades every Figure-1 layer against one aggregated
topology; this module runs the same grading against *each* monthly
snapshot and emits the violation time-series.  Every snapshot is graded
from scratch on fresh engines — one kernel sweep per engine builds the
epoch's routing trees and the arena grader tallies all seven layers —
which is exactly what a study of that one snapshot computes.
Consecutive snapshots are diffed (:func:`~repro.temporal.delta.diff_graphs`)
only to report each epoch's link churn next to its counts.

Epochs are journal-backed: with a journal path each completed epoch is
appended as one durable record, and ``resume=True`` replays journaled
epochs verbatim and grades the missing ones.  Epochs are graded
independently, so a resumed run needs no warm state to match an
uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.classification import Decision, DecisionLabel, LabelCounts
from repro.core.gao_rexford import GaoRexfordEngine
from repro.core.pipeline import FIGURE1_LAYERS, StudyResults, figure1_layer_configs
from repro.faults.journal import KIND_EPOCH, JournaledUnits
from repro.faults.ledger import RunLedger
from repro.faults.plan import FaultPlan
from repro.faults.storage import StoragePolicy
from repro.net.ip import Prefix
from repro.obs.context import get_obs
from repro.obs.trace import span
from repro.perf.parallel import ParallelClassifier
from repro.temporal.delta import diff_graphs
from repro.topology.complex_rel import ComplexRelationships
from repro.topology.graph import ASGraph
from repro.whois.siblings import SiblingGroups

#: Schema tag of the epoch journal records.
EPOCH_SCHEMA = 2

#: Schema tag of the per-epoch comparison snapshot (the golden series'
#: format); independent of the journal record schema.
SNAPSHOT_SCHEMA = 1


@dataclass
class TemporalInputs:
    """Everything epoch grading needs besides the snapshots themselves.

    Decisions, PSP first-hop maps, hybrid relationships and sibling
    groups are *measurement-side* artifacts: the paper derives them from
    the campaign, not from any one monthly topology, so the longitudinal
    axis holds them fixed and varies only the inferred graph.
    """

    decisions: List[Decision]
    first_hops_1: Dict[Prefix, FrozenSet[int]] = field(default_factory=dict)
    first_hops_2: Dict[Prefix, FrozenSet[int]] = field(default_factory=dict)
    known_complex: Optional[ComplexRelationships] = None
    siblings: Optional[SiblingGroups] = None
    partial_transit: FrozenSet[Tuple[int, int]] = frozenset()

    @classmethod
    def from_study(cls, results: StudyResults) -> "TemporalInputs":
        """Lift a completed study's artifacts into temporal inputs."""
        partial: FrozenSet[Tuple[int, int]] = frozenset()
        if results.known_complex is not None:
            partial = frozenset(
                (entry.provider, entry.customer)
                for entry in results.known_complex.partial_transit_entries()
            )
        return cls(
            decisions=results.decisions,
            first_hops_1=results.first_hops_1,
            first_hops_2=results.first_hops_2,
            known_complex=results.known_complex,
            siblings=results.siblings,
            partial_transit=partial,
        )


@dataclass
class EpochReport:
    """What one epoch did: the churn since the last one and the tallies."""

    index: int
    #: :meth:`GraphDelta.summary` of the diff from the previous
    #: snapshot (empty for epoch 0).
    delta: Dict[str, int] = field(default_factory=dict)
    #: Routing trees built to grade the epoch (both engines).
    cache_misses: int = 0
    #: Raw Figure-1 counts per layer, :func:`epoch_snapshot` shape.
    figure1: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Whether this epoch was replayed from the journal on resume.
    resumed: bool = False

    def violations(self) -> Dict[str, int]:
        """Per-layer violation totals (everything but Best/Short)."""
        best = DecisionLabel.BEST_SHORT.value
        return {
            layer: sum(count for label, count in counts.items() if label != best)
            for layer, counts in self.figure1.items()
        }


@dataclass
class TemporalResults:
    """The longitudinal violation time-series and its accounting."""

    epochs: List[EpochReport] = field(default_factory=list)
    #: Epochs replayed from the journal rather than computed.
    resumed_epochs: int = 0

    def figure1_series(self) -> List[Dict[str, Dict[str, int]]]:
        return [epoch.figure1 for epoch in self.epochs]

    def as_dict(self) -> Dict[str, object]:
        return {
            "resumed_epochs": self.resumed_epochs,
            "epochs": [
                {
                    "index": epoch.index,
                    "delta": dict(epoch.delta),
                    "cache_misses": epoch.cache_misses,
                    "resumed": epoch.resumed,
                    "figure1": epoch.figure1,
                }
                for epoch in self.epochs
            ],
        }


# ---------------------------------------------------------------------------
# Per-epoch comparison snapshot
# ---------------------------------------------------------------------------


def epoch_snapshot(index: int, figure1: Dict[str, Dict[str, int]]) -> Dict[str, object]:
    """The canonical JSON-able record of one epoch's Figure-1 counts
    (the form ``tests/golden/temporal_small_seed0/`` is blessed in)."""
    return {"schema": SNAPSHOT_SCHEMA, "epoch": index, "figure1": figure1}


def serialize_epoch(snapshot: Dict[str, object]) -> str:
    """Byte-deterministic serialization (same format as the goldens)."""
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


def _counts_dict(figure1: Dict[str, LabelCounts]) -> Dict[str, Dict[str, int]]:
    """Raw per-layer counts in presentation/enum order (JSON-able)."""
    return {
        layer: {
            label.value: figure1[layer].counts[label] for label in DecisionLabel
        }
        for layer in FIGURE1_LAYERS
        if layer in figure1
    }


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


def series_fingerprint(snapshots: List[ASGraph], inputs: TemporalInputs) -> str:
    """Identity of one temporal run: the snapshots plus the decisions.

    Stamped into the journal header; resume refuses a journal whose
    fingerprint differs (epochs from a different series would be
    silently interleaved otherwise).
    """
    digest = hashlib.blake2b(digest_size=8)
    for snapshot in snapshots:
        digest.update(snapshot.fingerprint().encode("utf-8"))
    digest.update(f"|{len(inputs.decisions)}".encode("utf-8"))
    return digest.hexdigest()


def _apply_epoch(
    results: TemporalResults, record: Dict[str, object], replayed: bool
) -> None:
    """Add one epoch to the series from its journal record (a fresh
    epoch's record is built just before it is journaled)."""
    results.epochs.append(
        EpochReport(
            index=int(record["epoch"]),
            delta={k: int(v) for k, v in dict(record.get("delta", {})).items()},
            cache_misses=int(record.get("cache_misses", 0)),
            figure1={
                layer: {label: int(count) for label, count in counts.items()}
                for layer, counts in dict(record["figure1"]).items()
            },
            resumed=replayed,
        )
    )
    if replayed:
        results.resumed_epochs += 1


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _grade_snapshot(
    snapshot: ASGraph, inputs: TemporalInputs
) -> Tuple[Dict[str, Dict[str, int]], int]:
    """One epoch's Figure-1 counts, graded on fresh engines, and how
    many routing trees that took."""
    engine_simple = GaoRexfordEngine(snapshot)
    engine_complex = GaoRexfordEngine(snapshot, partial_transit=inputs.partial_transit)
    layers = figure1_layer_configs(
        engine_simple,
        engine_complex,
        known_complex=inputs.known_complex,
        siblings=inputs.siblings,
        first_hops_1=inputs.first_hops_1,
        first_hops_2=inputs.first_hops_2,
    )
    figure1 = ParallelClassifier().classify_layers(inputs.decisions, layers)
    trees = engine_simple.cache_stats().misses + engine_complex.cache_stats().misses
    return _counts_dict(figure1), trees


def run_incremental(
    snapshots: List[ASGraph],
    inputs: TemporalInputs,
    journal_path: Optional[str] = None,
    resume: bool = False,
    storage: Optional[StoragePolicy] = None,
) -> TemporalResults:
    """Grade every snapshot of the series, one epoch at a time.

    With ``journal_path`` every completed epoch is appended durably;
    ``resume=True`` replays the journaled epochs verbatim and grades the
    missing ones.  Without ``resume`` an existing journal is replaced.
    """
    if not snapshots:
        raise ValueError("temporal study needs at least one snapshot")

    header: Dict[str, object] = {}
    if journal_path is not None:
        header = {
            "fingerprint": series_fingerprint(snapshots, inputs),
            "snapshots": len(snapshots),
            "decisions": len(inputs.decisions),
        }
    units = JournaledUnits(
        journal_path,
        header,
        resume=resume,
        storage=storage,
        kind=KIND_EPOCH,
    )
    metrics = get_obs().metrics
    results = TemporalResults()
    with units:
        for index, snapshot in enumerate(snapshots):
            record = units.replayed.get(index)
            if record is not None:
                _apply_epoch(results, record, replayed=True)
                continue
            with span("temporal-epoch", index=index):
                delta: Dict[str, int] = {}
                if index > 0:
                    delta = diff_graphs(snapshots[index - 1], snapshot).summary()
                figure1, trees = _grade_snapshot(snapshot, inputs)
            record = {
                "epoch": index,
                "schema": EPOCH_SCHEMA,
                "delta": delta,
                "cache_misses": trees,
                "figure1": figure1,
            }
            _apply_epoch(results, record, replayed=False)
            units.finalize(record)
            if metrics.enabled:
                metrics.counter(
                    "repro_temporal_epochs_total",
                    "Temporal epochs graded.",
                ).inc()
    return results


def run_series(
    snapshots: List[ASGraph],
    inputs: TemporalInputs,
    run_dir: Optional[str] = None,
    resume: bool = False,
    durability: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> TemporalResults:
    """Grade the series, journaled under the run ledger of ``run_dir``.

    What ``repro temporal [--run-dir DIR [--resume]]`` runs: the ledger
    is opened under the series' fingerprint (``resume`` as for a
    study), every epoch is journaled to its ``temporal.jsonl`` under
    the ledger's storage policy, and the ledger is finalized once the
    last epoch is graded.  Without ``run_dir`` nothing is written.
    """
    if run_dir is None:
        return run_incremental(snapshots, inputs)
    ledger = RunLedger(run_dir, durability=durability, fault_plan=fault_plan)
    ledger.open(
        {"temporal-series": series_fingerprint(snapshots, inputs)}, resume=resume
    )
    try:
        results = run_incremental(
            snapshots,
            inputs,
            journal_path=ledger.temporal_path,
            resume=resume,
            storage=ledger.storage(),
        )
        ledger.finalize()
    finally:
        ledger.close()
    return results
