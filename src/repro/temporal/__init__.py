"""Temporal pipeline: the Figure-1 study over a snapshot series.

Grades every monthly inferred-topology snapshot from scratch on fresh
array engines, reports each epoch's link churn as a typed
:class:`GraphDelta` summary, and journals completed epochs so a killed
run resumes into the identical series.
"""

from repro.temporal.delta import GraphDelta, diff_graphs
from repro.temporal.study import (
    EpochReport,
    TemporalInputs,
    TemporalResults,
    epoch_snapshot,
    run_incremental,
    run_series,
    serialize_epoch,
    series_fingerprint,
)

__all__ = [
    "GraphDelta",
    "diff_graphs",
    "EpochReport",
    "TemporalInputs",
    "TemporalResults",
    "epoch_snapshot",
    "run_incremental",
    "run_series",
    "serialize_epoch",
    "series_fingerprint",
]
