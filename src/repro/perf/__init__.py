"""Batched precompute for the Figure-1 classification.

The classification pipeline's hot path is Gao-Rexford routing-tree
construction (one tree per destination per refinement layer) followed
by per-decision grading.  :mod:`repro.perf.parallel` provides
:class:`ParallelClassifier`, which precomputes the routing trees of
every refinement layer in one kernel sweep per engine and grades
decisions through the arena grader.

Stage timings come from the tracer in :mod:`repro.obs.trace`; the
benchmark of record is ``perfbench/`` (see ``BENCHMARK.json``).
"""

from repro.perf.parallel import LayerConfig, ParallelClassifier, PrecomputeReport

__all__ = [
    "LayerConfig",
    "ParallelClassifier",
    "PrecomputeReport",
]
