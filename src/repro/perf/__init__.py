"""Performance subsystem: batched precompute and the pipeline benchmark.

The classification pipeline's hot path is Gao-Rexford routing-tree
construction (one tree per destination per refinement layer) followed
by per-decision grading.  This package provides:

* :mod:`repro.perf.parallel` — :class:`ParallelClassifier`, which
  precomputes the routing trees of every refinement layer in one kernel
  sweep per engine and grades decisions through the arena grader.
* :mod:`repro.perf.bench` — the ``python -m repro.perf.bench`` entry
  point producing ``BENCH_pipeline.json``.

Stage timings come from the tracer in :mod:`repro.obs.trace`.
"""

from repro.perf.parallel import LayerConfig, ParallelClassifier, PrecomputeReport

__all__ = [
    "LayerConfig",
    "ParallelClassifier",
    "PrecomputeReport",
]
