"""The seven-layer Figure-1 pass, timed two ways over one study.

The reference path grades decision by decision on cold engines that
use the seed's cache keys; the batched path precomputes every layer's
routing trees and grades through the arena grader
(:class:`~repro.perf.parallel.ParallelClassifier`), on cold engines
too, so both legs include tree construction.
``test_classification_throughput.py`` gates the batched pass at >= 2x
the reference, and ``test_telemetry_overhead.py`` times the batched
pass with telemetry off and on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.classification import (
    LabelCounts,
    LayerConfig,
    classify_decisions_serial,
)
from repro.core.gao_rexford import GaoRexfordEngine
from repro.core.pipeline import StudyResults, figure1_layer_configs
from repro.perf.parallel import ParallelClassifier, PrecomputeReport


def layer_configs(
    study: StudyResults, canonical_keys: bool
) -> Dict[str, LayerConfig]:
    """The seven Figure-1 layers over cold engines, as ``Study.run``
    builds them.

    ``canonical_keys=False`` reproduces the seed engine's cache
    behavior, so the serial leg measures the pre-optimization pipeline.
    """
    if study.engine_complex is None:
        raise ValueError("study results carry no complex engine")
    partial = study.engine_complex.partial_transit
    return figure1_layer_configs(
        GaoRexfordEngine(study.inferred, canonical_keys=canonical_keys),
        GaoRexfordEngine(
            study.inferred, partial_transit=partial, canonical_keys=canonical_keys
        ),
        known_complex=study.known_complex,
        siblings=study.siblings,
        first_hops_1=study.first_hops_1,
        first_hops_2=study.first_hops_2,
    )


def seven_layer_serial(study: StudyResults) -> Tuple[float, Dict[str, LabelCounts]]:
    """Time the reference path: per-decision grading, cold engines."""
    layers = layer_configs(study, canonical_keys=False)
    start = time.perf_counter()
    figure1 = {
        name: classify_decisions_serial(
            study.decisions,
            layer.engine,
            first_hops_for=layer.first_hops_for,
            complex_rel=layer.complex_rel,
            siblings=layer.siblings,
        )
        for name, layer in layers.items()
    }
    return time.perf_counter() - start, figure1


def seven_layer_batched(
    study: StudyResults,
) -> Tuple[float, Dict[str, LabelCounts], PrecomputeReport]:
    """Time the optimized path: precomputed trees + arena grading."""
    layers = layer_configs(study, canonical_keys=True)
    classifier = ParallelClassifier()
    start = time.perf_counter()
    figure1 = classifier.classify_layers(study.decisions, layers)
    elapsed = time.perf_counter() - start
    return elapsed, figure1, classifier.last_report


@dataclass
class Comparison:
    """Best-of-``repeats`` timings of both legs and their last results."""

    serial_s: float
    batched_s: float
    serial: Dict[str, LabelCounts]
    batched: Dict[str, LabelCounts]
    report: PrecomputeReport

    @property
    def speedup(self) -> float:
        return self.serial_s / self.batched_s


def compare_seven_layers(study: StudyResults, repeats: int) -> Comparison:
    """Alternate the two legs ``repeats`` times; keep each one's best."""
    serial_s = batched_s = float("inf")
    for _ in range(repeats):
        elapsed, serial = seven_layer_serial(study)
        serial_s = min(serial_s, elapsed)
        elapsed, batched, report = seven_layer_batched(study)
        batched_s = min(batched_s, elapsed)
    return Comparison(serial_s, batched_s, serial, batched, report)
