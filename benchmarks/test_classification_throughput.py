"""Classification throughput: batched + precomputed vs per-decision.

Reports decisions/second for a single layer (Simple, All-2) and for
the full seven-layer Figure-1 pass, and asserts the batched path is no
slower anywhere and at least 2x faster on the seven-layer pass.  The
seven-layer legs come from :mod:`seven_layer`.
"""

import time

import pytest

from repro.core.classification import (
    classify_decisions,
    classify_decisions_serial,
)
from repro.core.pipeline import FIGURE1_LAYERS
from repro.perf.parallel import ParallelClassifier
from seven_layer import compare_seven_layers, layer_configs

pytestmark = pytest.mark.bench

#: Best-of repetitions for every timing in this file.
REPEATS = 3


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _single_layer_times(study, layer_name):
    """(serial_seconds, batched_seconds) for one layer, cold engines."""

    def serial():
        layer = layer_configs(study, canonical_keys=False)[layer_name]
        return classify_decisions_serial(
            study.decisions,
            layer.engine,
            first_hops_for=layer.first_hops_for,
            complex_rel=layer.complex_rel,
            siblings=layer.siblings,
        )

    def batched():
        layer = layer_configs(study, canonical_keys=True)[layer_name]
        return classify_decisions(
            study.decisions,
            layer.engine,
            first_hops_for=layer.first_hops_for,
            complex_rel=layer.complex_rel,
            siblings=layer.siblings,
        )

    serial_s, serial_counts = _best_of(serial)
    batched_s, batched_counts = _best_of(batched)
    assert serial_counts.counts == batched_counts.counts
    return serial_s, batched_s


@pytest.mark.parametrize("layer_name", ["Simple", "All-2"])
def test_single_layer_batched_not_slower(study, layer_name):
    serial_s, batched_s = _single_layer_times(study, layer_name)
    decisions = len(study.decisions)
    print()
    print(
        f"{layer_name}: serial {decisions / serial_s:,.0f} decisions/s, "
        f"batched {decisions / batched_s:,.0f} decisions/s "
        f"({serial_s / batched_s:.2f}x)"
    )
    # Allow a little timer noise, but batching must never cost us.
    assert batched_s <= serial_s * 1.05


def test_seven_layer_speedup(study):
    comparison = compare_seven_layers(study, repeats=REPEATS)
    graded = len(study.decisions) * len(FIGURE1_LAYERS)
    print()
    print(
        f"seven layers: serial {comparison.serial_s:.3f}s, "
        f"batched {comparison.batched_s:.3f}s -> {comparison.speedup:.2f}x "
        f"({graded / comparison.batched_s:,.0f} decisions/s, "
        f"trees computed={comparison.report.trees_computed}, "
        f"reused={comparison.report.trees_reused})"
    )
    assert set(comparison.batched) == set(FIGURE1_LAYERS)
    assert comparison.batched == comparison.serial, (
        "batched classification diverged from serial"
    )
    assert comparison.speedup >= 2.0, (
        f"batched seven-layer classification only {comparison.speedup:.2f}x faster"
    )


def test_throughput_benchmark_harness(benchmark, study):
    """pytest-benchmark timing for the batched seven-layer pass."""

    def batched_pass():
        layers = layer_configs(study, canonical_keys=True)
        return ParallelClassifier().classify_layers(study.decisions, layers)

    figure1 = benchmark(batched_pass)
    for layer_name in FIGURE1_LAYERS:
        assert figure1[layer_name].counts == study.figure1[layer_name].counts
