"""Workload handlers: what one admitted request actually computes.

Each handler runs on a daemon worker thread with the request's own
:class:`~repro.obs.context.Observability` installed thread-locally, so
``publish`` calls stream to that request's NDJSON subscribers only.
All shared warm state comes through the
:class:`~repro.serve.cache.ArtifactStore`; handlers themselves hold no
daemon state.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.core.classification import DecisionLabel, LayerConfig
from repro.core.pipeline import figure1_layer_configs
from repro.obs import publish
from repro.serve.cache import ArtifactStore
from repro.serve.protocol import CATEGORY_SERVE, ServeRequest


def _handle_study(request: ServeRequest, artifacts: ArtifactStore) -> Dict:
    """The full pipeline, memoized per (seed, scale).

    ``snapshot_json`` is byte-for-byte what the CLI path produces for
    the same configuration (``serialize(snapshot_study(...))``) — the
    field the daemon-vs-CLI differential compares.
    """
    publish(CATEGORY_SERVE, "study.begin", seed=request.seed, scale=request.scale)
    snapshot_json = artifacts.study_snapshot(request.seed, request.scale)
    results = artifacts.study(request.seed, request.scale)
    publish(
        CATEGORY_SERVE,
        "study.done",
        seed=request.seed,
        decisions=len(results.decisions),
    )
    return {
        "snapshot_json": snapshot_json,
        "decisions": len(results.decisions),
        "measurements": len(results.dataset.measurements),
    }


def _handle_classify(request: ServeRequest, artifacts: ArtifactStore) -> Dict:
    """Re-grade all seven Figure-1 layers against warm shared engines.

    The engines come from the artifact store keyed by graph
    fingerprint, so a classify request from tenant B reuses the routing
    trees tenant A's study already built — the cross-tenant cache-reuse
    path the /metrics counters expose.
    """
    from repro.perf.parallel import ParallelClassifier

    results = artifacts.study(request.seed, request.scale)
    partial = frozenset(
        (entry.provider, entry.customer)
        for entry in results.known_complex.partial_transit_entries()
    )
    engine_simple = artifacts.engine_for(results.inferred)
    engine_complex = artifacts.engine_for(results.inferred, partial_transit=partial)
    layer_configs = figure1_layer_configs(
        engine_simple,
        engine_complex,
        known_complex=results.known_complex,
        siblings=results.siblings,
        first_hops_1=results.first_hops_1,
        first_hops_2=results.first_hops_2,
    )
    publish(CATEGORY_SERVE, "classify.begin", layers=len(layer_configs))
    figure1 = ParallelClassifier().classify_layers(results.decisions, layer_configs)
    publish(CATEGORY_SERVE, "classify.done", layers=len(figure1))
    return {
        "figure1": {
            layer: {
                label.value: counts.counts[label] for label in DecisionLabel
            }
            for layer, counts in figure1.items()
        },
        "decisions": len(results.decisions),
    }


def _handle_check(request: ServeRequest, artifacts: ArtifactStore) -> Dict:
    """Differential oracle checks, with progress streamed as events."""
    from repro.check import run_checks

    seeds = int(request.params.get("seeds", 8))
    only = request.params.get("only")

    def progress(done: int, total: int) -> None:
        publish(CATEGORY_SERVE, "check.progress", done=done, total=total)

    report = run_checks(seeds, only=only, progress=progress)
    return {"ok": report.ok, "seeds": seeds, "render": report.render()}


def _handle_bench(request: ServeRequest, artifacts: ArtifactStore) -> Dict:
    """Grade one warm layer ``rounds`` times and report timings."""
    from repro.perf.parallel import ParallelClassifier

    results = artifacts.study(request.seed, request.scale)
    engine = artifacts.engine_for(results.inferred)
    classifier = ParallelClassifier()
    rounds = int(request.params.get("rounds", 1))
    durations = []
    for round_index in range(rounds):
        start = time.perf_counter()
        classifier.label_layer(results.decisions, LayerConfig(engine=engine))
        durations.append(time.perf_counter() - start)
        publish(CATEGORY_SERVE, "bench.round", index=round_index)
    return {
        "rounds": rounds,
        "decisions": len(results.decisions),
        "mean_s": round(sum(durations) / len(durations), 6),
        "min_s": round(min(durations), 6),
    }


_HANDLERS = {
    "study": _handle_study,
    "classify": _handle_classify,
    "check": _handle_check,
    "bench": _handle_bench,
}


def run_workload(request: ServeRequest, artifacts: ArtifactStore) -> Dict:
    """Dispatch one validated request to its handler."""
    return _HANDLERS[request.workload](request, artifacts)
