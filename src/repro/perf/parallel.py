"""Routing-tree precomputation and batched grading for the Figure-1 layers.

Classification cost is dominated by Gao-Rexford routing-tree builds:
one tree per ``(destination, allowed-first-hops)`` pair per engine.
:class:`ParallelClassifier` collects the distinct trees every layer
needs up front, computes the missing ones of each engine in one kernel
sweep (:meth:`~repro.core.gao_rexford.GaoRexfordEngine.warm_batch`),
and then grades every layer against the warm caches with the
vectorized arena grader (:mod:`repro.core.hotpath.grade`).  Everything
runs in process: at study scale the whole sweep takes tens of
milliseconds, less than starting a worker pool would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.classification import (
    Decision,
    DecisionLabel,
    LabelCounts,
    LayerConfig,
    TreeKey,
)
from repro.core.gao_rexford import GaoRexfordEngine
from repro.core.hotpath.grade import arena_for, classify_arena, label_arena
from repro.obs.context import get_obs
from repro.obs.trace import span


@dataclass
class PrecomputeReport:
    """What one precompute pass did."""

    trees_computed: int = 0
    trees_reused: int = 0


class ParallelClassifier:
    """Precomputes the routing trees of all layers, then grades in batch."""

    def __init__(self) -> None:
        self.last_report: Optional[PrecomputeReport] = None
        #: Layer name -> {"delta": ..., "cumulative": ...} cache stats
        #: from the most recent :meth:`classify_layers` call.  The
        #: engine's counters are cumulative across layers, so the delta
        #: is what each layer actually did (see ``CacheStats.delta``).
        self.last_layer_cache_stats: Dict[str, Dict[str, Dict[str, float]]] = {}

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------
    def precompute(
        self,
        decisions: Iterable[Decision],
        layers: Iterable[LayerConfig],
    ) -> PrecomputeReport:
        """Ensure every routing tree the layers need is cached."""
        arena = arena_for(decisions)
        return self._precompute(
            [
                (layer, arena.grouping(layer.first_hops_for).tree_keys)
                for layer in layers
            ]
        )

    def _precompute(
        self, pairs: Sequence[Tuple[LayerConfig, Sequence[TreeKey]]]
    ) -> PrecomputeReport:
        # Distinct missing trees per engine (engines shared between
        # layers are collected once).
        engines: List[GaoRexfordEngine] = []
        missing: List[List[TreeKey]] = []
        reused = 0
        seen: Dict[int, int] = {}
        for layer, tree_keys in pairs:
            engine = layer.engine
            index = seen.get(id(engine))
            if index is None:
                index = seen[id(engine)] = len(engines)
                engines.append(engine)
                missing.append([])
            pending = set(missing[index])
            for key in tree_keys:
                canonical = engine.cache_key(key[0], key[1])
                if canonical in engine._cache or canonical in pending:
                    reused += 1
                    continue
                pending.add(canonical)
                missing[index].append(canonical)
        report = PrecomputeReport(
            trees_computed=sum(len(keys) for keys in missing), trees_reused=reused
        )
        if report.trees_computed:
            # A child of whatever stage span is open (the pipeline's
            # ``figure1``), so stage timings count these seconds once.
            with span("precompute", trees=report.trees_computed, reused=reused):
                for engine, keys in zip(engines, missing):
                    engine.warm_batch(keys)
            self._record_precompute(report)
        self.last_report = report
        return report

    def _record_precompute(self, report: PrecomputeReport) -> None:
        metrics = get_obs().metrics
        if not metrics.enabled:
            return
        metrics.counter(
            "repro_precompute_runs_total",
            "Precompute passes.",
        ).inc()
        metrics.counter(
            "repro_precompute_trees_total",
            "Routing trees built by precompute passes.",
        ).inc(report.trees_computed)
        metrics.counter(
            "repro_precompute_trees_reused_total",
            "Routing trees already cached when precompute ran.",
        ).inc(report.trees_reused)

    # ------------------------------------------------------------------
    # Batched grading over warm caches
    # ------------------------------------------------------------------
    def classify_layers(
        self,
        decisions: Iterable[Decision],
        layers: Dict[str, LayerConfig],
    ) -> Dict[str, LabelCounts]:
        """Grade every layer; trees are precomputed once up front.

        Decisions are interned into one arena, grouped with one lexsort
        per distinct PSP map (layers sharing a ``first_hops_for`` map
        share the grouping), and each layer is graded with gathers and
        a bincount.
        """
        arena = arena_for(decisions)
        groupings = [arena.grouping(layer.first_hops_for) for layer in layers.values()]
        self._precompute(
            [
                (layer, grouping.tree_keys)
                for layer, grouping in zip(layers.values(), groupings)
            ]
        )
        metrics = get_obs().metrics
        results: Dict[str, LabelCounts] = {}
        self.last_layer_cache_stats = {}
        for (name, layer), grouping in zip(layers.items(), groupings):
            baseline = layer.engine.cache_stats()
            with span("classify_layer", layer=name):
                results[name] = classify_arena(
                    grouping,
                    layer.engine,
                    complex_rel=layer.complex_rel,
                    siblings=layer.siblings,
                )
            cumulative = layer.engine.cache_stats()
            delta = cumulative.delta(baseline)
            self.last_layer_cache_stats[name] = {
                "delta": delta.as_dict(),
                "cumulative": cumulative.as_dict(),
            }
            if metrics.enabled:
                metrics.counter(
                    "repro_routing_cache_hits_total",
                    "Routing-cache hits during layer grading.",
                ).labels(layer=name).inc(delta.hits)
                metrics.counter(
                    "repro_routing_cache_misses_total",
                    "Routing-cache misses during layer grading.",
                ).labels(layer=name).inc(delta.misses)
        return results

    def label_layer(
        self,
        decisions: Iterable[Decision],
        layer: LayerConfig,
    ) -> List[Tuple[Decision, DecisionLabel]]:
        """Per-decision labels for one layer, via the same machinery."""
        grouping = arena_for(decisions).grouping(layer.first_hops_for)
        self._precompute([(layer, grouping.tree_keys)])
        with span("label_layer", decisions=len(grouping.arena)):
            return label_arena(
                grouping,
                layer.engine,
                complex_rel=layer.complex_rel,
                siblings=layer.siblings,
            )
