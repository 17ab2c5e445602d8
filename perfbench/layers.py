"""Outside-in per-layer tracing of the ``repro`` modules.

The benchmark wraps the public entry points of each ``src/repro``
module from here, records a span around every call, and reads counts
from the public results the call returns.  Nothing inside the program
changes: a wrapper is bound where the function lives and everywhere it
was imported by name, and the originals come back on ``restore``.  An
entry point the program no longer has is reported as absent, so the
end-to-end numbers survive a change that deletes one.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from spans import Recorder, Span, has_ancestor, totals_by_name

#: The module layers, in report order.  Span names are ``layer.op``.
LAYERS = (
    "bgp",
    "peering",
    "atlas",
    "dataplane",
    "ipmap",
    "core",
    "perf",
    "temporal",
    "faults",
    "topogen",
)

# -- counts read from public results ------------------------------------


def _clock(args: tuple) -> int:
    return args[0].clock


def _events(metric: str) -> Callable:
    def count(args: tuple, _result: object, clock_before: int) -> Dict[str, float]:
        return {metric: args[0].clock - clock_before}

    return count


def _alternates(_args: tuple, discovery, _before: object) -> Dict[str, float]:
    found = sum(max(len(obs.routes) - 1, 0) for obs in discovery.observations)
    return {"peering.alternates": found}


def _measurements(_args: tuple, dataset, _before: object) -> Dict[str, float]:
    return {"atlas.measurements": len(dataset.measurements)}


def _pool_trees(args: tuple, _result: object, _before: object) -> Dict[str, float]:
    # Trees a pool worker built reach the cache without a miss.
    report = args[0].last_report
    return {"core.trees_built": report.trees_computed if report and report.parallel else 0}


def _study_counts(_args: tuple, results, _before: object) -> Dict[str, float]:
    hits = misses = 0
    for engine in (results.engine, results.engine_complex):
        if engine is not None:
            stats = engine.cache_stats()
            hits += stats.hits
            misses += stats.misses
    shard = getattr(results, "shard_execution", None)
    return {
        "core.trees_built": misses,
        "core.cache_hits": hits,
        "core.cache_lookups": hits + misses,
        "perf.pool_used": int(shard is not None and shard.completed_parallel > 0),
        "perf.shards": shard.shards_total if shard is not None else 0,
    }


def _epoch_counts(_args: tuple, temporal, _before: object) -> Dict[str, float]:
    epochs = temporal.epochs
    return {
        "temporal.epochs": len(epochs),
        "temporal.invalidated_trees": sum(e.invalidated_trees for e in epochs),
        "temporal.regraded_groups": sum(e.regraded_groups for e in epochs),
        "temporal.reused_groups": sum(e.reused_groups for e in epochs),
        "core.trees_built": sum(e.cache_misses for e in epochs),
    }


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``attr`` is a dotted path inside ``module``."""

    span: str
    module: str
    attr: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("bgp.withdraw", "repro.bgp.simulator", "BGPSimulator.withdraw",
               _clock, _events("bgp.withdraw_events")),
    EntryPoint("bgp.originate", "repro.bgp.simulator", "BGPSimulator.originate",
               _clock, _events("bgp.originate_events")),
    EntryPoint("peering.discover", "repro.peering.experiments",
               "discover_alternate_routes", after=_alternates),
    EntryPoint("peering.magnet", "repro.peering.experiments", "run_magnet_experiments"),
    EntryPoint("peering.announce", "repro.peering.testbed", "PeeringTestbed.announce"),
    EntryPoint("peering.withdraw", "repro.peering.testbed", "PeeringTestbed.withdraw"),
    EntryPoint("atlas.campaign", "repro.atlas.campaign", "run_campaign",
               after=_measurements),
    EntryPoint("atlas.campaign", "repro.atlas.campaign", "run_resilient_campaign",
               after=_measurements),
    EntryPoint("dataplane.trace", "repro.dataplane.traceroute", "TracerouteEngine.trace"),
    EntryPoint("ipmap.convert", "repro.ipmap.path_conversion", "convert_traceroute"),
    EntryPoint("core.study", "repro.core.pipeline", "Study.run", after=_study_counts),
    EntryPoint("core.classify", "repro.perf.parallel",
               "ParallelClassifier.classify_layers", after=_pool_trees),
    EntryPoint("core.label", "repro.perf.parallel", "ParallelClassifier.label_layer",
               after=_pool_trees),
    EntryPoint("temporal.run", "repro.temporal.study", "run_incremental",
               after=_epoch_counts),
    EntryPoint("temporal.diff", "repro.temporal.delta", "diff_graphs"),
    EntryPoint("faults.append", "repro.faults.journal", "CheckpointJournal.append"),
    EntryPoint("topogen.generate", "repro.topogen.generator", "generate_internet"),
    EntryPoint("topogen.snapshots", "repro.topogen.inference", "inferred_snapshots"),
)


def _read(recorder: Recorder, entry: EntryPoint, hook: Optional[Callable], *args):
    """A count hook's value; ``None`` when there is no hook or the
    program no longer exposes what it reads (noted as missing)."""
    if hook is None:
        return None
    try:
        return hook(*args)
    except (AttributeError, TypeError) as error:
        recorder.missing.add(f"{entry.span} counts: {error}")
        return None


def _wrap(recorder: Recorder, entry: EntryPoint, original: Callable) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        before = _read(recorder, entry, entry.before, args)
        index = recorder.begin(entry.span)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(index)
        counts = _read(recorder, entry, entry.after, args, result, before)
        for name, value in (counts or {}).items():
            recorder.add(name, value)
        return result

    return traced


class Binding:
    """The installed wrappers; ``restore`` puts every original back."""

    def __init__(self) -> None:
        #: (owner, attribute, original, owner had the attribute itself)
        self._patches: List[Tuple[object, str, Callable, bool]] = []
        #: ``module:attr`` of every entry point that was not found.
        self.absent: List[str] = []

    def _patch(self, owner: object, name: str, original: Callable, value: Callable) -> None:
        own = name in vars(owner)
        self._patches.append((owner, name, original, own))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._patches:
            owner, name, original, own = self._patches.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def _resolve(entry: EntryPoint) -> Optional[Tuple[object, str, Callable]]:
    """(owner, attribute, callable) for ``entry``, or ``None`` if absent."""
    try:
        owner = importlib.import_module(entry.module)
    except ImportError:
        return None
    *path, name = entry.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, name, original


def install(recorder: Recorder, entry_points=ENTRY_POINTS, package: str = "repro") -> Binding:
    """Wrap every entry point; functions are also rebound in each loaded
    ``package`` module that imported them by name."""
    binding = Binding()
    resolved = []
    for entry in entry_points:
        found = _resolve(entry)
        if found is None:
            binding.absent.append(f"{entry.module}:{entry.attr}")
        else:
            resolved.append((entry, found))
    # Resolve everything first: importing an entry point's module can
    # import others that bind earlier entry points by name.
    importers = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]
    for entry, (owner, name, original) in resolved:
        wrapper = _wrap(recorder, entry, original)
        binding._patch(owner, name, original, wrapper)
        if not isinstance(owner, type):
            for module in importers:
                if module is owner:
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        binding._patch(module, alias, original, wrapper)
    return binding


# -- per-layer metrics ---------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the end-to-end metric it should move."""

    name: str
    unit: str
    better: str
    moves: str
    on: str


_STUDY = "study_s"
_BOTH = "study_s, series_s"
_SERIES = "series_s"
_WITHDRAW = "study (zero on longitudinal)"
_ORIGINATE = "longitudinal mostly, study"
_GRADING = "longitudinal mostly"
_JOURNAL = "longitudinal (zero on study)"

#: Every per-layer metric, with the end-to-end metric and workload it
#: should move (``series_s`` is printed on ``longitudinal`` only).
PER_LAYER: Tuple[LayerMetric, ...] = (
    LayerMetric("bgp.withdraw_calls", "count", "lower", _STUDY, _WITHDRAW),
    LayerMetric("bgp.withdraw_s", "s", "lower", _STUDY, _WITHDRAW),
    LayerMetric("bgp.withdraw_events", "count", "lower", _STUDY, _WITHDRAW),
    LayerMetric("bgp.events_per_withdraw", "count", "lower", _STUDY, _WITHDRAW),
    LayerMetric("bgp.originate_calls", "count", "lower", _STUDY, _ORIGINATE),
    LayerMetric("bgp.originate_s", "s", "lower", _STUDY, _ORIGINATE),
    LayerMetric("bgp.originate_events", "count", "lower", _STUDY, _ORIGINATE),
    LayerMetric("bgp.events_per_originate", "count", "lower", _STUDY, _ORIGINATE),
    LayerMetric("bgp.self_s", "s", "lower", _STUDY, "both"),
    LayerMetric("peering.discover_s", "s", "lower", _STUDY, "study"),
    LayerMetric("peering.magnet_s", "s", "lower", _STUDY, "study"),
    LayerMetric("peering.announce_calls", "count", "lower", _STUDY, "study"),
    LayerMetric("peering.withdraw_calls", "count", "lower", _STUDY, "study"),
    LayerMetric("peering.self_s", "s", "lower", _STUDY, "study"),
    LayerMetric("peering.alternates_per_announcement", "ratio", "higher", _STUDY, "study"),
    LayerMetric("atlas.campaign_s", "s", "lower", _STUDY, "longitudinal"),
    LayerMetric("atlas.self_s", "s", "lower", _STUDY, "longitudinal"),
    LayerMetric("atlas.measurements", "count", "higher", _STUDY, "longitudinal"),
    LayerMetric("dataplane.trace_calls", "count", "lower", _STUDY, "longitudinal"),
    LayerMetric("dataplane.trace_s", "s", "lower", _STUDY, "longitudinal"),
    LayerMetric("dataplane.self_s", "s", "lower", _STUDY, "longitudinal"),
    LayerMetric("ipmap.convert_calls", "count", "lower", _STUDY, "longitudinal"),
    LayerMetric("ipmap.convert_s", "s", "lower", _STUDY, "longitudinal"),
    LayerMetric("ipmap.self_s", "s", "lower", _STUDY, "longitudinal"),
    LayerMetric("core.classify_s", "s", "lower", _BOTH, _GRADING),
    LayerMetric("core.label_s", "s", "lower", _BOTH, _GRADING),
    LayerMetric("core.trees_built", "count", "lower", _BOTH, _GRADING),
    LayerMetric("core.cache_hit_rate", "ratio", "higher", _BOTH, _GRADING),
    LayerMetric("core.self_s", "s", "lower", _BOTH, _GRADING),
    LayerMetric("perf.pool_used", "bool", "higher", _BOTH, _GRADING),
    LayerMetric("perf.shards", "count", "lower", _BOTH, _GRADING),
    LayerMetric("temporal.run_s", "s", "lower", _SERIES, "longitudinal"),
    LayerMetric("temporal.diff_s", "s", "lower", _SERIES, "longitudinal"),
    LayerMetric("temporal.invalidated_trees", "count", "lower", _SERIES, "longitudinal"),
    LayerMetric("temporal.regraded_groups", "count", "lower", _SERIES, "longitudinal"),
    LayerMetric("temporal.reuse_ratio", "ratio", "higher", _SERIES, "longitudinal"),
    LayerMetric("temporal.self_s", "s", "lower", _SERIES, "longitudinal"),
    LayerMetric("faults.append_calls", "count", "lower", _BOTH, _JOURNAL),
    LayerMetric("faults.append_s", "s", "lower", _BOTH, _JOURNAL),
    LayerMetric("topogen.generate_s", "s", "lower", _BOTH, "both"),
    LayerMetric("topogen.snapshots_s", "s", "lower", _BOTH, "both"),
    LayerMetric("trace.overhead_frac", "frac", "lower", _STUDY, "both"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[Span], counts: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``trace.overhead_frac``.

    A layer that recorded nothing reads 0; :func:`layers_seen` tells an
    absent layer from one that ran.
    """
    values: Dict[str, float] = dict(counts)
    for name, totals in totals_by_name(spans).items():
        values[f"{name}_calls"] = totals.calls
        values[f"{name}_s"] = totals.total_s
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            values[f"{layer}.self_s"] = values.get(f"{layer}.self_s", 0.0) + totals.self_s
    discovery_announces = sum(
        1
        for index, span in enumerate(spans)
        if span.name == "peering.announce"
        and has_ancestor(spans, index, ("peering.discover",))
    )
    get = values.get
    values["bgp.events_per_withdraw"] = _ratio(
        get("bgp.withdraw_events", 0), get("bgp.withdraw_calls", 0)
    )
    values["bgp.events_per_originate"] = _ratio(
        get("bgp.originate_events", 0), get("bgp.originate_calls", 0)
    )
    values["peering.alternates_per_announcement"] = _ratio(
        get("peering.alternates", 0), discovery_announces
    )
    values["core.cache_hit_rate"] = _ratio(
        get("core.cache_hits", 0), get("core.cache_lookups", 0)
    )
    reused = get("temporal.reused_groups", 0)
    values["temporal.reuse_ratio"] = _ratio(
        reused, reused + get("temporal.regraded_groups", 0)
    )
    return {
        metric.name: float(values.get(metric.name, 0.0))
        for metric in PER_LAYER
        if metric.name != "trace.overhead_frac"
    }


def layers_seen(spans: List[Span], counts: Dict[str, float]) -> List[str]:
    """Layers that recorded at least one span or count."""
    names = {span.name for span in spans} | set(counts)
    return [layer for layer in LAYERS if any(n.startswith(layer + ".") for n in names)]


def is_exact(metric: str) -> bool:
    """Counts that must repeat exactly between two traced runs of a seed."""
    return metric.endswith(("_calls", "_events")) or metric in (
        "atlas.measurements",
        "core.trees_built",
        "temporal.invalidated_trees",
        "temporal.regraded_groups",
        "temporal.reuse_ratio",
    )
