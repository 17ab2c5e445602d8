"""Run manifests: one JSON artifact binding a whole run together.

A :class:`RunManifest` answers "what did run X do, where did the time
go, and which faults fired" from a single file: it binds the config
digest and seeds that identify the run, the span tree (where time
went), the metric snapshot (what was counted), and the event log (what
happened, including every fault firing and quarantine decision).

Manifests are produced per study run (``repro study --obs-out``) and
can be built for any instrumented region via :func:`build_manifest`.
They round-trip losslessly through JSON and through the JSONL exporter
(:mod:`repro.obs.export`), which the exporter tests assert.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

try:
    import resource
except ImportError:  # no getrusage on this platform (Windows)
    resource = None

from repro.obs.context import Observability
from repro.obs.trace import Tracer

MANIFEST_SCHEMA = 1


def peak_rss_mb() -> Optional[float]:
    """This process's peak resident set size in MiB, or ``None`` where
    the platform has no :mod:`resource` module.

    ``ru_maxrss`` counts bytes on macOS and kibibytes elsewhere.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    unit = 1 if sys.platform == "darwin" else 1024
    return round(peak * unit / (1024 * 1024), 1)


def _primitive(value):
    """Recursively reduce ``value`` to JSON-encodable primitives.

    Deterministic for everything a :class:`StudyConfig` can carry:
    dataclasses become sorted field dicts, enums their values, sets
    sorted lists.  Objects with no natural primitive form collapse to
    their type name — enough to distinguish "a ledger was attached"
    without chasing unstable ``repr`` addresses.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return _primitive(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _primitive(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {
            str(_primitive(key)): _primitive(val)
            for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (frozenset, set)):
        return sorted(str(_primitive(item)) for item in value)
    if isinstance(value, (list, tuple)):
        return [_primitive(item) for item in value]
    return f"<{type(value).__name__}>"


#: How a refused field's expected type is named.
_TYPE_NAMES = {
    dict: "an object",
    list: "a list",
    str: "a string",
    int: "an integer",
    float: "a number",
    type(None): "null",
}


def _checked(value, types: tuple, field: str):
    """``value`` if it is one of ``types``; else a ``ValueError`` that
    names the manifest field."""
    if not isinstance(value, types):
        expected = " or ".join(_TYPE_NAMES[kind] for kind in types)
        raise ValueError(
            f"manifest field {field} must be {expected}, "
            f"got {type(value).__name__}"
        )
    return value


def _checked_spans(spans, field: str) -> List[Dict]:
    """A span list whose every span (children included) has the shape
    the report reads."""
    for index, span in enumerate(_checked(spans, (list,), field)):
        where = f"{field}[{index}]"
        _checked(span, (dict,), where)
        _checked(span.get("name", ""), (str,), f"{where}.name")
        _checked(span.get("duration_s", 0.0), (int, float), f"{where}.duration_s")
        _checked(span.get("attrs") or {}, (dict,), f"{where}.attrs")
        _checked_spans(span.get("children", []), f"{where}.children")
    return spans


def _checked_metrics(metrics) -> Dict:
    """A metric snapshot (:meth:`MetricsRegistry.snapshot`) whose every
    series has the shape the report reads."""
    _checked(metrics, (dict,), "metrics")
    for section in ("counters", "gauges", "histograms"):
        where = f"metrics.{section}"
        for name, data in _checked(metrics.get(section, {}), (dict,), where).items():
            metric = f"{where}.{name}"
            series = _checked(data, (dict,), metric).get("series", {})
            for key, value in _checked(series, (dict,), f"{metric}.series").items():
                row = f"{metric}.series[{key!r}]"
                if section != "histograms":
                    _checked(value, (int, float), row)
                    continue
                _checked(value, (dict,), row)
                for part in ("count", "sum"):
                    _checked(value.get(part, 0.0), (int, float), f"{row}.{part}")
    return metrics


def config_digest(config: object) -> str:
    """A stable 16-hex-digit digest identifying a run configuration."""
    canonical = json.dumps(_primitive(config), sort_keys=True)
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


@dataclass
class RunManifest:
    """Everything one run's telemetry produced, as one JSON document."""

    kind: str = "study"
    schema: int = MANIFEST_SCHEMA
    #: Digest of the run's full configuration (see :func:`config_digest`).
    config_digest: str = ""
    topology_seed: Optional[int] = None
    fault_plan_seed: Optional[int] = None
    fault_plan_fingerprint: Optional[str] = None
    #: Span tree as plain dicts (see :class:`repro.obs.trace.Span`).
    spans: List[Dict] = field(default_factory=list)
    #: Metric snapshot (see :meth:`MetricsRegistry.snapshot`).
    metrics: Dict = field(default_factory=dict)
    #: Event log as plain dicts, bounded by the stream cap.
    events: List[Dict] = field(default_factory=list)
    #: Complete ``category:name`` -> count table (never truncated).
    event_counts: Dict[str, int] = field(default_factory=dict)
    events_dropped: int = 0
    #: Free-form run metadata (scenario name, decision counts, ...).
    meta: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def stage_timings(self) -> Dict[str, float]:
        """Top-level span name -> seconds (the per-stage view)."""
        timings: Dict[str, float] = {}
        for span in self.spans:
            name = str(span.get("name", ""))
            timings[name] = timings.get(name, 0.0) + float(
                span.get("duration_s", 0.0)
            )
        return {name: round(seconds, 6) for name, seconds in timings.items()}

    def total_seconds(self) -> float:
        return sum(float(span.get("duration_s", 0.0)) for span in self.spans)

    def fault_counts(self) -> Dict[str, int]:
        """Fault-site -> firing count, extracted from the event table."""
        out: Dict[str, int] = {}
        prefix = "fault:"
        for key, count in sorted(self.event_counts.items()):
            if key.startswith(prefix):
                out[key[len(prefix):]] = count
        return out

    # ------------------------------------------------------------------
    # (De)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "schema": self.schema,
            "kind": self.kind,
            "config_digest": self.config_digest,
            "topology_seed": self.topology_seed,
            "fault_plan_seed": self.fault_plan_seed,
            "fault_plan_fingerprint": self.fault_plan_fingerprint,
            "spans": self.spans,
            "metrics": self.metrics,
            "events": self.events,
            "event_counts": dict(sorted(self.event_counts.items())),
            "events_dropped": self.events_dropped,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunManifest":
        """The manifest a JSON object describes.

        Raises ``ValueError`` for an object that is not one: a field of
        the wrong type (named in the message), or a schema newer than
        this reader supports.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"manifest must be an object, got {type(data).__name__}"
            )

        def field(name: str, types: tuple, default):
            return _checked(data.get(name, default), types, name)

        schema = field("schema", (int,), MANIFEST_SCHEMA)
        if schema > MANIFEST_SCHEMA:
            raise ValueError(
                f"manifest schema {schema} is newer than supported "
                f"({MANIFEST_SCHEMA})"
            )
        event_counts = field("event_counts", (dict,), {})
        for key, value in event_counts.items():
            _checked(value, (int,), f"event_counts[{key!r}]")
        events = field("events", (list,), [])
        for index, event in enumerate(events):
            _checked(event, (dict,), f"events[{index}]")
        return cls(
            kind=field("kind", (str,), "study"),
            schema=schema,
            config_digest=field("config_digest", (str,), ""),
            topology_seed=field("topology_seed", (int, type(None)), None),
            fault_plan_seed=field("fault_plan_seed", (int, type(None)), None),
            fault_plan_fingerprint=field(
                "fault_plan_fingerprint", (str, type(None)), None
            ),
            spans=list(_checked_spans(data.get("spans", []), "spans")),
            metrics=dict(_checked_metrics(data.get("metrics", {}))),
            events=list(events),
            event_counts=dict(event_counts),
            events_dropped=field("events_dropped", (int,), 0),
            meta=dict(field("meta", (dict,), {})),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> str:
        # Atomic so a crash mid-save cannot leave a torn manifest that
        # poisons later tooling.  Imported lazily: the faults package
        # publishes through repro.obs, so the reverse module-level
        # import would be a cycle hazard.
        from repro.faults.storage import write_text_atomic

        return write_text_atomic(path, self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        stripped = text.lstrip()
        if stripped.startswith("{") and "\n{" not in stripped.rstrip():
            return cls.from_json(text)
        # JSONL export (one object per line) loads transparently too.
        from repro.obs.export import from_jsonl

        return from_jsonl(text)


def build_manifest(
    obs: Observability,
    tracer: Optional[Tracer] = None,
    *,
    kind: str = "study",
    config: object = None,
    topology_seed: Optional[int] = None,
    fault_plan_seed: Optional[int] = None,
    fault_plan_fingerprint: Optional[str] = None,
    meta: Optional[Dict[str, object]] = None,
) -> RunManifest:
    """Bind the current telemetry state into one manifest.

    An enabled context's collector pauses join the metric snapshot's
    counters.
    """
    metrics = obs.metrics.snapshot()
    if obs.enabled:
        counters = {**metrics["counters"], **obs.collector.counters()}
        metrics["counters"] = dict(sorted(counters.items()))
    return RunManifest(
        kind=kind,
        config_digest=config_digest(config) if config is not None else "",
        topology_seed=topology_seed,
        fault_plan_seed=fault_plan_seed,
        fault_plan_fingerprint=fault_plan_fingerprint,
        spans=tracer.to_dicts() if tracer is not None else [],
        metrics=metrics,
        events=obs.events.to_dicts(),
        event_counts=dict(obs.events.counts),
        events_dropped=obs.events.dropped,
        meta=dict(meta or {}),
    )
