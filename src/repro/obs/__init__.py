"""repro.obs — unified telemetry: spans, metrics, events, manifests.

One subsystem answers "where did the time go, what was counted, which
faults fired" for every run in the study:

* :mod:`repro.obs.trace` — nestable spans on a monotonic clock, whose
  top-level spans are the per-stage timings.
* :mod:`repro.obs.metrics` — process-wide registry of counters,
  gauges, and fixed-bucket histograms with plain-JSON snapshots.
* :mod:`repro.obs.gc` — the cyclic garbage collector's pauses by
  generation, counted while an enabled context is current.
* :mod:`repro.obs.events` — typed, deterministic event stream for the
  faults layer and the BGP simulator.
* :mod:`repro.obs.manifest` — the :class:`RunManifest` JSON artifact
  binding config digest, seeds, span tree, metric snapshot, and event
  log together.
* :mod:`repro.obs.export` — the JSONL exporter and the terminal
  summary behind ``repro obs report``.

Telemetry is disabled by default and deterministic-safe when enabled:
no wall-clock values enter events or manifest-relevant state, and no
instrumentation consumes randomness, so seeded study outputs are
byte-identical with telemetry on or off.

This package imports nothing from the rest of ``repro`` so any layer
(``repro.faults``, ``repro.bgp``, ...) can depend on it without cycles.
"""

from repro.obs.context import (
    Observability,
    disable,
    enable,
    events_enabled,
    get_obs,
    publish,
    set_obs,
    using,
)
from repro.obs.events import (
    CATEGORY_ACTIVE,
    CATEGORY_BGP,
    CATEGORY_BREAKER,
    CATEGORY_CAMPAIGN,
    CATEGORY_FAULT,
    CATEGORY_QUARANTINE,
    CATEGORY_RETRY,
    DEFAULT_MAX_EVENTS,
    Event,
    EventStream,
)
from repro.obs.export import (
    from_jsonl,
    render_summary,
    to_jsonl,
    write_jsonl,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    build_manifest,
    config_digest,
    peak_rss_mb,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    label_key,
)
from repro.obs.trace import (
    NullSpan,
    Span,
    Tracer,
    current_tracer,
    flatten,
    span,
)

__all__ = [
    # context
    "Observability",
    "get_obs",
    "set_obs",
    "enable",
    "disable",
    "using",
    "events_enabled",
    "publish",
    # events
    "Event",
    "EventStream",
    "DEFAULT_MAX_EVENTS",
    "CATEGORY_RETRY",
    "CATEGORY_BREAKER",
    "CATEGORY_FAULT",
    "CATEGORY_QUARANTINE",
    "CATEGORY_BGP",
    "CATEGORY_CAMPAIGN",
    "CATEGORY_ACTIVE",
    # export
    "to_jsonl",
    "from_jsonl",
    "render_summary",
    "write_jsonl",
    # manifest
    "RunManifest",
    "build_manifest",
    "config_digest",
    "peak_rss_mb",
    "MANIFEST_SCHEMA",
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "escape_label_value",
    "label_key",
    # trace
    "Tracer",
    "Span",
    "NullSpan",
    "span",
    "current_tracer",
    "flatten",
]
