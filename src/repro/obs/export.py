"""Manifest exporters: JSONL and the terminal summary.

Two consumers of one :class:`~repro.obs.manifest.RunManifest`:

* :func:`to_jsonl` / :func:`from_jsonl` — a line-oriented form for log
  shippers; lossless (``from_jsonl(to_jsonl(m)) == m``).
* :func:`render_summary` — the human view ``repro obs report`` prints:
  span tree with durations (and, on request, the span names with the
  largest self time), collector pauses, metric highlights, fault/event
  accounting.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional

from repro.obs.gc import COLLECTIONS_METRIC, GENERATION_SERIES, PAUSE_METRIC
from repro.obs.manifest import RunManifest

#: JSONL record kinds.
_KIND_HEADER = "header"
_KIND_SPAN = "span"
_KIND_METRICS = "metrics"
_KIND_EVENT = "event"


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------


def to_jsonl(manifest: RunManifest) -> str:
    """One JSON object per line: header, root spans, metrics, events."""
    lines = [
        json.dumps(
            {
                "kind": _KIND_HEADER,
                "schema": manifest.schema,
                "run_kind": manifest.kind,
                "config_digest": manifest.config_digest,
                "topology_seed": manifest.topology_seed,
                "fault_plan_seed": manifest.fault_plan_seed,
                "fault_plan_fingerprint": manifest.fault_plan_fingerprint,
                "event_counts": dict(sorted(manifest.event_counts.items())),
                "events_dropped": manifest.events_dropped,
                "meta": manifest.meta,
            },
            sort_keys=True,
        )
    ]
    for span in manifest.spans:
        lines.append(json.dumps({"kind": _KIND_SPAN, "span": span}, sort_keys=True))
    lines.append(
        json.dumps(
            {"kind": _KIND_METRICS, "metrics": manifest.metrics}, sort_keys=True
        )
    )
    for event in manifest.events:
        lines.append(
            json.dumps({"kind": _KIND_EVENT, "event": event}, sort_keys=True)
        )
    return "\n".join(lines) + "\n"


def from_jsonl(text: str) -> RunManifest:
    """Rebuild a manifest from its JSONL export.

    Raises ``ValueError`` for text that is not one: a line that is not
    a JSON object, a record of unknown kind, a span or event record
    without its body, a metrics record whose metrics are not an object,
    no header record, or a field of the wrong type or a header of a
    newer schema than this reader supports (as
    :meth:`RunManifest.from_dict` does).
    """
    header: Optional[Dict] = None
    spans: List[Dict] = []
    metrics: Dict = {}
    events: List[Dict] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as error:
            raise ValueError(f"bad JSONL manifest line {line_no}: {error}") from None
        if not isinstance(record, dict):
            raise ValueError(
                f"JSONL manifest line {line_no} is a {type(record).__name__}, "
                "not an object"
            )
        kind = record.get("kind")
        if kind == _KIND_HEADER:
            header = record
        elif kind in (_KIND_SPAN, _KIND_EVENT):
            body = record.get(kind)
            if not isinstance(body, dict):
                raise ValueError(
                    f"JSONL manifest {kind} record without a body (line {line_no})"
                )
            (spans if kind == _KIND_SPAN else events).append(body)
        elif kind == _KIND_METRICS:
            metrics = record.get("metrics", {})
            if not isinstance(metrics, dict):
                raise ValueError(
                    f"JSONL manifest metrics record holds a "
                    f"{type(metrics).__name__}, not an object (line {line_no})"
                )
        else:
            raise ValueError(
                f"unknown JSONL manifest record kind {kind!r} (line {line_no})"
            )
    if header is None:
        raise ValueError("JSONL manifest has no header record")
    return RunManifest.from_dict(
        dict(
            header,
            kind=header.get("run_kind", "study"),
            spans=spans,
            metrics=metrics,
            events=events,
        )
    )


# ---------------------------------------------------------------------------
# Terminal summary
# ---------------------------------------------------------------------------


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_span(span: Dict, total: float, depth: int, lines: List[str]) -> None:
    duration = float(span.get("duration_s", 0.0))
    share = f"{duration / total * 100:5.1f}%" if total > 0 else "  -  "
    marker = " !" if span.get("failed") else ""
    attrs = span.get("attrs") or {}
    attr_text = (
        " [" + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + "]"
        if attrs
        else ""
    )
    lines.append(
        f"  {'  ' * depth}{span.get('name', '?'):<{max(4, 34 - 2 * depth)}}"
        f" {duration:9.3f}s  {share}{attr_text}{marker}"
    )
    for child in span.get("children", []):
        _render_span(child, total, depth + 1, lines)


def _top_self_time(spans: List[Dict], total: float, count: int) -> List[str]:
    """The ``count`` span names with the largest self time (a span's
    duration minus its children's, never negative), summed over every
    span of the name: calls, self seconds and share of the span total."""
    by_name: Dict[str, List[float]] = {}
    stack = list(spans)
    while stack:
        span = stack.pop()
        children = span.get("children", [])
        own = float(span.get("duration_s", 0.0)) - sum(
            float(child.get("duration_s", 0.0)) for child in children
        )
        tally = by_name.setdefault(str(span.get("name", "?")), [0, 0.0])
        tally[0] += 1
        tally[1] += max(0.0, own)
        stack.extend(children)
    ranked = sorted(by_name.items(), key=lambda item: (-item[1][1], item[0]))
    lines = [f"top {min(count, len(ranked))} spans by self time:"]
    for name, (calls, seconds) in ranked[:count]:
        share = f"{seconds / total * 100:5.1f}%" if total > 0 else "  -  "
        lines.append(f"  {name:<34} {calls:>7}x {seconds:9.3f}s  {share}")
    return lines


def _gc_pauses_line(counters: Dict, total: float) -> Optional[str]:
    """Collector passes and pause seconds by generation, and their share
    of the span total (``None``: the manifest counted no collector)."""
    passes = counters.get(COLLECTIONS_METRIC, {}).get("series", {})
    seconds = counters.get(PAUSE_METRIC, {}).get("series", {})
    if not passes:
        return None
    by_generation = ", ".join(
        f"gen{generation} {_format_value(passes.get(key, 0.0))}x "
        f"{seconds.get(key, 0.0):.3f}s"
        for generation, key in enumerate(GENERATION_SERIES)
    )
    paused = sum(seconds.values())
    share = f"{paused / total * 100:.1f}%" if total > 0 else "-"
    return (
        f"gc pauses: {by_generation}; {paused:.3f}s, "
        f"{share} of the span total"
    )


def render_summary(
    manifest: RunManifest, top_metrics: int = 12, top_spans: Optional[int] = None
) -> str:
    """A terminal report of one manifest (what ``repro obs report`` prints).

    Every metric is named; at most ``top_metrics`` series of each are
    listed, so one metric with many label sets cannot crowd out the rest.
    With ``top_spans``, the span tree is followed by the ``top_spans``
    span names with the largest self time.
    """
    lines: List[str] = []
    lines.append(f"== run manifest ({manifest.kind}) ==")
    identity = [f"config={manifest.config_digest or '-'}"]
    if manifest.topology_seed is not None:
        identity.append(f"topology_seed={manifest.topology_seed}")
    if manifest.fault_plan_seed is not None:
        identity.append(f"fault_plan_seed={manifest.fault_plan_seed}")
    if manifest.fault_plan_fingerprint:
        identity.append(f"fault_plan={manifest.fault_plan_fingerprint}")
    lines.append("  " + "  ".join(identity))
    for key, value in sorted(manifest.meta.items()):
        lines.append(f"  {key}: {value}")

    total = manifest.total_seconds()
    if manifest.spans:
        lines.append("")
        lines.append(f"spans ({total:.3f}s total):")
        for span in manifest.spans:
            _render_span(span, total, 0, lines)
        if top_spans:
            lines.append("")
            lines.extend(_top_self_time(manifest.spans, total, top_spans))

    counters = manifest.metrics.get("counters", {})
    gc_line = _gc_pauses_line(counters, total)
    if gc_line is not None:
        lines.append("")
        lines.append(gc_line)
    gauges = manifest.metrics.get("gauges", {})
    histograms = manifest.metrics.get("histograms", {})
    if counters or gauges or histograms:
        lines.append("")
        lines.append(
            f"metrics ({len(counters)} counters, {len(gauges)} gauges, "
            f"{len(histograms)} histograms):"
        )
        per_metric: List[List[str]] = []
        for name, data in sorted(counters.items()) + sorted(gauges.items()):
            rows = []
            for key, value in sorted(data.get("series", {}).items()):
                label = f"{name}{{{key}}}" if key else name
                rows.append(f"  {label:<52} {_format_value(value):>12}")
            per_metric.append(rows)
        for name, data in sorted(histograms.items()):
            rows = []
            for key, row in sorted(data.get("series", {}).items()):
                label = f"{name}{{{key}}}" if key else name
                count = row.get("count", 0.0)
                mean = row.get("sum", 0.0) / count if count else 0.0
                rows.append(
                    f"  {label:<52} {_format_value(count):>12}"
                    f"  (mean {mean:.6f})"
                )
            per_metric.append(rows)
        for rows in per_metric:
            lines.extend(rows[:top_metrics])
            if len(rows) > top_metrics:
                lines.append(f"  ... {len(rows) - top_metrics} more series")

    if manifest.event_counts:
        lines.append("")
        total_events = sum(manifest.event_counts.values())
        dropped = (
            f" ({manifest.events_dropped} beyond the log cap)"
            if manifest.events_dropped
            else ""
        )
        lines.append(f"events ({total_events} published{dropped}):")
        for key, count in sorted(
            manifest.event_counts.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            lines.append(f"  {key:<52} {count:>12}")

    faults = manifest.fault_counts()
    if faults:
        lines.append("")
        lines.append("faults fired:")
        for site, count in faults.items():
            lines.append(f"  {site:<52} {count:>12}")
    return "\n".join(lines)


def write_jsonl(manifest: RunManifest, path: str) -> str:
    from repro.faults.storage import write_text_atomic

    return write_text_atomic(path, to_jsonl(manifest))
