"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` backs a whole run.  Instruments are
registered by name (re-registering returns the same instrument) and
support labeled series: ``counter.labels(layer="Simple").inc()`` keeps
one monotonically increasing value per distinct label set.

Two properties the rest of the study relies on:

* **Cheap when disabled** — a disabled registry hands out shared no-op
  instruments; instrumented code pays one attribute check and nothing
  else, so the fault-free hot paths stay at reference speed.
* **Plain-JSON snapshots** — :meth:`MetricsRegistry.snapshot` produces
  a sorted, plain-JSON document, which the run manifest embeds and the
  exporters render.

This module imports nothing from the rest of :mod:`repro`, so every
layer (including :mod:`repro.faults`) can depend on it without cycles.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: Default histogram bucket upper bounds, in seconds (an implicit +Inf
#: bucket is always appended).  Chosen for the study's stage scale:
#: sub-millisecond tree builds up to multi-second campaign stages.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)

#: Series key of the unlabeled series.
UNLABELED = ""


def escape_label_value(value: object) -> str:
    """Label-value escaping: backslash, quote and newline.

    A raw quote inside a label value would end the value early in its
    series key, and a raw newline would split a key across lines of the
    terminal summary, so both are escaped (and the backslash that
    introduces an escape).
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def label_key(labels: Dict[str, object]) -> str:
    """Canonical series key for a label set: ``k1="v1",k2="v2"`` sorted.

    Values are escaped by :func:`escape_label_value`, so distinct label
    sets always get distinct keys, which the manifest and the terminal
    summary print verbatim.
    """
    if not labels:
        return UNLABELED
    parts = []
    for name in sorted(labels):
        parts.append(f'{name}="{escape_label_value(labels[name])}"')
    return ",".join(parts)


class _Instrument:
    """Shared naming/series plumbing of all three instrument kinds."""

    kind = "instrument"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Counter(_Instrument):
    """A monotonically increasing value (per label set)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._series: Dict[str, float] = {}

    def labels(self, **labels: object) -> "_BoundCounter":
        return _BoundCounter(self, label_key(labels))

    def inc(self, amount: float = 1.0, _key: str = UNLABELED) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self._series[_key] = self._series.get(_key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._series.get(label_key(labels), 0.0)

    def series(self) -> Dict[str, float]:
        return dict(self._series)


class _BoundCounter:
    """A counter handle bound to one label set."""

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: Counter, key: str) -> None:
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._counter.inc(amount, _key=self._key)


class Gauge(_Instrument):
    """A point-in-time value (per label set).

    Gauges merge across snapshots by taking the **maximum** — the only
    combination that is associative, commutative and meaningful for the
    high-water readings (cache sizes, queue depths) the study records.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._series: Dict[str, float] = {}

    def labels(self, **labels: object) -> "_BoundGauge":
        return _BoundGauge(self, label_key(labels))

    def set(self, value: float, _key: str = UNLABELED) -> None:
        self._series[_key] = float(value)

    def inc(self, amount: float = 1.0, _key: str = UNLABELED) -> None:
        self._series[_key] = self._series.get(_key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._series.get(label_key(labels), 0.0)

    def series(self) -> Dict[str, float]:
        return dict(self._series)


class _BoundGauge:
    __slots__ = ("_gauge", "_key")

    def __init__(self, gauge: Gauge, key: str) -> None:
        self._gauge = gauge
        self._key = key

    def set(self, value: float) -> None:
        self._gauge.set(value, _key=self._key)

    def inc(self, amount: float = 1.0) -> None:
        self._gauge.inc(amount, _key=self._key)


class Histogram(_Instrument):
    """Fixed-bucket cumulative-count histogram (per label set)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.buckets = bounds
        #: key -> (per-bucket counts with trailing +Inf slot, sum, count)
        self._series: Dict[str, List[float]] = {}

    def labels(self, **labels: object) -> "_BoundHistogram":
        return _BoundHistogram(self, label_key(labels))

    def observe(self, value: float, _key: str = UNLABELED) -> None:
        row = self._series.get(_key)
        if row is None:
            row = [0.0] * (len(self.buckets) + 1) + [0.0, 0.0]
            self._series[_key] = row
        slot = len(self.buckets)
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                slot = index
                break
        row[slot] += 1
        row[-2] += value
        row[-1] += 1

    def series(self) -> Dict[str, Dict[str, object]]:
        out: Dict[str, Dict[str, object]] = {}
        for key, row in self._series.items():
            out[key] = {
                "counts": list(row[:-2]),
                "sum": row[-2],
                "count": row[-1],
            }
        return out


class _BoundHistogram:
    __slots__ = ("_histogram", "_key")

    def __init__(self, histogram: Histogram, key: str) -> None:
        self._histogram = histogram
        self._key = key

    def observe(self, value: float) -> None:
        self._histogram.observe(value, _key=self._key)


# ---------------------------------------------------------------------------
# No-op instruments (disabled registries)
# ---------------------------------------------------------------------------


class _NoopInstrument:
    """Accepts the full instrument API and does nothing."""

    __slots__ = ()

    def labels(self, **labels: object) -> "_NoopInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0.0

    def series(self) -> Dict[str, float]:
        return {}


NOOP_INSTRUMENT = _NoopInstrument()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class MetricsRegistry:
    """Registry of named instruments with snapshot/merge support."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: Dict[str, _Instrument] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def _register(self, cls, name: str, help: str, **kwargs) -> _Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        instrument = cls(name, help, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = ""):
        if not self.enabled:
            return NOOP_INSTRUMENT
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = ""):
        if not self.enabled:
            return NOOP_INSTRUMENT
        return self._register(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ):
        if not self.enabled:
            return NOOP_INSTRUMENT
        return self._register(Histogram, name, help, buckets=buckets)

    def instruments(self) -> List[_Instrument]:
        return list(self._instruments.values())

    def reset(self) -> None:
        self._instruments.clear()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """A plain-JSON document of every series in the registry."""
        counters: Dict[str, Dict] = {}
        gauges: Dict[str, Dict] = {}
        histograms: Dict[str, Dict] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = {
                    "help": instrument.help,
                    "series": dict(sorted(instrument.series().items())),
                }
            elif isinstance(instrument, Gauge):
                gauges[name] = {
                    "help": instrument.help,
                    "series": dict(sorted(instrument.series().items())),
                }
            elif isinstance(instrument, Histogram):
                histograms[name] = {
                    "help": instrument.help,
                    "buckets": list(instrument.buckets),
                    "series": dict(sorted(instrument.series().items())),
                }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}
