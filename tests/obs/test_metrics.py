"""Unit tests for the metrics registry."""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import NOOP_INSTRUMENT, escape_label_value, label_key

pytestmark = pytest.mark.obs


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_counter_rejects_decrease(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_counter_labeled_series_independent(self):
        counter = MetricsRegistry().counter("hits_total")
        counter.labels(layer="Simple").inc()
        counter.labels(layer="Complex").inc(3)
        assert counter.value(layer="Simple") == 1
        assert counter.value(layer="Complex") == 3
        assert counter.value(layer="Other") == 0

    def test_gauge_set_and_inc(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.inc(2)
        assert gauge.value() == 7.0

    def test_histogram_buckets_and_sum(self):
        hist = MetricsRegistry().histogram("lat", buckets=[0.1, 1.0])
        for value in (0.05, 0.5, 0.5, 10.0):
            hist.observe(value)
        row = hist.series()[""]
        # One obs <=0.1, two in (0.1, 1.0], one in +Inf.
        assert row["counts"] == [1, 2, 1]
        assert row["sum"] == pytest.approx(11.05)
        assert row["count"] == 4

    def test_reregistering_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_label_key_sorted_and_escaped(self):
        assert label_key({"b": 1, "a": 'v"q'}) == 'a="v\\"q",b="1"'


class TestLabelEscaping:
    def test_backslash_quote_and_newline(self):
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert escape_label_value("line1\nline2") == "line1\\nline2"

    def test_escaping_order_does_not_double_escape(self):
        # The backslash introduced by quote/newline escaping must not
        # itself be re-escaped: \n -> \\n exactly, not \\\\n.
        assert escape_label_value("\n") == "\\n"
        assert escape_label_value('\\"') == '\\\\\\"'

    def test_plain_values_unchanged(self):
        assert escape_label_value("study") == "study"
        assert escape_label_value(200) == "200"

    def test_label_key_uses_exposition_escaping(self):
        key = label_key({"tenant": 'evil"\n'})
        assert key == 'tenant="evil\\"\\n"'
        assert "\n" not in key


class TestDisabled:
    def test_disabled_registry_hands_out_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        assert counter is NOOP_INSTRUMENT
        counter.labels(layer="Simple").inc()
        counter.observe(1.0)
        counter.set(2.0)
        assert counter.value() == 0.0
        assert len(registry) == 0
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

