"""Prometheus exposition tests: label and help escaping, metric types.

``repro obs report --prometheus`` writes the text format for
Prometheus tooling to read, where a raw newline inside a label value
would end a sample early and silently corrupt every series after it.
"""

import pytest

from repro.obs.export import metrics_to_prometheus
from repro.obs.metrics import MetricsRegistry, escape_label_value, label_key

pytestmark = pytest.mark.obs


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


class TestExposition:
    def test_hostile_label_values_stay_on_one_sample_line(self):
        registry = MetricsRegistry()
        counter = registry.counter("serve_requests_total", "Requests.")
        counter.labels(tenant='bad\n"guy\\', workload="study").inc()
        text = metrics_to_prometheus(registry.snapshot())
        sample_lines = [
            line
            for line in text.splitlines()
            if line.startswith("serve_requests_total{")
        ]
        assert len(sample_lines) == 1
        assert sample_lines[0].endswith(" 1")
        assert '\\n' in sample_lines[0]

    def test_help_text_escapes_newlines(self):
        registry = MetricsRegistry()
        registry.gauge("depth", "first line\nsecond line").set(3)
        text = metrics_to_prometheus(registry.snapshot())
        assert "# HELP depth first line\\nsecond line" in text
        assert "depth 3" in text

    def test_counter_gauge_histogram_render_types(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "Hits.").inc(2)
        registry.gauge("depth", "Depth.").set(7)
        registry.histogram("latency_seconds", "Latency.").observe(0.2)
        text = metrics_to_prometheus(registry.snapshot())
        assert "# TYPE hits_total counter" in text
        assert "# TYPE depth gauge" in text
        assert "# TYPE latency_seconds histogram" in text
        assert 'latency_seconds_bucket{le="+Inf"} 1' in text
        assert "latency_seconds_count 1" in text
