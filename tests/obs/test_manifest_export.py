"""Round-trip tests for manifests and their exporters."""

import json

import pytest

from repro.obs import (
    MANIFEST_SCHEMA,
    Observability,
    RunManifest,
    Tracer,
    build_manifest,
    config_digest,
    from_jsonl,
    render_summary,
    to_jsonl,
    write_jsonl,
)

pytestmark = pytest.mark.obs


def _sample_manifest() -> RunManifest:
    obs = Observability()
    obs.metrics.counter("repro_decisions_total", "Decisions.").inc(42)
    obs.metrics.counter("repro_hits_total").labels(layer="Simple").inc(7)
    obs.metrics.gauge("repro_cache_size").set(128)
    hist = obs.metrics.histogram("repro_stage_seconds", buckets=[0.1, 1.0])
    hist.observe(0.05)
    hist.observe(0.5)
    obs.events.publish("fault", "atlas/dns:timeout", key="1/n")
    obs.events.publish("retry", "attempt", site="atlas/dns", attempt=1)
    tracer = Tracer()
    with tracer.span("stage", layer="Simple"):
        with tracer.span("inner"):
            pass
    return build_manifest(
        obs,
        tracer,
        kind="test",
        config={"seed": 3, "scenario": "quick"},
        topology_seed=3,
        fault_plan_seed=11,
        fault_plan_fingerprint="abc123",
        meta={"decisions": 42},
    )


class TestManifest:
    def test_json_round_trip(self):
        manifest = _sample_manifest()
        restored = RunManifest.from_json(manifest.to_json())
        assert restored.to_dict() == manifest.to_dict()

    def test_save_load_json_and_jsonl(self, tmp_path):
        manifest = _sample_manifest()
        json_path = str(tmp_path / "run.json")
        jsonl_path = str(tmp_path / "run.jsonl")
        manifest.save(json_path)
        write_jsonl(manifest, jsonl_path)
        # load() detects the format from the content, not the extension.
        assert RunManifest.load(json_path).to_dict() == manifest.to_dict()
        assert RunManifest.load(jsonl_path).to_dict() == manifest.to_dict()

    def test_newer_schema_rejected(self):
        data = _sample_manifest().to_dict()
        data["schema"] = MANIFEST_SCHEMA + 1
        with pytest.raises(ValueError, match="newer than supported"):
            RunManifest.from_dict(data)

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"event_counts": [1]}, "event_counts must be an object, got list"),
            ({"event_counts": {"fault:x": "1"}}, "event_counts['fault:x']"),
            ({"spans": 5}, "spans must be a list, got int"),
            ({"spans": [5]}, "spans[0] must be an object, got int"),
            (
                {"spans": [{"children": [{"duration_s": "1"}]}]},
                "spans[0].children[0].duration_s",
            ),
            ({"spans": [{"attrs": [1]}]}, "spans[0].attrs"),
            ({"meta": [1]}, "meta must be an object, got list"),
            ({"metrics": [1, 2]}, "metrics must be an object, got list"),
            (
                {"metrics": {"counters": {"c": {"series": {"": "2"}}}}},
                "metrics.counters.c.series['']",
            ),
            (
                {"metrics": {"histograms": {"h": {"series": {"": {"count": []}}}}}},
                "metrics.histograms.h.series[''].count",
            ),
            ({"events": [1]}, "events[0] must be an object"),
            ({"events_dropped": "3"}, "events_dropped must be an integer"),
            ({"schema": "1"}, "schema must be an integer"),
            ({"topology_seed": 1.5}, "topology_seed must be an integer or null"),
            ({"kind": 3}, "kind must be a string"),
        ],
    )
    def test_a_field_of_the_wrong_type_is_named(self, fields, named):
        data = dict(_sample_manifest().to_dict(), **fields)
        with pytest.raises(ValueError, match="manifest field") as excinfo:
            RunManifest.from_dict(data)
        assert named in str(excinfo.value)

    def test_stage_timings_view(self):
        manifest = _sample_manifest()
        timings = manifest.stage_timings()
        assert set(timings) == {"stage"}
        assert manifest.total_seconds() == pytest.approx(
            timings["stage"], abs=1e-5
        )

    def test_fault_counts_view(self):
        manifest = _sample_manifest()
        assert manifest.fault_counts() == {"atlas/dns:timeout": 1}

    def test_config_digest_stable_and_order_independent(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})
        assert config_digest({"a": 1}) != config_digest({"a": 2})
        assert len(config_digest({"a": 1})) == 16


class TestJsonl:
    def test_round_trip_equality(self):
        manifest = _sample_manifest()
        restored = from_jsonl(to_jsonl(manifest))
        assert restored.to_dict() == manifest.to_dict()

    def test_every_line_is_json(self):
        text = to_jsonl(_sample_manifest())
        kinds = [json.loads(line)["kind"] for line in text.splitlines()]
        assert kinds[0] == "header"
        assert kinds.count("metrics") == 1
        assert kinds.count("span") == 1  # one root span
        assert kinds.count("event") == 2

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="bad JSONL manifest line"):
            from_jsonl('{"kind": "header"}\nnot json\n')

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown JSONL manifest record"):
            from_jsonl('{"kind": "mystery"}\n')

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "no header record"),
            ("\n\n", "no header record"),
            ("[1, 2]\n", "line 1 is a list, not an object"),
            ('{"kind": "header"}\n"text"\n', "line 2 is a str, not an object"),
            ('{"kind": "header"}\n{"kind": "span"}\n', "span record without a body"),
            ('{"kind": "header"}\n{"kind": "event"}\n', "event record without a body"),
            ('{"kind": "metrics", "metrics": {}}\n', "no header record"),
        ],
        ids=[
            "empty",
            "blank",
            "array",
            "string-line",
            "bodiless-span",
            "bodiless-event",
            "headerless",
        ],
    )
    def test_not_a_manifest_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            from_jsonl(text)

    def test_metrics_record_that_is_not_an_object_rejected(self):
        lines = to_jsonl(_sample_manifest()).splitlines()
        metrics = next(
            index
            for index, line in enumerate(lines)
            if json.loads(line)["kind"] == "metrics"
        )
        lines[metrics] = json.dumps({"kind": "metrics", "metrics": [1, 2]})
        message = f"metrics record holds a list, not an object \\(line {metrics + 1}\\)"
        with pytest.raises(ValueError, match=message):
            from_jsonl("\n".join(lines))

    def test_newer_header_schema_rejected(self):
        lines = to_jsonl(_sample_manifest()).splitlines()
        header = json.loads(lines[0])
        header["schema"] = MANIFEST_SCHEMA + 1
        lines[0] = json.dumps(header)
        with pytest.raises(ValueError, match="newer than supported"):
            from_jsonl("\n".join(lines))


class TestSummary:
    def test_summary_mentions_all_sections(self):
        manifest = _sample_manifest()
        text = render_summary(manifest)
        assert "== run manifest (test) ==" in text
        assert "stage" in text and "inner" in text
        assert "repro_decisions_total" in text
        assert "fault:atlas/dns:timeout" in text
        assert "faults fired:" in text

    def test_summary_caps_metric_rows(self):
        obs = Observability()
        counter = obs.metrics.counter("many_total")
        for index in range(30):
            counter.labels(index=index).inc()
        manifest = build_manifest(obs, None, kind="test")
        text = render_summary(manifest, top_metrics=5)
        assert "... 25 more series" in text
