"""Tests for Atlas-style JSON serialization of measurements."""

import json

import pytest

from repro.atlas.api import (
    dump_measurements,
    traceroute_from_json,
    traceroute_to_json,
)
from repro.dataplane.traceroute import TracerouteHop, TracerouteResult
from repro.net.ip import IPAddress


def _result(reached=True, with_star=True):
    hops = [
        TracerouteHop(ip=IPAddress.parse("10.0.0.1"), rtt=1.5),
        TracerouteHop(ip=None, rtt=None) if with_star else TracerouteHop(
            ip=IPAddress.parse("10.0.0.2"), rtt=2.0
        ),
        TracerouteHop(ip=IPAddress.parse("10.0.0.3"), rtt=9.25),
    ]
    return TracerouteResult(
        source_asn=65001,
        source_ip=IPAddress.parse("10.1.0.1"),
        destination_ip=IPAddress.parse("10.0.0.3"),
        hops=hops,
        reached=reached,
    )


class TestJSONRoundtrip:
    def test_roundtrip_preserves_everything(self):
        original = _result()
        document = traceroute_to_json(original, probe_id=42)
        parsed = traceroute_from_json(document)
        assert parsed.source_asn == original.source_asn
        assert parsed.source_ip == original.source_ip
        assert parsed.destination_ip == original.destination_ip
        assert parsed.reached == original.reached
        assert parsed.hops == original.hops

    def test_star_hop_shape(self):
        document = traceroute_to_json(_result())
        star = document["result"][1]
        assert star["result"] == [{"x": "*"}]

    def test_document_is_json_serializable(self):
        document = traceroute_to_json(_result())
        json.dumps(document)

    def test_rejects_wrong_type(self):
        with pytest.raises(ValueError):
            traceroute_from_json({"type": "ping"})


class TestJSONLines:
    def test_dump_and_load_campaign(self, study):
        sample = study.dataset.measurements[:20]
        text = dump_measurements(sample)
        results = [traceroute_from_json(json.loads(line)) for line in text.splitlines()]
        assert len(results) == len(sample)
        for original, parsed in zip(sample, results):
            assert parsed.destination_ip == original.traceroute.destination_ip
            assert parsed.hops == original.traceroute.hops

    def test_empty_dump(self):
        assert dump_measurements([]) == ""
