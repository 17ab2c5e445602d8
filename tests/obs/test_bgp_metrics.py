"""Telemetry for the BGP stage and the run's memory: convergence metrics
recorded by the simulator, and peak RSS in the study manifest."""

import types

import pytest

from repro.bgp import BGPSimulator
from repro.cli import main
from repro.net.ip import Prefix
from repro.obs import Observability, build_manifest, manifest, peak_rss_mb, using
from repro.topology import ASGraph, Relationship

pytestmark = pytest.mark.obs

PFX = Prefix.parse("198.51.100.0/24")


def _anycast_simulator():
    """AS1 above two origins, so one of them can withdraw by events."""
    graph = ASGraph()
    graph.add_link(1, 2, Relationship.CUSTOMER)
    graph.add_link(1, 3, Relationship.CUSTOMER)
    return BGPSimulator(graph)


class TestConvergenceMetrics:
    def test_recorded_once_per_convergence_by_kind(self):
        simulator = _anycast_simulator()
        with using(Observability()) as obs:
            simulator.originate(2, PFX)
            simulator.originate(3, PFX)
            announced = simulator.clock
            simulator.withdraw(2, PFX)  # AS3 still originates: by events
        counter = obs.metrics.snapshot()["counters"]["bgp_events_delivered_total"]
        histogram = obs.metrics.snapshot()["histograms"]["bgp_convergence_events"]
        originate, withdraw = 'kind="originate"', 'kind="withdraw"'
        assert counter["series"][originate] == announced
        assert counter["series"][withdraw] == simulator.clock - announced
        assert histogram["series"][originate]["count"] == 2
        assert histogram["series"][originate]["sum"] == announced
        assert histogram["series"][withdraw]["count"] == 1

    def test_reset_delivers_nothing_and_records_nothing(self):
        simulator = _anycast_simulator()
        simulator.originate(2, PFX)
        with using(Observability()) as obs:
            simulator.withdraw(2, PFX)  # sole origin: direct reset
        assert obs.metrics.snapshot()["counters"] == {}
        assert obs.metrics.snapshot()["histograms"] == {}

    def test_disabled_telemetry_registers_nothing(self):
        simulator = _anycast_simulator()
        with using(Observability.disabled()) as obs:
            simulator.originate(2, PFX)
        assert len(obs.metrics) == 0


class TestPeakRss:
    def _fake_resource(self, maxrss):
        usage = types.SimpleNamespace(ru_maxrss=maxrss)
        return types.SimpleNamespace(RUSAGE_SELF=0, getrusage=lambda who: usage)

    def test_kibibytes_on_linux(self, monkeypatch):
        monkeypatch.setattr(manifest, "resource", self._fake_resource(3 * 1024 * 1024))
        monkeypatch.setattr(manifest.sys, "platform", "linux")
        assert peak_rss_mb() == 3072.0

    def test_bytes_on_macos(self, monkeypatch):
        monkeypatch.setattr(manifest, "resource", self._fake_resource(3 * 1024 * 1024))
        monkeypatch.setattr(manifest.sys, "platform", "darwin")
        assert peak_rss_mb() == 3.0

    def test_absent_without_resource_module(self, monkeypatch):
        monkeypatch.setattr(manifest, "resource", None)
        assert peak_rss_mb() is None

    def test_this_process(self):
        peak = peak_rss_mb()
        assert peak is None or peak > 0


def test_report_prints_convergence_metrics_and_peak_rss(tmp_path, capsys):
    simulator = _anycast_simulator()
    with using(Observability()) as obs:
        simulator.originate(2, PFX)
    path = build_manifest(obs, meta={"peak_rss_mb": 42.5}).save(
        str(tmp_path / "run.json")
    )
    assert main(["obs", "report", path]) == 0
    output = capsys.readouterr().out
    assert "peak_rss_mb: 42.5" in output
    assert 'bgp_events_delivered_total{kind="originate"}' in output
    assert 'bgp_convergence_events{kind="originate"}' in output
