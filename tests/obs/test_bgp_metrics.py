"""Telemetry for the BGP stage and the run's memory: convergence metrics
recorded by the simulator, and peak RSS in the study manifest."""

import types

import pytest

from repro.bgp import BGPSimulator
from repro.cli import main
from repro.net.ip import Prefix
from repro.obs import (
    CATEGORY_BGP,
    Observability,
    build_manifest,
    manifest,
    peak_rss_mb,
    using,
)
from repro.topology import ASGraph, Relationship

pytestmark = pytest.mark.obs

PFX = Prefix.parse("198.51.100.0/24")


def _anycast_simulator():
    """AS1 above two origins, so one of them can withdraw by events."""
    graph = ASGraph()
    graph.add_link(1, 2, Relationship.CUSTOMER)
    graph.add_link(1, 3, Relationship.CUSTOMER)
    return BGPSimulator(graph)


def _tail_simulator():
    """Origin 2 under provider 1 and over customer 3; 1 and 3 peer and
    both sell transit to 4, so AS3's first update to AS4 is superseded
    while it is queued."""
    graph = ASGraph()
    graph.add_link(1, 2, Relationship.CUSTOMER)
    graph.add_link(2, 3, Relationship.CUSTOMER)
    graph.add_link(1, 3, Relationship.PEER)
    graph.add_link(1, 4, Relationship.CUSTOMER)
    graph.add_link(3, 4, Relationship.CUSTOMER)
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
        """The sole origin's withdrawal copies the empty state: it
        records no delivered run, only its copy, by kind."""
        simulator = _anycast_simulator()
        simulator.originate(2, PFX)
        with using(Observability()) as obs:
            simulator.withdraw(2, PFX)  # sole origin: copies the empty state
        snapshot = obs.metrics.snapshot()
        assert snapshot["histograms"] == {}
        assert list(snapshot["counters"]) == ["bgp_convergences_reused_total"]
        reused = snapshot["counters"]["bgp_convergences_reused_total"]
        assert reused["series"] == {'kind="withdraw"': 1}

    def test_withdraw_by_a_non_origin_is_a_no_op(self):
        """Nothing to withdraw and nothing in flight: no observation, no
        epoch, and the prefix's converged state stays known."""
        simulator = _anycast_simulator()
        with using(Observability()) as obs:
            simulator.withdraw(2, PFX)  # never announced
        assert obs.metrics.snapshot()["histograms"] == {}
        assert simulator.epoch == 0
        simulator.originate(2, PFX)
        before = (simulator.clock, simulator.epoch)
        with using(Observability()) as obs:
            simulator.withdraw(3, PFX)  # AS3 does not originate it
        assert obs.metrics.snapshot()["histograms"] == {}
        assert (simulator.clock, simulator.epoch) == before
        assert simulator._states.node(PFX) is not None

    def test_reuse_counted_apart_from_delivered_messages(self):
        twin = Prefix.parse("198.51.101.0/24")
        simulator = _anycast_simulator()
        with using(Observability()) as obs:
            simulator.originate(2, PFX)
            delivered = simulator.clock
            simulator.originate(2, twin)  # equal policy: copied
        snapshot = obs.metrics.snapshot()
        originate = 'kind="originate"'
        reused = snapshot["counters"]["bgp_convergences_reused_total"]
        assert reused["series"][originate] == 1
        assert (
            snapshot["counters"]["bgp_events_delivered_total"]["series"][originate]
            == delivered
        )
        assert snapshot["histograms"]["bgp_convergence_events"]["series"][originate][
            "count"
        ] == 1
        converged = [
            event
            for event in obs.events.of_category(CATEGORY_BGP)
            if event.name == "converged"
        ]
        assert [event.attr("reused", False) for event in converged] == [False, True]
        assert converged[1].attr("skipped") == delivered
        assert simulator.clock == 2 * delivered

    def test_coalesced_updates_counted_beside_delivered_ones(self):
        simulator = _tail_simulator()
        with using(Observability()) as obs:
            simulator.originate(2, PFX)
        counters = obs.metrics.snapshot()["counters"]
        originate = 'kind="originate"'
        coalesced = counters["bgp_updates_coalesced_total"]["series"][originate]
        assert coalesced >= 1
        assert (
            counters["bgp_events_delivered_total"]["series"][originate]
            == simulator.clock
        )
        (converged,) = [
            event
            for event in obs.events.of_category(CATEGORY_BGP)
            if event.name == "converged"
        ]
        assert converged.attr("coalesced") == coalesced
        assert converged.attr("delivered") == simulator.clock

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
    assert 'bgp_updates_coalesced_total{kind="originate"}' in output
    assert 'bgp_convergence_events{kind="originate"}' in output


def test_report_names_reused_convergences(tmp_path, capsys):
    simulator = _anycast_simulator()
    with using(Observability()) as obs:
        simulator.originate(2, PFX)
        simulator.originate(2, Prefix.parse("198.51.101.0/24"))
    path = build_manifest(obs).save(str(tmp_path / "run.json"))
    assert main(["obs", "report", path]) == 0
    assert 'bgp_convergences_reused_total{kind="originate"}' in capsys.readouterr().out
