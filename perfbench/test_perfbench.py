"""Self-tests of the benchmark's statistics, span accounting and wrappers.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
from spans import Recorder, Span, has_ancestor, self_times, totals_by_name  # noqa: E402
from stats import quartiles, regressed, summarize  # noqa: E402


# -- statistics -------------------------------------------------------------


def test_median_and_sample_count():
    assert summarize([3.0, 1.0, 2.0]).median == 2.0
    assert summarize([4.0, 1.0, 3.0, 2.0]).median == 2.5
    assert summarize([5.0, 1.0, 3.0, 2.0, 4.0]).n == 5


def test_quartiles_match_statistics_quantiles():
    values = [7.1, 6.4, 8.8, 5.2, 7.9, 6.0, 7.3, 6.9, 5.8, 8.1]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q3)
    summary = summarize(values)
    assert (summary.q1, summary.q3) == (q1, q3)
    assert summary.spread == pytest.approx((q3 - q1) / statistics.median(values))


def test_single_value_is_its_own_quartiles():
    summary = summarize([2.5])
    assert (summary.q1, summary.median, summary.q3, summary.n) == (2.5, 2.5, 2.5, 1)
    assert summary.spread == 0.0


def test_empty_sample_is_refused():
    with pytest.raises(ValueError):
        summarize([])


def test_regression_bound_lower_is_better():
    assert not regressed(10.0, 12.0, 0.25, "lower")
    assert not regressed(10.0, 12.5, 0.25, "lower")
    assert regressed(10.0, 12.6, 0.25, "lower")
    assert not regressed(10.0, 5.0, 0.25, "lower")


def test_regression_bound_higher_is_better():
    assert not regressed(10.0, 8.0, 0.25, "higher")
    assert regressed(10.0, 7.4, 0.25, "higher")
    assert not regressed(10.0, 20.0, 0.25, "higher")
    with pytest.raises(ValueError):
        regressed(1.0, 1.0, 0.1, "faster")


# -- spans ---------------------------------------------------------------------


def _tree():
    # root [0, 10] holds A [1, 4] (which holds A1 [2, 3]) and B [5, 9].
    return [
        Span("phase.study", 0.0, 10.0, -1, "r"),
        Span("peering.discover", 1.0, 4.0, 0, "r"),
        Span("bgp.withdraw", 2.0, 3.0, 1, "r"),
        Span("peering.discover", 5.0, 9.0, 0, "r"),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_tree()) == [3.0, 2.0, 1.0, 4.0]


def test_totals_by_name_sum_calls_and_times():
    totals = totals_by_name(_tree())
    discover = totals["peering.discover"]
    assert (discover.calls, discover.total_s, discover.self_s) == (2, 7.0, 6.0)
    assert totals["phase.study"].self_s == 3.0


def test_ancestors():
    spans = _tree()
    assert has_ancestor(spans, 2, ["phase.study"])
    assert has_ancestor(spans, 2, ["peering.discover"])
    assert not has_ancestor(spans, 3, ["bgp.withdraw"])
    assert not has_ancestor(spans, 0, ["phase.study"])


def test_recorder_nests_and_rejects_crossed_spans():
    recorder = Recorder("run-1")
    outer = recorder.begin("outer")
    recorder.end(recorder.begin("inner"))
    recorder.end(outer)
    assert [(s.name, s.parent, s.run) for s in recorder.spans] == [
        ("outer", -1, "run-1"),
        ("inner", 0, "run-1"),
    ]
    assert all(s.end >= s.start for s in recorder.spans)
    outer = recorder.begin("a")
    recorder.begin("b")
    with pytest.raises(RuntimeError):
        recorder.end(outer)


# -- per-layer metrics -----------------------------------------------------------


def test_layer_metrics_from_a_synthetic_trace():
    spans = [
        Span("phase.study", 0.0, 20.0, -1, "r"),
        Span("peering.discover", 1.0, 9.0, 0, "r"),
        Span("peering.announce", 2.0, 4.0, 1, "r"),
        Span("bgp.originate", 2.5, 3.5, 2, "r"),
        Span("peering.announce", 5.0, 8.0, 1, "r"),
        Span("bgp.originate", 5.0, 7.0, 4, "r"),
        Span("peering.announce", 10.0, 12.0, 0, "r"),
        Span("bgp.originate", 10.0, 11.0, 6, "r"),
    ]
    counts = {"peering.alternates": 3, "bgp.originate_events": 90}
    values = layers.layer_metrics(spans, counts)
    assert set(values) == {m.name for m in layers.PER_LAYER} - {"trace.overhead_frac"}
    assert values["bgp.originate_calls"] == 3
    assert values["bgp.originate_s"] == pytest.approx(4.0)
    assert values["bgp.events_per_originate"] == pytest.approx(30.0)
    assert values["peering.announce_calls"] == 3
    # Two of the three announcements belong to discovery.
    assert values["peering.alternates_per_announcement"] == pytest.approx(1.5)
    # discover 8 - 5 in announcements; announcements 7 - 4 in originate.
    assert values["peering.self_s"] == pytest.approx(3.0 + 3.0)
    assert values["bgp.withdraw_calls"] == 0
    assert values["bgp.events_per_withdraw"] == 0
    assert layers.layers_seen(spans, counts) == ["bgp", "peering"]


def test_exact_counts_are_the_repeatable_ones():
    assert layers.is_exact("bgp.withdraw_calls")
    assert layers.is_exact("bgp.originate_events")
    assert layers.is_exact("core.trees_built")
    assert layers.is_exact("temporal.regraded_groups")
    assert not layers.is_exact("bgp.withdraw_s")
    assert not layers.is_exact("core.cache_hit_rate")


# -- wrappers --------------------------------------------------------------------


@pytest.fixture
def fake_package(monkeypatch):
    package = types.ModuleType("fakepkg")
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    class Engine:
        clock = 0

        def run(self, steps):
            self.clock += steps
            return self.clock

    lib.work = work
    lib.Engine = Engine
    user.work = work  # ``from fakepkg.lib import work``
    for module in (package, lib, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return lib, user


def test_install_rebinds_by_name_imports_and_restores(fake_package):
    lib, user = fake_package
    original_work, original_run = lib.work, lib.Engine.run
    entries = (
        layers.EntryPoint("lib.work", "fakepkg.lib", "work"),
        layers.EntryPoint(
            "lib.run", "fakepkg.lib", "Engine.run", before=lambda args: args[0].clock,
            after=lambda args, result, before: {"lib.steps": args[0].clock - before},
        ),
        layers.EntryPoint("lib.gone", "fakepkg.lib", "deleted_function"),
        layers.EntryPoint("lib.nomodule", "fakepkg.deleted_module", "anything"),
    )
    recorder = Recorder("r")
    binding = layers.install(recorder, entries, package="fakepkg")
    try:
        assert binding.absent == [
            "fakepkg.lib:deleted_function",
            "fakepkg.deleted_module:anything",
        ]
        assert user.work(1) == 2 and lib.work(2) == 3
        engine = lib.Engine()
        assert engine.run(5) == 5
    finally:
        binding.restore()
    assert [s.name for s in recorder.spans] == ["lib.work", "lib.work", "lib.run"]
    assert recorder.counts == {"lib.steps": 5}
    assert lib.work is original_work and user.work is original_work
    assert lib.Engine.run is original_run


def test_a_count_the_program_no_longer_exposes_is_reported(fake_package):
    lib, _user = fake_package

    def read_gone(args, result, before):
        return {"lib.gone": result.no_such_attribute}

    recorder = Recorder("r")
    binding = layers.install(
        recorder, (layers.EntryPoint("lib.work", "fakepkg.lib", "work", after=read_gone),),
        package="fakepkg",
    )
    try:
        assert lib.work(1) == 2
    finally:
        binding.restore()
    assert len(recorder.missing) == 1 and "lib.work counts" in next(iter(recorder.missing))


def test_every_repro_entry_point_exists_and_is_restored():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.core.pipeline as pipeline
    import repro.temporal.study as temporal_study

    before = {
        "run_campaign": pipeline.run_campaign,
        "inferred_snapshots": pipeline.inferred_snapshots,
        "diff_graphs": temporal_study.diff_graphs,
        "Study.run": pipeline.Study.run,
    }
    binding = layers.install(Recorder("r"))
    try:
        assert binding.absent == []
        assert pipeline.run_campaign is not before["run_campaign"]
        assert pipeline.inferred_snapshots is not before["inferred_snapshots"]
        assert temporal_study.diff_graphs is not before["diff_graphs"]
        assert pipeline.Study.run is not before["Study.run"]
    finally:
        binding.restore()
    assert pipeline.run_campaign is before["run_campaign"]
    assert pipeline.inferred_snapshots is before["inferred_snapshots"]
    assert temporal_study.diff_graphs is before["diff_graphs"]
    assert pipeline.Study.run is before["Study.run"]


def test_a_deleted_repro_entry_point_is_absent_and_the_rest_still_wrap(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.atlas.campaign as campaign
    import repro.core.pipeline as pipeline

    monkeypatch.delattr(campaign, "run_campaign")
    resilient = pipeline.run_resilient_campaign
    binding = layers.install(Recorder("r"))
    try:
        assert binding.absent == ["repro.atlas.campaign:run_campaign"]
        assert pipeline.run_resilient_campaign is not resilient
    finally:
        binding.restore()
    assert pipeline.run_resilient_campaign is resilient


# -- the benchmark description -----------------------------------------------------


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.PHASES)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    assert {name: w[0] for name, w in workloads.WORKLOADS.items()} == run.PHASES
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in layers.PER_LAYER
    ]
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in spec["end_to_end"])
