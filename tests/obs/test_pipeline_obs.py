"""Study-level telemetry: manifests, per-layer cache stats, determinism."""

import pytest

from repro.core.pipeline import Study, StudyConfig
from repro.obs import Observability, render_summary, using
from repro.topogen.config import small_config

pytestmark = pytest.mark.obs


def _quick_config(seed: int = 0) -> StudyConfig:
    # Mirrors repro.experiments.scenario.quick_study (the `study` fixture).
    return StudyConfig(
        topology=small_config(),
        seed=seed,
        num_probes=400,
        probes_per_continent=25,
        active_vp_budget=40,
        max_discovery_targets=20,
    )


@pytest.fixture(scope="module")
def obs_study():
    """The quick scenario run with full telemetry enabled."""
    with using(Observability()):
        return Study(_quick_config()).run()


class TestManifestProduction:
    def test_manifest_present_and_complete(self, obs_study):
        manifest = obs_study.manifest
        assert manifest is not None
        assert manifest.kind == "study"
        assert manifest.config_digest
        assert manifest.topology_seed == 0
        # The span tree reproduces the flat stage timings exactly.
        assert manifest.stage_timings() == obs_study.stage_timings
        # Core stages are present as top-level spans.
        for stage in ("topology", "campaign", "figure1", "label_decisions"):
            assert stage in manifest.stage_timings()
        # The classifier's nested spans landed under figure1, after the
        # span of its first-use import.
        figure1 = next(s for s in manifest.spans if s["name"] == "figure1")
        child_names = [child["name"] for child in figure1.get("children", [])]
        assert child_names[0] == "import_classifier"
        assert "precompute" in child_names
        assert "classify_layer" in child_names
        # The campaign's two phases: originations, then the probe sweep.
        campaign = next(s for s in manifest.spans if s["name"] == "campaign")
        assert [child["name"] for child in campaign["children"]] == [
            "originate_destinations",
            "probe_sweep",
        ]

    def test_manifest_metrics_recorded(self, obs_study):
        counters = obs_study.manifest.metrics["counters"]
        assert (
            counters["repro_decisions_extracted_total"]["series"][""]
            == len(obs_study.decisions)
        )
        assert "repro_routing_cache_hits_total" in counters
        assert "repro_campaign_measurements_total" in counters

    def test_manifest_meta_and_events(self, obs_study):
        manifest = obs_study.manifest
        assert manifest.meta["decisions"] == len(obs_study.decisions)
        assert manifest.meta["resumed"] is False
        # The active phase ran simulations, so BGP events were published.
        assert any(
            key.startswith("bgp:") for key in manifest.event_counts
        )
        # Withdrawals copy the empty state, each counted by kind.
        supervised = obs_study.active_robustness.withdrawals
        copied = manifest.metrics["counters"]["bgp_convergences_reused_total"]
        assert copied["series"]['kind="withdraw"'] >= supervised > 0

    def test_manifest_records_bgp_convergence_and_peak_rss(self, obs_study):
        manifest = obs_study.manifest
        assert manifest.meta["peak_rss_mb"] > 0
        delivered = manifest.metrics["counters"]["bgp_events_delivered_total"]
        runs = manifest.metrics["histograms"]["bgp_convergence_events"]
        for kind, total in delivered["series"].items():
            assert runs["series"][kind]["sum"] == total
        originate = 'kind="originate"'
        assert delivered["series"][originate] > 0
        assert runs["series"][originate]["count"] > 0
        # Every delivered run is timed too; copies are counted apart.
        seconds = manifest.metrics["histograms"]["bgp_convergence_seconds"]
        assert set(seconds["series"]) == set(runs["series"])
        for kind, series in seconds["series"].items():
            assert series["count"] == runs["series"][kind]["count"]
            assert series["sum"] > 0

    def test_each_stage_records_peak_rss_at_its_exit(self, obs_study):
        """A high-water mark: it never falls from one stage to the next,
        and ``repro obs report`` prints it on each stage's line."""
        manifest = obs_study.manifest
        peaks = [stage["attrs"]["peak_rss_mb"] for stage in manifest.spans]
        assert 0 < peaks[0] and peaks == sorted(peaks)
        assert peaks[-1] <= manifest.meta["peak_rss_mb"]
        report = render_summary(manifest).splitlines()
        for stage, peak in zip(manifest.spans, peaks):
            line = next(row for row in report if row.split()[:1] == [stage["name"]])
            assert f"peak_rss_mb={peak}" in line

    def test_spans_per_discovery_target_and_magnet_round(self, obs_study):
        """Each unit of the active phase is a span that says how many of
        its convergences were copied from a known converged state and
        how many messages its convergences delivered."""
        spans, stack = {}, list(obs_study.manifest.spans)
        while stack:
            span = stack.pop()
            spans.setdefault(span["name"], []).append(span)
            stack.extend(span.get("children", []))
        (discovery,) = spans["discovery"]
        targets = [c for c in discovery["children"] if c["name"] == "discovery_target"]
        assert [t["attrs"]["target"] for t in targets] == sorted(
            obs_study.discovery.dispositions
        )
        for target in targets:
            attrs = target["attrs"]
            assert attrs["status"] == obs_study.discovery.dispositions[attrs["target"]]
            assert attrs["rounds"] >= 0
        (magnet,) = spans["magnet_rounds"]
        rounds = [c for c in magnet["children"] if c["name"] == "magnet_round"]
        assert len(rounds) == len(obs_study.magnet_observations)
        reused = sum(s["attrs"]["reused"] for s in targets + rounds)
        counters = obs_study.manifest.metrics["counters"]
        copied = counters["bgp_convergences_reused_total"]["series"]
        assert copied['kind="withdraw"'] > 0
        assert 0 < reused <= sum(copied.values())
        delivered = [s["attrs"]["delivered"] for s in targets + rounds]
        assert min(delivered) >= 0
        events = counters["bgp_events_delivered_total"]["series"]
        assert 0 < sum(delivered) <= sum(events.values())

    def test_no_manifest_when_disabled(self, study):
        assert study.manifest is None
        # ... but stage timings are recorded regardless.
        assert study.stage_timings


class TestLayerCacheStats:
    def test_per_layer_deltas_and_cumulative(self, obs_study):
        stats = obs_study.layer_cache_stats
        assert set(stats) == set(obs_study.figure1)
        for name, layer_stats in stats.items():
            assert set(layer_stats) == {"delta", "cumulative"}
            delta, cumulative = layer_stats["delta"], layer_stats["cumulative"]
            for key in ("hits", "misses", "evictions"):
                assert 0 <= delta[key] <= cumulative[key], (name, key)
        # The regression guarded here: without reset/subtraction every
        # layer after the first reported its engine's lifetime counters.
        # With real deltas, later layers must differ from cumulative.
        assert any(
            s["delta"]["hits"] < s["cumulative"]["hits"]
            for s in stats.values()
        )
        # Work happened: the grading pass hits the routing cache.
        assert sum(s["delta"]["hits"] for s in stats.values()) > 0

    def test_recorded_without_obs_too(self, study):
        # The per-layer view is plain bookkeeping, not telemetry.
        assert set(study.layer_cache_stats) == set(study.figure1)


class TestDeterminism:
    def test_results_identical_with_and_without_obs(self, study, obs_study):
        """Enabling telemetry must not perturb any study output."""
        assert obs_study.figure1 == study.figure1
        assert obs_study.probe_table == study.probe_table
        assert obs_study.domestic_rows == study.domestic_rows
        assert len(obs_study.decisions) == len(study.decisions)
        assert len(obs_study.psp_cases_1) == len(study.psp_cases_1)
        assert len(obs_study.psp_cases_2) == len(study.psp_cases_2)
