"""End-to-end integration tests over a complete (small) study."""

import pytest

from repro.core.classification import DecisionLabel
from repro.core.pipeline import (
    FIGURE1_LAYERS,
    Study,
    StudyConfig,
    build_study_config,
)
from repro.ipmap import IPToASMapper, convert_traceroute
from repro.topogen.config import small_config


class TestStudyOutputs:
    def test_all_layers_classify_every_decision(self, study):
        total = len(study.decisions)
        assert total > 500
        for layer in FIGURE1_LAYERS:
            assert study.figure1[layer].total() == total

    def test_majority_follows_model_but_many_deviate(self, study):
        simple = study.figure1["Simple"]
        best_short = simple.fraction(DecisionLabel.BEST_SHORT)
        assert 0.5 < best_short < 0.95

    def test_refinements_never_reduce_best_short(self, study):
        simple = study.figure1["Simple"].fraction(DecisionLabel.BEST_SHORT)
        for layer in ("PSP-1", "PSP-2", "All-1", "All-2"):
            assert (
                study.figure1[layer].fraction(DecisionLabel.BEST_SHORT)
                >= simple - 0.02
            )

    def test_all1_combines_at_least_psp1(self, study):
        assert (
            study.figure1["All-1"].fraction(DecisionLabel.BEST_SHORT)
            >= study.figure1["PSP-1"].fraction(DecisionLabel.BEST_SHORT) - 0.01
        )

    def test_decisions_reference_destination_prefixes(self, study):
        origins = study.origins
        for decision in study.decisions[:500]:
            assert decision.prefix in origins
            assert origins[decision.prefix] == decision.destination

    def test_traces_cover_measurements(self, study):
        assert study.traces
        for trace in study.traces[:100]:
            assert trace.decisions
            assert trace.source_continent

    def test_skew_totals_match_violations(self, study):
        violations = sum(
            1 for _d, label in study.labeled_simple if label.is_violation
        )
        assert study.skew.by_destination.total() == violations
        assert study.skew.by_source.total() == violations

    def test_probe_table_accounts_every_selected_probe(self, study):
        assert sum(row.probes for row in study.probe_table) == len(
            study.selected_probes
        )

    def test_active_results_present(self, study):
        assert study.discovery is not None
        assert study.preference_summary is not None
        assert study.magnet_table is not None
        assert study.magnet_observations

    def test_psp_cases_criterion2_subset_sensible(self, study):
        # Criterion 2 is strictly more conservative than criterion 1.
        assert len(study.psp_cases_2) <= len(study.psp_cases_1)

    def test_conversion_recovers_truth_paths(self, study):
        """AS-path conversion must match ground truth on >90% of clean
        traceroutes."""
        mapper = IPToASMapper.from_prefix_map(study.internet.prefixes)
        matched = 0
        total = 0
        for measurement in study.dataset.successful()[:800]:
            path = convert_traceroute(measurement.traceroute, mapper)
            if path is None or not path.complete:
                continue
            total += 1
            if path.hops == measurement.traceroute.truth_as_path:
                matched += 1
        assert total > 100
        assert matched / total > 0.9

    def test_study_results_cached(self, study):
        # Study.run() memoizes; re-running must return the same object.
        # (quick_study is lru_cached at module level; the fixture pins
        # the seed explicitly, so pass the same one.)
        from repro.experiments.scenario import quick_study
        from tests.conftest import STUDY_SEED

        assert quick_study(STUDY_SEED) is study


class TestStudyDeterminism:
    def test_same_config_same_figures(self):
        config = StudyConfig(
            topology=small_config(),
            seed=99,
            num_probes=150,
            probes_per_continent=8,
            active_experiments=False,
        )
        first = Study(config).run()
        second = Study(
            StudyConfig(
                topology=small_config(),
                seed=99,
                num_probes=150,
                probes_per_continent=8,
                active_experiments=False,
            )
        ).run()
        for layer in FIGURE1_LAYERS:
            assert first.figure1[layer].counts == second.figure1[layer].counts
        assert len(first.decisions) == len(second.decisions)


class TestBuildStudyConfig:
    def test_small_matches_cli_small_path(self):
        """The quick config must equal `repro study --small`'s.

        ``build_study_config`` is the one home of the quick parameter
        block; the CLI and ``quick_study`` both call it, so this pins
        what ``--small`` means.
        """
        expected = StudyConfig(topology=small_config(), seed=7)
        expected.num_probes = 400
        expected.probes_per_continent = 25
        expected.active_vp_budget = 40
        expected.max_discovery_targets = 20
        assert build_study_config(seed=7, scale="small") == expected

    def test_full_scale_keeps_defaults(self):
        config = build_study_config(seed=3, scale="full")
        assert config == StudyConfig(seed=3)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            build_study_config(seed=0, scale="medium")
