"""The study's collector policy (``collector_scope``) and the collector
pauses the run manifest carries."""

import gc
import weakref

import pytest

from repro.check.golden import serialize, snapshot_study
from repro.core.pipeline import Study, build_study_config
from repro.obs import Observability, using
from repro.obs.gc import (
    COLLECTIONS_METRIC,
    PAUSE_METRIC,
    CollectorPauses,
    collector_scope,
)
from repro.obs.trace import Tracer
from tests.conftest import STUDY_SEED

pytestmark = pytest.mark.obs


@pytest.fixture
def passes():
    """Collector passes by generation, counted through gc.callbacks."""
    counter = CollectorPauses()
    counter.install()
    yield counter
    counter.uninstall()


class _Node:
    pass


class TestCollectorScope:
    def test_restores_the_collector_after_a_normal_exit(self):
        with collector_scope():
            assert not gc.isenabled()
            assert gc.get_freeze_count() > 0
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_restores_the_collector_after_an_exception(self):
        with pytest.raises(RuntimeError, match="crash"):
            with collector_scope():
                raise RuntimeError("crash inside the scope")
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_a_disabled_collector_stays_disabled(self, passes):
        frozen = gc.get_freeze_count()
        gc.disable()
        try:
            with collector_scope():
                assert gc.get_freeze_count() == frozen
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert passes.collections == [0, 0, 0]

    def test_nested_scopes_collect_once(self, passes):
        with collector_scope():
            passes.clear()  # passes that ran before the scope took over
            with collector_scope():
                assert not gc.isenabled()
            assert passes.collections == [0, 0, 0]
        assert passes.collections == [0, 0, 1]

    def test_the_closing_pass_is_a_collect_span(self, passes):
        """The span opens before the collector is back on, so the
        closing pass is the only one, even after enough allocations to
        start an automatic young-generation pass."""
        tracer = Tracer()
        with tracer.activate():
            with collector_scope():
                with tracer.span("stage"):
                    held = [[] for _ in range(10 * gc.get_threshold()[0])]
                passes.clear()
        assert [root.name for root in tracer.roots] == ["stage", "collect"]
        assert passes.collections == [0, 0, 1]
        assert held

    def test_no_span_without_a_tracer_or_when_nested(self):
        tracer = Tracer()
        with collector_scope():  # no tracer active: no span anywhere
            with tracer.activate():
                with collector_scope():  # nested: no pass, no span
                    pass
        assert tracer.roots == []

    def test_a_cycle_made_inside_is_dead_at_exit(self):
        with collector_scope():
            node = _Node()
            node.loop = node
            alive = weakref.ref(node)
            del node
            assert alive() is not None  # only the collector can free it
        assert alive() is None


@pytest.fixture(scope="module")
def observed_study():
    """The ``study`` fixture's quick study, run afresh with telemetry on."""
    with using(Observability()):
        return Study(build_study_config(STUDY_SEED, scale="small")).run()


class TestStudyManifest:
    def test_gc_metrics_only_with_obs(self, study, observed_study):
        counters = observed_study.manifest.metrics["counters"]
        closing = 'generation="2"'
        assert counters[COLLECTIONS_METRIC]["series"][closing] >= 1
        assert counters[PAUSE_METRIC]["series"][closing] > 0
        assert study.manifest is None

    def test_collect_is_the_last_stage_and_carries_peak_rss(self, observed_study):
        manifest = observed_study.manifest
        collect = manifest.spans[-1]
        assert collect["name"] == "collect"
        assert collect["attrs"]["peak_rss_mb"] > 0
        assert observed_study.stage_timings["collect"] > 0
        assert [span["name"] for span in manifest.spans].count("collect") == 1

    def test_snapshot_identical_with_and_without_obs(self, study, observed_study):
        assert serialize(snapshot_study(observed_study)) == serialize(
            snapshot_study(study)
        )
