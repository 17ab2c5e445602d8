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

    def test_snapshot_identical_with_and_without_obs(self, study, observed_study):
        assert serialize(snapshot_study(observed_study)) == serialize(
            snapshot_study(study)
        )
