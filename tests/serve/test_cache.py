"""ArtifactStore unit tests: engine reuse, study memoization, LRU."""

import threading

import pytest

import repro.serve.cache as cache_module
from repro.serve.cache import ArtifactStore, _partial_fingerprint
from repro.topogen import generate_internet
from repro.topogen.config import small_config
from repro.topogen.inference import infer_topology

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def graphs():
    """Two structurally identical graphs built from separate objects."""
    first, _ = infer_topology(generate_internet(small_config(), seed=11))
    second, _ = infer_topology(generate_internet(small_config(), seed=11))
    other, _ = infer_topology(generate_internet(small_config(), seed=12))
    return first, second, other


class TestEngineCache:
    def test_identical_links_share_one_engine(self, graphs):
        """Cross-tenant reuse: distinct graph objects, one warm engine."""
        first, second, _ = graphs
        assert first is not second
        store = ArtifactStore()
        engine_a = store.engine_for(first)
        engine_b = store.engine_for(second)
        assert engine_a is engine_b
        stats = store.stats()
        assert stats["engine_misses"] == 1
        assert stats["engine_hits"] == 1
        assert stats["engine_hit_rate"] == 0.5

    def test_different_links_get_different_engines(self, graphs):
        first, _, other = graphs
        store = ArtifactStore()
        assert store.engine_for(first) is not store.engine_for(other)
        assert store.stats()["engines"] == 2

    def test_partial_transit_partitions_the_key(self, graphs):
        first, _, _ = graphs
        partial = frozenset([(1, 2)])
        store = ArtifactStore()
        plain = store.engine_for(first)
        assert store.engine_for(first, partial_transit=partial) is not plain
        assert store.stats()["engines"] == 2

    def test_handed_out_engines_are_thread_safe(self, graphs):
        first, _, _ = graphs
        engine = ArtifactStore().engine_for(first)
        assert engine._cache._lock is not None

    def test_empty_partial_fingerprint_is_stable(self):
        assert _partial_fingerprint(None) == "-"
        assert _partial_fingerprint(frozenset()) == "-"
        assert _partial_fingerprint(frozenset([(1, 2)])) != "-"
        assert _partial_fingerprint(
            frozenset([(1, 2), (3, 4)])
        ) == _partial_fingerprint(frozenset([(3, 4), (1, 2)]))


class _FakeStudy:
    """Stands in for the pipeline: counts builds, returns a sentinel."""

    builds = 0
    build_lock = threading.Lock()
    #: When set, builders block here until the event fires (used to
    #: hold a build open while concurrent requests pile up).
    gate = None

    def __init__(self, config, artifacts=None):
        self.config = config

    def run(self):
        if _FakeStudy.gate is not None:
            _FakeStudy.gate.wait(timeout=30)
        with _FakeStudy.build_lock:
            _FakeStudy.builds += 1
        return ("results", self.config.seed, self.config.num_probes)


@pytest.fixture
def fake_pipeline(monkeypatch):
    monkeypatch.setattr(cache_module, "Study", _FakeStudy)
    _FakeStudy.builds = 0
    _FakeStudy.gate = None
    yield _FakeStudy
    _FakeStudy.gate = None


class TestStudyMemoization:
    def test_same_key_builds_once(self, fake_pipeline):
        store = ArtifactStore()
        first = store.study(0, "small")
        second = store.study(0, "small")
        assert first is second
        assert fake_pipeline.builds == 1
        stats = store.stats()
        assert stats["study_misses"] == 1
        assert stats["study_hits"] == 1

    def test_distinct_keys_build_separately(self, fake_pipeline):
        store = ArtifactStore()
        store.study(0, "small")
        store.study(1, "small")
        store.study(0, "full")
        assert fake_pipeline.builds == 3

    def test_concurrent_identical_requests_collapse_to_one_build(
        self, fake_pipeline
    ):
        """N racing tenants asking for the same study compute it once."""
        store = ArtifactStore()
        fake_pipeline.gate = threading.Event()
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(store.study(5, "small"))
            )
            for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        fake_pipeline.gate.set()
        for thread in threads:
            thread.join(timeout=30)
        assert len(results) == 6
        assert all(item is results[0] for item in results)
        assert fake_pipeline.builds == 1

    def test_results_lru_is_bounded(self, fake_pipeline):
        store = ArtifactStore(max_results=2)
        store.study(0, "small")
        store.study(1, "small")
        store.study(2, "small")
        assert store.stats()["studies"] == 2
        # Seed 0 was evicted: asking again rebuilds.
        store.study(0, "small")
        assert fake_pipeline.builds == 4
