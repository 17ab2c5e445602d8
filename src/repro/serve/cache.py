"""Process-wide warm state shared across daemon tenants.

The one-shot CLI rebuilds routing trees from nothing on every run; a
long-lived daemon should not.  :class:`ArtifactStore` keeps two caches:

* **Engines** — :class:`~repro.core.gao_rexford.GaoRexfordEngine`
  instances keyed by ``(graph fingerprint, partial-transit
  fingerprint)``.  The fingerprint hashes the full link set
  (:meth:`repro.topology.graph.ASGraph.fingerprint`), so two tenants
  studying the same seeded topology — even via *different* graph
  objects — share one engine and therefore one warm routing-tree
  cache.  Correctness rests on trees being a pure function of (links,
  partial-transit); the differential suite in :mod:`repro.check`
  proves cached and cold engines grade identically.

* **Studies** — byte-deterministic study snapshots (and the underlying
  :class:`~repro.core.pipeline.StudyResults`) keyed by ``(seed,
  scale)``.  Studies are deterministic, so memoizing them is exact;
  a per-key lock collapses concurrent identical requests into one
  computation that every waiter shares.

All mutation is lock-guarded; handed-out engines are made thread-safe
before they escape the store.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, Optional, Tuple

from repro.core.gao_rexford import GaoRexfordEngine
from repro.core.pipeline import Study, StudyResults, build_study_config

#: Bound on retained StudyResults (snapshot strings are tiny and kept
#: unbounded; full results hold the world and are the heavy part).
DEFAULT_MAX_RESULTS = 4


def _partial_fingerprint(partial: Optional[FrozenSet[Tuple[int, int]]]) -> str:
    if not partial:
        return "-"
    digest = hashlib.blake2b(digest_size=8)
    for provider, customer in sorted(partial):
        digest.update(f"{provider}|{customer}\n".encode("utf-8"))
    return digest.hexdigest()


class ArtifactStore:
    """Shared warm engines and memoized studies for the serve daemon."""

    def __init__(self, max_results: int = DEFAULT_MAX_RESULTS) -> None:
        self._lock = threading.Lock()
        self._engines: Dict[Tuple[str, str], GaoRexfordEngine] = {}
        self.engine_hits = 0
        self.engine_misses = 0

        self._max_results = max_results
        #: (seed, scale) -> serialized golden-format snapshot.
        self._snapshots: Dict[Tuple[int, str], str] = {}
        #: Bounded LRU of full results for the classify/bench workloads.
        self._results: "OrderedDict[Tuple[int, str], StudyResults]"
        self._results = OrderedDict()
        #: Per-key build locks so concurrent identical study requests
        #: run the pipeline once, not N times.
        self._building: Dict[Tuple[int, str], threading.Lock] = {}
        self.study_hits = 0
        self.study_misses = 0

    # ------------------------------------------------------------------
    # Engines
    # ------------------------------------------------------------------
    def engine_for(
        self,
        graph,
        partial_transit: Optional[FrozenSet[Tuple[int, int]]] = None,
    ) -> GaoRexfordEngine:
        """A warm, thread-safe engine for this link set.

        Duck-typed to what :class:`~repro.core.pipeline.Study` expects
        from its ``artifacts`` hook.  A hit returns the engine built by
        an *earlier* request (possibly another tenant's, possibly bound
        to a different graph object with identical links) along with
        its populated routing-tree cache.
        """
        key = (graph.fingerprint(), _partial_fingerprint(partial_transit))
        with self._lock:
            engine = self._engines.get(key)
            if engine is not None:
                self.engine_hits += 1
                return engine
            self.engine_misses += 1
        # Build outside the store lock — tree prewarm is the expensive
        # part and must not serialize unrelated requests.  A racing
        # duplicate build is harmless (identical engines); first writer
        # wins so every later request shares one cache.
        engine = GaoRexfordEngine(
            graph, partial_transit=partial_transit or frozenset()
        ).make_thread_safe()
        with self._lock:
            return self._engines.setdefault(key, engine)

    # ------------------------------------------------------------------
    # Studies
    # ------------------------------------------------------------------
    def _build_lock(self, key: Tuple[int, str]) -> threading.Lock:
        with self._lock:
            lock = self._building.get(key)
            if lock is None:
                lock = self._building[key] = threading.Lock()
            return lock

    def study(self, seed: int, scale: str) -> StudyResults:
        """The memoized study for one (seed, scale)."""
        key = (seed, scale)
        with self._lock:
            cached = self._results.get(key)
            if cached is not None:
                self._results.move_to_end(key)
                self.study_hits += 1
                return cached
        with self._build_lock(key):
            # Re-check: a concurrent identical request may have built
            # it while this one waited on the per-key lock.
            with self._lock:
                cached = self._results.get(key)
                if cached is not None:
                    self._results.move_to_end(key)
                    self.study_hits += 1
                    return cached
                self.study_misses += 1
            config = build_study_config(seed=seed, scale=scale)
            results = Study(config, artifacts=self).run()
            with self._lock:
                self._results[key] = results
                self._results.move_to_end(key)
                while len(self._results) > self._max_results:
                    self._results.popitem(last=False)
            return results

    def study_snapshot(self, seed: int, scale: str) -> str:
        """The byte-deterministic snapshot JSON for one study.

        Exactly ``serialize(snapshot_study(results))`` — the same bytes
        ``repro check bless`` writes — which is what the daemon-vs-CLI
        differential compares.
        """
        from repro.check.golden import serialize, snapshot_study

        key = (seed, scale)
        with self._lock:
            text = self._snapshots.get(key)
            if text is not None:
                return text
        results = self.study(seed, scale)
        text = serialize(snapshot_study(results))
        with self._lock:
            return self._snapshots.setdefault(key, text)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        with self._lock:
            engine_lookups = self.engine_hits + self.engine_misses
            study_lookups = self.study_hits + self.study_misses
            return {
                "engines": len(self._engines),
                "engine_hits": self.engine_hits,
                "engine_misses": self.engine_misses,
                "engine_hit_rate": (
                    round(self.engine_hits / engine_lookups, 4)
                    if engine_lookups
                    else 0.0
                ),
                "studies": len(self._results),
                "study_hits": self.study_hits,
                "study_misses": self.study_misses,
                "study_hit_rate": (
                    round(self.study_hits / study_lookups, 4)
                    if study_lookups
                    else 0.0
                ),
            }
