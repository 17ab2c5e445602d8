"""Gao-Rexford route computation over an inferred topology.

For one destination, the engine computes for every AS which
relationship classes can carry a route to it and the length of the
route the GR model predicts, using the standard three-stage
construction:

1. **Customer routes** — BFS from the destination along
   customer-to-provider edges: these are the routes that propagate
   upward, available to an AS through one of its customers.
2. **Peer routes** — one peer hop on top of a neighbor's customer
   route (peers only export customer routes to each other).
3. **Provider routes** — BFS downward: providers export their chosen
   route (of any class) to customers.

An AS's GR route is through the best available class (customer over
peer over provider), shortest within the class — exactly the model the
paper grades measured decisions against (Section 3.3).

Sibling links are treated as carrying the organization's routes in both
directions at customer preference, matching how the analysis treats
sibling decisions as "Best".

Trees are computed by the CSR/numpy kernel in
:mod:`repro.core.hotpath`, many destinations per sweep.  The readable
dict construction it is checked against lives in
:mod:`repro.check.oracles` as reference code.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.topology.graph import ASGraph

if TYPE_CHECKING:
    from repro.core.hotpath.csr import CSRTopology
    from repro.core.hotpath.info import ArrayRoutingInfo

#: Default bound on the per-engine routing-tree cache.  Far above what
#: one study needs (a few hundred trees) but keeps an engine asked for
#: many more destinations from growing without limit.
DEFAULT_CACHE_SIZE = 4096

#: Cache key: (destination, allowed first hops or None).
CacheKey = Tuple[int, Optional[FrozenSet[int]]]


@dataclass
class CacheStats:
    """Snapshot of a :class:`RoutingCache`'s counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    maxsize: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return 0.0 if total == 0 else self.hits / total

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": round(self.hit_rate, 4),
        }

    def delta(self, baseline: "CacheStats") -> "CacheStats":
        """Counters accrued since ``baseline`` (size stays current).

        The engine's counters are cumulative over its lifetime; a
        per-layer report must subtract the previous layer's snapshot or
        every layer after the first inherits its predecessors' hits.
        """
        return CacheStats(
            hits=self.hits - baseline.hits,
            misses=self.misses - baseline.misses,
            evictions=self.evictions - baseline.evictions,
            size=self.size,
            maxsize=self.maxsize,
        )


class RoutingCache:
    """Bounded LRU cache of routing trees with hit/miss counters.

    Least-recently-used entries are evicted once ``maxsize`` is
    exceeded; every lookup refreshes recency.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        if maxsize <= 0:
            raise ValueError(f"cache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._data: "OrderedDict[CacheKey, ArrayRoutingInfo]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._data

    def get(self, key: CacheKey) -> Optional[ArrayRoutingInfo]:
        info = self._data.get(key)
        if info is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return info

    def put(self, key: CacheKey, info: ArrayRoutingInfo) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = info
        if len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters; cached entries stay."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._data),
            maxsize=self.maxsize,
        )


class GaoRexfordEngine:
    """Computes GR routing trees over one (inferred) AS graph.

    ``partial_transit`` is a set of (provider, customer) pairs from a
    complex-relationship dataset: those providers forward only their
    customer- and peer-learned routes to that customer, never
    provider-learned ones.
    """

    def __init__(
        self,
        graph: ASGraph,
        partial_transit: FrozenSet[Tuple[int, int]] = frozenset(),
        cache_size: int = DEFAULT_CACHE_SIZE,
        canonical_keys: bool = True,
    ) -> None:
        self.graph = graph
        self.partial_transit = frozenset(partial_transit)
        self.canonical_keys = canonical_keys
        self._cache = RoutingCache(maxsize=cache_size)
        #: Graph version the cached trees were computed against.  Every
        #: cache access re-checks it: a mutated graph flushes the whole
        #: cache (counted in ``stale_flushes``) instead of silently
        #: serving trees of a topology that no longer exists.
        self._graph_version = graph._version
        #: How many times a graph mutation forced a full cache flush.
        self.stale_flushes = 0

    def compiled_topology(self) -> "CSRTopology":
        """The graph's shared CSR compilation: the kernel's input and
        the vectorized grader's lookup tables."""
        from repro.core.hotpath.csr import compile_topology

        return compile_topology(self.graph)

    def _check_graph_version(self) -> None:
        """Flush the cache if the graph mutated since it was filled.

        Cached trees are valid only for the exact topology they were
        computed on.  Rather than serving stale state silently (or
        raising and killing long-lived engines), a graph mutation
        invalidates everything.
        """
        version = self.graph._version
        if version != self._graph_version:
            self._cache.clear()
            self.stale_flushes += 1
            self._graph_version = version

    def cache_key(self, destination: int, allowed: Optional[FrozenSet[int]]) -> CacheKey:
        """Canonical cache key for a routing tree.

        An allowed-first-hop set covering every neighbor of the
        destination restricts nothing, so it shares the unrestricted
        tree — PSP layers whose feeds saw every edge then reuse the
        plain tree instead of computing an identical one.
        """
        if (
            self.canonical_keys
            and allowed is not None
            and destination in self.graph
            and allowed.issuperset(self.graph.neighbor_set(destination))
        ):
            return (destination, None)
        return (destination, allowed)

    def routing_info(
        self,
        destination: int,
        allowed_first_hops: Optional[FrozenSet[int]] = None,
    ) -> ArrayRoutingInfo:
        """GR routes toward ``destination``.

        ``allowed_first_hops`` restricts which of the destination's
        neighbors receive its announcement — the lever the
        prefix-specific-policy criteria pull (Section 4.3).  ``None``
        means every neighbor does.
        """
        self._check_graph_version()
        key = self.cache_key(destination, allowed_first_hops)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        info = self._compute_batch([key])[0]
        self._cache.put(key, info)
        return info

    def warm_batch(self, keys: Iterable[CacheKey]) -> int:
        """Ensure every (destination, allowed) tree is cached; return
        how many had to be computed.

        The missing trees are computed in **one** kernel sweep — the
        batched prewarm the parallel classifier and the arena grader
        call.  Membership probes don't touch the hit/miss counters; the
        computed trees are charged as misses (one each), the same
        accounting as :meth:`routing_info` computing them one by one.
        """
        self._check_graph_version()
        canonical: List[CacheKey] = []
        seen: Set[CacheKey] = set()
        for destination, allowed in keys:
            key = self.cache_key(destination, allowed)
            if key not in seen:
                seen.add(key)
                canonical.append(key)
        missing = [key for key in canonical if key not in self._cache]
        if not missing:
            return 0
        for key, info in zip(missing, self._compute_batch(missing)):
            self._cache.put(key, info)
        self._cache.misses += len(missing)
        return len(missing)

    def cache_stats(self) -> CacheStats:
        """Counters of the routing-tree cache (cumulative since creation
        or the last :meth:`reset_stats`)."""
        return self._cache.stats()

    def reset_stats(self) -> None:
        """Zero the cache counters without dropping cached trees.

        Call between classification layers to make :meth:`cache_stats`
        report that layer alone; without this, layer-level reports
        silently accumulate across the whole run.
        """
        self._cache.reset_stats()

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    def _compute_batch(self, keys: List[CacheKey]) -> List["ArrayRoutingInfo"]:
        """All requested trees in one array-kernel sweep, in ``keys``
        order."""
        from repro.core.hotpath.info import ArrayRoutingInfo
        from repro.core.hotpath.kernel import compute_tree_batch

        csr = self.compiled_topology()
        dest_ids: List[int] = []
        for destination, _allowed in keys:
            dest_id = csr.id_of(destination)
            if dest_id < 0:
                raise KeyError(f"AS{destination} not in topology")
            dest_ids.append(dest_id)
        allowed_masks = [csr.allowed_mask(allowed) for _dest, allowed in keys]
        partial_mask = (
            csr.partial_mask(self.partial_transit) if self.partial_transit else None
        )
        batch = compute_tree_batch(csr, dest_ids, allowed_masks, partial_mask)
        return [
            ArrayRoutingInfo(destination, csr.ids, *batch.row(j))
            for j, (destination, _allowed) in enumerate(keys)
        ]
