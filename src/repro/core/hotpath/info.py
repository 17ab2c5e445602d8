"""Array-backed routing tree: what the engine hands out.

:class:`ArrayRoutingInfo` wraps one column of a kernel
:class:`~repro.core.hotpath.kernel.TreeBatch`: six dense (n,) arrays of
class distances and parent pointers.  It answers every query the
pipeline asks of a routing tree — the per-class distance dicts,
``best_class``, ``gr_route_length``, ``class_distance``,
``gr_route_path`` — with the semantics of the reference
:class:`~repro.check.oracles.RoutingInfo`; the dict views are
materialized lazily and cached, so code that never touches them (the
vectorized grader) never pays for them.

The object is self-contained (dense ids + arrays, no reference to the
compiled topology), and its grading vectors are indexed by the same
sorted-ASN numbering every :class:`CSRTopology` over the graph derives.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.topology.relationships import Relationship

#: Sentinel model length meaning "the model predicts no route" — larger
#: than any real path length, so ``measured <= model`` is always true,
#: matching ``model_len is None`` in the scalar grader.
MODEL_LEN_NONE = np.int64(1) << 40


class ArrayRoutingInfo:
    """GR routing state toward one destination, stored as arrays.

    Distance arrays hold -1 for "no route of this class"; parent arrays
    hold dense node ids (-1 for "no parent").  ``node_ids`` is the
    shared sorted-ASN numbering of the graph the tree was computed on.
    """

    def __init__(
        self,
        destination: int,
        node_ids: np.ndarray,
        customer: np.ndarray,
        peer: np.ndarray,
        provider: np.ndarray,
        customer_parent: np.ndarray,
        peer_parent: np.ndarray,
        provider_parent: np.ndarray,
    ) -> None:
        self.destination = destination
        self.node_ids = node_ids
        self._customer = customer
        self._peer = peer
        self._provider = provider
        self._customer_parent = customer_parent
        self._peer_parent = peer_parent
        self._provider_parent = provider_parent
        self._dist_dicts: Dict[str, Dict[int, int]] = {}
        self._parent_dicts: Dict[str, Dict[int, int]] = {}
        self._bc_ranks: Optional[np.ndarray] = None
        self._model_lens: Optional[np.ndarray] = None
        #: Per-AS memo of reconstructed routes: repeated path queries
        #: (geography, prediction) intern one tuple per AS per tree.
        self._path_memo: Dict[int, Optional[Tuple[int, ...]]] = {}

    # ------------------------------------------------------------------
    # Dict views (lazy, cached)
    # ------------------------------------------------------------------
    def _dist_dict(self, name: str, dists: np.ndarray) -> Dict[int, int]:
        cached = self._dist_dicts.get(name)
        if cached is None:
            reached = np.flatnonzero(dists >= 0)
            cached = self._dist_dicts[name] = dict(
                zip(self.node_ids[reached].tolist(), dists[reached].tolist())
            )
        return cached

    def _parent_dict(self, name: str, parents: np.ndarray) -> Dict[int, int]:
        cached = self._parent_dicts.get(name)
        if cached is None:
            present = np.flatnonzero(parents >= 0)
            cached = self._parent_dicts[name] = dict(
                zip(
                    self.node_ids[present].tolist(),
                    self.node_ids[parents[present]].tolist(),
                )
            )
        return cached

    @property
    def customer_dist(self) -> Dict[int, int]:
        return self._dist_dict("customer", self._customer)

    @property
    def peer_dist(self) -> Dict[int, int]:
        return self._dist_dict("peer", self._peer)

    @property
    def provider_dist(self) -> Dict[int, int]:
        return self._dist_dict("provider", self._provider)

    @property
    def customer_parent(self) -> Dict[int, int]:
        return self._parent_dict("customer", self._customer_parent)

    @property
    def peer_parent(self) -> Dict[int, int]:
        return self._parent_dict("peer", self._peer_parent)

    @property
    def provider_parent(self) -> Dict[int, int]:
        return self._parent_dict("provider", self._provider_parent)

    # ------------------------------------------------------------------
    # Scalar queries
    # ------------------------------------------------------------------
    def _position(self, asn: int) -> int:
        ids = self.node_ids
        at = int(np.searchsorted(ids, asn))
        if at < ids.size and ids[at] == asn:
            return at
        return -1

    def best_class(self, asn: int) -> Optional[Relationship]:
        at = self._position(asn)
        if at < 0:
            return None
        if self._customer[at] >= 0:
            return Relationship.CUSTOMER
        if self._peer[at] >= 0:
            return Relationship.PEER
        if self._provider[at] >= 0:
            return Relationship.PROVIDER
        return None

    def has_route(self, asn: int) -> bool:
        return self.best_class(asn) is not None

    def gr_route_length(self, asn: int) -> Optional[int]:
        if asn == self.destination:
            return 0
        at = self._position(asn)
        if at < 0:
            return None
        for dists in (self._customer, self._peer, self._provider):
            if dists[at] >= 0:
                return int(dists[at])
        return None

    def class_distance(self, asn: int, relationship: Relationship) -> Optional[int]:
        at = self._position(asn)
        if at < 0:
            return None
        if relationship in (Relationship.CUSTOMER, Relationship.SIBLING):
            dists = self._customer
        elif relationship is Relationship.PEER:
            dists = self._peer
        else:
            dists = self._provider
        return int(dists[at]) if dists[at] >= 0 else None

    def gr_route_path(self, asn: int, max_hops: int = 64) -> Optional[Tuple[int, ...]]:
        """One concrete route, following the chosen class per hop."""
        if asn == self.destination:
            return (asn,)
        memo = self._path_memo
        if asn in memo:
            return memo[asn]
        at = self._position(asn)
        if at < 0 or not self.has_route(asn):
            memo[asn] = None
            return None
        ids = self.node_ids
        dest_at = self._position(self.destination)
        path = [asn]
        current = at
        while current != dest_at and len(path) <= max_hops:
            if self._customer[current] >= 0:
                nxt = int(self._customer_parent[current])
            elif self._peer[current] >= 0:
                nxt = int(self._peer_parent[current])
            else:
                nxt = int(self._provider_parent[current])
            if nxt < 0:
                memo[asn] = None
                return None
            path.append(int(ids[nxt]))
            current = nxt
        if current != dest_at:
            memo[asn] = None
            return None
        result = tuple(path)
        memo[asn] = result
        return result

    # ------------------------------------------------------------------
    # Grading vectors (lazy, cached) — what the vectorized grader reads
    # ------------------------------------------------------------------
    def bc_rank_vector(self) -> np.ndarray:
        """(n + 1,) int8 of best-class ranks; 3 = no route at all.

        The extra sentinel row (index n) is where lookups of ASNs
        absent from the graph land — also "no route", matching
        ``best_class`` returning None for them.
        """
        vector = self._bc_ranks
        if vector is None:
            vector = np.full(self.node_ids.size + 1, 3, dtype=np.int8)
            body = vector[:-1]
            body[self._provider >= 0] = 2
            body[self._peer >= 0] = 1
            body[self._customer >= 0] = 0
            self._bc_ranks = vector
        return vector

    def model_len_vector(self) -> np.ndarray:
        """(n + 1,) int64 of model route lengths; huge sentinel = None."""
        vector = self._model_lens
        if vector is None:
            vector = np.full(self.node_ids.size + 1, MODEL_LEN_NONE, dtype=np.int64)
            body = vector[:-1]
            for dists in (self._provider, self._peer, self._customer):
                routed = dists >= 0
                body[routed] = dists[routed]
            self._model_lens = vector
        return vector
