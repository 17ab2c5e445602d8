"""CSR compilation of an :class:`~repro.topology.graph.ASGraph`.

The reference construction walks Python adjacency maps; the kernel wants the
same edges as flat numpy arrays it can gather over.  :class:`CSRTopology`
renumbers the ASNs to dense ids (sorted order, so the numbering is a
pure function of the AS set) and materializes each relationship class
of directed propagation edges once:

* ``up`` — customer/sibling routes travel customer -> provider/sibling
  (stage 1 of the Gao-Rexford construction),
* ``peers`` — one peer hop on top of a customer route (stage 2),
* ``down`` — provider routes travel provider -> customer (stage 3).

Each :class:`EdgeSet` is sorted by *target* node and carries the group
boundaries of equal targets, which is exactly the layout
``np.maximum.reduceat`` / ``np.minimum.reduceat`` need to reduce all
incoming candidates per node in one call (and, because every segment is
non-empty by construction, sidesteps reduceat's empty-segment quirk).
A second index over the same rows, CSR by *source*, answers "which edge
rows leave node u" — the lookup the per-destination first-hop
restrictions and the partial-transit masks need.

The compiled topology also interns the lookup tables grading needs
(relationship ranks per directed pair, allowed-first-hop bitmasks,
partial-transit edge masks) so they are built once per graph rather
than once per tree or per layer.  :func:`compile_topology` keeps one
``CSRTopology`` at a time, for the graph it last compiled (at that
graph's mutation counter), so every engine and layer grading one graph
shares the compilation, and a graph graded before it, such as an
earlier snapshot of a series, keeps none.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.topology.graph import ASGraph

#: Rank code meaning "the pair is not adjacent in the topology" —
#: one past PROVIDER's rank 2, so ``rank <= best_rank`` is never true.
RANK_MISSING = 3


class EdgeSet:
    """One relationship class of directed propagation edges.

    ``src``/``dst`` are dense node ids, sorted by ``dst``.  ``starts``
    and ``targets`` delimit the runs of equal ``dst`` (for reduceat);
    ``rows_from`` maps a source node to its row positions.
    """

    __slots__ = (
        "src",
        "dst",
        "starts",
        "targets",
        "src_indptr",
        "src_order",
        "src_nbrs",
        "src_counts",
    )

    def __init__(self, src: np.ndarray, dst: np.ndarray, n: int) -> None:
        # ``src``/``dst`` arrive in adjacency order: each source's edges
        # in its neighbor map's insertion order.
        order = np.argsort(dst, kind="stable")
        self.src = np.ascontiguousarray(src[order], dtype=np.int32)
        self.dst = np.ascontiguousarray(dst[order], dtype=np.int32)
        if self.dst.size:
            boundary = np.empty(self.dst.size, dtype=bool)
            boundary[0] = True
            np.not_equal(self.dst[1:], self.dst[:-1], out=boundary[1:])
            self.starts = np.flatnonzero(boundary)
            self.targets = self.dst[self.starts]
        else:
            self.starts = np.empty(0, dtype=np.int64)
            self.targets = np.empty(0, dtype=np.int32)
        # The same rows CSR-indexed by *source*: ``src_order`` maps the
        # per-source layout back to dst-sorted rows, ``src_nbrs`` holds
        # each source's neighbor run (the frontier-expansion gather) in
        # adjacency order — the order the reference construction visits
        # neighbors in, which decides its parent tie-breaks.
        row_of = np.empty_like(order)
        row_of[order] = np.arange(order.size)
        self.src_order = row_of[np.argsort(src, kind="stable")]
        counts = (
            np.bincount(self.src, minlength=n)
            if self.src.size
            else np.zeros(n, dtype=np.int64)
        )
        self.src_indptr = np.concatenate(([0], np.cumsum(counts)))
        self.src_nbrs = np.ascontiguousarray(self.dst[self.src_order])
        self.src_counts = counts.astype(np.int64)

    def __len__(self) -> int:
        return int(self.src.size)

    def rows_from(self, node: int) -> np.ndarray:
        """Row positions (into ``src``/``dst``) of edges leaving ``node``."""
        lo = self.src_indptr[node]
        hi = self.src_indptr[node + 1]
        return self.src_order[lo:hi]


class CSRTopology:
    """An :class:`ASGraph` compiled to arrays for the hot-path kernel."""

    def __init__(self, graph: ASGraph) -> None:
        self.ids = np.fromiter(sorted(graph.asns()), dtype=np.int64)
        self.n = int(self.ids.size)
        index: Dict[int, int] = {
            int(asn): position for position, asn in enumerate(self.ids)
        }
        self._index = index

        adjacency = graph.routing_adjacency()
        self.up = self._edge_set(adjacency.up, index)
        self.peers = self._edge_set(adjacency.peers, index)
        self.down = self._edge_set(adjacency.down, index)

        # Directed relationship ranks: key = src_id * (n + 1) + dst_id,
        # sorted for searchsorted lookup.  rank is Relationship.rank()
        # of "dst is <rank> to src" — what grading compares.
        keys: List[int] = []
        ranks: List[int] = []
        stride = self.n + 1
        for asn, neighbors in graph._neighbors.items():
            a = index[asn]
            for neighbor, rel in neighbors.items():
                keys.append(a * stride + index[neighbor])
                ranks.append(rel.rank())
        key_arr = np.asarray(keys, dtype=np.int64)
        rank_arr = np.asarray(ranks, dtype=np.int8)
        order = np.argsort(key_arr, kind="stable")
        self._rel_keys = key_arr[order]
        self._rel_ranks = rank_arr[order]

        self._allowed_masks: Dict[FrozenSet[int], np.ndarray] = {}
        self._partial_masks: Dict[FrozenSet[Tuple[int, int]], Optional[np.ndarray]] = {}

    @staticmethod
    def _edge_set(
        adjacency: Dict[int, Tuple[int, ...]], index: Dict[int, int]
    ) -> EdgeSet:
        src: List[int] = []
        dst: List[int] = []
        for asn, neighbors in adjacency.items():
            a = index[asn]
            for neighbor in neighbors:
                src.append(a)
                dst.append(index[neighbor])
        return EdgeSet(
            np.asarray(src, dtype=np.int32),
            np.asarray(dst, dtype=np.int32),
            len(index),
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def id_of(self, asn: int) -> int:
        """Dense id of ``asn``; -1 when absent from the graph."""
        return self._index.get(asn, -1)

    def ids_of(self, asns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`id_of` (int64 in, int64 out, -1 = absent)."""
        if self.n == 0:
            return np.full(asns.shape, -1, dtype=np.int64)
        positions = np.searchsorted(self.ids, asns)
        clipped = np.minimum(positions, self.n - 1)
        found = self.ids[clipped] == asns
        return np.where(found, clipped, -1)

    def rel_ranks(self, src_ids: np.ndarray, dst_ids: np.ndarray) -> np.ndarray:
        """Relationship rank of ``dst`` to ``src`` per pair.

        Input arrays hold dense ids (-1 = AS absent from the graph);
        output is int8 with :data:`RANK_MISSING` for non-adjacent or
        absent pairs — mirroring ``graph.relationship`` returning None.
        """
        valid = (src_ids >= 0) & (dst_ids >= 0)
        stride = self.n + 1
        keys = np.where(valid, src_ids * stride + dst_ids, 0)
        out = np.full(keys.shape, RANK_MISSING, dtype=np.int8)
        if self._rel_keys.size:
            positions = np.searchsorted(self._rel_keys, keys)
            clipped = np.minimum(positions, self._rel_keys.size - 1)
            found = valid & (self._rel_keys[clipped] == keys)
            out[found] = self._rel_ranks[clipped[found]]
        return out

    def allowed_mask(
        self, allowed: Optional[FrozenSet[int]]
    ) -> Optional[np.ndarray]:
        """Interned boolean mask over dense ids (True = allowed hop).

        ``None`` (no restriction) stays ``None``.  Masks are cached per
        allowed-set so layers sharing PSP maps share the arrays.
        """
        if allowed is None:
            return None
        mask = self._allowed_masks.get(allowed)
        if mask is None:
            mask = np.zeros(self.n, dtype=bool)
            for asn in allowed:
                position = self._index.get(asn)
                if position is not None:
                    mask[position] = True
            self._allowed_masks[allowed] = mask
        return mask

    def partial_mask(
        self, partial_transit: FrozenSet[Tuple[int, int]]
    ) -> Optional[np.ndarray]:
        """Boolean mask over ``down`` edge rows marking partial transit.

        Row e is True when the (provider, customer) pair of that edge is
        in ``partial_transit`` — the edges stage 3 must not relay
        provider-learned routes across.  ``None`` when no pair applies.
        """
        key = frozenset(partial_transit)
        if key in self._partial_masks:
            return self._partial_masks[key]
        mask: Optional[np.ndarray] = None
        if key and len(self.down):
            rows: List[np.ndarray] = []
            for provider, customer in key:
                p = self._index.get(provider)
                c = self._index.get(customer)
                if p is None or c is None:
                    continue
                candidates = self.down.rows_from(p)
                rows.append(candidates[self.down.dst[candidates] == c])
            if rows:
                hit = np.concatenate(rows)
                if hit.size:
                    mask = np.zeros(len(self.down), dtype=bool)
                    mask[hit] = True
        self._partial_masks[key] = mask
        return mask


#: The one compiled topology kept: ``(graph, its mutation counter,
#: compilation)``.  Holding the graph keeps its id from being recycled.
_compiled: Optional[Tuple[ASGraph, int, CSRTopology]] = None


def compile_topology(graph: ASGraph) -> CSRTopology:
    """The graph's compiled form, kept until another graph is compiled
    or the graph mutates.

    One slot, not one compilation per graph: the engines and layers
    over one graph (the simple and complex engines share the inferred
    topology) compile it once, and a series graded one snapshot at a
    time keeps only the current snapshot's compilation alive.
    """
    global _compiled
    kept = _compiled
    if kept is not None and kept[0] is graph and kept[1] == graph._version:
        return kept[2]
    csr = CSRTopology(graph)
    _compiled = (graph, graph._version, csr)
    return csr
