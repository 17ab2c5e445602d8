"""Batched Gao-Rexford route-tree computation over CSR arrays.

One call computes the routing trees of *many* destinations at once.
Distance/parent state is (D, n) matrices — D destination rows by n
dense node ids — but the sweeps themselves are *output-sensitive*: the
frontier is a flat list of (tree, node) pairs, and each level expands
exactly the adjacency of those pairs with vectorized range-gathers
(``src_indptr``/``src_nbrs`` on :class:`~repro.core.hotpath.csr.EdgeSet`).
Total work is therefore proportional to the number of (tree, edge)
traversals actually performed — the same count the reference BFS
does — rather than levels x trees x all-edges as a dense matrix sweep
would spend.

The three stages mirror the reference construction,
:func:`repro.check.oracles.compute_routing_info`, exactly:

1. **Customer routes** — level-synchronous BFS up the ``up`` edges,
   expanded frontier-by-frontier.  The frontier keeps discovery order
   and a node goes to its first discoverer, exactly the reference's
   FIFO queue.
2. **Peer routes** — one min-reduction over peer edges of the sources'
   stage-1 discovery ranks (a single ``minimum.reduceat`` over the
   dst-sorted edge rows).  Discovery order is nondecreasing in
   distance, so the first-discovered peer is the reference's winner:
   the shortest candidate, first in its customer-route order.
3. **Provider routes** — level-synchronous relaxation down the ``down``
   edges.  The reference runs a distance-bucket queue here; unit edge
   weights make the level-by-level sweep equivalent: fixed
   (customer-else-peer) relayers are pre-bucketed by their fixed
   distance and enter the frontier at that level, while nodes whose
   *chosen* route is the provider route re-relay at their assigned
   distance.  Each level is visited in ASN order, like a reference
   bucket, and a node goes to its first relayer.  Partial-transit
   edges only relay from the fixed part of the frontier, matching the
   reference's ``has_fixed`` guard.

First-hop restrictions only ever constrain edges leaving the
destination itself, and the destination relays exactly once per stage
(depth 0 in stages 1 and 3; the encoded stage-2 reduction), so the
masks are applied to just those expansions.

Neighbors are expanded in adjacency order (the CSR keeps each source's
run in its neighbor map's insertion order), so distances *and* parent
pointers — and with them every reconstructed route — are exact matches
of the reference; the kernel tests and the differential battery in
:mod:`repro.check` compare them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hotpath.csr import CSRTopology, EdgeSet


class TreeBatch:
    """Distance and parent matrices for one batch of destinations.

    All matrices are (D, n) int32 — one row per destination; -1 means
    "no route of this class" (or "no parent").  Parents hold dense node
    ids.
    """

    __slots__ = (
        "dest_ids",
        "customer",
        "peer",
        "provider",
        "customer_parent",
        "peer_parent",
        "provider_parent",
    )

    def __init__(
        self,
        dest_ids: np.ndarray,
        customer: np.ndarray,
        peer: np.ndarray,
        provider: np.ndarray,
        customer_parent: np.ndarray,
        peer_parent: np.ndarray,
        provider_parent: np.ndarray,
    ) -> None:
        self.dest_ids = dest_ids
        self.customer = customer
        self.peer = peer
        self.provider = provider
        self.customer_parent = customer_parent
        self.peer_parent = peer_parent
        self.provider_parent = provider_parent

    def row(self, j: int) -> Tuple[np.ndarray, ...]:
        """Tree ``j``'s six (n,) arrays — contiguous row views."""
        return (
            self.customer[j],
            self.peer[j],
            self.provider[j],
            self.customer_parent[j],
            self.peer_parent[j],
            self.provider_parent[j],
        )


def _blocked_first_hops(
    edges: EdgeSet,
    dest_ids: np.ndarray,
    allowed_masks: Sequence[Optional[np.ndarray]],
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(tree row, edge column) pairs a first-hop restriction forbids.

    Only edges *leaving the destination* are ever restricted; the pairs
    returned here zero those candidates in the one-shot stage-2
    reduction (stages 1 and 3 filter their depth-0 expansions instead).
    """
    trees: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    for j, mask in enumerate(allowed_masks):
        if mask is None:
            continue
        candidates = edges.rows_from(int(dest_ids[j]))
        if candidates.size == 0:
            continue
        forbidden = candidates[~mask[edges.dst[candidates]]]
        if forbidden.size:
            trees.append(np.full(forbidden.size, j, dtype=np.int64))
            cols.append(forbidden)
    if not trees:
        return None
    return np.concatenate(trees), np.concatenate(cols)


def _expand(
    edges: EdgeSet, nodes: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Vectorized frontier expansion: the adjacency of ``nodes``.

    Returns ``(rep, pos)`` where ``rep`` indexes the frontier entry
    each expanded edge came from and ``pos`` indexes the per-source
    layout (``src_nbrs`` for the target node, ``src_order`` for the
    dst-sorted edge row).  ``None`` when the frontier has no edges.
    """
    counts = edges.src_counts[nodes]
    total = int(counts.sum())
    if total == 0:
        return None
    rep = np.repeat(np.arange(nodes.size), counts)
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    pos = np.repeat(edges.src_indptr[nodes], counts) + offsets
    return rep, pos


def compute_tree_batch(
    csr: CSRTopology,
    dest_ids: Sequence[int],
    allowed_masks: Sequence[Optional[np.ndarray]],
    partial_mask: Optional[np.ndarray] = None,
) -> TreeBatch:
    """Routing trees for every (destination, allowed-mask) pair.

    ``dest_ids`` are dense node ids; ``allowed_masks`` align with them
    (``None`` = unrestricted, else a boolean mask over dense ids from
    :meth:`CSRTopology.allowed_mask`).  ``partial_mask`` marks the
    ``down`` edge rows that carry only customer/peer routes
    (:meth:`CSRTopology.partial_mask`).
    """
    n = csr.n
    dest = np.asarray(dest_ids, dtype=np.int64)
    num_trees = int(dest.size)
    shape = (num_trees, n)
    cust = np.full(shape, -1, dtype=np.int32)
    cust_par = np.full(shape, -1, dtype=np.int32)
    peer = np.full(shape, -1, dtype=np.int32)
    peer_par = np.full(shape, -1, dtype=np.int32)
    prov = np.full(shape, -1, dtype=np.int32)
    prov_par = np.full(shape, -1, dtype=np.int32)
    batch = TreeBatch(dest, cust, peer, prov, cust_par, peer_par, prov_par)
    if num_trees == 0 or n == 0:
        return batch

    trees = np.arange(num_trees)
    cust[trees, dest] = 0

    # Dense allowed matrix (True = permitted first hop) for the trees
    # that carry a restriction; rows of unrestricted trees stay True.
    allowed_dense: Optional[np.ndarray] = None
    if any(mask is not None for mask in allowed_masks):
        allowed_dense = np.ones(shape, dtype=bool)
        for j, mask in enumerate(allowed_masks):
            if mask is not None:
                allowed_dense[j] = mask

    # Flat views: state for (tree t, node v) lives at t * n + v.
    cust_flat = cust.reshape(-1)
    cust_par_flat = cust_par.reshape(-1)
    prov_flat = prov.reshape(-1)
    prov_par_flat = prov_par.reshape(-1)

    # Stage 1: customer routes, level-synchronous BFS up the graph.
    # ``rank`` numbers (tree, node) pairs in discovery order, one
    # counter across trees: within a tree it is the reference's queue
    # order.  ``rank_node``/``rank_dist`` map a rank back.
    rank = np.full(shape, -1, dtype=np.int32)
    rank_flat = rank.reshape(-1)
    rank_flat[trees * n + dest] = trees
    rank_node = [dest]
    rank_dist = [np.zeros(num_trees, dtype=np.int64)]
    discovered = num_trees
    up = csr.up
    if len(up):
        front_t = trees.astype(np.int64)
        front_v = dest.copy()
        depth = 0
        while front_v.size:
            expansion = _expand(up, front_v)
            if expansion is None:
                break
            rep, pos = expansion
            tgt = up.src_nbrs[pos].astype(np.int64)
            t_exp = front_t[rep]
            src_exp = front_v[rep]
            if depth == 0 and allowed_dense is not None:
                # At depth 0 every frontier node is its tree's
                # destination — the only node whose relays a first-hop
                # restriction constrains.
                keep = allowed_dense[t_exp, tgt]
                if not keep.all():
                    tgt = tgt[keep]
                    t_exp = t_exp[keep]
                    src_exp = src_exp[keep]
            flat = t_exp * n + tgt
            unset = cust_flat[flat] < 0
            flat = flat[unset]
            if flat.size == 0:
                break
            # First discoverer wins; the new frontier keeps the order
            # the nodes were discovered in.
            claim = np.sort(np.unique(flat, return_index=True)[1])
            new = flat[claim]
            depth += 1
            cust_flat[new] = depth
            cust_par_flat[new] = src_exp[unset][claim]
            rank_flat[new] = np.arange(discovered, discovered + new.size)
            discovered += new.size
            front_t = new // n
            front_v = new % n
            rank_node.append(front_v)
            rank_dist.append(np.full(new.size, depth, dtype=np.int64))

    # Stage 2: peer routes — one peer hop on top of the sources'
    # customer routes.  The earliest-discovered source wins: it is the
    # shortest candidate, first in the reference's customer order.
    peers = csr.peers
    if len(peers):
        blocked = _blocked_first_hops(peers, dest, allowed_masks)
        sentinel = np.int32(discovered)
        src_rank = rank[:, peers.src]
        keys = np.where(src_rank >= 0, src_rank, sentinel)
        if blocked is not None:
            keys[blocked] = sentinel
        reduced = np.minimum.reduceat(keys, peers.starts, axis=1)
        reachable = reduced < sentinel
        winner = np.where(reachable, reduced, 0)
        targets = peers.targets
        node_of = np.concatenate(rank_node)
        dist_of = np.concatenate(rank_dist)
        peer[:, targets] = np.where(reachable, dist_of[winner] + 1, -1)
        peer_par[:, targets] = np.where(reachable, node_of[winner], -1)

    # Stage 3: provider routes, level-synchronous sweep down customer
    # links.  A node relays at its chosen-route distance: fixed
    # (customer-else-peer) nodes once at that level, provider-routed
    # nodes at their assigned provider distance.
    down = csr.down
    if len(down):
        fixed = np.where(cust >= 0, cust, peer)
        has_down = down.src_counts > 0
        relay_t, relay_v = np.nonzero((fixed >= 0) & has_down[np.newaxis, :])
        relay_depth = fixed[relay_t, relay_v]
        order = np.argsort(relay_depth, kind="stable")
        relay_t = relay_t[order].astype(np.int64)
        relay_v = relay_v[order].astype(np.int64)
        relay_depth = relay_depth[order]
        max_fixed = int(relay_depth[-1]) if relay_depth.size else -1
        partial_by_pos = (
            partial_mask[down.src_order] if partial_mask is not None else None
        )
        prop_t = np.empty(0, dtype=np.int64)
        prop_v = np.empty(0, dtype=np.int64)
        depth = 0
        while True:
            lo = int(np.searchsorted(relay_depth, depth))
            hi = int(np.searchsorted(relay_depth, depth + 1))
            front_t = np.concatenate((relay_t[lo:hi], prop_t))
            front_v = np.concatenate((relay_v[lo:hi], prop_v))
            front_fixed = np.arange(front_v.size) < hi - lo
            if hi > lo and prop_v.size:
                # A reference bucket is visited in ASN order, fixed and
                # provider-routed relayers alike.
                visit = np.argsort(front_t * n + front_v, kind="stable")
                front_t = front_t[visit]
                front_v = front_v[visit]
                front_fixed = front_fixed[visit]
            next_t = prop_t[:0]
            next_v = prop_v[:0]
            if front_v.size:
                expansion = _expand(down, front_v)
                if expansion is not None:
                    rep, pos = expansion
                    tgt = down.src_nbrs[pos].astype(np.int64)
                    t_exp = front_t[rep]
                    src_exp = front_v[rep]
                    keep: Optional[np.ndarray] = None
                    if partial_by_pos is not None:
                        # Partial-transit providers hand down only
                        # their customer/peer routes, never
                        # provider-learned ones.
                        dropped = partial_by_pos[pos] & ~front_fixed[rep]
                        if dropped.any():
                            keep = ~dropped
                    if depth == 0 and allowed_dense is not None:
                        # The destination relays its fixed route at
                        # depth 0 (its customer distance is 0); only
                        # its relays are first-hop restricted.
                        is_dest = src_exp == dest[t_exp]
                        forbidden = is_dest & ~allowed_dense[t_exp, tgt]
                        if forbidden.any():
                            keep = ~forbidden if keep is None else keep & ~forbidden
                    if keep is not None:
                        tgt = tgt[keep]
                        t_exp = t_exp[keep]
                        src_exp = src_exp[keep]
                    flat = t_exp * n + tgt
                    unset = prov_flat[flat] < 0
                    flat = flat[unset]
                    if flat.size:
                        new, first = np.unique(flat, return_index=True)
                        prov_flat[new] = depth + 1
                        prov_par_flat[new] = src_exp[unset][first]
                        new_t = new // n
                        new_v = new % n
                        # Only nodes whose *chosen* route is this
                        # provider route re-export it downward — and
                        # only if they have customers to export to.
                        carry = (fixed[new_t, new_v] < 0) & has_down[new_v]
                        next_t = new_t[carry]
                        next_v = new_v[carry]
            prop_t = next_t
            prop_v = next_v
            depth += 1
            if depth > max_fixed and prop_t.size == 0:
                break

    return batch
