"""Vectorized Best/Short grading over interned decision batches.

The scalar grader (:func:`repro.core.classification.grade_decision`)
reads three facts per decision: the relationship rank of the next hop,
the best-class rank of the model's route at the deciding AS, and the
model's route length.  Its whole truth table collapses to two vector
comparisons over int codes:

* ``best``  = ``rank < 3  and  rank <= best_class_rank`` where rank is
  -1 for declared siblings (always Best), 0/1/2 for
  customer/peer/provider (hybrid overrides already substituted), and 3
  for "pair not adjacent in the topology" (never Best); the best-class
  rank is 3 when the model has no route at all, which any real
  adjacency beats — exactly the scalar grader's None handling.
* ``short`` = ``measured <= model_len`` with a huge sentinel for "model
  predicts no route", making the comparison vacuously true like
  ``model_len is None``.

:class:`DecisionArena` interns a decision batch once into flat numpy
columns; :class:`ArenaGrouping` lexsorts them by (tree, grade key) so
duplicate decisions collapse to unique rows grouped by routing tree,
and caches the lookups that refinement layers sharing the batch reuse:
dense ids and relationship ranks for the one compiled topology it last
graded against, sibling flags and hybrid overrides.
Labels come back as codes ``(not best) + 2 * (not short)``, tallied
with one bincount or fanned back out to per-decision labels with one
repeat + scatter.

Equivalence with the scalar grader is enforced label-for-label by the
oracle differentials and the hypothesis property suite under the
``check`` marker.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.classification import (
    Decision,
    DecisionLabel,
    LabelCounts,
)
from repro.core.hotpath.csr import CSRTopology, RANK_MISSING
from repro.net.ip import Prefix
from repro.topology.complex_rel import ComplexRelationships
from repro.whois.siblings import SiblingGroups

#: Label per ``(not best) + 2 * (not short)`` code.
LABELS_BY_CODE = (
    DecisionLabel.BEST_SHORT,
    DecisionLabel.NONBEST_SHORT,
    DecisionLabel.BEST_LONG,
    DecisionLabel.NONBEST_LONG,
)


class DecisionArena:
    """A decision batch interned into flat numpy columns.

    Strings and prefixes are replaced by small int codes; the decision
    objects themselves are kept only for label fan-out.  One arena
    serves every refinement layer graded over the batch — groupings per
    distinct PSP map are built (and cached) on demand.
    """

    def __init__(self, decisions: Iterable[Decision]) -> None:
        self.decisions: List[Decision] = (
            decisions if isinstance(decisions, list) else list(decisions)
        )
        batch = self.decisions
        self.asn = np.array([d.asn for d in batch], dtype=np.int64)
        self.next_hop = np.array([d.next_hop for d in batch], dtype=np.int64)
        self.destination = np.array([d.destination for d in batch], dtype=np.int64)
        self.measured = np.array([d.measured_len for d in batch], dtype=np.int64)
        #: Code -> value tables for the interned columns.  City code 0
        #: is reserved for "no geolocated city".  Prefixes are interned
        #: by object identity (decisions share prefix objects); equal
        #: prefixes of different identity just intern to distinct codes,
        #: which only splits groups more finely — the routing-tree key
        #: is the *allowed set* the prefix maps to, interned by value.
        self.city_values: List[Optional[str]] = [None]
        self.prefix_values: List[Prefix] = []
        city_slots: Dict[str, int] = {}
        prefix_slots: Dict[int, int] = {}
        city_codes: List[int] = []
        prefix_codes: List[int] = []
        for decision in batch:
            city = decision.border_city
            if city is None:
                city_codes.append(0)
            else:
                slot = city_slots.get(city)
                if slot is None:
                    slot = city_slots[city] = len(self.city_values)
                    self.city_values.append(city)
                city_codes.append(slot)
            prefix = decision.prefix
            slot = prefix_slots.get(id(prefix))
            if slot is None:
                slot = prefix_slots[id(prefix)] = len(self.prefix_values)
                self.prefix_values.append(prefix)
            prefix_codes.append(slot)
        self.city_code = np.array(city_codes, dtype=np.int64)
        self.prefix_code = np.array(prefix_codes, dtype=np.int64)
        self._groupings: Dict[int, Tuple[object, "ArenaGrouping"]] = {}

    def __len__(self) -> int:
        return len(self.decisions)

    def grouping(
        self, first_hops_for: Optional[Dict[Prefix, FrozenSet[int]]]
    ) -> "ArenaGrouping":
        """The (cached) grouping for one PSP first-hop map.

        Cached by map identity like the parallel classifier's grouping
        reuse; the cached entry holds a strong reference to the map so
        its id cannot be recycled while the cache lives.
        """
        key = 0 if first_hops_for is None else id(first_hops_for)
        hit = self._groupings.get(key)
        if hit is not None and hit[0] is first_hops_for:
            return hit[1]
        grouping = ArenaGrouping(self, first_hops_for)
        self._groupings[key] = (first_hops_for, grouping)
        return grouping


class ArenaGrouping:
    """Arena rows lexsorted into (routing tree, unique grade key) runs.

    It keeps the per-topology rows (dense ids, base relationship ranks)
    for one compiled topology only, the one it last graded against: the
    arena outlives the engines of a snapshot series, which grades the
    same decisions against one snapshot after another.
    """

    def __init__(
        self,
        arena: DecisionArena,
        first_hops_for: Optional[Dict[Prefix, FrozenSet[int]]],
    ) -> None:
        self.arena = arena
        count = len(arena)

        # Per-prefix allowed-set codes (-1 = unrestricted), interned by
        # set equality so equal sets share a tree.
        allowed_sets: List[FrozenSet[int]] = []
        interned: Dict[FrozenSet[int], int] = {}
        prefix_lut = np.full(max(len(arena.prefix_values), 1), -1, dtype=np.int64)
        if first_hops_for is not None:
            for code, prefix in enumerate(arena.prefix_values):
                allowed = first_hops_for.get(prefix)
                if allowed is None:
                    continue
                slot = interned.get(allowed)
                if slot is None:
                    slot = interned[allowed] = len(allowed_sets)
                    allowed_sets.append(allowed)
                prefix_lut[code] = slot

        if count == 0:
            self.order = np.empty(0, dtype=np.int64)
            self.u_asn = np.empty(0, dtype=np.int64)
            self.u_next_hop = np.empty(0, dtype=np.int64)
            self.u_measured = np.empty(0, dtype=np.int64)
            self.u_city = np.empty(0, dtype=np.int64)
            self.u_count = np.empty(0, dtype=np.int64)
            self.u_tree = np.empty(0, dtype=np.int64)
            self.tree_u_bounds = np.zeros(1, dtype=np.int64)
            self.tree_keys: List[Tuple[int, Optional[FrozenSet[int]]]] = []
        else:
            allowed_code = prefix_lut[arena.prefix_code]
            order = np.lexsort(
                (
                    arena.city_code,
                    arena.measured,
                    arena.next_hop,
                    arena.asn,
                    allowed_code,
                    arena.destination,
                )
            )
            self.order = order
            dest = arena.destination[order]
            allow = allowed_code[order]
            asn = arena.asn[order]
            nhop = arena.next_hop[order]
            mlen = arena.measured[order]
            city = arena.city_code[order]

            tree_change = np.empty(count, dtype=bool)
            tree_change[0] = True
            tree_change[1:] = (dest[1:] != dest[:-1]) | (allow[1:] != allow[:-1])
            row_change = tree_change.copy()
            row_change[1:] |= (
                (asn[1:] != asn[:-1])
                | (nhop[1:] != nhop[:-1])
                | (mlen[1:] != mlen[:-1])
                | (city[1:] != city[:-1])
            )
            starts = np.flatnonzero(row_change)
            self.u_count = np.diff(np.append(starts, count))
            self.u_asn = asn[starts]
            self.u_next_hop = nhop[starts]
            self.u_measured = mlen[starts]
            self.u_city = city[starts]
            self.u_tree = np.cumsum(tree_change)[starts] - 1
            unique_is_tree_start = tree_change[starts]
            self.tree_u_bounds = np.append(
                np.flatnonzero(unique_is_tree_start), starts.size
            )
            tree_rows = starts[unique_is_tree_start]
            self.tree_keys = [
                (
                    int(dest_value),
                    None if allow_value < 0 else allowed_sets[allow_value],
                )
                for dest_value, allow_value in zip(dest[tree_rows], allow[tree_rows])
            ]

        #: The per-topology rows of the last compiled topology graded:
        #: ``(topology, asn rows, next-hop ids, base ranks)``.  One
        #: slot, like the arena memo, so a series graded snapshot by
        #: snapshot keeps no earlier snapshot's compilation alive.
        self._topology: Optional[
            Tuple[CSRTopology, np.ndarray, np.ndarray, np.ndarray]
        ] = None
        # Identity-keyed caches of per-refinement lookups, holding
        # strong references so a cached id cannot be recycled.
        self._sibling_cache: Dict[int, Tuple[SiblingGroups, np.ndarray]] = {}
        self._hybrid_cache: Dict[
            int, Tuple[ComplexRelationships, np.ndarray, np.ndarray]
        ] = {}

    @property
    def num_uniques(self) -> int:
        return int(self.u_asn.size)

    # ------------------------------------------------------------------
    # Cached per-topology lookups
    # ------------------------------------------------------------------
    def _topology_rows(
        self, csr: CSRTopology
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(asn row, next-hop id, base rank) per unique, for one graph.

        ``asn row`` is the dense id with absent ASNs redirected to the
        sentinel row n of the grading vectors; ``base rank`` is the
        plain-topology relationship rank of the next hop to the AS.
        """
        kept = self._topology
        if kept is not None and kept[0] is csr:
            return kept[1], kept[2], kept[3]
        asn_ids = csr.ids_of(self.u_asn)
        nh_ids = csr.ids_of(self.u_next_hop)
        asn_rows = np.where(asn_ids >= 0, asn_ids, csr.n)
        base_ranks = csr.rel_ranks(asn_ids, nh_ids)
        self._topology = (csr, asn_rows, nh_ids, base_ranks)
        return asn_rows, nh_ids, base_ranks

    def _sibling_flags(self, siblings: SiblingGroups) -> np.ndarray:
        hit = self._sibling_cache.get(id(siblings))
        if hit is not None and hit[0] is siblings:
            return hit[1]
        members: List[int] = []
        group_ids: List[int] = []
        for group_index, group in enumerate(siblings.groups()):
            for asn in group:
                members.append(asn)
                group_ids.append(group_index)
        flags = np.zeros(self.num_uniques, dtype=bool)
        if members:
            member_arr = np.asarray(members, dtype=np.int64)
            group_arr = np.asarray(group_ids, dtype=np.int64)
            sort = np.argsort(member_arr)
            member_arr = member_arr[sort]
            group_arr = group_arr[sort]

            def lookup(asns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
                positions = np.searchsorted(member_arr, asns)
                clipped = np.minimum(positions, member_arr.size - 1)
                found = member_arr[clipped] == asns
                return found, group_arr[clipped]

            found_a, group_a = lookup(self.u_asn)
            found_b, group_b = lookup(self.u_next_hop)
            flags = (
                found_a
                & found_b
                & (group_a == group_b)
                & (self.u_asn != self.u_next_hop)
            )
        self._sibling_cache[id(siblings)] = (siblings, flags)
        return flags

    def _hybrid_overrides(
        self, complex_rel: ComplexRelationships
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(unique row, rank) pairs where a hybrid relationship applies.

        City-specific hybrid entries substitute the relationship at the
        geolocated interconnect, including for pairs the base topology
        does not connect (mirroring the scalar grader, which applies
        the override even when ``graph.relationship`` is None).
        """
        hit = self._hybrid_cache.get(id(complex_rel))
        if hit is not None and hit[0] is complex_rel:
            return hit[1], hit[2]
        rows: List[int] = []
        ranks: List[int] = []
        pairs = complex_rel.hybrid_pairs()
        if pairs and self.num_uniques:
            candidates = self._hybrid_candidates(pairs)
            arena = self.arena
            for row in candidates:
                override = complex_rel.hybrid_relationship(
                    int(self.u_asn[row]),
                    int(self.u_next_hop[row]),
                    arena.city_values[int(self.u_city[row])],
                )
                if override is not None:
                    rows.append(int(row))
                    ranks.append(override.rank())
        row_arr = np.asarray(rows, dtype=np.int64)
        rank_arr = np.asarray(ranks, dtype=np.int8)
        self._hybrid_cache[id(complex_rel)] = (complex_rel, row_arr, rank_arr)
        return row_arr, rank_arr

    def _hybrid_candidates(self, pairs: List[Tuple[int, int]]) -> np.ndarray:
        """Unique rows whose (asn, next hop) has some hybrid entry."""
        top = max(
            int(self.u_asn.max()),
            int(self.u_next_hop.max()),
            max(max(a, b) for a, b in pairs),
        )
        stride = np.int64(top + 1)
        if int(stride) * int(top + 1) < np.iinfo(np.int64).max:
            keys = self.u_asn * stride + self.u_next_hop
            pair_keys = np.asarray(
                [a * int(stride) + b for a, b in pairs], dtype=np.int64
            )
            return np.flatnonzero(np.isin(keys, pair_keys))
        # Astronomically large ASNs would overflow the packed key; fall
        # back to a per-row set probe.
        pair_set = set(pairs)
        return np.asarray(
            [
                row
                for row in range(self.num_uniques)
                if (int(self.u_asn[row]), int(self.u_next_hop[row])) in pair_set
            ],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # Grading
    # ------------------------------------------------------------------
    def grade_codes(
        self,
        engine,
        complex_rel: Optional[ComplexRelationships] = None,
        siblings: Optional[SiblingGroups] = None,
    ) -> np.ndarray:
        """Label code per unique row, graded against ``engine``'s trees."""
        csr = engine.compiled_topology()
        engine.warm_batch(self.tree_keys)
        asn_rows, _nh_ids, base_ranks = self._topology_rows(csr)

        ranks = base_ranks
        if complex_rel is not None:
            rows, overrides = self._hybrid_overrides(complex_rel)
            if rows.size:
                ranks = ranks.copy()
                ranks[rows] = overrides
        if siblings is not None:
            flags = self._sibling_flags(siblings)
            if flags.any():
                if ranks is base_ranks:
                    ranks = ranks.copy()
                ranks[flags] = -1

        best_class_rank = np.empty(self.num_uniques, dtype=np.int8)
        model_len = np.empty(self.num_uniques, dtype=np.int64)
        bounds = self.tree_u_bounds
        for index, (destination, allowed) in enumerate(self.tree_keys):
            info = engine.routing_info(destination, allowed)
            rank_vector, length_vector = info.bc_rank_vector(), info.model_len_vector()
            segment = slice(int(bounds[index]), int(bounds[index + 1]))
            segment_rows = asn_rows[segment]
            best_class_rank[segment] = rank_vector[segment_rows]
            model_len[segment] = length_vector[segment_rows]

        best = (ranks < RANK_MISSING) & (ranks <= best_class_rank)
        short = self.u_measured <= model_len
        return (~best) + 2 * (~short)


#: Single-slot memo of the most recent arena: (decisions list, its
#: length at interning time, arena).  The pipeline grades the same
#: decision list many times (seven layers, repeated benchmark legs,
#: robustness re-runs); decisions are frozen dataclasses, so an arena
#: stays valid as long as the list object itself is unchanged — the
#: length check catches in-place growth, the identity check everything
#: else.
_arena_memo: Optional[Tuple[List[Decision], int, DecisionArena]] = None


def arena_for(decisions: Iterable[Decision]) -> DecisionArena:
    """The (memoized) arena of a decision batch."""
    global _arena_memo
    if isinstance(decisions, DecisionArena):
        return decisions
    if isinstance(decisions, list):
        memo = _arena_memo
        if memo is not None and memo[0] is decisions and memo[1] == len(decisions):
            return memo[2]
        arena = DecisionArena(decisions)
        _arena_memo = (decisions, len(decisions), arena)
        return arena
    return DecisionArena(decisions)


def classify_arena(
    grouping: ArenaGrouping,
    engine,
    complex_rel: Optional[ComplexRelationships] = None,
    siblings: Optional[SiblingGroups] = None,
) -> LabelCounts:
    """Tally one layer's labels over a pre-grouped arena."""
    counts = LabelCounts()
    if grouping.num_uniques == 0:
        return counts
    codes = grouping.grade_codes(engine, complex_rel=complex_rel, siblings=siblings)
    totals = np.bincount(codes, weights=grouping.u_count, minlength=4)
    for code, label in enumerate(LABELS_BY_CODE):
        counts.counts[label] = int(round(totals[code]))
    return counts


def label_arena(
    grouping: ArenaGrouping,
    engine,
    complex_rel: Optional[ComplexRelationships] = None,
    siblings: Optional[SiblingGroups] = None,
) -> List[Tuple[Decision, DecisionLabel]]:
    """Per-decision labels over a pre-grouped arena, in input order."""
    decisions = grouping.arena.decisions
    if not decisions:
        return []
    codes = grouping.grade_codes(engine, complex_rel=complex_rel, siblings=siblings)
    scattered = np.empty(len(decisions), dtype=np.int8)
    scattered[grouping.order] = np.repeat(
        codes.astype(np.int8), grouping.u_count
    )
    return [
        (decision, LABELS_BY_CODE[code])
        for decision, code in zip(decisions, scattered.tolist())
    ]
