"""Typed diffs between consecutive :class:`ASGraph` snapshots.

A :class:`GraphDelta` captures everything that changed between two
monthly inferred topologies — links that appeared, vanished or flipped
relationship label, plus ASes that entered or left the graph — in the
normalized link form :meth:`ASGraph.links` yields (customer-provider
edges provider-first, symmetric edges lower-ASN-first).  The temporal
study reports each epoch's :meth:`GraphDelta.summary` as its churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.topology.graph import ASGraph
from repro.topology.relationships import Relationship

#: One normalized undirected link: ``(a, b, rel)`` where ``rel`` is b's
#: role to a, in :meth:`ASGraph.links` normal form.
Link = Tuple[int, int, Relationship]

#: A relabeled link: the pair's old and new normalized triples.
Relabel = Tuple[Link, Link]


def _link_index(graph: ASGraph) -> Dict[Tuple[int, int], Link]:
    """Normalized triple per unordered AS pair."""
    return {
        (min(a, b), max(a, b)): (a, b, rel) for a, b, rel in graph.links()
    }


@dataclass(frozen=True)
class GraphDelta:
    """Everything that changed from one snapshot to the next."""

    added_asns: Tuple[int, ...] = ()
    removed_asns: Tuple[int, ...] = ()
    added: Tuple[Link, ...] = ()
    removed: Tuple[Link, ...] = ()
    relabeled: Tuple[Relabel, ...] = ()

    @property
    def empty(self) -> bool:
        return not (
            self.added_asns
            or self.removed_asns
            or self.added
            or self.removed
            or self.relabeled
        )

    def summary(self) -> Dict[str, int]:
        return {
            "asns_added": len(self.added_asns),
            "asns_removed": len(self.removed_asns),
            "links_added": len(self.added),
            "links_removed": len(self.removed),
            "links_relabeled": len(self.relabeled),
        }


def diff_graphs(old: ASGraph, new: ASGraph) -> GraphDelta:
    """The typed delta turning ``old`` into ``new``.

    Links are compared per unordered AS pair: a pair present in only
    one graph is an addition/removal, a pair present in both with a
    different normalized triple is a relabel (this covers both a
    relationship-class flip and a customer-provider orientation swap).
    """
    old_asns = set(old.asns())
    new_asns = set(new.asns())
    old_links = _link_index(old)
    new_links = _link_index(new)

    added = []
    removed = []
    relabeled = []
    for pair, triple in old_links.items():
        replacement = new_links.get(pair)
        if replacement is None:
            removed.append(triple)
        elif replacement != triple:
            relabeled.append((triple, replacement))
    for pair, triple in new_links.items():
        if pair not in old_links:
            added.append(triple)

    return GraphDelta(
        added_asns=tuple(sorted(new_asns - old_asns)),
        removed_asns=tuple(sorted(old_asns - new_asns)),
        added=tuple(sorted(added)),
        removed=tuple(sorted(removed)),
        relabeled=tuple(sorted(relabeled)),
    )
