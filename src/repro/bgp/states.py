"""Converged prefix states, so that no announcement converges twice.

The simulator is deterministic: the routing state a prefix reaches
depends only on the originations made since it was last empty (never
announced, or withdrawn by its sole origin).  Each origination is
described by its origin ASN, its poison set and every AS's
:meth:`~repro.bgp.policy.Policy.prefix_inputs` for the prefix, none of
which names the prefix.  Everything else a convergence reads (the
sessions, each policy's other fields) stays fixed for a simulator's
lifetime.  :class:`ConvergedStates` records those histories as a trie
rooted at the empty state: one :class:`StateNode` per converged
state, one edge per origination.  A converged state is an exact fixed
point, fully held by the speakers' records; a node adds only how many
messages its convergence delivered, which a copy adds to the clock.

When an origination leads to a known node, the simulator gives every
speaker the state's record instead of delivering messages: the record
of a prefix that still holds the state (campaign twins: equal-policy
prefixes of one origin) or the node's snapshot.  A node takes a
snapshot when its last holder leaves it, and only once it has been
reached at least twice.  Discovery baselines and the poison rounds that
targets share recur; a state reached once never pays for one.  A
withdrawal by a prefix's sole origin copies the root, the empty state,
the same way: its source holds no record, so every speaker drops the
prefix's.

The records are shared, not copied: a node's holders and its snapshot
hold the same record objects, and a snapshot keeps the last holder's.
Only a record with a local origination is copied when a prefix adopts
it, for the origination names its prefix
(:meth:`~repro.bgp.speaker._PrefixState.shared_as`).  A prefix that
leaves a state to take delivered messages (an origination or a
withdrawal by events) first copies each record that a holder or the
snapshot still reads, so it copies at most once per stay; a copy of a
known state replaces its records instead, so no path edits a record
that something else reads.  A deep copy of the simulator knows no
state, so there every prefix holds its own records
(:meth:`~repro.bgp.speaker.BGPSpeaker.__deepcopy__`).

A prefix whose state is not a node is *unknown* and never reuses: its
last run failed with a :class:`~repro.bgp.simulator.ConvergenceError`
or was interrupted, it withdrew by events, or it was delivered from an
unknown state.  Ages are not part of a state: copied routes keep the
ages they were installed with, which preserves their order at every
speaker, the only way the decision process reads them.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.bgp.policy import PrefixInputs
from repro.net.ip import Prefix

#: One origination: (origin ASN, poison set, every AS's non-empty
#: prefix inputs as ``(asn, inputs)`` pairs in speaker order).
EdgeKey = Tuple[int, FrozenSet[int], Tuple[Tuple[int, PrefixInputs], ...]]


class StateNode:
    """One converged state, reached by the originations on its trie path."""

    __slots__ = ("children", "holders", "delivered", "reached", "snapshot")

    def __init__(self, delivered: int = 0) -> None:
        self.children: Dict[EdgeKey, StateNode] = {}
        #: Prefixes in this state now, in arrival order.
        self.holders: Dict[Prefix, None] = {}
        #: Messages the convergence into this state delivered.
        self.delivered = delivered
        #: How many times a prefix arrived here.
        self.reached = 0
        #: Speaker ASN -> record, the last holder's once it left.
        self.snapshot: Optional[Dict[int, object]] = None

    def reusable(self) -> bool:
        """Whether a prefix arriving here can copy the state."""
        return bool(self.holders) or self.snapshot is not None


class ConvergedStates:
    """Which converged state each prefix is in, as nodes of one trie."""

    def __init__(self) -> None:
        self.root = StateNode()
        #: Prefix -> its node, or ``None`` when unknown; absent = empty.
        self._node_of: Dict[Prefix, Optional[StateNode]] = {}

    def node(self, prefix: Prefix) -> Optional[StateNode]:
        """The state ``prefix`` is in (``None``: unknown)."""
        return self._node_of.get(prefix, self.root)

    def leave(
        self, prefix: Prefix, speakers: Mapping
    ) -> Optional[Callable[[int], object]]:
        """``prefix`` is about to change: its state becomes unknown.

        Call before any speaker's record for the prefix changes.  The
        last holder of a state reached at least twice leaves its records
        behind as the state's snapshot.  Returns ``asn -> record`` of
        what still reads the state's records (a holder, or the
        snapshot), or ``None`` when nothing does: before messages for
        the prefix are delivered, each of its records that is also the
        reader's must be copied.
        """
        node = self._node_of.get(prefix, self.root)
        self._node_of[prefix] = None
        if node is None or node is self.root:
            return None
        del node.holders[prefix]
        if not node.holders and node.reached >= 2 and node.snapshot is None:
            node.snapshot = {}
            for asn, speaker in speakers.items():
                record = speaker.record(prefix)
                if record is not None:
                    node.snapshot[asn] = record
        return self.source(node, speakers) if node.reusable() else None

    def arrive(self, prefix: Prefix, node: StateNode) -> None:
        """``prefix`` converged to ``node``'s state."""
        node.reached += 1
        if node is self.root:
            del self._node_of[prefix]
        else:
            node.holders[prefix] = None
            self._node_of[prefix] = node

    def source(self, node: StateNode, speakers: Mapping):
        """``asn -> record`` holding ``node``'s state: a holder's live
        records if one is left, else the snapshot; no record at all for
        the root, the empty state."""
        for holder in node.holders:
            return lambda asn: speakers[asn].record(holder)
        if node is self.root:
            return lambda asn: None
        return node.snapshot.get

    def snapshots(self) -> int:
        """How many nodes keep a snapshot."""
        count, stack = 0, [self.root]
        while stack:
            node = stack.pop()
            count += node.snapshot is not None
            stack.extend(node.children.values())
        return count

    def __deepcopy__(self, memo) -> "ConvergedStates":
        """A copy that knows no state: every prefix this one tracks is
        unknown in it, so a deep-copied simulator (an event-delivery
        fork in :mod:`repro.check.differential`) neither shares nor
        copies the trie, and none of its prefixes shares a record."""
        fresh = ConvergedStates()
        fresh._node_of = dict.fromkeys(self._node_of)
        return fresh
