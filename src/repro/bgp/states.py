"""Converged prefix states, so that no announcement converges twice.

With nothing in flight, the simulator is deterministic: the routing
state a prefix reaches depends only on the originations made since it
was last empty (never announced, or reset by its sole origin).  Each
origination is described by its origin ASN, its poison set and every
AS's :meth:`~repro.bgp.policy.Policy.prefix_inputs` for the prefix, none
of which names the prefix.  Everything else a convergence reads (the
sessions, each policy's other fields) stays fixed for a simulator's
lifetime.  :class:`ConvergedStates` records those histories as a trie
rooted at the empty state: one :class:`StateNode` per converged
state, one edge per origination.

When an origination leads to a known node, the simulator copies every
speaker's record instead of delivering messages.  It copies from a
prefix that still holds the state (campaign twins: equal-policy
prefixes of one origin) or from the node's snapshot.  A node takes a
snapshot when its last holder leaves it, and only once it has been
reached at least twice.  Discovery baselines and the poison rounds that
targets share recur; a state reached once never pays for one.

A prefix whose state is not a node is *unknown* and never reuses: its
messages were delivered together with another run's (an origination
made with messages in flight), dropped (``discard_pending``, a
:class:`~repro.bgp.simulator.ConvergenceError`), or it withdrew by
events.  Ages are not part of a state: copied routes keep the ages they
were installed with, which preserves their order at every speaker, the
only way the decision process reads them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.bgp.policy import PrefixInputs
from repro.net.ip import Prefix

#: One origination: (origin ASN, poison set, every AS's non-empty
#: prefix inputs as ``(asn, inputs)`` pairs in speaker order).
EdgeKey = Tuple[int, FrozenSet[int], Tuple[Tuple[int, PrefixInputs], ...]]


class StateNode:
    """One converged state, reached by the originations on its trie path."""

    __slots__ = ("children", "holders", "delivered", "damped", "reached", "snapshot")

    def __init__(self, delivered: int = 0, damped: Tuple[int, ...] = ()) -> None:
        self.children: Dict[EdgeKey, StateNode] = {}
        #: Prefixes in this state now, in arrival order.
        self.holders: Dict[Prefix, None] = {}
        #: Messages the convergence into this state delivered, and the
        #: ASes whose flap damping froze the prefix during it.
        self.delivered = delivered
        self.damped = damped
        #: How many times a prefix arrived here.
        self.reached = 0
        #: Speaker ASN -> record, kept once the last holder left.
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

    def leave(self, prefix: Prefix, speakers: Mapping) -> None:
        """``prefix`` is about to change: its state becomes unknown.

        Call before any speaker's record for the prefix changes.  The
        last holder of a state reached at least twice leaves a snapshot
        of every speaker's record behind.
        """
        node = self._node_of.get(prefix, self.root)
        self._node_of[prefix] = None
        if node is None or node is self.root:
            return
        del node.holders[prefix]
        if not node.holders and node.reached >= 2 and node.snapshot is None:
            snapshot = {}
            for asn, speaker in speakers.items():
                record = speaker.record(prefix)
                if record is not None:
                    snapshot[asn] = record.copy_for(prefix)
            node.snapshot = snapshot

    def arrive(self, prefix: Prefix, node: StateNode) -> None:
        """``prefix`` converged to ``node``'s state."""
        node.reached += 1
        if node is self.root:
            del self._node_of[prefix]
        else:
            node.holders[prefix] = None
            self._node_of[prefix] = node

    def source(self, node: StateNode, speakers: Mapping):
        """``asn -> record`` to copy ``node``'s state from: a holder's
        live records if one is left, else the snapshot."""
        for holder in node.holders:
            return lambda asn: speakers[asn].record(holder)
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
        copies the trie."""
        fresh = ConvergedStates()
        fresh._node_of = dict.fromkeys(self._node_of)
        return fresh
