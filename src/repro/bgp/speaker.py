"""A single AS's BGP speaker: one routing record per prefix.

Everything a speaker holds for one prefix lives in one record: the
Adj-RIB-In by neighbor, the local origination, the Loc-RIB route and
the decision step that picked it, and what its neighbors were last
told.  Delivering a message therefore costs one prefix lookup, not one
per table.  The record is one object: a ``dict`` that is its own
Adj-RIB-In, whose slots hold the rest.

The Adj-RIBs-Out are derived, not stored (RFC 4271 §3.2 describes the
three RIBs as a conceptual model, not three stored copies).  What a
neighbor hears is a function of the route the speaker exports and of
what stays fixed for the speaker's life: its sessions, the customers
and siblings that hear every route, and the partial-transit customers
(:func:`~repro.bgp.policy.export_scope`), all read once when the
speaker is built.  So a record keeps one slot, ``told``: the learned
route its neighbors last heard, or its origination's exported AS path
with the prefix inputs it was exported under, and ``None`` while it
tells no neighbor.

The decision process is incremental.  An update from a neighbor whose
route is not the current best only has to beat the best: preference
keys are unique per candidate (the router id is the neighbor's ASN),
so the new best is whichever of the two has the smaller
:func:`~repro.bgp.decision.preference_key`.  The full tournament
(:func:`~repro.bgp.decision.best_route`) runs only when the best
route's own neighbor updates or withdraws, when a rejected update drops
a route, and when the AS originates or stops originating the prefix.
An incremental update can change the runner-up, so it leaves the
decision step stale (``None`` beside a best route), and
:meth:`BGPSpeaker.decision_step` recomputes it from the candidates.

After a best-route change, :meth:`BGPSpeaker.exports` computes every
neighbor's update in one pass over the record :meth:`BGPSpeaker.receive`
returned, so a delivered update looks its prefix up once.  Session by
session, it derives what the neighbor heard before (from ``told``) and
what it hears now.  Between two learned routes, every non-sibling
neighbor hears the same ``(path, communities)`` export, so the pass
compares the two routes' exports once, not once per neighbor, and the
neighbors it tells share one announcement.

A speaker reads its policy's prefix-keyed fields only through the
:class:`~repro.bgp.policy.PrefixInputs` the simulator loads before it
converges a prefix (:meth:`BGPSpeaker.load_inputs`).  It reads the
rest of its import policy once, when it is built: each session's
relationship, local preference and IGP cost, the loop and poison
flags, and whether it prefers domestic paths from a home country,
none of which change once the simulator exists.  So it calls the
policy's import rule (:meth:`~repro.bgp.policy.Policy.import_local_pref`)
only where the rule can move a session's preference: for a prefix
with a local-preference override, or where the domestic bonus can
apply.

Routes and ``told`` do not name their prefix, so prefixes in one
converged state hold the same record objects
(:meth:`BGPSpeaker.adopt`, :mod:`repro.bgp.states`); only a record
with a local origination, which names its prefix, is copied.  A
prefix takes its own copies of shared records just before messages
for it are delivered (:meth:`BGPSpeaker.privatize`), and a deep copy
of a speaker gives every prefix its own record.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Collection, Dict, List, Optional, Tuple, Union

from repro.bgp.attributes import ASPathAttribute
from repro.bgp.communities import (
    entry_class_community,
    read_entry_class,
    strip_entry_class,
)
from repro.bgp.decision import DecisionStep, best_route, preference_key
from repro.bgp.messages import Announcement, Withdrawal
from repro.bgp.policy import (
    NO_PREFIX_INPUTS,
    CountryLookup,
    Policy,
    PrefixInputs,
    export_scope,
    path_accepted,
)
from repro.bgp.routes import LocalRoute, Route
from repro.net.ip import Prefix
from repro.topology.relationships import Relationship

#: What a neighbor is told about a prefix: (AS path, communities).
Export = Tuple[ASPathAttribute, frozenset]

#: What a record's neighbors were last told, in the form a record keeps
#: it: the learned route they heard, or an origination's (exported AS
#: path, prefix inputs).
Told = Union[Route, Tuple[ASPathAttribute, PrefixInputs]]

#: Read on every delivered update; a module constant spares the class
#: attribute lookup.
_SIBLING = Relationship.SIBLING


class _PrefixState(dict):
    """One speaker's routing state for one prefix.

    The record is its Adj-RIB-In: neighbor ASN -> route, in arrival
    order.  An empty record is falsy, so whether a record exists is
    always tested with ``is None``.
    """

    __slots__ = ("local", "self_route", "best", "step", "told")

    def __init__(self) -> None:
        #: The local origination and the self-route it installs.
        self.local: Optional[LocalRoute] = None
        self.self_route: Optional[Route] = None
        #: Loc-RIB: the best route and the decision step that chose it;
        #: a ``None`` step beside a best route is stale (see the module
        #: docstring).  ``None`` survives every copy of the record.
        self.best: Optional[Route] = None
        self.step: Optional[DecisionStep] = None
        #: What the neighbors were last told (:data:`Told`), from which
        #: the speaker derives each neighbor's export; ``None`` while
        #: no neighbor is told.
        self.told: Optional[Told] = None

    def copy_for(self, prefix: Prefix) -> "_PrefixState":
        """This record as ``prefix``'s: its Adj-RIB-In copied, its
        immutable routes and ``told`` shared, its local origination
        rebuilt."""
        twin = _PrefixState()
        twin.update(self)
        if self.local is not None:
            twin.local = replace(self.local, prefix=prefix)
            twin.self_route = self.self_route
        twin.best = self.best
        twin.step = self.step
        twin.told = self.told
        return twin

    def shared_as(self, prefix: Prefix) -> "_PrefixState":
        """This record for ``prefix`` to hold beside its holder: the
        record itself, unless it has a local origination, which names
        its prefix and is copied (:meth:`copy_for`)."""
        return self if self.local is None else self.copy_for(prefix)


class BGPSpeaker:
    """BGP state for one AS.

    The speaker keeps one :class:`_PrefixState` record per prefix
    (Adj-RIB-In, local origination, Loc-RIB, decision step, what its
    neighbors were told), runs the decision process on it, and produces
    the export messages for its neighbors in one pass per best-route
    change (:meth:`exports`), in ascending-ASN order.  Message transport and
    scheduling live in :class:`repro.bgp.simulator.BGPSimulator`.
    """

    def __init__(
        self,
        asn: int,
        policy: Policy,
        neighbors: Dict[int, Relationship],
    ) -> None:
        self.asn = asn
        self.policy = policy
        self.neighbors = dict(neighbors)
        #: (neighbor, relationship) in ascending-ASN order, the order
        #: updates go out in.
        self._sessions = tuple(sorted(self.neighbors.items()))
        #: neighbor -> (relationship, local preference, IGP cost): the
        #: policy's import inputs per session, read once here (a
        #: policy's neighbor-keyed fields and flags are fixed once its
        #: simulator is built; only its prefix inputs are reloaded).
        self._imports = {
            neighbor: (
                relationship,
                policy.session_local_pref(neighbor, relationship),
                policy.igp_cost_for(neighbor),
            )
            for neighbor, relationship in self._sessions
        }
        self._filters_poisoned = policy.filters_poisoned
        self._loop_prevention_disabled = policy.loop_prevention_disabled
        #: Whether a route can earn the domestic bonus, given a country
        #: lookup; without it only a prefix override changes a route's
        #: local preference from its session's.
        self._domestic = policy.prefers_domestic and bool(policy.home_country)
        #: The customers and siblings, the neighbors that hear every
        #: route, and the customers that buy partial transit, which hear
        #: no provider-class route (:func:`~repro.bgp.policy.export_scope`).
        #: Read once here, so what a record told each neighbor can be
        #: derived again from the route alone.
        self._full_feed = frozenset(
            neighbor
            for neighbor, relationship in self._sessions
            if relationship.exports_all()
        )
        self._partial_transit = (
            frozenset(policy.partial_transit_to) if policy.partial_transit_to else ()
        )
        self._prefixes: Dict[Prefix, _PrefixState] = {}
        #: The policy's non-empty prefix inputs, as last loaded.
        self._inputs: Dict[Prefix, PrefixInputs] = {}

    def _state(self, prefix: Prefix) -> _PrefixState:
        state = self._prefixes.get(prefix)
        if state is None:
            state = self._prefixes[prefix] = _PrefixState()
        return state

    def load_inputs(self, prefix: Prefix) -> PrefixInputs:
        """Read the policy's inputs for ``prefix``; they hold until the
        next load.  The simulator loads them before every run that may
        deliver the prefix's messages."""
        inputs = self.policy.prefix_inputs(prefix)
        if inputs is not NO_PREFIX_INPUTS:
            self._inputs[prefix] = inputs
        elif self._inputs:
            self._inputs.pop(prefix, None)
        return inputs

    # ------------------------------------------------------------------
    # Whole-record copies (converged-state reuse)
    # ------------------------------------------------------------------
    def record(self, prefix: Prefix) -> Optional[_PrefixState]:
        """The routing record held for ``prefix``, if any (not a copy)."""
        return self._prefixes.get(prefix)

    def adopt(self, prefix: Prefix, record: Optional[_PrefixState]) -> None:
        """Hold ``record`` for ``prefix`` (``None``: hold nothing), as if
        the prefix had converged to it.  The record itself is held, not
        a copy, unless it has a local origination
        (:meth:`_PrefixState.shared_as`); the prefix must take its own
        copy before its messages are delivered (:meth:`privatize`)."""
        if record is None:
            self._prefixes.pop(prefix, None)
        else:
            self._prefixes[prefix] = record.shared_as(prefix)

    def privatize(self, prefix: Prefix, shared: Optional[_PrefixState]) -> None:
        """Hold a copy of ``prefix``'s record if it is ``shared``, the
        record another prefix or a snapshot holds; the simulator calls
        it before delivering messages for the prefix."""
        record = self._prefixes.get(prefix)
        if record is not None and record is shared:
            self._prefixes[prefix] = record.copy_for(prefix)

    def __deepcopy__(self, memo) -> "BGPSpeaker":
        """A deep copy in which no two prefixes share a record.

        Only the simulator's converged states tell a prefix when to stop
        sharing (:meth:`privatize`), and a deep copy keeps none of them
        (:mod:`repro.bgp.states`), so a record that several prefixes
        hold is copied once per prefix here.
        """
        clone = type(self).__new__(type(self))
        memo[id(self)] = clone
        clone.__dict__.update(copy.deepcopy(self.__dict__, memo))
        held = set()
        prefixes = clone._prefixes
        for prefix, record in prefixes.items():
            if id(record) in held:
                prefixes[prefix] = record.copy_for(prefix)
            held.add(id(record))
        return clone

    # ------------------------------------------------------------------
    # Origination
    # ------------------------------------------------------------------
    def originate(self, local_route: LocalRoute) -> bool:
        """Install a locally originated prefix; returns whether state changed."""
        if local_route.origin_asn != self.asn:
            raise ValueError(
                f"AS{self.asn} cannot originate a route owned by "
                f"AS{local_route.origin_asn}"
            )
        state = self._state(local_route.prefix)
        if state.local == local_route:
            return False
        state.local = local_route
        state.self_route = local_route.to_route()
        self._run_decision(state)
        return True

    def withdraw_origin(self, prefix: Prefix) -> bool:
        """Stop originating ``prefix``; returns whether state changed."""
        state = self._prefixes.get(prefix)
        if state is None or state.local is None:
            return False
        state.local = state.self_route = None
        self._run_decision(state)
        return True

    def originates(self, prefix: Prefix) -> bool:
        state = self._prefixes.get(prefix)
        return state is not None and state.local is not None

    def origination(self, prefix: Prefix) -> Optional[LocalRoute]:
        """The local origination of ``prefix``, if this AS originates it."""
        state = self._prefixes.get(prefix)
        return None if state is None else state.local

    # ------------------------------------------------------------------
    # Message processing
    # ------------------------------------------------------------------
    def receive(
        self,
        message,
        clock: int,
        country_of: Optional[CountryLookup] = None,
    ) -> Optional[_PrefixState]:
        """Process an update; returns the prefix's record when its best
        route changed (pass it to :meth:`exports`), else ``None``."""
        if isinstance(message, Announcement):
            return self._receive_announcement(message, clock, country_of)
        if isinstance(message, Withdrawal):
            return self._receive_withdrawal(message)
        raise TypeError(f"unknown BGP message type: {type(message).__name__}")

    @staticmethod
    def _sibling_entry_class(communities) -> Relationship:
        """Class of a route entering over a sibling link.

        Sibling announcements carry the entry class in an org-internal
        community (how real multi-ASN organizations do it), and every
        export over a sibling link is tagged; a route originated inside
        the organization is tagged as a customer route.  An untagged
        sibling route keeps class ``SIBLING``.
        """
        tagged = read_entry_class(communities)
        return Relationship.SIBLING if tagged is None else tagged

    def _receive_announcement(
        self,
        announcement: Announcement,
        clock: int,
        country_of: Optional[CountryLookup],
    ) -> Optional[_PrefixState]:
        neighbor = announcement.sender
        session = self._imports.get(neighbor)
        if session is None:
            raise ValueError(f"AS{self.asn} has no session with AS{neighbor}")
        relationship, local_pref, igp_cost = session
        prefix = announcement.prefix
        state = self._prefixes.get(prefix)
        as_path = announcement.as_path
        if not path_accepted(
            as_path, self.asn, self._filters_poisoned, self._loop_prevention_disabled
        ):
            # A rejected announcement implicitly withdraws any prior
            # route from this neighbor (the neighbor replaced it).
            if state is not None and state.pop(neighbor, None) is not None:
                return state if self._run_decision(state) else None
            return None
        if state is None:
            state = self._prefixes[prefix] = _PrefixState()
        communities = announcement.communities
        previous = state.get(neighbor)
        if (
            previous is not None
            and previous.as_path == as_path
            and previous.communities == communities
        ):
            # Duplicate announcement: no state change, age preserved.
            return None
        effective = relationship
        policy = self.policy
        if relationship is _SIBLING:
            effective = self._sibling_entry_class(communities)
            local_pref = policy.session_local_pref(neighbor, effective)
        inputs = NO_PREFIX_INPUTS
        if self._inputs:
            inputs = self._inputs.get(prefix, NO_PREFIX_INPUTS)
        if inputs.local_pref or (self._domestic and country_of is not None):
            local_pref = policy.import_local_pref(
                neighbor, local_pref, inputs, as_path, country_of
            )
        # Positional, in field order: keyword arguments would double
        # the cost of building the route.
        route = state[neighbor] = Route(
            as_path,
            neighbor,
            relationship,
            local_pref,
            igp_cost,
            clock,
            neighbor,
            effective,
            communities,
        )
        best = state.best
        if best is None or best.learned_from == neighbor:
            return state if self._run_decision(state) else None
        # The best route stands unless the new one beats it.  The new
        # route's preference_key is the values it was just built from.
        state.step = None
        if (
            -local_pref, len(as_path.segments), igp_cost, clock, neighbor
        ) < preference_key(best):
            state.best = route
            return state
        return None

    def _receive_withdrawal(self, withdrawal: Withdrawal) -> Optional[_PrefixState]:
        state = self._prefixes.get(withdrawal.prefix)
        if state is None or state.pop(withdrawal.sender, None) is None:
            return None
        if state.best is not None and state.best.learned_from != withdrawal.sender:
            state.step = None  # the best stands; the runner-up may not
            return None
        return state if self._run_decision(state) else None

    # ------------------------------------------------------------------
    # Decision process
    # ------------------------------------------------------------------
    def candidates(self, prefix: Prefix) -> List[Route]:
        """All usable routes toward ``prefix`` (learned plus local)."""
        state = self._prefixes.get(prefix)
        if state is None:
            return []
        routes = list(state.values())
        if state.self_route is not None:
            routes.append(state.self_route)
        return routes

    def _run_decision(self, state: _PrefixState) -> bool:
        """Run the full tournament; returns whether the best route changed."""
        if state.self_route is not None:
            winner, step = best_route([*state.values(), state.self_route])
        elif len(state) == 1:
            (winner,) = state.values()
            step = DecisionStep.ONLY_ROUTE
        else:
            winner, step = best_route(state.values())
        previous = state.best
        state.best = winner
        state.step = step
        return not (previous is winner or previous == winner)

    def best(self, prefix: Prefix) -> Optional[Route]:
        state = self._prefixes.get(prefix)
        return None if state is None else state.best

    def decision_step(self, prefix: Prefix) -> Optional[DecisionStep]:
        """The step that picked the Loc-RIB route (``None``: no route).

        A stale step is recomputed from the candidates, so this is
        always what the full tournament reports for them.
        """
        state = self._prefixes.get(prefix)
        if state is None:
            return None
        if state.step is None and state.best is not None:
            return best_route(self.candidates(prefix))[1]
        return state.step

    def advertised(self, prefix: Prefix) -> Dict[int, Export]:
        """Neighbor -> (AS path, communities) last announced for
        ``prefix``: what an export pass from telling nothing to the
        record's ``told`` announces."""
        state = self._prefixes.get(prefix)
        if state is None or state.told is None:
            return {}
        told = state.told
        derive = self._origin_pass if type(told) is tuple else self._learned_pass
        updates, _ = derive(prefix, None, told)
        return {
            neighbor: (message.as_path, message.communities)
            for neighbor, message in updates
        }

    def prefixes(self) -> List[Prefix]:
        return sorted(
            (
                prefix
                for prefix, state in self._prefixes.items()
                if state.best is not None or state.local is not None
            ),
            key=lambda p: (p.network, p.length),
        )

    # ------------------------------------------------------------------
    # Export side
    # ------------------------------------------------------------------
    def exports(
        self, prefix: Prefix, state: Optional[_PrefixState] = None
    ) -> List[Tuple[int, object]]:
        """The updates owed to neighbors for ``prefix``, in ascending-ASN order.

        Derives, session by session, what each neighbor heard before
        (from the record's ``told``) and what it hears now, returns one
        ``(neighbor, message)`` pair (an announcement or a withdrawal)
        per neighbor whose view changed, and records what the neighbors
        are told now.  ``state`` is the prefix's record when the caller
        holds it (what :meth:`receive` returned); otherwise it is looked
        up.
        """
        if state is None:
            state = self._prefixes.get(prefix)
            if state is None:
                return []
        best = state.best
        told = state.told
        if best is None:
            now = None
        elif best.learned_from == self.asn:
            now = (
                state.local.exported_path(),
                self._inputs.get(prefix, NO_PREFIX_INPUTS),
            )
        else:
            now = best
        if now is None and told is None:
            return []
        if type(now) is tuple or type(told) is tuple:
            updates, telling = self._origin_pass(prefix, told, now)
        else:
            updates, telling = self._learned_pass(prefix, told, now)
        # A pass that tells no neighbor leaves ``None`` behind.
        state.told = now if telling else None
        return updates

    def _learned_pass(
        self, prefix: Prefix, told: Optional[Route], now: Optional[Route]
    ) -> Tuple[List[Tuple[int, object]], bool]:
        """:meth:`exports` between two learned routes (either may be
        ``None``): the updates and whether any neighbor hears ``now``.

        Every non-sibling neighbor that hears a learned route hears the
        same export, so whether the two routes' exports differ is
        decided once, and the neighbors told share one announcement.
        """
        old_scope = old_blocked = new_scope = new_blocked = ()
        old_sender = new_sender = None
        if told is not None:
            old_scope, old_blocked = self._scope(told)
            old_sender = told.learned_from
        if now is not None:
            new_scope, new_blocked = self._scope(now)
            new_sender = now.learned_from
            if not new_scope and told is None:
                return [], False
        same = announcement = withdrawal = None
        telling = False
        updates = []
        for neighbor, relationship in self._sessions:
            heard = (
                neighbor in old_scope
                and neighbor != old_sender
                and neighbor not in old_blocked
            )
            if (
                neighbor not in new_scope
                or neighbor == new_sender
                or neighbor in new_blocked
            ):
                if heard:
                    if withdrawal is None:
                        withdrawal = Withdrawal(prefix=prefix, sender=self.asn)
                    updates.append((neighbor, withdrawal))
                continue
            telling = True
            if relationship is _SIBLING:
                export = self._sibling_export(now)
                if not (heard and self._sibling_export(told) == export):
                    updates.append((neighbor, self._announcement(prefix, export)))
                continue
            if heard:
                if same is None:
                    same = told.as_path == now.as_path and strip_entry_class(
                        told.communities
                    ) == strip_entry_class(now.communities)
                if same:
                    continue
            if announcement is None:
                announcement = self._announcement(
                    prefix,
                    (
                        now.as_path.prepend(self.asn),
                        strip_entry_class(now.communities),
                    ),
                )
            updates.append((neighbor, announcement))
        return updates, telling

    def _origin_pass(
        self, prefix: Prefix, told: Optional[Told], now: Optional[Told]
    ) -> Tuple[List[Tuple[int, object]], bool]:
        """:meth:`exports` when an origination is told before or now:
        each neighbor's two exports are derived and compared in full."""
        withdrawal = None
        telling = False
        updates = []
        for neighbor, relationship in self._sessions:
            before = export = None
            if told is not None:
                before = self._export(told, neighbor, relationship)
            if now is not None:
                export = self._export(now, neighbor, relationship)
            if export is None:
                if before is not None:
                    if withdrawal is None:
                        withdrawal = Withdrawal(prefix=prefix, sender=self.asn)
                    updates.append((neighbor, withdrawal))
                continue
            telling = True
            if before != export:
                updates.append((neighbor, self._announcement(prefix, export)))
        return updates, telling

    def _export(
        self, told: Told, neighbor: int, relationship: Relationship
    ) -> Optional[Export]:
        """What a record that told ``told`` tells ``neighbor`` (``None``:
        nothing)."""
        if type(told) is tuple:
            return self._origin_export(told, neighbor, relationship)
        scope, blocked = self._scope(told)
        if (
            neighbor == told.learned_from
            or neighbor not in scope
            or neighbor in blocked
        ):
            return None
        if relationship is _SIBLING:
            return self._sibling_export(told)
        return told.as_path.prepend(self.asn), strip_entry_class(told.communities)

    def _scope(self, route: Route) -> Tuple[Collection[int], Collection[int]]:
        """``(scope, blocked)`` of a learned route
        (:func:`~repro.bgp.policy.export_scope`)."""
        return export_scope(
            route.effective_class,
            self.neighbors,
            self._full_feed,
            self._partial_transit,
        )

    def _announcement(self, prefix: Prefix, export: Export) -> Announcement:
        path, communities = export
        return Announcement(prefix, path, self.asn, communities)

    def _origin_export(
        self,
        origination: Tuple[ASPathAttribute, PrefixInputs],
        neighbor: int,
        relationship: Relationship,
    ) -> Optional[Export]:
        """What the origin tells ``neighbor`` of its ``(exported AS path,
        prefix inputs)``: selective export, prepends and the poison
        set."""
        path, inputs = origination
        if not inputs.exports_to(neighbor):
            return None
        for _ in range(inputs.prepends_to(neighbor)):
            path = path.prepend(self.asn)
        communities = frozenset()
        if relationship is Relationship.SIBLING:
            # An org-internal origination counts as a customer route.
            communities = frozenset(
                {entry_class_community(self.asn, Relationship.CUSTOMER)}
            )
        return path, communities

    def _sibling_export(self, best: Route) -> Export:
        """A learned route as told to a sibling: the entry class tagged
        for the rest of the organization, unless an earlier member
        already did."""
        communities = best.communities
        if read_entry_class(communities) is None:
            communities = communities | {
                entry_class_community(self.asn, best.effective_class)
            }
        return best.as_path.prepend(self.asn), communities
