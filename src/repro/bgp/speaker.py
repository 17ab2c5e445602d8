"""A single AS's BGP speaker: RIBs, decision, and export generation."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bgp.attributes import ASPathAttribute
from repro.bgp.communities import (
    entry_class_community,
    read_entry_class,
    strip_entry_class,
)
from repro.bgp.decision import DecisionStep, best_route
from repro.bgp.messages import Announcement, Withdrawal
from repro.bgp.policy import CountryLookup, Policy
from repro.bgp.routes import LocalRoute, Route
from repro.net.ip import Prefix
from repro.topology.relationships import Relationship


class BGPSpeaker:
    """BGP state for one AS.

    The speaker keeps an Adj-RIB-In per neighbor per prefix, runs the
    decision process into a Loc-RIB, and produces export messages for
    its neighbors.  Message transport and scheduling live in
    :class:`repro.bgp.simulator.BGPSimulator`.
    """

    def __init__(
        self,
        asn: int,
        policy: Policy,
        neighbors: Dict[int, Relationship],
        relationship_resolver=None,
        flap_limit: int = 0,
    ) -> None:
        self.asn = asn
        self.policy = policy
        self.neighbors = dict(neighbors)
        #: Global relationship oracle used to classify routes arriving
        #: over sibling links (stand-in for org-wide communities).
        self._resolve_relationship = relationship_resolver
        #: Route-flap damping: after this many best-route changes for a
        #: prefix the speaker freezes its state (0 disables).
        self._flap_limit = flap_limit
        self._flap_count: Dict[Prefix, int] = {}
        self._frozen: set = set()
        #: prefix -> neighbor ASN -> route
        self._adj_rib_in: Dict[Prefix, Dict[int, Route]] = {}
        self._loc_rib: Dict[Prefix, Route] = {}
        self._decision_steps: Dict[Prefix, DecisionStep] = {}
        self._local_routes: Dict[Prefix, LocalRoute] = {}
        #: What we last told each neighbor:
        #: (prefix, neighbor) -> (AS path, communities).
        self._advertised: Dict[Tuple[Prefix, int], Tuple[ASPathAttribute, frozenset]] = {}

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
        existing = self._local_routes.get(local_route.prefix)
        if existing == local_route:
            return False
        self._local_routes[local_route.prefix] = local_route
        self._run_decision(local_route.prefix)
        return True

    def withdraw_origin(self, prefix: Prefix) -> bool:
        """Stop originating ``prefix``; returns whether state changed."""
        if prefix not in self._local_routes:
            return False
        del self._local_routes[prefix]
        self._run_decision(prefix)
        return True

    def originates(self, prefix: Prefix) -> bool:
        return prefix in self._local_routes

    def forget(self, prefix: Prefix) -> bool:
        """Drop the routing state held for ``prefix``; returns whether any was.

        Clears the Adj-RIB-In, the Loc-RIB, the decision step and what
        each neighbor was last told (a local origination stays) — the
        state an event-driven withdrawal converges to once nobody
        originates the prefix.  The simulator calls it on every speaker
        instead of delivering that withdrawal message by message.
        """
        held = bool(self._adj_rib_in.pop(prefix, None))
        held |= self._loc_rib.pop(prefix, None) is not None
        self._decision_steps.pop(prefix, None)
        for neighbor in self.neighbors:
            held |= self._advertised.pop((prefix, neighbor), None) is not None
        return held

    # ------------------------------------------------------------------
    # Message processing
    # ------------------------------------------------------------------
    def receive(
        self,
        message,
        clock: int,
        country_of: Optional[CountryLookup] = None,
    ) -> bool:
        """Process an update; returns whether the best route changed."""
        if message.prefix in self._frozen:
            return False
        if isinstance(message, Announcement):
            return self._receive_announcement(message, clock, country_of)
        if isinstance(message, Withdrawal):
            return self._receive_withdrawal(message)
        raise TypeError(f"unknown BGP message type: {type(message).__name__}")

    def _effective_class(
        self, neighbor: int, as_path, communities=frozenset()
    ) -> Relationship:
        """Class of a route entering over a sibling link.

        Sibling announcements carry the entry class in an org-internal
        community (how real multi-ASN organizations do it); when the
        tag is present it is authoritative.  Without a tag, fall back
        to walking the sibling chain with the relationship oracle.  A
        route originated inside the organization counts as a customer
        route.
        """
        relationship = self.neighbors[neighbor]
        if relationship is not Relationship.SIBLING:
            return relationship
        tagged = read_entry_class(communities)
        if tagged is not None:
            return tagged
        if self._resolve_relationship is None:
            return relationship
        hops = as_path.sequence()
        current = neighbor
        for next_hop in hops[1:]:
            if next_hop == current:
                continue  # prepending repeats
            hop_relationship = self._resolve_relationship(current, next_hop)
            if hop_relationship is None:
                return Relationship.SIBLING
            if hop_relationship is not Relationship.SIBLING:
                return hop_relationship
            current = next_hop
        return Relationship.CUSTOMER

    def _receive_announcement(
        self,
        announcement: Announcement,
        clock: int,
        country_of: Optional[CountryLookup],
    ) -> bool:
        neighbor = announcement.sender
        relationship = self.neighbors.get(neighbor)
        if relationship is None:
            raise ValueError(f"AS{self.asn} has no session with AS{neighbor}")
        per_prefix = self._adj_rib_in.setdefault(announcement.prefix, {})
        if not self.policy.accepts(announcement.as_path):
            # A rejected announcement implicitly withdraws any prior
            # route from this neighbor (the neighbor replaced it).
            removed = per_prefix.pop(neighbor, None) is not None
            if removed:
                return self._run_decision(announcement.prefix)
            return False
        previous = per_prefix.get(neighbor)
        if (
            previous is not None
            and previous.as_path == announcement.as_path
            and previous.communities == announcement.communities
        ):
            # Duplicate announcement: no state change, age preserved.
            return False
        effective = self._effective_class(
            neighbor, announcement.as_path, announcement.communities
        )
        route = Route(
            prefix=announcement.prefix,
            as_path=announcement.as_path,
            learned_from=neighbor,
            relationship=relationship,
            local_pref=self.policy.local_pref_for(
                neighbor,
                effective,
                announcement.prefix,
                announcement.as_path,
                country_of,
            ),
            igp_cost=self.policy.igp_cost_for(neighbor),
            age=clock,
            router_id=neighbor,
            export_class=effective,
            communities=announcement.communities,
        )
        per_prefix[neighbor] = route
        return self._run_decision(announcement.prefix)

    def _receive_withdrawal(self, withdrawal: Withdrawal) -> bool:
        per_prefix = self._adj_rib_in.get(withdrawal.prefix, {})
        if per_prefix.pop(withdrawal.sender, None) is None:
            return False
        return self._run_decision(withdrawal.prefix)

    # ------------------------------------------------------------------
    # Decision process
    # ------------------------------------------------------------------
    def candidates(self, prefix: Prefix) -> List[Route]:
        """All usable routes toward ``prefix`` (learned plus local)."""
        routes = list(self._adj_rib_in.get(prefix, {}).values())
        local = self._local_routes.get(prefix)
        if local is not None:
            routes.append(local.to_route())
        return routes

    def _run_decision(self, prefix: Prefix) -> bool:
        previous = self._loc_rib.get(prefix)
        winner, step = best_route(self.candidates(prefix))
        if winner is None:
            self._loc_rib.pop(prefix, None)
            self._decision_steps.pop(prefix, None)
        else:
            self._loc_rib[prefix] = winner
            self._decision_steps[prefix] = step
        changed = previous != winner
        if changed and self._flap_limit:
            flaps = self._flap_count.get(prefix, 0) + 1
            self._flap_count[prefix] = flaps
            if flaps > self._flap_limit:
                # Route-flap damping: freeze this prefix's state so a
                # policy dispute wheel cannot livelock the network.
                self._frozen.add(prefix)
        return changed

    def reset_damping(self) -> None:
        """Start a new convergence epoch: clear flap counters and thaw.

        Called by the simulator whenever an origination changes, so
        damping only fires on oscillation *within* one convergence run,
        not across sequential experiments.
        """
        self._flap_count.clear()
        self._frozen.clear()

    @property
    def damped_prefixes(self) -> frozenset:
        return frozenset(self._frozen)

    def best(self, prefix: Prefix) -> Optional[Route]:
        return self._loc_rib.get(prefix)

    def decision_step(self, prefix: Prefix) -> Optional[DecisionStep]:
        return self._decision_steps.get(prefix)

    def advertised(
        self, prefix: Prefix
    ) -> Dict[int, Tuple[ASPathAttribute, frozenset]]:
        """Neighbor -> (AS path, communities) last announced for ``prefix``."""
        return {
            neighbor: self._advertised[(prefix, neighbor)]
            for neighbor in self.neighbors
            if (prefix, neighbor) in self._advertised
        }

    def prefixes(self) -> List[Prefix]:
        return sorted(
            set(self._loc_rib) | set(self._local_routes), key=lambda p: (p.network, p.length)
        )

    # ------------------------------------------------------------------
    # Export side
    # ------------------------------------------------------------------
    def _export_route(self, prefix: Prefix, to_neighbor: int):
        """The (path, communities) to advertise to ``to_neighbor``."""
        relationship = self.neighbors[to_neighbor]
        local = self._local_routes.get(prefix)
        best = self._loc_rib.get(prefix)
        if local is not None and best is not None and best.learned_from == self.asn:
            if not self.policy.exports_origin_prefix(prefix, to_neighbor):
                return None
            path = local.exported_path()
            prepends = self.policy.export_prepend.get((prefix, to_neighbor), 0)
            for _ in range(prepends):
                path = path.prepend(self.asn)
            communities = frozenset()
            if relationship is Relationship.SIBLING:
                # An org-internal origination counts as a customer route.
                communities = frozenset(
                    {entry_class_community(self.asn, Relationship.CUSTOMER)}
                )
            return path, communities
        if best is None:
            return None
        if not self.policy.should_export(best, to_neighbor, relationship):
            return None
        if relationship is Relationship.SIBLING:
            # Tag the entry class for the rest of the organization,
            # unless an earlier member already did.
            communities = best.communities
            if read_entry_class(communities) is None:
                communities = communities | {
                    entry_class_community(self.asn, best.effective_class)
                }
        else:
            # Org-internal tags never leave the organization.
            communities = strip_entry_class(best.communities)
        return best.as_path.prepend(self.asn), communities

    def pending_export(self, prefix: Prefix, to_neighbor: int):
        """The message to send to ``to_neighbor`` now, or ``None``.

        Compares the currently exportable route against what the
        neighbor was last told, producing an announcement, a
        withdrawal, or nothing.
        """
        export = self._export_route(prefix, to_neighbor)
        key = (prefix, to_neighbor)
        advertised = self._advertised.get(key)
        if export is None:
            if advertised is None:
                return None
            del self._advertised[key]
            return Withdrawal(prefix=prefix, sender=self.asn)
        if advertised == export:
            return None
        self._advertised[key] = export
        path, communities = export
        return Announcement(
            prefix=prefix, as_path=path, sender=self.asn, communities=communities
        )
