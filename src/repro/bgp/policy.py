"""Per-AS routing policy: import preferences and export filters.

A :class:`Policy` encodes Gao-Rexford economics as the default and
layers on the real-world deviations the paper investigates:

* per-neighbor local-preference overrides (backup links, hybrid
  geographic relationships that make the effective preference differ
  from the inferred relationship),
* per-(neighbor, prefix) overrides (prefix-specific preference),
* selective prefix announcement at the origin (the paper's
  prefix-specific policies, Section 4.3),
* partial transit (a provider exporting only peer/customer reachability
  to some customers),
* preference for domestic paths (Section 6, Table 3),
* poisoned-announcement filtering and disabled loop prevention
  (the limitations noted in Section 4.4).

The three prefix-keyed fields are read through one method,
:meth:`Policy.prefix_inputs`, which returns a prefix-free
:class:`PrefixInputs`.  The speaker converges a prefix on those inputs
and the simulator keys converged states on them, so prefixes whose
inputs are equal at every AS converge alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, FrozenSet, Optional, Set, Tuple

from repro.bgp.attributes import ASPathAttribute
from repro.bgp.routes import Route
from repro.net.ip import Prefix
from repro.topology.relationships import Relationship

#: Default local-preference bands for the Gao-Rexford ordering.
DEFAULT_LOCAL_PREF = {
    Relationship.CUSTOMER: 300,
    Relationship.SIBLING: 300,
    Relationship.PEER: 200,
    Relationship.PROVIDER: 100,
}

#: :data:`DEFAULT_LOCAL_PREF` keyed by each relationship's value: an
#: import reads it once per update, and hashing an enum member calls
#: Python code where hashing its (interned) value string does not.
_DEFAULT_LOCAL_PREF_BY_VALUE = {
    relationship.value: pref for relationship, pref in DEFAULT_LOCAL_PREF.items()
}

#: Bonus added to routes whose every hop stays in the home country when
#: the AS prefers domestic paths.
DOMESTIC_BONUS = 50

CountryLookup = Callable[[int], Optional[str]]


@dataclass(frozen=True, slots=True)
class PrefixInputs:
    """What one AS's policy says about one prefix alone.

    The prefix-keyed policy fields restricted to one prefix, without
    the prefix: local-preference overrides by neighbor, the origin's
    selective-export set (``None``: every neighbor) and its AS-path
    prepends by neighbor.  Pairs are sorted by neighbor, so equal
    policies give equal (and equally hashed) inputs.
    """

    local_pref: Tuple[Tuple[int, int], ...] = ()
    selective_export: Optional[FrozenSet[int]] = None
    prepends: Tuple[Tuple[int, int], ...] = ()

    def local_pref_from(self, neighbor: int) -> Optional[int]:
        """The local-preference override for routes from ``neighbor``."""
        for other, pref in self.local_pref:
            if other == neighbor:
                return pref
        return None

    def exports_to(self, neighbor: int) -> bool:
        """Whether the origin announces the prefix to ``neighbor``."""
        allowed = self.selective_export
        return allowed is None or neighbor in allowed

    def prepends_to(self, neighbor: int) -> int:
        """Extra copies of the origin's ASN announced to ``neighbor``."""
        for other, count in self.prepends:
            if other == neighbor:
                return count
        return 0


#: The inputs of a prefix the policy says nothing about.
NO_PREFIX_INPUTS = PrefixInputs()


def path_accepted(
    as_path: ASPathAttribute,
    asn: int,
    filters_poisoned: bool,
    loop_prevention_disabled: bool,
) -> bool:
    """The import filter of AS ``asn`` (:meth:`Policy.accepts`) given
    its two flags, which a speaker reads once when it is built.

    Loop prevention looks inside AS-sets too; a path without one is
    tested by one C-level ``in``, and a poisoned path then only has its
    AS-sets' members left to test.
    """
    segments = as_path.segments
    if not loop_prevention_disabled and asn in segments:
        return False
    if frozenset in map(type, segments):  # an AS-set: a poisoned announcement
        return not filters_poisoned and (
            loop_prevention_disabled
            or not any(
                asn in segment for segment in segments if type(segment) is frozenset
            )
        )
    return True


def export_scope(
    route_class: Relationship,
    neighbors: Collection[int],
    full_feed: Collection[int],
    partial_transit: Collection[int],
) -> Tuple[Collection[int], Collection[int]]:
    """Where a learned route of class ``route_class`` is exported:
    ``(scope, blocked)``.

    The route goes to every neighbor in ``scope`` that is not in
    ``blocked`` and is not the neighbor it came from.  ``neighbors``
    holds every neighbor, ``full_feed`` the customers and siblings (the
    classes that receive every route) and ``partial_transit`` the
    customers buying partial transit.  This is the Gao-Rexford rule:
    customer- and sibling-class routes go to every neighbor, peer- and
    provider-class routes to customers and siblings only.  Then the
    partial-transit restriction: customers buying partial transit never
    receive provider-class routes.

    It returns the caller's own collections, so a speaker's export pass
    builds no set: a :class:`~repro.bgp.speaker.BGPSpeaker` passes its
    neighbor map, one customers-plus-siblings set and the policy's
    ``partial_transit_to`` as it read them when it was built.
    """
    if route_class is Relationship.CUSTOMER or route_class is Relationship.SIBLING:
        return neighbors, ()
    if route_class is Relationship.PROVIDER:
        return full_feed, partial_transit
    return full_feed, ()


@dataclass
class Policy:
    """Routing policy of a single AS."""

    asn: int
    #: Local-pref override per neighbor ASN (wins over the relationship band).
    neighbor_local_pref: Dict[int, int] = field(default_factory=dict)
    #: Local-pref override per (neighbor ASN, prefix); wins over everything.
    prefix_local_pref: Dict[Tuple[int, Prefix], int] = field(default_factory=dict)
    #: IGP cost to the egress point toward each neighbor (hot potato).
    igp_cost: Dict[int, int] = field(default_factory=dict)
    #: Origin-only: prefixes announced to a restricted neighbor set.
    selective_export: Dict[Prefix, FrozenSet[int]] = field(default_factory=dict)
    #: Origin-only: extra AS-path prepends per (prefix, neighbor) —
    #: inbound traffic engineering that inflates announced path length.
    export_prepend: Dict[Tuple[Prefix, int], int] = field(default_factory=dict)
    #: Customers that only buy partial transit: they receive customer- and
    #: peer-learned routes but not provider-learned ones.  A speaker reads
    #: it once, when its simulator is built.
    partial_transit_to: Set[int] = field(default_factory=set)
    #: Prefer routes whose ASes all sit in the home country.
    home_country: str = ""
    prefers_domestic: bool = False
    #: Drop announcements carrying AS-set segments (poison filtering).
    filters_poisoned: bool = False
    #: Accept announcements containing our own ASN (broken loop prevention).
    loop_prevention_disabled: bool = False

    # ------------------------------------------------------------------
    # Import side
    # ------------------------------------------------------------------
    def accepts(self, as_path: ASPathAttribute) -> bool:
        """Import filter: loop prevention and poison filtering."""
        return path_accepted(
            as_path, self.asn, self.filters_poisoned, self.loop_prevention_disabled
        )

    def prefix_inputs(self, prefix: Prefix) -> PrefixInputs:
        """Everything this policy says about ``prefix`` alone.

        The one reader of the prefix-keyed fields (``prefix_local_pref``,
        ``selective_export``, ``export_prepend``).  A prefix-keyed field
        these inputs missed would let two prefixes that converge
        differently share one converged state.
        """
        local_pref = prepends = ()
        if self.prefix_local_pref:
            local_pref = tuple(
                sorted(
                    (neighbor, pref)
                    for (neighbor, keyed), pref in self.prefix_local_pref.items()
                    if keyed == prefix
                )
            )
        if self.export_prepend:
            prepends = tuple(
                sorted(
                    (neighbor, count)
                    for (keyed, neighbor), count in self.export_prepend.items()
                    if keyed == prefix
                )
            )
        allowed = self.selective_export.get(prefix) if self.selective_export else None
        if not local_pref and not prepends and allowed is None:
            return NO_PREFIX_INPUTS
        return PrefixInputs(local_pref, allowed, prepends)

    def local_pref_for(
        self,
        neighbor: int,
        relationship: Relationship,
        prefix: Prefix,
        as_path: ASPathAttribute,
        country_of: Optional[CountryLookup] = None,
    ) -> int:
        """Local preference assigned to a route from ``neighbor`` for ``prefix``."""
        return self.import_local_pref(
            neighbor,
            self.session_local_pref(neighbor, relationship),
            self.prefix_inputs(prefix),
            as_path,
            country_of,
        )

    def session_local_pref(self, neighbor: int, relationship: Relationship) -> int:
        """The local preference of routes entering from ``neighbor`` as
        ``relationship``, before prefix overrides and the domestic
        bonus: the neighbor's override, else the class band.

        A :class:`~repro.bgp.speaker.BGPSpeaker` reads it once per
        session when it is built (a sibling session's routes per entry
        class), so ``neighbor_local_pref`` is fixed from then on.
        """
        pref = self.neighbor_local_pref.get(neighbor)
        if pref is None:
            return _DEFAULT_LOCAL_PREF_BY_VALUE[relationship._value_]
        return pref

    def import_local_pref(
        self,
        neighbor: int,
        session_pref: int,
        inputs: PrefixInputs,
        as_path: ASPathAttribute,
        country_of: Optional[CountryLookup] = None,
    ) -> int:
        """:meth:`local_pref_for` given the session's
        :meth:`session_local_pref` and the prefix's :class:`PrefixInputs`:
        a prefix override wins over the session's preference, and a
        domestic path earns the bonus."""
        override = inputs.local_pref_from(neighbor) if inputs.local_pref else None
        base = session_pref if override is None else override
        if self.prefers_domestic and self.home_country and country_of is not None:
            if self._is_domestic(as_path, country_of):
                base += DOMESTIC_BONUS
        return base

    def _is_domestic(self, as_path: ASPathAttribute, country_of: CountryLookup) -> bool:
        """Whether every sequence hop is registered in the home country."""
        domestic = False
        for hop in as_path.segments:
            if isinstance(hop, frozenset):
                continue  # AS-set members are not on the data path
            if country_of(hop) != self.home_country:
                return False
            domestic = True
        return domestic

    def igp_cost_for(self, neighbor: int) -> int:
        return self.igp_cost.get(neighbor, 0)

    # ------------------------------------------------------------------
    # Export side
    # ------------------------------------------------------------------
    def exports_origin_prefix(self, prefix: Prefix, to_neighbor: int) -> bool:
        """Selective prefix announcement for locally originated prefixes."""
        return self.prefix_inputs(prefix).exports_to(to_neighbor)

    def should_export(
        self, route: Route, to_neighbor: int, to_relationship: Relationship
    ) -> bool:
        """Whether a learned route is exported to ``to_neighbor``.

        The one-neighbor form of :func:`export_scope`.
        """
        full_feed = (to_neighbor,) if to_relationship.exports_all() else ()
        scope, blocked = export_scope(
            route.effective_class, (to_neighbor,), full_feed, self.partial_transit_to
        )
        return (
            to_neighbor in scope
            and to_neighbor not in blocked
            and to_neighbor != route.learned_from
        )
