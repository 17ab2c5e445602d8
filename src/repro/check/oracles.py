"""Reference oracles: small, obviously-correct reimplementations.

Each oracle recomputes one of the library's decision procedures from
its definition, sharing as little code as possible with the optimized
path it validates:

* :func:`compute_routing_info` — the readable three-stage Gao-Rexford
  tree construction (BFS, one peer hop, bucket-queue descent) with
  parent pointers, the reference the array kernel behind
  :class:`~repro.core.gao_rexford.GaoRexfordEngine` must match exactly,
  tie-broken route paths included.
* :func:`oracle_routing_info` — Gao-Rexford route availability by
  naive fixpoint relaxation (no BFS/Dijkstra, no adjacency index, no
  cache), validating both the engine and :func:`compute_routing_info`.
* :func:`oracle_label` — the Best/Short grade straight from the
  Section 3.3 definitions, with its own preference ranking, validating
  :func:`repro.core.classification.grade_decision` and both batch
  classifiers.
* :func:`oracle_best_route` — the BGP decision process as an explicit
  attribute-by-attribute tournament (no sort key), validating
  :func:`repro.bgp.decision.best_route`.
* :func:`oracle_export` — the export rule for one neighbor at a time,
  attribute by attribute, validating the single export pass of
  :meth:`repro.bgp.speaker.BGPSpeaker.exports`.
* :func:`oracle_stable_faults` — the exact fixed point a converged
  network must be in, read from its final tables alone at every
  speaker, validating the simulator's queue rule
  (:meth:`repro.bgp.simulator.BGPSimulator.run`) whatever order it
  delivers updates in.
* :func:`OracleLPM` — longest-prefix match by linear scan over the
  stored prefixes, validating :class:`repro.net.trie.PrefixTrie`.

Everything here trades speed for inspectability: quadratic loops and
dict scans are fine, caching and parallelism are forbidden.  None of it
runs in the study pipeline; tests and ``repro check`` drive it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.bgp.attributes import ASPathAttribute
from repro.bgp.communities import entry_class_community, read_entry_class
from repro.bgp.policy import Policy
from repro.bgp.routes import Route
from repro.bgp.simulator import BGPSimulator
from repro.core.classification import Decision, DecisionLabel
from repro.net.ip import IPAddress, Prefix
from repro.topology.graph import ASGraph
from repro.topology.complex_rel import ComplexRelationships
from repro.topology.relationships import Relationship
from repro.whois.siblings import SiblingGroups

_INF = float("inf")

#: The Gao-Rexford preference order, written out rather than taken from
#: ``Relationship.rank`` so a bug there cannot hide from the oracle.
_ORACLE_RANK = {
    Relationship.CUSTOMER: 0,
    Relationship.SIBLING: 0,
    Relationship.PEER: 1,
    Relationship.PROVIDER: 2,
}


# ---------------------------------------------------------------------------
# Reference Gao-Rexford tree construction
# ---------------------------------------------------------------------------


@dataclass
class RoutingInfo:
    """GR routing state toward one destination.

    Distances are AS-path lengths in edges (the destination itself is
    at distance 0).
    """

    destination: int
    customer_dist: Dict[int, int] = field(default_factory=dict)
    peer_dist: Dict[int, int] = field(default_factory=dict)
    provider_dist: Dict[int, int] = field(default_factory=dict)
    #: Next hop of the shortest route per class (path reconstruction).
    customer_parent: Dict[int, int] = field(default_factory=dict)
    peer_parent: Dict[int, int] = field(default_factory=dict)
    provider_parent: Dict[int, int] = field(default_factory=dict)

    def best_class(self, asn: int) -> Optional[Relationship]:
        """The cheapest relationship class with a route at ``asn``."""
        if asn in self.customer_dist:
            return Relationship.CUSTOMER
        if asn in self.peer_dist:
            return Relationship.PEER
        if asn in self.provider_dist:
            return Relationship.PROVIDER
        return None

    def has_route(self, asn: int) -> bool:
        return self.best_class(asn) is not None

    def gr_route_length(self, asn: int) -> Optional[int]:
        """Length of the route the GR model predicts at ``asn``."""
        if asn == self.destination:
            return 0
        best = self.best_class(asn)
        if best is Relationship.CUSTOMER:
            return self.customer_dist[asn]
        if best is Relationship.PEER:
            return self.peer_dist[asn]
        if best is Relationship.PROVIDER:
            return self.provider_dist[asn]
        return None

    def class_distance(self, asn: int, relationship: Relationship) -> Optional[int]:
        """Route length available at ``asn`` through a neighbor class."""
        if relationship in (Relationship.CUSTOMER, Relationship.SIBLING):
            return self.customer_dist.get(asn)
        if relationship is Relationship.PEER:
            return self.peer_dist.get(asn)
        return self.provider_dist.get(asn)

    def gr_route_path(self, asn: int, max_hops: int = 64) -> Optional[Tuple[int, ...]]:
        """One concrete route the GR model predicts at ``asn``.

        Follows the parent pointers of the chosen class at each hop:
        a provider route descends to the provider's own chosen route, a
        peer route crosses the peer link onto a customer route, and a
        customer route walks customer parents down to the destination.
        """
        if asn == self.destination:
            return (asn,)
        if not self.has_route(asn):
            return None
        path = [asn]
        current = asn
        while current != self.destination and len(path) <= max_hops:
            best = self.best_class(current)
            if best is Relationship.CUSTOMER:
                nxt = self.customer_parent.get(current)
            elif best is Relationship.PEER:
                nxt = self.peer_parent.get(current)
            else:
                nxt = self.provider_parent.get(current)
            if nxt is None:
                return None
            path.append(nxt)
            current = nxt
        if current != self.destination:
            return None
        return tuple(path)




def compute_routing_info(
    graph: ASGraph,
    destination: int,
    partial_transit: FrozenSet[Tuple[int, int]] = frozenset(),
    allowed_first_hops: Optional[FrozenSet[int]] = None,
) -> RoutingInfo:
    """One GR routing tree, as a pure function of its inputs.

    The readable construction the engine's array kernel reproduces —
    the seam the differential checker (:mod:`repro.check`) compares
    the cached engine and the fixpoint oracle against.
    """
    allowed = allowed_first_hops
    if destination not in graph:
        raise KeyError(f"AS{destination} not in topology")

    def first_hop_ok(neighbor: int) -> bool:
        return allowed is None or neighbor in allowed

    info = RoutingInfo(destination=destination)
    # Each stage walks one relationship class of edges; the index
    # pre-partitions them (in neighbor-map order, so traversal and
    # parent tie-breaking match filtering the full map in place).
    adjacency = graph.routing_adjacency()
    empty: Tuple[int, ...] = ()

    # Stage 1: customer routes propagate up provider and sibling
    # links.  An AS x has a customer route when some customer (or
    # sibling) of x has one.
    customer = info.customer_dist
    customer[destination] = 0
    up = adjacency.up
    queue = deque([destination])
    while queue:
        current = queue.popleft()
        dist = customer[current]
        for neighbor in up.get(current, empty):
            # The route travels current -> neighbor where neighbor
            # is current's provider (or sibling).
            if current == destination and not first_hop_ok(neighbor):
                continue
            if neighbor not in customer:
                customer[neighbor] = dist + 1
                info.customer_parent[neighbor] = current
                queue.append(neighbor)

    # Stage 2: peer routes: one peer edge on top of a neighbor's
    # *chosen customer* route (peers only export customer routes).
    peer = info.peer_dist
    peer_adj = adjacency.peers
    for asn, dist in list(customer.items()):
        for neighbor in peer_adj.get(asn, empty):
            if asn == destination and not first_hop_ok(neighbor):
                continue
            candidate = dist + 1
            if candidate < peer.get(neighbor, _INF):
                peer[neighbor] = candidate
                info.peer_parent[neighbor] = asn

    # Stage 3: provider routes propagate down customer links.  A
    # provider exports its *chosen* route, whose length is its
    # customer distance if it has one, else its peer distance, else
    # its (recursively computed) provider distance.  Unit weights make
    # Dijkstra exact here, and with unit weights the priority queue
    # degenerates into distance buckets: every relaxation lands in the
    # next level, so processing levels in order (each sorted by ASN to
    # keep the heap's exact (dist, asn) pop order, which fixes parent
    # tie-breaking) visits nodes in the identical sequence without any
    # per-edge heap traffic.
    provider = info.provider_dist
    provider_parent = info.provider_parent
    down = adjacency.down

    # An AS re-exports its provider route downward only when that is
    # its chosen route, i.e. it has no customer or peer route.
    has_fixed = set(customer)
    has_fixed.update(peer)
    buckets: Dict[int, List[int]] = {}
    for asn in has_fixed:
        fixed = customer[asn] if asn in customer else peer[asn]
        buckets.setdefault(fixed, []).append(asn)
    settled: Set[int] = set()
    while buckets:
        dist = min(buckets)
        nodes = buckets.pop(dist)
        nodes.sort()
        candidate = dist + 1
        for current in nodes:
            if current in settled:
                continue
            settled.add(current)
            for neighbor in down.get(current, empty):
                # Route travels current -> neighbor where neighbor is
                # a customer of current (the neighbor learns from its
                # provider).
                if current == destination and not first_hop_ok(neighbor):
                    continue
                # Partial transit: this provider does not hand its own
                # provider-learned routes to this customer.
                if (
                    (current, neighbor) in partial_transit
                    and current not in has_fixed
                ):
                    continue
                if candidate < provider.get(neighbor, _INF):
                    provider[neighbor] = candidate
                    provider_parent[neighbor] = current
                    if neighbor not in has_fixed:
                        buckets.setdefault(candidate, []).append(neighbor)
    return info


# ---------------------------------------------------------------------------
# Gao-Rexford path availability
# ---------------------------------------------------------------------------


@dataclass
class OracleRoutingInfo:
    """Route availability toward one destination, per relationship class.

    Distances are AS-path lengths in edges, exactly the contract of
    :class:`RoutingInfo` (minus parent pointers, which are a tie-break
    choice rather than part of the model).
    """

    destination: int
    customer_dist: Dict[int, int] = field(default_factory=dict)
    peer_dist: Dict[int, int] = field(default_factory=dict)
    provider_dist: Dict[int, int] = field(default_factory=dict)

    def best_class(self, asn: int) -> Optional[Relationship]:
        if asn in self.customer_dist:
            return Relationship.CUSTOMER
        if asn in self.peer_dist:
            return Relationship.PEER
        if asn in self.provider_dist:
            return Relationship.PROVIDER
        return None

    def gr_route_length(self, asn: int) -> Optional[int]:
        if asn == self.destination:
            return 0
        best = self.best_class(asn)
        if best is Relationship.CUSTOMER:
            return self.customer_dist[asn]
        if best is Relationship.PEER:
            return self.peer_dist[asn]
        if best is Relationship.PROVIDER:
            return self.provider_dist[asn]
        return None


def oracle_routing_info(
    graph: ASGraph,
    destination: int,
    partial_transit: FrozenSet[Tuple[int, int]] = frozenset(),
    allowed_first_hops: Optional[FrozenSet[int]] = None,
) -> OracleRoutingInfo:
    """GR route availability by fixpoint relaxation.

    Relaxes every edge until nothing changes, per class in model order:

    1. customer routes climb provider/sibling links away from the
       destination (shortest path over those edges alone);
    2. peer routes are one peer hop on a neighbor's customer route;
    3. provider routes descend customer links carrying the provider's
       *chosen* route (customer over peer over provider), skipping
       partial-transit edges when the provider's chosen route is
       provider-learned.

    ``allowed_first_hops`` drops announcement edges out of the
    destination toward any neighbor not in the set (poisoning / PSP).
    """
    if destination not in graph:
        raise KeyError(f"AS{destination} not in topology")

    def first_hop_blocked(u: int, v: int) -> bool:
        return (
            u == destination
            and allowed_first_hops is not None
            and v not in allowed_first_hops
        )

    asns = list(graph.asns())

    # Stage 1: customer routes, Bellman-Ford style until stable.
    customer: Dict[int, int] = {destination: 0}
    changed = True
    while changed:
        changed = False
        for u in asns:
            if u not in customer:
                continue
            for v, rel in graph.neighbors(u).items():
                # The route travels u -> v where v is u's provider or
                # sibling (v learns it from its customer/sibling u).
                if rel not in (Relationship.PROVIDER, Relationship.SIBLING):
                    continue
                if first_hop_blocked(u, v):
                    continue
                candidate = customer[u] + 1
                if candidate < customer.get(v, _INF):
                    customer[v] = candidate
                    changed = True

    # Stage 2: peer routes — a single hop, no iteration needed.
    peer: Dict[int, int] = {}
    for u in asns:
        if u not in customer:
            continue
        for v, rel in graph.neighbors(u).items():
            if rel is not Relationship.PEER:
                continue
            if first_hop_blocked(u, v):
                continue
            candidate = customer[u] + 1
            if candidate < peer.get(v, _INF):
                peer[v] = candidate

    # Stage 3: provider routes, fixpoint over the chosen-route export.
    provider: Dict[int, int] = {}

    def chosen(u: int) -> Optional[Tuple[int, Relationship]]:
        if u in customer:
            return customer[u], Relationship.CUSTOMER
        if u in peer:
            return peer[u], Relationship.PEER
        if u in provider:
            return provider[u], Relationship.PROVIDER
        return None

    changed = True
    while changed:
        changed = False
        for u in asns:
            best = chosen(u)
            if best is None:
                continue
            dist, via = best
            for v, rel in graph.neighbors(u).items():
                # The route travels u -> v where v is u's customer.
                if rel is not Relationship.CUSTOMER:
                    continue
                if first_hop_blocked(u, v):
                    continue
                if (u, v) in partial_transit and via is Relationship.PROVIDER:
                    continue
                candidate = dist + 1
                if candidate < provider.get(v, _INF):
                    provider[v] = candidate
                    changed = True

    return OracleRoutingInfo(
        destination=destination,
        customer_dist=customer,
        peer_dist=peer,
        provider_dist=provider,
    )


# ---------------------------------------------------------------------------
# Best/Short grading
# ---------------------------------------------------------------------------


def oracle_label(
    decision: Decision,
    info: OracleRoutingInfo,
    graph: ASGraph,
    complex_rel: Optional[ComplexRelationships] = None,
    siblings: Optional[SiblingGroups] = None,
) -> DecisionLabel:
    """Best/Short grade of one decision, from the paper's definitions.

    Best: handing to a sibling always qualifies; otherwise the next
    hop's relationship (hybrid-adjusted at the interconnect city) must
    rank at least as well as the cheapest class the model offers — or
    the model must offer nothing at all.  A next hop missing from the
    topology can never be Best.

    Short: the measured path must be no longer than the model's
    predicted route; with no predicted route any length is Short.
    """
    asn, next_hop = decision.asn, decision.next_hop
    if siblings is not None and siblings.are_siblings(asn, next_hop):
        best = True
    else:
        relationship = graph.relationship(asn, next_hop)
        if complex_rel is not None:
            hybrid = complex_rel.hybrid_relationship(
                asn, next_hop, decision.border_city
            )
            if hybrid is not None:
                relationship = hybrid
        if relationship is None:
            best = False
        else:
            best_class = info.best_class(asn)
            if best_class is None:
                best = True
            else:
                best = _ORACLE_RANK[relationship] <= _ORACLE_RANK[best_class]
    model_len = info.gr_route_length(asn)
    short = model_len is None or decision.measured_len <= model_len
    if best and short:
        return DecisionLabel.BEST_SHORT
    if best:
        return DecisionLabel.BEST_LONG
    if short:
        return DecisionLabel.NONBEST_SHORT
    return DecisionLabel.NONBEST_LONG


# ---------------------------------------------------------------------------
# BGP decision process
# ---------------------------------------------------------------------------


def oracle_prefers(a: Route, b: Route) -> Optional[str]:
    """Which attribute makes ``a`` strictly preferred over ``b``.

    Returns the deciding step name ("local preference", "as-path
    length", "intradomain cost", "route age", "router id"), or ``None``
    when ``a`` is not strictly preferred (worse or fully tied).
    """
    if a.local_pref != b.local_pref:
        return "local preference" if a.local_pref > b.local_pref else None
    if a.path_length() != b.path_length():
        return "as-path length" if a.path_length() < b.path_length() else None
    if a.igp_cost != b.igp_cost:
        return "intradomain cost" if a.igp_cost < b.igp_cost else None
    if a.age != b.age:
        return "route age" if a.age < b.age else None
    if a.router_id != b.router_id:
        return "router id" if a.router_id < b.router_id else None
    return None


def oracle_best_route(routes: List[Route]) -> Tuple[Optional[Route], Optional[str]]:
    """The decision process as an explicit tournament.

    Walks the candidates keeping the best seen so far (earlier route
    wins full ties, matching stable-sort semantics), then reports the
    step that separates the winner from the best of the rest.  With a
    single candidate the step is "only route".
    """
    if not routes:
        return None, None
    winner = routes[0]
    for candidate in routes[1:]:
        if oracle_prefers(candidate, winner) is not None:
            winner = candidate
    if len(routes) == 1:
        return winner, "only route"
    rest = [route for route in routes if route is not winner]
    runner_up = rest[0]
    for candidate in rest[1:]:
        if oracle_prefers(candidate, runner_up) is not None:
            runner_up = candidate
    step = oracle_prefers(winner, runner_up)
    # A full tie falls through every attribute; the optimized path
    # reports the last step (router id) in that case.
    return winner, step if step is not None else "router id"


# ---------------------------------------------------------------------------
# BGP export rule
# ---------------------------------------------------------------------------

#: Neighbor classes that receive every route: customers pay for a full
#: feed, siblings belong to the same organization.
_FULL_FEED = (Relationship.CUSTOMER, Relationship.SIBLING)


def oracle_export(
    policy: Policy,
    neighbors: Dict[int, Relationship],
    prefix: Prefix,
    best: Optional[Route],
    neighbor: int,
    poisoned: FrozenSet[int] = frozenset(),
) -> Optional[Tuple[ASPathAttribute, FrozenSet]]:
    """What AS ``policy.asn`` tells ``neighbor`` about its Loc-RIB route
    toward ``prefix``.

    Returns the advertised ``(AS path, communities)``, or ``None`` when
    the neighbor hears nothing.  ``neighbors`` maps each neighbor to its
    relationship; ``poisoned`` is the poison set of the AS's own
    origination, when ``best`` is that origination.  Each attribute is
    built from its definition, one neighbor at a time, reading the
    policy's prefix-keyed fields directly.
    """
    if best is None:
        return None
    asn = policy.asn
    relationship = neighbors[neighbor]
    if best.learned_from == asn:
        # Our own prefix: selective announcement, poison set, prepends.
        allowed = policy.selective_export.get(prefix)
        if allowed is not None and neighbor not in allowed:
            return None
        segments = [asn]
        if poisoned:
            segments = [asn, frozenset(poisoned), asn]
        prepends = policy.export_prepend.get((prefix, neighbor), 0)
        path = ASPathAttribute(tuple([asn] * prepends + segments))
        communities = frozenset()
        if relationship is Relationship.SIBLING:
            # An org-internal origination enters the org as a customer route.
            communities = frozenset(
                {entry_class_community(asn, Relationship.CUSTOMER)}
            )
        return path, communities
    if neighbor == best.learned_from:
        return None  # never back to the sender
    route_class = best.export_class or best.relationship
    if route_class not in _FULL_FEED and relationship not in _FULL_FEED:
        return None  # peer and provider routes go to customers and siblings
    if route_class is Relationship.PROVIDER and neighbor in policy.partial_transit_to:
        return None  # partial transit: no provider routes
    path = ASPathAttribute((asn,) + best.as_path.segments)
    tags = frozenset(
        community
        for community in best.communities
        if read_entry_class(frozenset({community})) is not None
    )
    if relationship is not Relationship.SIBLING:
        communities = best.communities - tags  # org tags stay inside the org
    elif tags:
        communities = best.communities  # an earlier member tagged it
    else:
        communities = best.communities | {entry_class_community(asn, route_class)}
    return path, communities


# ---------------------------------------------------------------------------
# BGP stable state
# ---------------------------------------------------------------------------


def oracle_stable_faults(simulator: BGPSimulator, prefix: Prefix) -> List[str]:
    """Why ``simulator`` is not at a fixed point for ``prefix``.

    A converged network is stable whatever order its updates were
    delivered in, so this reads the final tables only:

    * nothing is in flight;
    * each speaker's Loc-RIB route and decision step are
      :func:`oracle_best_route`'s over its candidates;
    * each speaker has told every neighbor :func:`oracle_export` of that
      route;
    * each Adj-RIB-In entry is what its sender last told the speaker,
      and there is none where the sender told it nothing or the
      speaker's import filter (:meth:`~repro.bgp.policy.Policy.accepts`)
      rejects what it was told.

    Returns one line per fault; empty when the state is stable.
    """
    faults: List[str] = []
    in_flight = simulator.in_flight()
    if in_flight:
        faults.append(f"{in_flight} update(s) in flight")
    speakers = simulator.speakers
    told = {asn: speaker.advertised(prefix) for asn, speaker in speakers.items()}
    for asn, speaker in speakers.items():
        candidates = speaker.candidates(prefix)
        best = speaker.best(prefix)
        winner, step = oracle_best_route(candidates)
        if best != winner:
            faults.append(f"AS{asn} holds {best}, not the best candidate {winner}")
        decided = speaker.decision_step(prefix)
        decided = None if decided is None else decided.value
        if decided != step:
            faults.append(f"AS{asn} decided by {decided!r}, not {step!r}")
        origination = speaker.origination(prefix)
        poisoned = frozenset() if origination is None else origination.poisoned
        held = {route.learned_from: route for route in candidates}
        for neighbor in sorted(speaker.neighbors):
            export = oracle_export(
                speaker.policy, speaker.neighbors, prefix, best, neighbor, poisoned
            )
            if told[asn].get(neighbor) != export:
                faults.append(
                    f"AS{asn} told AS{neighbor} {told[asn].get(neighbor)}, "
                    f"not {export}"
                )
            sent = told[neighbor].get(asn)
            if sent is not None and not speaker.policy.accepts(sent[0]):
                sent = None
            route = held.get(neighbor)
            entry = None if route is None else (route.as_path, route.communities)
            if entry != sent:
                faults.append(
                    f"AS{asn} holds {entry} from AS{neighbor}, which sent {sent}"
                )
    return faults


# ---------------------------------------------------------------------------
# Longest-prefix match
# ---------------------------------------------------------------------------


class OracleLPM:
    """Longest-prefix match by linear scan over a prefix list."""

    def __init__(self) -> None:
        self._entries: Dict[Prefix, object] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, prefix: Prefix, value: object) -> None:
        self._entries[prefix] = value

    def remove(self, prefix: Prefix) -> bool:
        return self._entries.pop(prefix, None) is not None

    def lookup_with_prefix(
        self, address: IPAddress
    ) -> Optional[Tuple[Prefix, object]]:
        best: Optional[Tuple[Prefix, object]] = None
        for prefix, value in self._entries.items():
            if not prefix.contains(address):
                continue
            if best is None or prefix.length > best[0].length:
                best = (prefix, value)
        return best

    def lookup(self, address: IPAddress) -> Optional[object]:
        match = self.lookup_with_prefix(address)
        return None if match is None else match[1]

    def lookup_all(self, address: IPAddress) -> List[Tuple[Prefix, object]]:
        """Every covering prefix, shortest first."""
        matches = [
            (prefix, value)
            for prefix, value in self._entries.items()
            if prefix.contains(address)
        ]
        matches.sort(key=lambda item: item[0].length)
        return matches
