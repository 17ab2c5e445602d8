"""Optimized-vs-oracle differential checks and metamorphic invariants.

Every function takes a seed or a :class:`~repro.check.scenarios.Scenario`
and returns a list of :class:`Disagreement` records — empty when the
optimized implementations agree with the reference oracles and every
invariant holds.  The checks deliberately exercise the optimized code
the way the pipeline does: warm and cold caches, batched and serial
grading, canonical cache keys, grouped duplicate decisions.  Every
scenario is a three-way differential between the engine's CSR array
kernel, the readable reference construction
(:func:`~repro.check.oracles.compute_routing_info`), and the fixpoint
oracle.
"""

from __future__ import annotations

import copy
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.bgp.attributes import ASPathAttribute
from repro.bgp.decision import best_route, rank_routes
from repro.bgp.policy import Policy
from repro.bgp.routes import LocalRoute, Route
from repro.bgp.simulator import BGPSimulator, ConvergenceError
from repro.check.oracles import (
    OracleLPM,
    OracleRoutingInfo,
    RoutingInfo,
    compute_routing_info,
    oracle_best_route,
    oracle_label,
    oracle_routing_info,
    oracle_stable_faults,
)
from repro.check.scenarios import Scenario, generate_scenario
from repro.core.classification import (
    Decision,
    DecisionLabel,
    LabelCounts,
    LayerConfig,
    classify_decision,
    classify_decisions,
    label_decisions,
)
from repro.core.gao_rexford import GaoRexfordEngine
from repro.net.ip import IPAddress, Prefix
from repro.net.trie import PrefixTrie
from repro.perf.parallel import ParallelClassifier
from repro.topology.graph import ASGraph
from repro.topology.relationships import Relationship


@dataclass(frozen=True)
class Disagreement:
    """One optimized-vs-oracle (or invariant) mismatch."""

    check: str
    seed: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] seed={self.seed}: {self.detail}"


# ---------------------------------------------------------------------------
# Gao-Rexford trees: cache-on vs cache-off vs oracle
# ---------------------------------------------------------------------------


def _tree_variants(
    scenario: Scenario,
) -> List[Tuple[int, Optional[FrozenSet[int]]]]:
    """The (destination, allowed-first-hops) pairs a scenario grades with."""
    variants: List[Tuple[int, Optional[FrozenSet[int]]]] = []
    for destination in scenario.destinations:
        variants.append((destination, None))
        allowed = scenario.first_hops_for.get(scenario.prefix_of[destination])
        if allowed is not None:
            variants.append((destination, allowed))
    return variants


def _diff_dists(
    kind: str,
    optimized: Dict[int, int],
    reference: Dict[int, int],
) -> Optional[str]:
    if optimized == reference:
        return None
    only_opt = sorted(set(optimized) - set(reference))[:5]
    only_ref = sorted(set(reference) - set(optimized))[:5]
    differing = sorted(
        asn
        for asn in set(optimized) & set(reference)
        if optimized[asn] != reference[asn]
    )[:5]
    return (
        f"{kind} dists differ: only-optimized={only_opt} "
        f"only-oracle={only_ref} "
        f"mismatched={[(a, optimized[a], reference[a]) for a in differing]}"
    )


def _compare_tree(
    scenario: Scenario,
    label: str,
    optimized: RoutingInfo,
    reference: OracleRoutingInfo,
) -> List[Disagreement]:
    problems = []
    for kind, opt, ref in (
        ("customer", optimized.customer_dist, reference.customer_dist),
        ("peer", optimized.peer_dist, reference.peer_dist),
        ("provider", optimized.provider_dist, reference.provider_dist),
    ):
        detail = _diff_dists(kind, opt, ref)
        if detail is not None:
            problems.append(
                Disagreement("gr-tree", scenario.seed, f"{label}: {detail}")
            )
    return problems


def _check_path_consistency(
    scenario: Scenario, label: str, info: RoutingInfo, graph: ASGraph
) -> List[Disagreement]:
    """The engine's own path reconstruction must match its distances."""
    problems = []
    for asn in sorted(graph.asns()):
        length = info.gr_route_length(asn)
        if length is None:
            continue
        path = info.gr_route_path(asn)
        if path is None:
            problems.append(
                Disagreement(
                    "gr-path",
                    scenario.seed,
                    f"{label}: AS{asn} has a route of length {length} "
                    "but no reconstructible path",
                )
            )
            continue
        if len(path) - 1 != length:
            problems.append(
                Disagreement(
                    "gr-path",
                    scenario.seed,
                    f"{label}: AS{asn} path {path} has length "
                    f"{len(path) - 1}, model predicts {length}",
                )
            )
        for hop, nxt in zip(path, path[1:]):
            if not graph.has_link(hop, nxt):
                problems.append(
                    Disagreement(
                        "gr-path",
                        scenario.seed,
                        f"{label}: AS{asn} path {path} crosses missing "
                        f"link {hop}-{nxt}",
                    )
                )
                break
    return problems


def check_gr_trees(scenario: Scenario) -> List[Disagreement]:
    """Engine (cached kernel) vs reference construction vs oracle."""
    problems: List[Disagreement] = []
    engine = GaoRexfordEngine(
        scenario.graph, partial_transit=scenario.partial_transit
    )
    for destination, allowed in _tree_variants(scenario):
        label = f"dest={destination} allowed={None if allowed is None else sorted(allowed)}"
        cached = engine.routing_info(destination, allowed)
        rewarmed = engine.routing_info(destination, allowed)  # cache hit
        uncached = compute_routing_info(
            scenario.graph,
            destination,
            partial_transit=scenario.partial_transit,
            allowed_first_hops=allowed,
        )
        reference = oracle_routing_info(
            scenario.graph,
            destination,
            partial_transit=scenario.partial_transit,
            allowed_first_hops=allowed,
        )
        if rewarmed is not cached:
            problems.append(
                Disagreement(
                    "gr-tree", scenario.seed, f"{label}: cache did not hit"
                )
            )
        for mode, info in (("engine", cached), ("reference", uncached)):
            problems.extend(
                _compare_tree(scenario, f"{label} {mode}", info, reference)
            )
            problems.extend(
                _check_path_consistency(
                    scenario, f"{label} {mode}", info, scenario.graph
                )
            )
        # Parent tie-breaks must match too: the model's concrete route
        # feeds the geography analysis (Table 3).
        for asn in sorted(scenario.graph.asns()):
            route, want = cached.gr_route_path(asn), uncached.gr_route_path(asn)
            if route != want:
                problems.append(
                    Disagreement(
                        "gr-path",
                        scenario.seed,
                        f"{label}: AS{asn} engine route {route} != "
                        f"reference route {want}",
                    )
                )
                break
    return problems


# ---------------------------------------------------------------------------
# Labels: serial vs batched vs oracle
# ---------------------------------------------------------------------------


def _oracle_infos(
    scenario: Scenario,
) -> Dict[Tuple[int, Optional[FrozenSet[int]]], OracleRoutingInfo]:
    infos: Dict[Tuple[int, Optional[FrozenSet[int]]], OracleRoutingInfo] = {}
    for destination, allowed in _tree_variants(scenario):
        infos[(destination, allowed)] = oracle_routing_info(
            scenario.graph,
            destination,
            partial_transit=scenario.partial_transit,
            allowed_first_hops=allowed,
        )
    return infos


def oracle_labels(scenario: Scenario) -> List[DecisionLabel]:
    """The oracle's label for every scenario decision, in input order."""
    infos = _oracle_infos(scenario)
    labels = []
    for decision in scenario.decisions:
        allowed = scenario.first_hops_for.get(decision.prefix)
        labels.append(
            oracle_label(
                decision,
                infos[(decision.destination, allowed)],
                scenario.graph,
                complex_rel=scenario.complex_rel,
                siblings=scenario.siblings,
            )
        )
    return labels


def check_labels(scenario: Scenario) -> List[Disagreement]:
    """Oracle vs every optimized grading path on one scenario.

    The paths include the one ``Study.run`` grades with: a
    :class:`~repro.perf.parallel.ParallelClassifier` precompute and
    arena pass over a cold engine.
    """
    problems: List[Disagreement] = []
    engine = GaoRexfordEngine(
        scenario.graph, partial_transit=scenario.partial_transit
    )
    reference = oracle_labels(scenario)

    paths: Dict[str, List[DecisionLabel]] = {}
    paths["per-decision"] = [
        classify_decision(
            decision,
            engine,
            allowed_first_hops=scenario.first_hops_for.get(decision.prefix),
            complex_rel=scenario.complex_rel,
            siblings=scenario.siblings,
        )
        for decision in scenario.decisions
    ]
    paths["batched"] = [
        label
        for _d, label in label_decisions(
            scenario.decisions,
            engine,
            first_hops_for=scenario.first_hops_for,
            complex_rel=scenario.complex_rel,
            siblings=scenario.siblings,
        )
    ]
    cold_engine = GaoRexfordEngine(
        scenario.graph, partial_transit=scenario.partial_transit
    )
    layer = LayerConfig(
        engine=cold_engine,
        first_hops_for=scenario.first_hops_for or None,
        complex_rel=scenario.complex_rel,
        siblings=scenario.siblings,
    )
    paths["parallel-classifier"] = [
        label
        for _d, label in ParallelClassifier().label_layer(scenario.decisions, layer)
    ]

    for name, labels in paths.items():
        for index, (got, want) in enumerate(zip(labels, reference)):
            if got is not want:
                decision = scenario.decisions[index]
                problems.append(
                    Disagreement(
                        "labels",
                        scenario.seed,
                        f"{name} graded AS{decision.asn}->AS{decision.next_hop}"
                        f" toward AS{decision.destination} as {got.value}, "
                        f"oracle says {want.value}",
                    )
                )
                break  # one witness per path keeps reports readable

    counts = classify_decisions(
        scenario.decisions,
        engine,
        first_hops_for=scenario.first_hops_for,
        complex_rel=scenario.complex_rel,
        siblings=scenario.siblings,
    )
    tally = LabelCounts()
    for label in reference:
        tally.add(label)
    if counts.counts != tally.counts:
        problems.append(
            Disagreement(
                "labels",
                scenario.seed,
                f"batched counts {counts.counts} != oracle tally {tally.counts}",
            )
        )
    return problems


# ---------------------------------------------------------------------------
# Metamorphic invariants
# ---------------------------------------------------------------------------


def _renumber_scenario(scenario: Scenario, rng: random.Random) -> Scenario:
    """The same world under a random ASN permutation."""
    asns = sorted(scenario.graph.asns())
    shuffled = list(asns)
    rng.shuffle(shuffled)
    mapping = dict(zip(asns, shuffled))

    graph = ASGraph()
    for asn in asns:
        graph.ensure_asn(mapping[asn])
    for a, b, rel in scenario.graph.links():
        graph.add_link(mapping[a], mapping[b], rel)

    from repro.topology.complex_rel import ComplexRelationships, HybridEntry
    from repro.whois.siblings import SiblingGroups

    complex_rel = None
    if scenario.complex_rel is not None:
        entries = [
            HybridEntry(
                mapping[entry.asn],
                mapping[entry.neighbor],
                entry.city,
                entry.relationship,
            )
            for entry in scenario.complex_rel.hybrid_entries()
        ]
        complex_rel = ComplexRelationships(hybrid=entries)
    siblings = None
    if scenario.siblings is not None:
        siblings = SiblingGroups(
            frozenset(mapping[asn] for asn in group)
            for group in scenario.siblings.groups()
        )
    decisions = [
        Decision(
            asn=mapping[d.asn],
            next_hop=mapping[d.next_hop],
            destination=mapping[d.destination],
            prefix=d.prefix,
            measured_len=d.measured_len,
            source_asn=mapping[d.source_asn],
            border_city=d.border_city,
        )
        for d in scenario.decisions
    ]
    first_hops_for = {
        prefix: frozenset(mapping[asn] for asn in allowed)
        for prefix, allowed in scenario.first_hops_for.items()
    }
    return Scenario(
        seed=scenario.seed,
        graph=graph,
        partial_transit=frozenset(
            (mapping[p], mapping[c]) for p, c in scenario.partial_transit
        ),
        destinations=[mapping[d] for d in scenario.destinations],
        decisions=decisions,
        first_hops_for=first_hops_for,
        complex_rel=complex_rel,
        siblings=siblings,
        prefix_of={mapping[d]: p for d, p in scenario.prefix_of.items()},
    )


def _scenario_counts(scenario: Scenario) -> Dict[DecisionLabel, int]:
    engine = GaoRexfordEngine(
        scenario.graph, partial_transit=scenario.partial_transit
    )
    return classify_decisions(
        scenario.decisions,
        engine,
        first_hops_for=scenario.first_hops_for,
        complex_rel=scenario.complex_rel,
        siblings=scenario.siblings,
    ).counts


def check_metamorphic(scenario: Scenario) -> List[Disagreement]:
    """Invariants that must hold regardless of what the oracle says."""
    problems: List[Disagreement] = []
    rng = random.Random(scenario.seed ^ 0x5EED)
    engine = GaoRexfordEngine(
        scenario.graph, partial_transit=scenario.partial_transit
    )
    base_counts = _scenario_counts(scenario)

    # 1. Label distribution is invariant under AS renumbering (which
    #    also shuffles the kernel's dense-id numbering).
    renumbered = _renumber_scenario(scenario, rng)
    if _scenario_counts(renumbered) != base_counts:
        problems.append(
            Disagreement(
                "metamorphic",
                scenario.seed,
                "label counts changed under AS renumbering",
            )
        )

    # 2. Counts are linear: duplicating every decision doubles them.
    doubled = classify_decisions(
        scenario.decisions + scenario.decisions,
        engine,
        first_hops_for=scenario.first_hops_for,
        complex_rel=scenario.complex_rel,
        siblings=scenario.siblings,
    ).counts
    if doubled != {label: 2 * n for label, n in base_counts.items()}:
        problems.append(
            Disagreement(
                "metamorphic",
                scenario.seed,
                "duplicating decisions did not double label counts",
            )
        )

    labeled = label_decisions(
        scenario.decisions,
        engine,
        first_hops_for=scenario.first_hops_for,
        complex_rel=scenario.complex_rel,
        siblings=scenario.siblings,
    )

    for destination in scenario.destinations:
        # 3. Allowing every neighbor is the same tree as no restriction.
        full = frozenset(scenario.graph.neighbor_set(destination))
        unrestricted = engine.routing_info(destination, None)
        nominally_restricted = engine.routing_info(destination, full)
        if (
            nominally_restricted.customer_dist != unrestricted.customer_dist
            or nominally_restricted.peer_dist != unrestricted.peer_dist
            or nominally_restricted.provider_dist != unrestricted.provider_dist
        ):
            problems.append(
                Disagreement(
                    "metamorphic",
                    scenario.seed,
                    f"dest={destination}: allowing all neighbors differs "
                    "from no restriction",
                )
            )

        # 4. Restricting first hops can only lose customer/peer routes
        #    and lengthen the surviving ones (poisoning monotonicity).
        if len(full) > 1:
            subset = frozenset(rng.sample(sorted(full), k=len(full) - 1))
            restricted = engine.routing_info(destination, subset)
            for kind, base, narrowed in (
                ("customer", unrestricted.customer_dist, restricted.customer_dist),
                ("peer", unrestricted.peer_dist, restricted.peer_dist),
            ):
                for asn, dist in narrowed.items():
                    if asn not in base or dist < base[asn]:
                        problems.append(
                            Disagreement(
                                "metamorphic",
                                scenario.seed,
                                f"dest={destination}: {kind} route at "
                                f"AS{asn} improved under restriction "
                                f"({base.get(asn)} -> {dist})",
                            )
                        )
                        break

    for decision, label in labeled:
        # 5. Handing traffic to a sibling or customer is always Best.
        relationship = scenario.graph.relationship(
            decision.asn, decision.next_hop
        )
        hybrid = None
        if scenario.complex_rel is not None:
            hybrid = scenario.complex_rel.hybrid_relationship(
                decision.asn, decision.next_hop, decision.border_city
            )
        effective = hybrid if hybrid is not None else relationship
        declared_sibling = (
            scenario.siblings is not None
            and scenario.siblings.are_siblings(decision.asn, decision.next_hop)
        )
        if declared_sibling or effective in (
            Relationship.CUSTOMER,
            Relationship.SIBLING,
        ):
            if label in (DecisionLabel.NONBEST_SHORT, DecisionLabel.NONBEST_LONG):
                problems.append(
                    Disagreement(
                        "metamorphic",
                        scenario.seed,
                        f"AS{decision.asn}->AS{decision.next_hop} is a "
                        f"{'sibling' if declared_sibling else effective.value} "
                        f"hand-off yet graded {label.value}",
                    )
                )
                break

    # 6. Shortening a measured path can only move its label toward
    #    Short (the Best axis must not move at all).
    for decision, label in labeled[:10]:
        if decision.measured_len <= 1:
            continue
        shorter = Decision(
            asn=decision.asn,
            next_hop=decision.next_hop,
            destination=decision.destination,
            prefix=decision.prefix,
            measured_len=decision.measured_len - 1,
            source_asn=decision.source_asn,
            border_city=decision.border_city,
        )
        relabeled = classify_decision(
            shorter,
            engine,
            allowed_first_hops=scenario.first_hops_for.get(decision.prefix),
            complex_rel=scenario.complex_rel,
            siblings=scenario.siblings,
        )
        was_best = label in (DecisionLabel.BEST_SHORT, DecisionLabel.BEST_LONG)
        now_best = relabeled in (
            DecisionLabel.BEST_SHORT,
            DecisionLabel.BEST_LONG,
        )
        was_short = label in (
            DecisionLabel.BEST_SHORT,
            DecisionLabel.NONBEST_SHORT,
        )
        now_short = relabeled in (
            DecisionLabel.BEST_SHORT,
            DecisionLabel.NONBEST_SHORT,
        )
        if was_best is not now_best or (was_short and not now_short):
            problems.append(
                Disagreement(
                    "metamorphic",
                    scenario.seed,
                    f"shortening AS{decision.asn}'s measured path moved its "
                    f"label from {label.value} to {relabeled.value}",
                )
            )
            break

    # 7. Adding a stub leaf (a new AS buying transit from one existing
    #    AS) changes no existing routing state: it can only *receive*
    #    routes, never carry them.
    host = rng.choice(sorted(scenario.graph.asns()))
    grown = scenario.graph.copy()
    stub = max(grown.asns()) + 1
    grown.add_link(host, stub, Relationship.CUSTOMER)
    grown_engine = GaoRexfordEngine(
        grown, partial_transit=scenario.partial_transit
    )
    for destination in scenario.destinations:
        before = engine.routing_info(destination, None)
        after = grown_engine.routing_info(destination, None)
        trimmed_provider = {
            asn: dist for asn, dist in after.provider_dist.items() if asn != stub
        }
        if (
            after.customer_dist != before.customer_dist
            or after.peer_dist != before.peer_dist
            or trimmed_provider != before.provider_dist
        ):
            problems.append(
                Disagreement(
                    "metamorphic",
                    scenario.seed,
                    f"adding stub AS{stub} under AS{host} changed routing "
                    f"state toward AS{destination}",
                )
            )
            break
    return problems


# ---------------------------------------------------------------------------
# BGP decision process fuzz
# ---------------------------------------------------------------------------

def _random_routes(rng: random.Random) -> List[Route]:
    count = rng.randint(1, 8)
    # Small value pools force ties at every decision step; router ids
    # are unique so a full tie cannot make the winner order-dependent.
    router_ids = rng.sample(range(1, 100), k=count)
    routes = []
    for index in range(count):
        path_len = rng.randint(1, 4)
        routes.append(
            Route(
                as_path=ASPathAttribute.from_sequence(
                    rng.sample(range(64500, 64600), k=path_len)
                ),
                learned_from=rng.randint(64500, 64599),
                relationship=rng.choice(list(Relationship)),
                local_pref=rng.choice((80, 100, 120)),
                igp_cost=rng.choice((0, 5, 10)),
                age=rng.choice((0, 1, 2)),
                router_id=router_ids[index],
            )
        )
    return routes


def check_bgp_decision(
    seed: int, trials: int = 20, tally: Optional[Counter] = None
) -> List[Disagreement]:
    """The decision process vs the tournament oracle, plus invariances."""
    problems: List[Disagreement] = []
    rng = random.Random(seed ^ 0xB6D)
    if tally is not None:
        tally["bgp-decision route sets"] += trials
    for trial in range(trials):
        routes = _random_routes(rng)
        winner, step = best_route(routes)
        oracle_winner, oracle_step = oracle_best_route(routes)
        if winner != oracle_winner:
            problems.append(
                Disagreement(
                    "bgp-decision",
                    seed,
                    f"trial {trial}: winner {winner} != oracle {oracle_winner}",
                )
            )
            continue
        if step is not None and step.value != oracle_step:
            problems.append(
                Disagreement(
                    "bgp-decision",
                    seed,
                    f"trial {trial}: step {step.value!r} != oracle "
                    f"{oracle_step!r}",
                )
            )
        if rank_routes(routes)[0] != winner:
            problems.append(
                Disagreement(
                    "bgp-decision",
                    seed,
                    f"trial {trial}: rank_routes head differs from best_route",
                )
            )
        shuffled = list(routes)
        rng.shuffle(shuffled)
        reshuffled_winner, _ = best_route(shuffled)
        if reshuffled_winner != winner:
            problems.append(
                Disagreement(
                    "bgp-decision",
                    seed,
                    f"trial {trial}: winner changed under input permutation",
                )
            )
    return problems


# ---------------------------------------------------------------------------
# Longest-prefix match fuzz
# ---------------------------------------------------------------------------


def _random_prefix(rng: random.Random) -> Prefix:
    length = rng.choice((0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32))
    return Prefix.from_address(IPAddress(rng.getrandbits(32)), length)


def _probe_addresses(prefixes: List[Prefix], rng: random.Random) -> List[IPAddress]:
    """Random addresses plus the boundary addresses of every prefix."""
    addresses = [IPAddress(rng.getrandbits(32)) for _ in range(16)]
    addresses.extend((IPAddress(0), IPAddress((1 << 32) - 1)))
    for prefix in prefixes:
        addresses.append(prefix.first_address())
        addresses.append(IPAddress(prefix.network | ~prefix.mask() & 0xFFFFFFFF))
    return addresses


def check_lpm(
    seed: int, rounds: int = 4, tally: Optional[Counter] = None
) -> List[Disagreement]:
    """PrefixTrie vs the linear-scan oracle under inserts and removes."""
    problems: List[Disagreement] = []
    rng = random.Random(seed ^ 0x199)
    if tally is not None:
        tally["lpm rounds"] += rounds
    for round_number in range(rounds):
        trie: PrefixTrie = PrefixTrie()
        reference = OracleLPM()
        prefixes = [_random_prefix(rng) for _ in range(rng.randint(1, 24))]
        if rng.random() < 0.3:
            prefixes.append(Prefix(0, 0))  # explicit default route
        for prefix in prefixes:
            value = f"{prefix}#{rng.randint(0, 3)}"
            trie.insert(prefix, value)
            reference.insert(prefix, value)
        for prefix in rng.sample(prefixes, k=len(prefixes) // 4):
            removed_trie = trie.remove(prefix)
            removed_ref = reference.remove(prefix)
            if removed_trie != removed_ref:
                problems.append(
                    Disagreement(
                        "lpm",
                        seed,
                        f"round {round_number}: remove({prefix}) returned "
                        f"{removed_trie}, oracle {removed_ref}",
                    )
                )
        if len(trie) != len(reference):
            problems.append(
                Disagreement(
                    "lpm",
                    seed,
                    f"round {round_number}: size {len(trie)} != oracle "
                    f"{len(reference)}",
                )
            )
        for address in _probe_addresses(prefixes, rng):
            got = trie.lookup_with_prefix(address)
            want = reference.lookup_with_prefix(address)
            if got != want:
                problems.append(
                    Disagreement(
                        "lpm",
                        seed,
                        f"round {round_number}: lookup({address}) = {got}, "
                        f"oracle {want}",
                    )
                )
                break
            if trie.lookup_all(address) != reference.lookup_all(address):
                problems.append(
                    Disagreement(
                        "lpm",
                        seed,
                        f"round {round_number}: lookup_all({address}) "
                        "differs from oracle",
                    )
                )
                break
    return problems


# ---------------------------------------------------------------------------
# BGP scenario: every convergence vs the stable state, every copy (a
# reset copies the empty state) and fallback vs event-by-event delivery
# ---------------------------------------------------------------------------

#: The assertion families of :func:`check_bgp_scenario`, in report order.
BGP_FAMILIES = ("bgp-withdraw", "bgp-reuse", "bgp-stable")

#: Campaign-style prefixes of one origin (a base, its equal-policy twin,
#: then one each differing from the base in a single prefix input), and
#: the prefix the discovery-style units announce, poison and withdraw.
_BGP_PREFIXES = tuple(Prefix.parse(f"100.65.{index}.0/24") for index in range(6))
_BASE_PFX, _TWIN_PFX, _PREPEND_PFX, _SELECTIVE_PFX, _LOCAL_PREF_PFX, _ACTIVE_PFX = (
    _BGP_PREFIXES
)


def _rib_state(simulator: BGPSimulator, prefix: Prefix) -> Dict[int, Tuple]:
    """Every speaker's tables for ``prefix``, with ages by order only.

    Per speaker: the local origination, the Adj-RIB-In (plus any local
    route) by neighbor, the neighbors in age order, the Loc-RIB route,
    the decision step and the advertised exports.  A reset keeps the
    clock while event-driven delivery advances it, and a copied state
    keeps the ages it was installed with, so only relative ages compare.
    """
    state = {}
    for asn, speaker in simulator.speakers.items():
        routes = speaker.candidates(prefix)
        best = speaker.best(prefix)
        by_age = sorted(routes, key=lambda route: (route.age, route.learned_from))
        state[asn] = (
            speaker.origination(prefix),
            {route.learned_from: route.aged(0) for route in routes},
            [route.learned_from for route in by_age],
            None if best is None else best.aged(0),
            speaker.decision_step(prefix),
            speaker.advertised(prefix),
        )
    return state


def _diff_rib_states(
    production: Dict[int, Tuple], reference: Dict[int, Tuple]
) -> Optional[str]:
    differing = sorted(asn for asn in production if production[asn] != reference[asn])
    if not differing:
        return None
    asn = differing[0]
    return (
        f"{len(differing)} speaker(s) differ, first AS{asn}: "
        f"production {production[asn]} vs event-driven {reference[asn]}"
    )


def _fork(
    simulator: BGPSimulator,
    asn: int,
    prefix: Prefix,
    poisoned: Optional[FrozenSet[int]],
    twin: Optional[Prefix] = None,
) -> BGPSimulator:
    """A deep copy of ``simulator`` that has delivered one step by events.

    The step is ``asn``'s origination of ``prefix`` with ``poisoned``,
    or, with ``poisoned`` ``None``, its withdrawal.  The copy knows no
    converged state, so it delivers the step message by message.  It
    has its own records of ``prefix`` and ``twin`` and shares what the
    step never mutates: the topology, the policies, each speaker's
    sessions, every other prefix's records but those that ``prefix`` or
    ``twin`` holds too (a converged state's holders share records), and
    the immutable routes and originations.
    """
    copied = (prefix,) if twin is None else (prefix, twin)
    shared: List[object] = [simulator.graph, *_BGP_PREFIXES]
    for speaker in simulator.speakers.values():
        shared.extend(
            (
                speaker.policy,
                speaker.neighbors,
                speaker._sessions,
                speaker._imports,
                speaker._full_feed,
                speaker._partial_transit,
            )
        )
        held = {id(speaker.record(other)) for other in copied}
        for other in _BGP_PREFIXES:
            record = speaker.record(other)
            if id(record) not in held:
                shared.append(record)
        for other in copied:
            shared.append(speaker.origination(other))
            shared.extend(speaker.candidates(other))
    fork = copy.deepcopy(simulator, {id(obj): obj for obj in shared})
    if poisoned is None:
        fork._withdraw_by_events(asn, prefix)
    else:
        fork._originate_by_events(asn, prefix, poisoned)
    return fork


def check_bgp_scenario(
    scenario: Scenario, tally: Optional[Counter] = None
) -> List[Disagreement]:
    """One seeded run of the BGP simulator, checked after every step.

    On the scenario's graph, about 10% of ASes filter poisoned
    announcements, 5% ignore loop prevention and 10% of customer links
    are partial transit.  One origin announces five prefixes like the
    passive campaign: a base, its equal-policy twin, and three that
    each differ from the base in one prefix input (a prepend, the
    selective-export set, one AS's local-preference override on a
    route it holds).  Another origin's prefix then runs three to five
    discovery-style units: the withdrawals (of the first origin, by
    events while it anycasts the prefix too, then the reset, which
    copies the empty state), the baseline, in about half the units an
    anycast from the first origin (in half of those withdrawn by events
    at once), poison rounds drawn from a pool of three sets (so states
    recur and snapshots are copied) and a selective re-announcement;
    the withdrawals end the run.

    Every step runs once, through production, and reports to three
    assertion families:

    * ``bgp-stable``: :func:`oracle_stable_faults` holds the prefix the
      step converged to the exact fixed point, decision steps and every
      speaker's Adj-RIB-In included.
    * ``bgp-reuse``: an origination that copies a converged state is
      also delivered by events on a :func:`_fork`; the prefix's and the
      source twin's tables, the clock and the epoch must match.
    * ``bgp-withdraw``: so is every withdrawal.  One that falls back to
      event delivery (another origin remains) must match as a copy
      does.  A reset, the sole origin's withdrawal, copies the empty
      state: it must leave no state and no earlier clock, and the fork
      must end empty too, holding no route: the two must agree, and
      again once the next baseline re-announces on both.
    """
    tally = Counter() if tally is None else tally
    seed = scenario.seed
    rng = random.Random(seed ^ 0xB69)
    graph = scenario.graph
    asns = sorted(graph.asns())
    policies = {}
    for asn in asns:
        customers = sorted(
            neighbor
            for neighbor, relationship in graph.neighbors(asn).items()
            if relationship is Relationship.CUSTOMER
        )
        policies[asn] = Policy(
            asn=asn,
            filters_poisoned=rng.random() < 0.1,
            loop_prevention_disabled=rng.random() < 0.05,
            partial_transit_to={c for c in customers if rng.random() < 0.1},
        )
    simulator = BGPSimulator(graph, policies=policies)
    #: The event-driven fork of the last reset that ended empty, for the
    #: next step to re-announce on: (asn, prefix, fork, label).
    emptied: Optional[Tuple] = None
    problems: List[Disagreement] = []

    def step(label: str, asn: int, prefix: Prefix, poisoned=()) -> None:
        """``asn`` originates ``prefix`` with ``poisoned`` (``None``:
        withdraws it) through production; then every family checks it."""

        def fault(family: str, detail: str, where: str = label) -> None:
            problems.append(Disagreement(family, seed, f"{where}: {detail}"))

        nonlocal emptied
        carried, emptied = emptied, None
        withdrawal = poisoned is None
        if withdrawal and not simulator.speakers[asn].originates(prefix):
            return  # the withdrawal changes nothing
        fork = twin = None
        if withdrawal:
            clock = simulator.clock
            fork = _fork(simulator, asn, prefix, None)
        else:
            poisoned = frozenset(poisoned)
            _, _, node = simulator._lookup(LocalRoute(prefix, asn, poisoned))
            if node is not None and node.reusable():
                twin = next(iter(node.holders), None)
                tally["bgp-reuse copies"] += 1
                tally[f"bgp-reuse copies from a {'twin' if twin else 'snapshot'}"] += 1
                fork = _fork(simulator, asn, prefix, poisoned, twin)
        if withdrawal or poisoned or carried is None or carried[:2] != (asn, prefix):
            carried = None
        else:
            carried[2].originate(asn, prefix)  # by events: its state is unknown
        if withdrawal:
            simulator.withdraw(asn, prefix)
        else:
            simulator.originate(asn, prefix, poisoned)

        tally["bgp-stable convergences"] += 1
        faults = oracle_stable_faults(simulator, prefix)
        if faults:
            fault(
                "bgp-stable",
                f"{prefix} not stable, {len(faults)} fault(s), first: {faults[0]}",
            )
        if carried is not None:
            _, _, reset_fork, reset_label = carried
            detail = _diff_rib_states(
                _rib_state(simulator, prefix), _rib_state(reset_fork, prefix)
            )
            if detail is not None:
                fault("bgp-withdraw", f"after re-announcing, {detail}", reset_label)
        if fork is None:
            return
        origins = [a for a, s in simulator.speakers.items() if s.originates(prefix)]
        if withdrawal and not origins:
            tally["bgp-withdraw resets"] += 1
            production = _rib_state(simulator, prefix)
            if any(any(tables) for tables in production.values()):
                fault("bgp-withdraw", "the reset left state behind")
            if simulator.epoch != fork.epoch:
                fault("bgp-withdraw", f"epoch {simulator.epoch} vs {fork.epoch}")
            if simulator.clock < clock:
                fault("bgp-withdraw", f"clock went back {clock} -> {simulator.clock}")
            # The fork must end as empty as the reset: a route its
            # event-driven withdrawal left behind is a disagreement.
            detail = _diff_rib_states(production, _rib_state(fork, prefix))
            if detail is not None:
                fault("bgp-withdraw", f"after withdrawal, {detail}")
            else:
                emptied = (asn, prefix, fork, label)
            return
        # A copy, or a withdrawal that fell back to event delivery: the
        # tables (and those of the twin copied from, left as is), clock
        # and epoch must be the fork's.
        if withdrawal:
            family = "bgp-withdraw"
            tally["bgp-withdraw fallback"] += 1
        else:
            family = "bgp-reuse"
        for other in (prefix,) if twin is None else (prefix, twin):
            detail = _diff_rib_states(
                _rib_state(simulator, other), _rib_state(fork, other)
            )
            if detail is not None:
                fault(family, f"{other} {detail}")
        produced = (simulator.clock, simulator.epoch)
        expected = (fork.clock, fork.epoch)
        if produced != expected:
            fault(family, f"clock, epoch {produced} vs event-driven {expected}")

    multihomed = [asn for asn in asns if len(graph.neighbors(asn)) >= 2] or asns
    origin, active = rng.sample(multihomed, k=2)
    neighbors = sorted(graph.neighbors(origin))
    policies[origin].export_prepend[(_PREPEND_PFX, rng.choice(neighbors))] = 2
    policies[origin].selective_export[_SELECTIVE_PFX] = frozenset(
        rng.sample(neighbors, k=len(neighbors) - 1)
    )
    others = [asn for asn in asns if asn != active]
    pool = [frozenset(rng.sample(others, k=rng.randint(1, 2))) for _ in range(3)]
    active_neighbors = sorted(graph.neighbors(active))
    units = rng.randint(3, 5)

    def withdrawals(label: str) -> None:
        step(f"{label} anycast withdrawn", origin, _ACTIVE_PFX, None)
        step(f"{label} reset", active, _ACTIVE_PFX, None)
        # Edit the policy only once the reset has cleared what it shaped:
        # the oracle reads the policy, so an edit that the origin has not
        # announced with would read as a fault.
        policies[active].selective_export.pop(_ACTIVE_PFX, None)

    try:
        step(f"AS{origin} announces {_BASE_PFX}", origin, _BASE_PFX)
        # Override the local preference of a route the base converged to.
        holders = [
            asn
            for asn in asns
            if asn != origin and simulator.best_route(asn, _BASE_PFX)
        ]
        if holders:
            holder = rng.choice(holders)
            route = rng.choice(simulator.candidate_routes(holder, _BASE_PFX))
            policies[holder].prefix_local_pref[
                (route.learned_from, _LOCAL_PREF_PFX)
            ] = route.local_pref + rng.choice((-150, 150))
        for prefix in _BGP_PREFIXES[1:5]:
            step(f"AS{origin} announces {prefix}", origin, prefix)
        for unit in range(units):
            withdrawals(f"unit {unit}")
            step(f"unit {unit} baseline", active, _ACTIVE_PFX)
            if rng.random() < 0.5:
                step(f"unit {unit} anycast", origin, _ACTIVE_PFX)
                if rng.random() < 0.5:
                    step(f"unit {unit} anycast withdrawn", origin, _ACTIVE_PFX, None)
            for round_no in range(rng.randint(1, 2)):
                step(
                    f"unit {unit} poison round {round_no}",
                    active,
                    _ACTIVE_PFX,
                    rng.choice(pool),
                )
            policies[active].selective_export[_ACTIVE_PFX] = frozenset(
                rng.sample(active_neighbors, k=1)
            )
            step(f"unit {unit} selective", active, _ACTIVE_PFX)
        withdrawals("final")
    except ConvergenceError:
        tally["bgp-stable unconverged"] += 1
    return problems


# ---------------------------------------------------------------------------
# Ledger resume vs fresh (heavy, opt-in)
# ---------------------------------------------------------------------------


def check_ledger_resume(scenario: Scenario) -> List[Disagreement]:
    """A study crash-looped through filesystem faults and resumed via
    its run ledger must match a plain run byte-for-byte.

    Runs one plain study (no fault plan, no durability, no run
    directory), then a chaos study into a ledger-managed run directory
    under a storage-only fault plan: torn appends, ENOSPC, pre-rename
    crashes and stale locks fire at seeded points, each crash is
    "rebooted" by re-opening the study with ``resume=True``, and the
    final results are compared through the byte-deterministic golden
    serializer.  The study's snapshot series then runs into the same
    directory the way ``repro temporal --run-dir DIR --resume`` does —
    the ledger re-opened with ``resume=True`` on every attempt, its
    storage policy carrying the same faults onto ``temporal.jsonl`` —
    and its Figure-1 series must equal a plain run's.  The ledger must
    read ``completed`` after each of the two legs.  Persistence
    changes only how a study runs, so the two must agree.  Heavy —
    every seed runs several end-to-end studies — so the runner only
    includes it when named via ``--only ledger-resume``.
    """
    import shutil
    import tempfile

    from repro.check.golden import serialize, snapshot_study
    from repro.core.pipeline import Study, StudyConfig
    from repro.faults import CampaignInterrupted, RunLedger
    from repro.faults.plan import FaultPlan, FaultSite
    from repro.temporal import TemporalInputs, run_incremental, run_series
    from repro.topogen.config import small_config

    seed = scenario.seed
    plan = FaultPlan(
        seed=seed,
        rates={
            FaultSite.STORAGE_TORN_APPEND: 0.004,
            FaultSite.STORAGE_ENOSPC: 0.002,
            FaultSite.STORAGE_RENAME_CRASH: 0.05,
            FaultSite.STORAGE_STALE_LOCK: 0.3,
        },
    )
    max_attempts = 25

    def base_config() -> StudyConfig:
        return StudyConfig(
            topology=small_config(),
            seed=seed,
            num_probes=100,
            probes_per_continent=8,
            active_vp_budget=24,
            max_discovery_targets=8,
        )

    problems: List[Disagreement] = []

    def ledger_status(leg: str) -> None:
        ledger = RunLedger.read(run_dir)
        if ledger is None or ledger.get("status") != "completed":
            problems.append(
                Disagreement(
                    "ledger-resume",
                    seed,
                    f"ledger status after the {leg} is "
                    f"{ledger and ledger.get('status')!r}, expected 'completed'",
                )
            )

    plain = Study(base_config()).run()
    fresh = serialize(snapshot_study(plain))
    run_dir = tempfile.mkdtemp(prefix="repro-ledger-check-")
    try:
        chaos: Optional[str] = None
        crashes = 0
        for attempt in range(max_attempts):
            config = base_config()
            config.fault_plan = plan
            config.durability = "flush"
            config.run_dir = run_dir
            config.resume = attempt > 0
            try:
                results = Study(config).run()
            except (CampaignInterrupted, OSError):
                crashes += 1
                continue
            chaos = serialize(snapshot_study(results))
            break
        if chaos is None:
            return [
                Disagreement(
                    "ledger-resume",
                    seed,
                    f"study never completed within {max_attempts} resume "
                    f"attempts ({crashes} crashes)",
                )
            ]
        if chaos != fresh:
            problems.append(
                Disagreement(
                    "ledger-resume",
                    seed,
                    "resumed study diverges from the plain run "
                    f"after {crashes} crash(es)",
                )
            )
        ledger_status("study")
        inputs = TemporalInputs.from_study(results)
        series = None
        series_crashes = 0
        for _ in range(max_attempts):
            try:
                series = run_series(
                    results.snapshots,
                    inputs,
                    run_dir,
                    resume=True,
                    durability="flush",
                    fault_plan=plan,
                ).figure1_series()
                break
            except (CampaignInterrupted, OSError):
                series_crashes += 1
        if series is None:
            problems.append(
                Disagreement(
                    "ledger-resume",
                    seed,
                    f"snapshot series never completed within {max_attempts} "
                    f"resume attempts ({series_crashes} crashes)",
                )
            )
        else:
            plain_series = run_incremental(
                plain.snapshots, TemporalInputs.from_study(plain)
            ).figure1_series()
            if series != plain_series:
                problems.append(
                    Disagreement(
                        "ledger-resume",
                        seed,
                        "resumed snapshot series diverges from the plain run "
                        f"after {series_crashes} crash(es)",
                    )
                )
            ledger_status("snapshot series")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return problems


# ---------------------------------------------------------------------------
# Whole-seed battery
# ---------------------------------------------------------------------------

#: Check-name -> callable(scenario) for the scenario-driven oracles.
SCENARIO_CHECKS = {
    "gr-tree": check_gr_trees,
    "labels": check_labels,
    "metamorphic": check_metamorphic,
}

#: Check-name -> callable(seed, tally=Counter) for the input-driven
#: oracles; each adds what it exercised to the tally.  The BGP
#: simulator's checks follow them as the :data:`BGP_FAMILIES` of one
#: driver, :func:`check_bgp_scenario`.
SEED_CHECKS = {
    "bgp-decision": check_bgp_decision,
    "lpm": check_lpm,
}

#: Heavy scenario checks: known to the runner but excluded from the
#: default battery — run only when named via ``--only`` (each seed
#: runs several end-to-end studies).
HEAVY_SCENARIO_CHECKS = {
    "ledger-resume": check_ledger_resume,
}


def check_seed(
    seed: int, only: Optional[List[str]] = None, tally: Optional[Counter] = None
) -> Tuple[Scenario, List[Disagreement]]:
    """Run the whole differential battery for one seed.

    ``tally`` collects the seed checks' counts of what they exercised.
    Naming any BGP family runs :func:`check_bgp_scenario` once; its
    disagreements and counts are kept for the named families only.
    """
    scenario = generate_scenario(seed)
    problems: List[Disagreement] = []
    for name, scenario_check in SCENARIO_CHECKS.items():
        if only is not None and name not in only:
            continue
        problems.extend(scenario_check(scenario))
    for name, seed_check in SEED_CHECKS.items():
        if only is not None and name not in only:
            continue
        problems.extend(seed_check(seed, tally=tally))
    families = [name for name in BGP_FAMILIES if only is None or name in only]
    if families:
        counts: Counter = Counter()
        found = check_bgp_scenario(scenario, tally=counts)
        problems.extend(problem for problem in found if problem.check in families)
        if tally is not None:
            tally.update(
                {name: n for name, n in counts.items() if name.split()[0] in families}
            )
    for name, heavy_check in HEAVY_SCENARIO_CHECKS.items():
        if only is None or name not in only:
            continue
        problems.extend(heavy_check(scenario))
    return scenario, problems
