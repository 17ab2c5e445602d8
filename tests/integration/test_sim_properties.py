"""Property-based validation of the BGP simulator on random topologies.

Under pure Gao-Rexford policies over random acyclic-hierarchy graphs:
the simulator must converge, its data-plane paths must be valley-free,
and its route lengths must match the analytical engine — for *every*
generated topology, not just the crafted ones.  With partial transit,
selective export and prepending drawn on top, every speaker must have
told each neighbor what the naive export rule derives from its route.
Converged-state reuse (twins and snapshots) must leave every table
where event-by-event delivery leaves it.  The incremental decision
process must pick what the full tournament picks, message by message.
Whatever updates the queue rule drops, every convergence must end at
the fixed point the stable-state oracle reads from the tables.
"""

import copy
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import BGPSimulator, BGPSpeaker, Policy, best_route
from repro.check.differential import _rib_state
from repro.check.oracles import oracle_export, oracle_stable_faults
from repro.core.gao_rexford import GaoRexfordEngine
from repro.net.ip import Prefix
from repro.topology import ASGraph, Relationship

PFX = Prefix.parse("198.51.100.0/24")

rel_strategy = st.sampled_from(
    [Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER]
)


@st.composite
def hierarchy_graphs(draw):
    """Random graphs whose customer-provider hierarchy is acyclic."""
    num_ases = draw(st.integers(min_value=2, max_value=14))
    asns = list(range(1, num_ases + 1))
    graph = ASGraph()
    for asn in asns:
        graph.ensure_asn(asn)
    num_links = draw(st.integers(min_value=1, max_value=28))
    for _ in range(num_links):
        a = draw(st.sampled_from(asns))
        b = draw(st.sampled_from(asns))
        if a == b:
            continue
        rel = draw(rel_strategy)
        if rel is Relationship.PEER:
            graph.add_link(a, b, Relationship.PEER)
        else:
            # Lower ASN is always the provider: acyclic hierarchy.
            graph.add_link(min(a, b), max(a, b), Relationship.CUSTOMER)
    return graph


class TestSimulatorProperties:
    @given(hierarchy_graphs(), st.integers(min_value=1, max_value=14))
    @settings(max_examples=120, deadline=None)
    def test_sim_matches_engine_on_random_graphs(self, graph, destination):
        if destination not in graph:
            return
        simulator = BGPSimulator(graph)
        simulator.originate(destination, PFX)  # must converge
        info = GaoRexfordEngine(graph).routing_info(destination)
        dump = simulator.rib_dump(PFX)
        assert set(dump) == {
            asn for asn in graph.asns() if info.has_route(asn)
        } | {destination}
        for asn, route in dump.items():
            if asn == destination:
                continue
            assert route.path_length() == info.gr_route_length(asn)

    @given(hierarchy_graphs(), st.integers(min_value=1, max_value=14))
    @settings(max_examples=120, deadline=None)
    def test_forwarding_paths_valley_free(self, graph, destination):
        if destination not in graph:
            return
        simulator = BGPSimulator(graph)
        simulator.originate(destination, PFX)
        for asn in graph.asns():
            path = simulator.forwarding_path(asn, PFX)
            if path is None:
                continue
            assert path[-1] == destination
            went_down = False
            peer_edges = 0
            for left, right in zip(path[:-1], path[1:]):
                rel = graph.relationship(left, right)
                assert rel is not None
                if rel is Relationship.PEER:
                    peer_edges += 1
                    went_down = True
                elif rel is Relationship.CUSTOMER:
                    went_down = True
                else:
                    assert not went_down, f"valley in {path}"
            assert peer_edges <= 1

    @given(hierarchy_graphs(), st.integers(min_value=1, max_value=14))
    @settings(max_examples=60, deadline=None)
    def test_withdraw_restores_empty_state(self, graph, destination):
        """Event-driven delivery reaches the state the reset jumps to."""
        if destination not in graph:
            return
        simulator = BGPSimulator(graph)
        simulator.originate(destination, PFX)
        simulator._withdraw_by_events(destination, PFX)
        assert simulator.rib_dump(PFX) == {}

    @given(
        hierarchy_graphs(),
        st.lists(
            st.tuples(
                st.sampled_from(["originate", "withdraw"]),
                st.integers(min_value=1, max_value=3),
                st.frozensets(st.integers(min_value=1, max_value=14), max_size=3),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_reset_matches_event_driven_withdrawal(self, graph, operations):
        """Production routes equal event-driven routes after every
        operation: an event-driven withdrawal by the last origin always
        reaches the empty state the reset jumps to."""
        production = BGPSimulator(graph)
        reference = BGPSimulator(graph)
        for action, origin, poisoned in operations:
            if origin not in graph:
                continue
            if action == "originate":
                production.originate(origin, PFX, poisoned=poisoned)
                reference.originate(origin, PFX, poisoned=poisoned)
            else:
                production.withdraw(origin, PFX)
                reference._withdraw_by_events(origin, PFX)
            for asn, route in reference.rib_dump(PFX).items():
                assert production.best_route(asn, PFX).aged(0) == route.aged(0)
                assert production.decision_step(
                    asn, PFX
                ) == reference.decision_step(asn, PFX)
            assert production.reachable_ases(PFX) == reference.reachable_ases(PFX)

    @given(hierarchy_graphs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_advertised_matches_oracle_export(self, graph, data):
        """After every originate, poison or withdraw, each speaker's
        advertised exports equal :func:`oracle_export` of its Loc-RIB
        route, neighbor by neighbor."""
        asns = sorted(graph.asns())
        for _ in range(data.draw(st.integers(0, 2), label="sibling links")):
            pair = st.lists(st.sampled_from(asns), min_size=2, max_size=2, unique=True)
            graph.add_link(*data.draw(pair), Relationship.SIBLING)
        policies = {}
        for asn in asns:
            customers = sorted(
                neighbor
                for neighbor, rel in graph.neighbors(asn).items()
                if rel is Relationship.CUSTOMER
            )
            partial = data.draw(
                st.sets(st.sampled_from(customers)) if customers else st.just(set()),
                label=f"AS{asn} partial-transit customers",
            )
            policies[asn] = Policy(asn=asn, partial_transit_to=set(partial))
        origins = data.draw(
            st.lists(st.sampled_from(asns), min_size=1, max_size=2, unique=True),
            label="origins",
        )
        for origin in origins:
            neighbors = sorted(graph.neighbors(origin))
            if not neighbors:
                continue
            policy = policies[origin]
            if data.draw(st.booleans(), label=f"AS{origin} selective"):
                policy.selective_export[PFX] = frozenset(
                    data.draw(st.sets(st.sampled_from(neighbors)))
                )
            for neighbor in sorted(data.draw(st.sets(st.sampled_from(neighbors)))):
                policy.export_prepend[(PFX, neighbor)] = data.draw(st.integers(1, 3))
        operations = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["originate", "poison", "withdraw"]),
                    st.sampled_from(origins),
                    st.frozensets(st.sampled_from(asns), min_size=1, max_size=3),
                ),
                min_size=1,
                max_size=8,
            ),
            label="operations",
        )
        simulator = BGPSimulator(graph, policies=policies)
        poisoned = {}
        for action, origin, poison in operations:
            if action == "withdraw":
                simulator.withdraw(origin, PFX)
            else:
                poisoned[origin] = poison if action == "poison" else frozenset()
                simulator.originate(origin, PFX, poisoned=poisoned[origin])
            for asn, speaker in simulator.speakers.items():
                neighbors = graph.neighbors(asn)
                expected = {}
                for neighbor in neighbors:
                    export = oracle_export(
                        policies[asn],
                        neighbors,
                        PFX,
                        speaker.best(PFX),
                        neighbor,
                        poisoned.get(asn, frozenset()),
                    )
                    if export is not None:
                        expected[neighbor] = export
                assert speaker.advertised(PFX) == expected, f"AS{asn} after {action}"


REUSE_PREFIXES = [Prefix.parse(f"198.51.{index}.0/24") for index in range(3)]
REUSE_STEPS = (
    "originate",
    "poison",
    "selective",
    "prepend",
    "withdraw",
    "second-origin",
    "withdraw-second",
)


class TestConvergedStateReuse:
    @given(hierarchy_graphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_reuse_matches_event_delivery(self, graph, data):
        """Production originations, which copy known converged states,
        leave every speaker's tables for every prefix (ages by order),
        the clock and the epoch where event delivery leaves them.  The main origin first announces all three
        prefixes: two start with equal prefix inputs, the third with a
        local-preference override.  Poison sets, selective-export sets
        and prepends come from a pool of two, so histories recur."""
        asns = sorted(graph.asns())
        main, second = data.draw(
            st.lists(st.sampled_from(asns), min_size=2, max_size=2, unique=True),
            label="origins",
        )
        policies = {asn: Policy(asn=asn) for asn in asns}
        overriding = data.draw(st.sampled_from(asns), label="override AS")
        for neighbor in sorted(graph.neighbors(overriding))[:2]:
            policies[overriding].prefix_local_pref[(neighbor, REUSE_PREFIXES[2])] = 350
        pool = data.draw(
            st.lists(
                st.frozensets(st.sampled_from(asns), min_size=1, max_size=2),
                min_size=2,
                max_size=2,
            ),
            label="pool",
        )
        steps = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(REUSE_STEPS),
                    st.sampled_from(REUSE_PREFIXES),
                    st.sampled_from([None, 0, 1]),
                ),
                min_size=1,
                max_size=14,
            ),
            label="steps",
        )
        production = BGPSimulator(graph, policies=policies)
        reference = BGPSimulator(graph, policies=policies)
        origin_policy = policies[main]
        neighbors = sorted(graph.neighbors(main))
        prelude = [("originate", prefix, None) for prefix in REUSE_PREFIXES]
        for action, prefix, choice in prelude + steps:
            chosen = frozenset() if choice is None else pool[choice]
            if action in ("withdraw", "withdraw-second"):
                origin = main if action == "withdraw" else second
                for sim in (production, reference):
                    sim.withdraw(origin, prefix)
            else:
                origin = second if action == "second-origin" else main
                if action == "selective":
                    origin_policy.selective_export.pop(prefix, None)
                    if choice is not None:
                        origin_policy.selective_export[prefix] = frozenset(
                            neighbors[choice:]
                        )
                elif action == "prepend":
                    for neighbor in neighbors:
                        origin_policy.export_prepend.pop((prefix, neighbor), None)
                    for neighbor in neighbors[: 0 if choice is None else 1]:
                        origin_policy.export_prepend[(prefix, neighbor)] = choice + 1
                poisoned = chosen if action == "poison" else frozenset()
                production.originate(origin, prefix, poisoned)
                reference._originate_by_events(origin, prefix, poisoned)
            for other in REUSE_PREFIXES:
                assert _rib_state(production, other) == _rib_state(
                    reference, other
                ), f"{other} after {action} {prefix}"
            assert (production.clock, production.epoch) == (
                reference.clock,
                reference.epoch,
            )


def _assert_decisions_exact(speakers, prefixes, where):
    """Each speaker's Loc-RIB route and decision step are what the full
    tournament picks from its candidates."""
    for asn, speaker in speakers.items():
        for prefix in prefixes:
            winner, step = best_route(speaker.candidates(prefix))
            assert speaker.best(prefix) == winner, f"AS{asn} {prefix} {where}"
            assert speaker.decision_step(prefix) == step, (
                f"AS{asn} {prefix} step {where}"
            )


DECISION_STEPS = ("originate", "poison", "withdraw", "second-origin", "withdraw-second")


class TestIncrementalDecision:
    @given(hierarchy_graphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_loc_rib_and_step_match_the_full_tournament(self, graph, data):
        """After every delivered message the receiving speaker's Loc-RIB
        route and decision step equal :func:`best_route` over its
        candidates, although most updates are only compared with the
        best.  After every origination, reused (records shared by
        ``adopt``) or delivered, the same holds at every speaker, and on
        a deep copy of the simulator, which then carries on in its place
        with a record of its own for every prefix.  Per-neighbor
        local preferences and IGP costs make every decision step
        reachable."""
        asns = sorted(graph.asns())
        policies = {}
        for asn in asns:
            neighbors = sorted(graph.neighbors(asn))
            policies[asn] = Policy(
                asn=asn,
                neighbor_local_pref={
                    neighbor: data.draw(st.sampled_from([100, 200, 300]))
                    for neighbor in data.draw(st.sets(st.sampled_from(neighbors)))
                }
                if neighbors
                else {},
                igp_cost={
                    neighbor: data.draw(st.sampled_from([0, 5]))
                    for neighbor in neighbors
                },
            )
        main, second = data.draw(
            st.lists(st.sampled_from(asns), min_size=2, max_size=2, unique=True),
            label="origins",
        )
        steps = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(DECISION_STEPS),
                    st.sampled_from(REUSE_PREFIXES[:2]),
                    st.frozensets(st.sampled_from(asns), min_size=1, max_size=2),
                    st.booleans(),
                ),
                min_size=1,
                max_size=10,
            ),
            label="steps",
        )
        receive = BGPSpeaker.receive

        def checked_receive(speaker, message, clock, country_of=None):
            changed = receive(speaker, message, clock, country_of)
            _assert_decisions_exact(
                {speaker.asn: speaker},
                (message.prefix,),
                f"after {message} at clock {clock}",
            )
            return changed

        simulator = BGPSimulator(graph, policies=policies)
        prefixes = REUSE_PREFIXES[:2]
        prelude = [("originate", prefix, frozenset(), False) for prefix in prefixes]
        with mock.patch.object(BGPSpeaker, "receive", checked_receive):
            for action, prefix, poison, fork in prelude + steps:
                origin = second if "second" in action else main
                if action.startswith("withdraw"):
                    simulator.withdraw(origin, prefix)
                else:
                    poisoned = poison if action == "poison" else frozenset()
                    simulator.originate(origin, prefix, poisoned)
                where = f"after {action} {prefix}"
                _assert_decisions_exact(simulator.speakers, prefixes, where)
                copied = copy.deepcopy(simulator)
                _assert_decisions_exact(copied.speakers, prefixes, f"copied {where}")
                if fork:
                    simulator = copied



class TestStableState:
    @given(hierarchy_graphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_convergence_reaches_a_fixed_point(self, graph, data):
        """After every origination and withdrawal, on both prefixes,
        nothing is in flight, each Loc-RIB route is the best candidate,
        each speaker advertises the naive export of it, and each
        Adj-RIB-In entry is what the neighbor last sent (or none, where
        the import filter rejects it).  Filters, loop-prevention
        exceptions, partial transit, prepends and selective export are
        drawn."""
        asns = sorted(graph.asns())
        policies = {}
        for asn in asns:
            customers = sorted(
                neighbor
                for neighbor, rel in graph.neighbors(asn).items()
                if rel is Relationship.CUSTOMER
            )
            policies[asn] = Policy(
                asn=asn,
                filters_poisoned=data.draw(st.booleans(), label=f"AS{asn} filters"),
                loop_prevention_disabled=data.draw(
                    st.sampled_from([False, False, True]), label=f"AS{asn} loops"
                ),
                partial_transit_to=data.draw(
                    st.sets(st.sampled_from(customers)) if customers else st.just(set()),
                    label=f"AS{asn} partial-transit customers",
                ),
            )
        main, second = data.draw(
            st.lists(st.sampled_from(asns), min_size=2, max_size=2, unique=True),
            label="origins",
        )
        neighbors = sorted(graph.neighbors(main))
        shaped = REUSE_PREFIXES[1]
        if neighbors:
            policies[main].selective_export[shaped] = frozenset(
                data.draw(st.sets(st.sampled_from(neighbors)), label="selective")
            )
            policies[main].export_prepend[(shaped, neighbors[0])] = 2
        steps = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(DECISION_STEPS),
                    st.sampled_from(REUSE_PREFIXES[:2]),
                    st.frozensets(st.sampled_from(asns), min_size=1, max_size=2),
                ),
                min_size=1,
                max_size=10,
            ),
            label="steps",
        )
        simulator = BGPSimulator(graph, policies=policies)
        prefixes = REUSE_PREFIXES[:2]
        prelude = [("originate", prefix, frozenset()) for prefix in prefixes]
        for action, prefix, poison in prelude + steps:
            origin = second if "second" in action else main
            if action.startswith("withdraw"):
                simulator.withdraw(origin, prefix)
            else:
                poisoned = poison if action == "poison" else frozenset()
                simulator.originate(origin, prefix, poisoned)
            for other in prefixes:
                faults = oracle_stable_faults(simulator, other)
                assert faults == [], f"{other} after {action} {prefix}"
