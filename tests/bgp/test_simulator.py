"""Integration tests for BGP propagation over small topologies."""

import pytest

from repro.bgp import ASPathAttribute, Announcement, BGPSimulator, Policy, Withdrawal
from repro.bgp.simulator import ConvergenceError
from repro.net.ip import Prefix
from repro.obs import Observability, using
from repro.topology import ASGraph, Relationship

PFX = Prefix.parse("198.51.100.0/24")


def _graph(*links):
    graph = ASGraph()
    for a, b, rel in links:
        graph.add_link(a, b, rel)
    return graph


def _chain():
    """1 (tier-1) -> 2 -> 3 -> 4 (stub), provider to customer."""
    return _graph(
        (1, 2, Relationship.CUSTOMER),
        (2, 3, Relationship.CUSTOMER),
        (3, 4, Relationship.CUSTOMER),
    )


def _contested_graph():
    """Origin 6 with two providers; enough traffic to hit a tiny budget."""
    return _graph(
        (1, 2, Relationship.PEER),
        (1, 3, Relationship.CUSTOMER),
        (1, 6, Relationship.CUSTOMER),
        (2, 6, Relationship.CUSTOMER),
    )


def _failed_origination(how):
    """A simulator whose origination of PFX by AS6 failed mid-run, with
    messages still queued: at the event budget (``error``, a
    ConvergenceError) or by an exception raised inside the run
    (``interrupt``)."""
    if how == "error":
        sim = BGPSimulator(_contested_graph(), max_events_per_link=1)
        with pytest.raises(ConvergenceError):
            sim.originate(6, PFX)
        return sim
    sim = BGPSimulator(_contested_graph())
    receive = sim.speakers[2].receive

    def interrupted(message, clock, country_of=None):
        if sim.in_flight() and message.prefix == PFX:
            raise KeyboardInterrupt
        return receive(message, clock, country_of)

    sim.speakers[2].receive = interrupted
    with pytest.raises(KeyboardInterrupt):
        sim.originate(6, PFX)
    sim.speakers[2].receive = receive
    return sim


FAILURES = ["error", "interrupt"]


class TestPropagation:
    def test_customer_route_reaches_everyone(self):
        sim = BGPSimulator(_chain())
        sim.originate(4, PFX)
        for asn in (1, 2, 3):
            route = sim.best_route(asn, PFX)
            assert route is not None
            assert route.origin_asn == 4
        assert sim.forwarding_path(1, PFX) == (1, 2, 3, 4)

    def test_origin_best_is_local(self):
        sim = BGPSimulator(_chain())
        sim.originate(4, PFX)
        assert sim.best_route(4, PFX).learned_from == 4

    def test_withdraw_removes_routes(self):
        sim = BGPSimulator(_chain())
        sim.originate(4, PFX)
        sim.withdraw(4, PFX)
        for asn in (1, 2, 3, 4):
            assert sim.best_route(asn, PFX) is None

    def test_valley_free_export(self):
        """A peer route must not be re-exported to another peer."""
        graph = _graph(
            (1, 2, Relationship.PEER),
            (2, 3, Relationship.PEER),
        )
        sim = BGPSimulator(graph)
        sim.originate(1, PFX)
        assert sim.best_route(2, PFX) is not None
        assert sim.best_route(3, PFX) is None

    def test_provider_route_not_exported_to_peer(self):
        graph = _graph(
            (1, 2, Relationship.CUSTOMER),  # 1 provider of 2
            (2, 3, Relationship.PEER),
        )
        sim = BGPSimulator(graph)
        sim.originate(1, PFX)
        assert sim.best_route(2, PFX) is not None
        assert sim.best_route(3, PFX) is None

    def test_peer_route_exported_to_customer(self):
        graph = _graph(
            (1, 2, Relationship.PEER),
            (2, 3, Relationship.CUSTOMER),
        )
        sim = BGPSimulator(graph)
        sim.originate(1, PFX)
        assert sim.best_route(3, PFX) is not None
        assert sim.forwarding_path(3, PFX) == (3, 2, 1)


class TestPreference:
    def test_customer_route_preferred_over_shorter_peer(self):
        """Gao-Rexford: AS2 prefers the longer customer path."""
        graph = _graph(
            (2, 3, Relationship.CUSTOMER),
            (3, 4, Relationship.CUSTOMER),
            (2, 9, Relationship.PEER),
            (9, 4, Relationship.CUSTOMER),
        )
        sim = BGPSimulator(graph)
        sim.originate(4, PFX)
        route = sim.best_route(2, PFX)
        assert route.learned_from == 3
        assert route.relationship is Relationship.CUSTOMER

    def test_shorter_path_wins_within_class(self):
        graph = _graph(
            (2, 3, Relationship.CUSTOMER),
            (2, 5, Relationship.CUSTOMER),
            (3, 4, Relationship.CUSTOMER),
            (5, 6, Relationship.CUSTOMER),
            (6, 4, Relationship.CUSTOMER),
        )
        sim = BGPSimulator(graph)
        sim.originate(4, PFX)
        assert sim.best_route(2, PFX).learned_from == 3

    def test_neighbor_local_pref_override_flips_choice(self):
        graph = _graph(
            (2, 3, Relationship.CUSTOMER),
            (2, 9, Relationship.PEER),
            (3, 4, Relationship.CUSTOMER),
            (9, 4, Relationship.CUSTOMER),
        )
        policies = {2: Policy(asn=2, neighbor_local_pref={9: 400})}
        sim = BGPSimulator(graph, policies=policies)
        sim.originate(4, PFX)
        assert sim.best_route(2, PFX).learned_from == 9


class TestPoisoning:
    def test_poisoned_as_drops_route(self):
        sim = BGPSimulator(_chain())
        sim.originate(4, PFX, poisoned={2})
        assert sim.best_route(3, PFX) is not None
        assert sim.best_route(2, PFX) is None
        assert sim.best_route(1, PFX) is None

    def test_poisoning_forces_alternate_path(self):
        """Target AS1 reaches origin 4 via 2; poisoning 2 shifts to 3."""
        graph = _graph(
            (1, 2, Relationship.CUSTOMER),
            (1, 3, Relationship.CUSTOMER),
            (2, 4, Relationship.CUSTOMER),
            (3, 5, Relationship.CUSTOMER),
            (5, 4, Relationship.CUSTOMER),
        )
        sim = BGPSimulator(graph)
        sim.originate(4, PFX)
        assert sim.forwarding_path(1, PFX) == (1, 2, 4)
        sim.originate(4, PFX, poisoned={2})
        assert sim.forwarding_path(1, PFX) == (1, 3, 5, 4)

    def test_poison_filtering_as_ignores_poisoned_announcement(self):
        graph = _chain()
        policies = {2: Policy(asn=2, filters_poisoned=True)}
        sim = BGPSimulator(graph, policies=policies)
        sim.originate(4, PFX, poisoned={99})
        # AS2 filters announcements with AS-sets entirely.
        assert sim.best_route(3, PFX) is not None
        assert sim.best_route(2, PFX) is None

    def test_disabled_loop_prevention_keeps_route(self):
        graph = _chain()
        policies = {2: Policy(asn=2, loop_prevention_disabled=True)}
        sim = BGPSimulator(graph, policies=policies)
        sim.originate(4, PFX, poisoned={2})
        assert sim.best_route(2, PFX) is not None
        assert sim.best_route(1, PFX) is not None


class TestAnycastAndAge:
    def test_anycast_two_origins(self):
        graph = _graph(
            (1, 2, Relationship.CUSTOMER),
            (1, 3, Relationship.CUSTOMER),
        )
        sim = BGPSimulator(graph)
        sim.originate(2, PFX)
        sim.originate(3, PFX)
        route = sim.best_route(1, PFX)
        assert route is not None
        assert route.origin_asn in (2, 3)
        # Withdrawing one origin is delivered event by event: AS1 moves
        # to the route the other origin still announces.
        clock = sim.clock
        sim.withdraw(route.origin_asn, PFX)
        withdrawn, remaining = route.origin_asn, 5 - route.origin_asn
        assert sim.clock > clock
        assert sim.best_route(1, PFX).origin_asn == remaining
        assert sim.best_route(withdrawn, PFX).as_path.sequence() == (1, remaining)

    def test_route_age_keeps_magnet_route(self):
        """With all else tied, the older (magnet) route is kept."""
        graph = _graph(
            (1, 2, Relationship.PROVIDER),
            (1, 3, Relationship.PROVIDER),
            (2, 8, Relationship.PROVIDER),
            (3, 9, Relationship.PROVIDER),
        )
        # Equalize igp costs (default zero) and rely on age: announce
        # via 8 first (magnet), then via 9.
        sim = BGPSimulator(graph)
        sim.originate(8, PFX)
        first = sim.best_route(1, PFX)
        assert first.as_path.sequence() == (2, 8)
        sim.originate(9, PFX)
        after = sim.best_route(1, PFX)
        # 2 < 3 on router id anyway; age decides first and keeps it.
        assert after.as_path.sequence() == (2, 8)
        from repro.bgp import DecisionStep

        assert sim.decision_step(1, PFX) in (
            DecisionStep.ROUTE_AGE,
            DecisionStep.ROUTER_ID,
        )

    def test_selective_export_blocks_neighbor(self):
        graph = _graph(
            (1, 4, Relationship.CUSTOMER),
            (2, 4, Relationship.CUSTOMER),
        )
        policies = {4: Policy(asn=4, selective_export={PFX: frozenset({1})})}
        sim = BGPSimulator(graph, policies=policies)
        sim.originate(4, PFX)
        assert sim.best_route(1, PFX) is not None
        assert sim.best_route(2, PFX) is None


def _partial_transit():
    """AS10 sells AS20 partial transit; AS30 is a full-transit customer,
    AS40 a peer and AS50 AS10's provider."""
    graph = _graph(
        (10, 20, Relationship.CUSTOMER),
        (10, 30, Relationship.CUSTOMER),
        (10, 40, Relationship.PEER),
        (50, 10, Relationship.CUSTOMER),
    )
    return BGPSimulator(graph, policies={10: Policy(asn=10, partial_transit_to={20})})


class TestPartialTransit:
    CUSTOMER_PFX = Prefix.parse("203.0.113.0/24")
    PEER_PFX = Prefix.parse("192.0.2.0/24")
    PROVIDER_PFX = Prefix.parse("198.18.0.0/24")

    def test_customer_gets_customer_and_peer_routes_only(self):
        sim = _partial_transit()
        sim.originate(30, self.CUSTOMER_PFX)
        sim.originate(40, self.PEER_PFX)
        sim.originate(50, self.PROVIDER_PFX)
        assert sim.forwarding_path(20, self.CUSTOMER_PFX) == (20, 10, 30)
        assert sim.forwarding_path(20, self.PEER_PFX) == (20, 10, 40)
        assert sim.best_route(10, self.PROVIDER_PFX).learned_from == 50
        assert sim.best_route(20, self.PROVIDER_PFX) is None
        assert 20 not in sim.speakers[10].advertised(self.PROVIDER_PFX)
        # The restriction is per customer: AS30 buys full transit.
        assert sim.forwarding_path(30, self.PROVIDER_PFX) == (30, 10, 50)

    def test_withdrawn_when_best_turns_provider_learned(self):
        sim = _partial_transit()
        sim.originate(40, PFX)
        sim.originate(50, PFX)
        assert sim.best_route(10, PFX).learned_from == 40  # peer over provider
        assert sim.forwarding_path(20, PFX) == (20, 10, 40)
        customer = sim.speakers[20]
        receive = customer.receive
        delivered = []

        def recording(message, clock, country_of=None):
            delivered.append(message)
            return receive(message, clock, country_of)

        customer.receive = recording
        sim.withdraw(40, PFX)  # AS50 still originates: event-driven
        assert sim.best_route(10, PFX).learned_from == 50
        assert delivered == [Withdrawal(prefix=PFX, sender=10)]
        assert sim.best_route(20, PFX) is None
        assert sim.forwarding_path(30, PFX) == (30, 10, 50)


class TestConvergenceFailure:
    """The event budget, and what a failed or interrupted run leaves."""

    def test_convergence_error_carries_context(self):
        sim = BGPSimulator(_contested_graph(), max_events_per_link=1)
        with pytest.raises(ConvergenceError) as excinfo:
            sim.originate(6, PFX)
        error = excinfo.value
        assert error.prefix == PFX
        assert error.epoch == 1
        assert error.delivered == 4  # the whole budget was spent
        assert str(PFX) in str(error)

    def test_clock_is_exact_when_a_limit_fires(self):
        """The run loop keeps the clock in a local: the caller of a
        failed run still reads one tick per delivered message."""
        sim = BGPSimulator(_contested_graph(), max_events_per_link=1)
        with pytest.raises(ConvergenceError) as excinfo:
            sim.originate(6, PFX)
        assert sim.clock == excinfo.value.delivered == 4

    def test_delivered_counts_runs_apart_from_the_clock(self):
        """Each run adds what it delivered, a failed one included."""
        sim = BGPSimulator(_chain())
        sim.originate(4, PFX)
        assert sim.delivered == sim.clock == 3
        failing = BGPSimulator(_contested_graph(), max_events_per_link=1)
        with pytest.raises(ConvergenceError) as excinfo:
            failing.originate(6, PFX)
        assert failing.delivered == excinfo.value.delivered == 4

    @pytest.mark.parametrize("how", FAILURES)
    def test_a_failed_run_clears_its_tail(self, how):
        """The queue is empty on every exit of a run: the undelivered
        tail is dropped, the delivered messages' routes stay, and the
        prefix's state is unknown."""
        sim = _failed_origination(how)
        assert sim.in_flight() == 0
        assert sim.rib_dump(PFX)
        assert sim._states.node(PFX) is None

    def test_epoch_counts_origination_changes(self):
        sim = BGPSimulator(_chain())
        assert sim.epoch == 0
        sim.originate(4, PFX)
        assert sim.epoch == 1
        sim.withdraw(4, PFX)
        assert sim.epoch == 2


class TestWithdrawReset:
    """A sole-origin withdrawal copies the empty state."""

    OTHER = Prefix.parse("203.0.113.0/24")

    def _diamond(self):
        """Origin 4 under providers 2 and 3, both customers of 1."""
        return _graph(
            (1, 2, Relationship.CUSTOMER),
            (1, 3, Relationship.CUSTOMER),
            (2, 4, Relationship.CUSTOMER),
            (3, 4, Relationship.CUSTOMER),
            (2, 3, Relationship.PEER),
        )

    def test_no_speaker_keeps_any_table_for_the_prefix(self):
        sim = BGPSimulator(self._diamond())
        sim.originate(4, PFX)
        sim.originate(4, PFX, poisoned={2})
        assert sim.speakers[1].advertised(PFX)
        sim.withdraw(4, PFX)
        for speaker in sim.speakers.values():
            assert speaker.best(PFX) is None
            assert speaker.candidates(PFX) == []
            assert speaker.decision_step(PFX) is None
            assert speaker.advertised(PFX) == {}

    def test_epoch_advances_damping_resets_and_the_clock_stays(self):
        """The reset is one epoch that delivers nothing: neither the
        clock nor the delivered count moves."""
        sim = BGPSimulator(self._diamond())
        sim.originate(4, PFX)
        clock, epoch, delivered = sim.clock, sim.epoch, sim.delivered
        sim.withdraw(4, PFX)
        assert sim.epoch == epoch + 1
        assert (sim.clock, sim.delivered) == (clock, delivered)
        # Routes learned after the reset are younger than any before.
        sim.originate(4, PFX)
        assert all(
            route.age > clock
            for speaker in sim.speakers.values()
            for route in speaker.candidates(PFX)
            if route.learned_from != speaker.asn
        )

    def test_other_prefixes_untouched(self):
        sim = BGPSimulator(self._diamond())
        sim.originate(1, self.OTHER)
        sim.originate(4, PFX)
        before = sim.rib_dump(self.OTHER)
        steps = {asn: sim.decision_step(asn, self.OTHER) for asn in before}
        advertised = {
            asn: speaker.advertised(self.OTHER)
            for asn, speaker in sim.speakers.items()
        }
        sim.withdraw(4, PFX)
        assert sim.rib_dump(self.OTHER) == before
        assert {
            asn: sim.decision_step(asn, self.OTHER) for asn in before
        } == steps
        assert {
            asn: speaker.advertised(self.OTHER)
            for asn, speaker in sim.speakers.items()
        } == advertised

    def test_reset_matches_event_driven_delivery(self):
        sim = BGPSimulator(self._diamond())
        sim.originate(4, PFX)
        oracle = BGPSimulator(self._diamond())
        oracle.originate(4, PFX)
        sim.withdraw(4, PFX)
        oracle._withdraw_by_events(4, PFX)
        assert oracle.clock > sim.clock
        for asn, speaker in sim.speakers.items():
            reference = oracle.speakers[asn]
            assert speaker.candidates(PFX) == reference.candidates(PFX) == []
            assert speaker.advertised(PFX) == reference.advertised(PFX) == {}
        sim.originate(4, PFX)
        oracle.originate(4, PFX)
        for asn in sim.speakers:
            mine, theirs = sim.best_route(asn, PFX), oracle.best_route(asn, PFX)
            assert mine.aged(0) == theirs.aged(0)
            assert sim.decision_step(asn, PFX) == oracle.decision_step(asn, PFX)

    def test_withdrawing_an_unannounced_prefix_is_a_no_op(self):
        sim = BGPSimulator(_chain())
        sim.withdraw(4, PFX)
        assert sim.epoch == 0
        assert sim.rib_dump(PFX) == {}

    @pytest.mark.parametrize("how", FAILURES)
    def test_after_a_failed_run_the_reset_copies(self, how):
        """The sole origin's withdrawal after a failed run copies the
        empty state: epoch +1, clock unchanged, no record anywhere, one
        withdrawal copy counted, and the prefix is known (empty) again."""
        sim = _failed_origination(how)
        clock, epoch, reused = sim.clock, sim.epoch, sim.reused
        with using(Observability()) as obs:
            sim.withdraw(6, PFX)
        assert (sim.clock, sim.epoch, sim.reused) == (clock, epoch + 1, reused + 1)
        assert all(speaker.record(PFX) is None for speaker in sim.speakers.values())
        counters = obs.metrics.snapshot()["counters"]
        assert counters["bgp_convergences_reused_total"]["series"] == {
            'kind="withdraw"': 1.0
        }
        assert sim._states.node(PFX) is sim._states.root


def _tail_graph():
    """Origin 2 under provider 1 and over customer 3; 1 and 3 peer and
    both sell transit to 4.  AS3 first takes its provider route via 2,
    then the peer route via 1, so it tells AS4 twice while its first
    update is still queued."""
    return _graph(
        (1, 2, Relationship.CUSTOMER),
        (2, 3, Relationship.CUSTOMER),
        (1, 3, Relationship.PEER),
        (1, 4, Relationship.CUSTOMER),
        (3, 4, Relationship.CUSTOMER),
    )


def _deliveries_to(sim, asn):
    """The messages ``asn``'s speaker receives from now on, in order."""
    speaker = sim.speakers[asn]
    receive = speaker.receive
    delivered = []

    def recording(message, clock, country_of=None):
        delivered.append(message)
        return receive(message, clock, country_of)

    speaker.receive = recording
    return delivered


class TestQueueCoalescing:
    """A session delivers only its newest queued update for a prefix."""

    OTHER = Prefix.parse("203.0.113.0/24")

    def test_only_the_newer_of_two_queued_updates_is_delivered(self):
        sim = BGPSimulator(_graph((1, 2, Relationship.CUSTOMER)))
        delivered = _deliveries_to(sim, 1)
        older = Announcement(PFX, ASPathAttribute((2,)), 2)
        newer = Announcement(PFX, ASPathAttribute((2, 2)), 2)
        sim._queue.extend([(1, older), (1, newer)])
        assert sim.run() == 1
        assert sim.clock == 1  # the dropped update advanced nothing
        assert delivered == [newer]
        assert sim.best_route(1, PFX).as_path == newer.as_path
        assert sim.best_route(1, PFX).age == 1

    def test_other_senders_prefixes_and_receivers_are_never_merged(self):
        sim = BGPSimulator(
            _graph((1, 2, Relationship.CUSTOMER), (1, 3, Relationship.CUSTOMER))
        )
        to_1, to_2, to_3 = (_deliveries_to(sim, asn) for asn in (1, 2, 3))
        from_2 = Announcement(PFX, ASPathAttribute((2,)), 2)
        from_3 = Announcement(PFX, ASPathAttribute((3,)), 3)
        other_prefix = Announcement(self.OTHER, ASPathAttribute((2,)), 2)
        from_1 = Announcement(PFX, ASPathAttribute((1,)), 1)
        sim._queue.extend(
            [(2, from_1), (3, from_1), (1, from_2), (1, from_3), (1, other_prefix)]
        )
        sim.run()
        assert to_1 == [from_2, from_3, other_prefix]
        assert to_2[0] is from_1 and to_3[0] is from_1

    def test_a_superseded_update_is_dropped_within_a_run(self):
        sim = BGPSimulator(_tail_graph())
        delivered = _deliveries_to(sim, 4)
        sim.originate(2, PFX)
        from_3 = [message for message in delivered if message.sender == 3]
        assert [message.as_path.sequence() for message in from_3] == [(3, 1, 2)]
        assert sim.forwarding_path(4, PFX) == (4, 1, 2)


class TestSimulatorMisc:
    def test_unknown_asn_raises(self):
        sim = BGPSimulator(_chain())
        with pytest.raises(KeyError):
            sim.originate(99, PFX)

    def test_rib_dump_and_reachable(self):
        sim = BGPSimulator(_chain())
        sim.originate(4, PFX)
        dump = sim.rib_dump(PFX)
        assert set(dump) == {1, 2, 3, 4}
        assert sim.reachable_ases(PFX) == frozenset({1, 2, 3, 4})

    def test_forwarding_path_none_without_route(self):
        sim = BGPSimulator(_chain())
        assert sim.forwarding_path(1, PFX) is None

    def test_deterministic_convergence(self):
        graph = _graph(
            (1, 2, Relationship.CUSTOMER),
            (1, 3, Relationship.CUSTOMER),
            (2, 4, Relationship.CUSTOMER),
            (3, 4, Relationship.CUSTOMER),
            (2, 3, Relationship.PEER),
        )
        paths = set()
        for _ in range(3):
            sim = BGPSimulator(graph)
            sim.originate(4, PFX)
            paths.add(sim.forwarding_path(1, PFX))
        assert len(paths) == 1

    def test_reannouncing_same_prefix_is_stable(self):
        sim = BGPSimulator(_chain())
        sim.originate(4, PFX)
        before = sim.forwarding_path(1, PFX)
        sim.originate(4, PFX)  # no-op re-announcement
        assert sim.forwarding_path(1, PFX) == before
