"""Converged-state reuse: twins, snapshots, unknown states.

Every reuse is held to event delivery: a reference simulator converges
the same originations with :meth:`BGPSimulator._originate_by_events`,
and every speaker's tables must match, ages compared by order.
"""

import copy

import pytest

from repro.bgp import BGPSimulator, Policy
from repro.bgp.routes import LocalRoute
from repro.bgp.simulator import ConvergenceError
from repro.check.differential import _rib_state
from repro.net.ip import Prefix
from repro.topology import ASGraph, Relationship

P, Q, R = (Prefix.parse(f"198.51.{index}.0/24") for index in range(3))


def _world():
    """Origin 4 multi-homed below 3 and 6; 5 a second origin under 1."""
    graph = ASGraph()
    for a, b, rel in (
        (1, 2, Relationship.PEER),
        (1, 3, Relationship.CUSTOMER),
        (2, 3, Relationship.CUSTOMER),
        (2, 6, Relationship.CUSTOMER),
        (3, 4, Relationship.CUSTOMER),
        (6, 4, Relationship.CUSTOMER),
        (1, 5, Relationship.CUSTOMER),
    ):
        graph.add_link(a, b, rel)
    return graph


def _pair(graph=None, policies=None, **kwargs):
    """A production simulator and an event-delivery reference."""
    graph = graph or _world()
    return (
        BGPSimulator(graph, policies=policies, **kwargs),
        BGPSimulator(graph, policies=policies, **kwargs),
    )


def _same(production, reference, *prefixes):
    for prefix in prefixes:
        assert _rib_state(production, prefix) == _rib_state(reference, prefix)
    assert production.damped_ases() == reference.damped_ases()
    assert (production.clock, production.epoch) == (reference.clock, reference.epoch)


class TestTwins:
    def test_twin_copies_the_state_without_delivering(self):
        sim = BGPSimulator(_world())
        sim.originate(4, P)
        delivered = sim.clock
        sim.originate(4, Q)
        assert sim.reused == 1
        assert (sim.clock, sim.epoch) == (2 * delivered, 2)
        for speaker in sim.speakers.values():
            assert speaker.best(Q) is speaker.best(P)  # routes are shared
            assert speaker.advertised(Q) == speaker.advertised(P)
        assert sim.speakers[4].origination(Q) == LocalRoute(prefix=Q, origin_asn=4)

    def test_twin_matches_event_delivery(self):
        production, reference = _pair()
        for prefix in (P, Q, R):
            production.originate(4, prefix)
            reference._originate_by_events(4, prefix)
            _same(production, reference, P, Q, R)
        assert production.reused == 2 and reference.reused == 0

    @pytest.mark.parametrize(
        "policy",
        [
            Policy(asn=4, selective_export={Q: frozenset({3})}),
            Policy(asn=4, export_prepend={(Q, 6): 2}),
            Policy(asn=1, prefix_local_pref={(3, Q): 50}),
        ],
        ids=["selective-export", "prepend", "local-pref"],
    )
    def test_unequal_prefix_inputs_converge_by_events(self, policy):
        production, reference = _pair(policies={policy.asn: policy})
        for prefix in (P, Q):
            production.originate(4, prefix)
            reference._originate_by_events(4, prefix)
        assert production.reused == 0
        _same(production, reference, P, Q)

    def test_changing_the_copy_leaves_the_source_alone(self):
        production, reference = _pair()
        for prefix, poisoned in ((P, ()), (Q, ()), (Q, (3,)), (P, (6,))):
            production.originate(4, prefix, poisoned)
            reference._originate_by_events(4, prefix, poisoned)
            _same(production, reference, P, Q)
        assert production.reused == 1


class TestSnapshots:
    def test_kept_once_a_state_reached_twice_loses_its_last_holder(self):
        production, reference = _pair()
        snapshots = []
        for _ in range(3):
            for sim in (production, reference):
                sim.withdraw(4, P)
            production.originate(4, P)
            reference._originate_by_events(4, P)
            _same(production, reference, P)
            production.originate(4, P, (3,))
            reference._originate_by_events(4, P, (3,))
            _same(production, reference, P)
            snapshots.append(production._states.snapshots())
        # Baseline and poison round: delivered twice, then copied.
        assert snapshots == [0, 1, 2]
        assert production.reused == 2

    def test_restores_damping_and_replays_the_soft_limit(self):
        graph = ASGraph()
        for a, b, rel in (
            (1, 2, Relationship.PEER),
            (2, 4, Relationship.CUSTOMER),
            (1, 6, Relationship.CUSTOMER),
            (6, 4, Relationship.CUSTOMER),
        ):
            graph.add_link(a, b, rel)
        production, reference = _pair(graph, flap_limit=1, soft_limit_fraction=0.001)
        warnings = {production: [], reference: []}
        for sim in (production, reference):
            sim.on_soft_limit = lambda *args, sim=sim: warnings[sim].append(args)
        for prefix in (P, Q):
            production.originate(4, prefix)
            reference._originate_by_events(4, prefix)
            _same(production, reference, P, Q)
        assert production.reused == 1
        assert production.damped_ases() == {1: frozenset({Q})}
        assert warnings[production] == warnings[reference] != []


class TestUnknownStates:
    def _twin_ready(self):
        sim = BGPSimulator(_world())
        sim.originate(4, Q)  # holds the state P would reach
        return sim

    def _assert_unknown_until_reset(self, sim):
        assert sim._states.node(P) is None
        reused = sim.reused
        sim.originate(4, P)
        assert sim.reused == reused and sim._states.node(P) is None
        sim.withdraw(4, P)  # sole origin: the reset makes it known again
        sim.originate(4, P)
        assert sim.reused == reused + 1

    def test_after_a_fallback_withdrawal(self):
        sim = self._twin_ready()
        sim.originate(4, P)
        sim.originate(5, P)
        sim.withdraw(5, P)  # AS4 still originates: by events
        self._assert_unknown_until_reset(sim)

    def _fail_to_converge(self, sim):
        budget, sim._max_events = sim._max_events, 1
        with pytest.raises(ConvergenceError):
            sim.originate(4, P, (6,))  # a new state: delivered by events
        sim._max_events = budget

    def test_after_a_convergence_error_and_with_messages_in_flight(self):
        sim = self._twin_ready()
        self._fail_to_converge(sim)
        sim.originate(4, R)  # delivered together with P's leftovers
        assert sim._states.node(R) is None
        assert sim.discard_pending() == 0
        self._assert_unknown_until_reset(sim)

    def test_after_discard_pending(self):
        sim = self._twin_ready()
        self._fail_to_converge(sim)
        assert sim.discard_pending() > 0
        self._assert_unknown_until_reset(sim)

    def test_a_deep_copy_knows_no_state(self):
        sim = BGPSimulator(_world())
        for _ in range(2):
            sim.withdraw(4, P)
            sim.originate(4, P)
            sim.originate(4, P, (3,))
        sim.originate(4, Q)
        assert sim._states.snapshots() == 1
        fork = copy.deepcopy(sim)
        assert fork._states.node(Q) is None and fork._states.node(P) is None
        assert fork._states.node(R) is fork._states.root  # never announced
        assert fork._states.snapshots() == 0
        assert sim._states.node(Q) is not None
