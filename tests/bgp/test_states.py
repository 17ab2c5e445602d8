"""Converged-state reuse: twins, snapshots, unknown states, shared records.

Every reuse is held to event delivery: a reference simulator converges
the same originations with :meth:`BGPSimulator._originate_by_events`,
and every speaker's tables must match, ages compared by order.
"""

import copy

import pytest

from repro.bgp import BGPSimulator, Policy
from repro.bgp.routes import LocalRoute
from repro.bgp.simulator import ConvergenceError
from repro.bgp.speaker import _PrefixState
from repro.check.differential import _BASE_PFX, _TWIN_PFX, _fork, _rib_state
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
    assert (production.clock, production.epoch) == (reference.clock, reference.epoch)


class TestTwins:
    def test_twin_copies_the_state_without_delivering(self):
        sim = BGPSimulator(_world())
        sim.originate(4, P)
        delivered = sim.clock
        sim.originate(4, Q)
        assert sim.reused == 1
        assert (sim.clock, sim.epoch) == (2 * delivered, 2)
        assert sim.delivered == delivered  # the copy delivered nothing
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
        # Baseline and poison round: delivered twice, then copied; the
        # two resets copy the empty state.
        assert snapshots == [0, 1, 2]
        assert production.reused == 4


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
        sim.withdraw(4, P)  # sole origin: copying the empty state makes it known
        sim.originate(4, P)
        assert sim.reused == reused + 2

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

    def test_after_a_convergence_error(self):
        sim = self._twin_ready()
        self._fail_to_converge(sim)
        assert sim.in_flight() == 0
        self._assert_unknown_until_reset(sim)

    def test_after_an_interrupted_run(self):
        sim = self._twin_ready()

        def interrupted(message, clock, country_of=None):
            raise KeyboardInterrupt

        sim.speakers[3].receive = interrupted  # AS3 hears first, AS6 waits
        with pytest.raises(KeyboardInterrupt):
            sim.originate(4, P, (6,))
        del sim.speakers[3].receive
        assert sim.in_flight() == 0
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


@pytest.fixture
def copies(monkeypatch):
    """The records :meth:`_PrefixState.copy_for` copies, as a list."""
    made = []
    copy_for = _PrefixState.copy_for

    def counted(record, prefix):
        made.append(record)
        return copy_for(record, prefix)

    monkeypatch.setattr(_PrefixState, "copy_for", counted)
    return made


def _fresh(*originations):
    """A simulator that delivered ``originations`` by events, from empty."""
    reference = BGPSimulator(_world())
    for prefix, poisoned in originations:
        reference._originate_by_events(4, prefix, poisoned)
    return reference


class TestSharedRecords:
    def test_a_twin_holds_the_holders_records_but_copies_its_origination(self):
        sim = BGPSimulator(_world())
        sim.originate(4, P)
        sim.originate(4, Q)
        assert sim.reused == 1
        for asn, speaker in sim.speakers.items():
            twin, holder = speaker.record(Q), speaker.record(P)
            if asn == 4:
                assert twin is not holder and twin.local.prefix == Q
                assert dict(twin) == dict(holder) and twin.best is holder.best
            else:
                assert twin is holder is not None

    def test_a_twin_copies_its_shared_records_once_before_delivery(self, copies):
        sim = BGPSimulator(_world())
        sim.originate(4, P)
        sim.originate(4, Q)
        (origination,) = copies
        assert origination is sim.speakers[4].record(P)
        copies.clear()
        shared = [s.record(Q) for s in sim.speakers.values() if s.asn != 4]
        sim.originate(4, Q, (3,))
        assert sorted(map(id, copies)) == sorted(map(id, shared))
        sim.originate(4, Q, (6,))
        assert len(copies) == len(shared)
        _same(sim, _fresh((P, ()), (Q, ()), (Q, (3,)), (Q, (6,))), P, Q)

    def test_a_deep_copy_carries_on_without_sharing(self):
        sim = BGPSimulator(_world())
        sim.originate(4, P)
        sim.originate(4, Q)
        fork = copy.deepcopy(sim)
        fork.originate(4, P, (3,))
        assert _rib_state(fork, Q) == _rib_state(sim, Q)
        sim.originate(4, P, (3,))
        for prefix in (P, Q):
            assert _rib_state(fork, prefix) == _rib_state(sim, prefix)

    def test_a_fork_leaves_production_records_alone(self):
        sim = BGPSimulator(_world())
        sim.originate(4, _BASE_PFX)
        sim.originate(4, _TWIN_PFX)
        assert sim.reused == 1
        before = [_rib_state(sim, p) for p in (_BASE_PFX, _TWIN_PFX)]
        fork = _fork(sim, 4, _BASE_PFX, frozenset({3}))
        assert _rib_state(fork, _BASE_PFX) != before[0]
        assert [_rib_state(sim, p) for p in (_BASE_PFX, _TWIN_PFX)] == before

    def test_a_snapshot_outlives_a_delivery_to_a_prefix_reusing_it(self):
        sim = BGPSimulator(_world())
        for _ in range(3):
            sim.withdraw(4, P)
            sim.originate(4, P)
            sim.originate(4, P, (3,))
        assert (sim.reused, sim._states.snapshots()) == (4, 2)
        sim.withdraw(4, P)
        sim.originate(4, P)  # reuses the baseline's snapshot
        sim.originate(4, P, (6,))  # a new state: delivered by events
        sim.withdraw(4, P)
        sim.originate(4, P)
        assert sim.reused == 8  # four copied originations, four resets
        assert _rib_state(sim, P) == _rib_state(_fresh((P, ())), P)

    def test_a_snapshot_keeps_the_last_holders_records(self, copies):
        """Nothing edits a record a prefix leaves behind, so the state's
        snapshot holds the last holder's records themselves, the
        origin's included; a prefix adopting them copies only that."""
        sim = BGPSimulator(_world())
        for _ in range(2):
            sim.withdraw(4, P)
            sim.originate(4, P)  # delivered twice: the state recurs
        held = {asn: speaker.record(P) for asn, speaker in sim.speakers.items()}
        copies.clear()
        sim.withdraw(4, P)
        assert copies == []
        (node,) = sim._states.root.children.values()
        assert node.snapshot.keys() == {a for a, r in held.items() if r is not None}
        assert all(node.snapshot[asn] is held[asn] for asn in node.snapshot)
        sim.originate(4, Q)  # copied from the snapshot
        assert copies == [held[4]]
        assert _rib_state(sim, Q) == _rib_state(_fresh((Q, ())), Q)

    def test_the_reset_of_a_shared_prefix_copies_no_record(self, copies):
        sim = BGPSimulator(_world())
        sim.originate(4, P)
        sim.originate(4, Q)
        copies.clear()
        sim.withdraw(4, Q)
        assert copies == []
        assert all(speaker.record(Q) is None for speaker in sim.speakers.values())
        assert _rib_state(sim, P) == _rib_state(_fresh((P, ())), P)
