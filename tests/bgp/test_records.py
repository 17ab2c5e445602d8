"""One object per routing record.

A speaker's record for a prefix is its Adj-RIB-In (a ``dict`` of
neighbor ASN -> route) whose slots hold the rest.  No per-neighbor
export table is kept: one slot, ``told``, holds the route the
neighbors last heard (or the origination's exported path and prefix
inputs), ``None`` while the record tells no neighbor, and each
neighbor's export is derived from it.  On a fresh simulator converged
over the small study's world, this module holds the layout to that,
copies to owning their routes, and the speaker to calling the policy's
import rule only where the rule can move a route's local preference.
"""

import copy

import pytest

from repro.bgp import BGPSimulator, Policy
from repro.bgp.attributes import ASPathAttribute
from repro.bgp.communities import entry_class_community, read_entry_class
from repro.bgp.messages import Announcement, Withdrawal
from repro.bgp.speaker import BGPSpeaker, _PrefixState
from repro.check.oracles import oracle_export, oracle_stable_faults
from repro.net.ip import Prefix
from repro.topology import ASGraph, Relationship


@pytest.fixture(scope="module")
def world(study):
    """(simulator, prefixes, import-rule calls as (policy, inputs)):
    every destination prefix of the study converged afresh."""
    internet = study.internet
    simulator = BGPSimulator(
        internet.graph, policies=internet.policies, country_of=internet.country_of
    )
    calls = []
    rule = Policy.import_local_pref

    def recorded(policy, neighbor, session_pref, inputs, as_path, country_of=None):
        calls.append((policy, inputs))
        return rule(policy, neighbor, session_pref, inputs, as_path, country_of)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Policy, "import_local_pref", recorded)
        for prefix, origin in study.origins.items():
            simulator.originate(origin, prefix)
    return simulator, list(study.origins), calls


def _records(simulator, prefixes):
    for speaker in simulator.speakers.values():
        for prefix in prefixes:
            record = speaker.record(prefix)
            if record is not None:
                yield speaker, prefix, record


class TestLayout:
    def test_each_record_is_its_adj_rib_in(self, world):
        simulator, prefixes, _ = world
        for prefix in prefixes:
            assert oracle_stable_faults(simulator, prefix) == []
        held = 0
        for speaker, prefix, record in _records(simulator, prefixes):
            assert not hasattr(record, "__dict__")
            learned = [
                route
                for route in speaker.candidates(prefix)
                if route is not record.self_route
            ]
            assert record == {route.learned_from: route for route in learned}
            assert set(record) <= set(speaker.neighbors)
            held += len(record)
        assert held > 0

    def test_an_export_table_only_while_telling_a_neighbor(self, world):
        """``told`` is ``None`` exactly while the record tells no
        neighbor; otherwise it is the Loc-RIB route the neighbors heard,
        or the origination's exported path and prefix inputs."""
        simulator, prefixes, _ = world
        assert "told" in _PrefixState.__slots__
        assert "advertised" not in _PrefixState.__slots__
        silent = learned = originated = 0
        for speaker, prefix, record in _records(simulator, prefixes):
            told = speaker.advertised(prefix)
            if record.told is None:
                assert told == {}
                silent += 1
                continue
            assert told
            if record.local is None:
                assert record.told == record.best
                learned += 1
            else:
                assert record.told == (
                    record.local.exported_path(),
                    speaker.policy.prefix_inputs(prefix),
                )
                originated += 1
        assert silent > 0 and learned > 0 and originated > 0

    def test_no_export_table_after_forget(self, study):
        """The sole origin's withdrawal forgets the prefix everywhere:
        it copies the empty state, so no record and no export table is
        left, the origin's included."""
        internet = study.internet
        simulator = BGPSimulator(internet.graph, policies=internet.policies)
        prefix, origin = next(iter(study.origins.items()))
        simulator.originate(origin, prefix)
        assert any(speaker.advertised(prefix) for speaker in simulator.speakers.values())
        simulator.withdraw(origin, prefix)
        assert list(_records(simulator, [prefix])) == []
        for speaker in simulator.speakers.values():
            assert speaker.advertised(prefix) == {}


class TestCopies:
    def test_a_copy_owns_its_routes_and_export_table(self, world):
        simulator, prefixes, _ = world
        record = max(
            (
                record
                for _, _, record in _records(simulator, prefixes)
                if record.told is not None
            ),
            key=len,
        )
        routes, told = dict(record), record.told
        twin = record.copy_for(prefixes[0])
        assert twin == record and twin.told is told
        assert (twin.best, twin.step) == (record.best, record.step)
        twin.clear()
        twin.told = None
        assert dict(record) == routes and record.told is told

    def test_a_deep_copy_keeps_every_route_and_slot(self, world):
        simulator, prefixes, _ = world
        speaker = max(
            simulator.speakers.values(),
            key=lambda s: sum(len(s.record(p) or ()) for p in prefixes),
        )
        fork = copy.deepcopy(speaker)
        for prefix in prefixes:
            record, copied = speaker.record(prefix), fork.record(prefix)
            if record is None:
                assert copied is None
                continue
            assert type(copied) is type(record) and copied is not record
            assert list(copied.items()) == list(record.items())
            for name in _PrefixState.__slots__:
                assert getattr(copied, name) == getattr(record, name), name
            assert fork.advertised(prefix) == speaker.advertised(prefix)


class TestImportRule:
    def test_called_only_for_an_override_or_a_domestic_preference(self, world):
        """A speaker whose policy has no domestic preference (or no home
        country) imports a prefix with no local-preference override at
        the session's preference, without calling the rule."""
        simulator, prefixes, calls = world
        assert calls
        for policy, inputs in calls:
            assert inputs.local_pref or (
                policy.prefers_domestic and policy.home_country
            ), policy.asn
        assert any(inputs.local_pref for _, inputs in calls)
        assert any(policy.prefers_domestic for policy, _ in calls)
        plain = [
            record
            for speaker, prefix, record in _records(simulator, prefixes)
            if not (speaker.policy.prefers_domestic and speaker.policy.home_country)
            and not speaker.policy.prefix_inputs(prefix).local_pref
        ]
        assert sum(map(len, plain)) > 0


PFX = Prefix.parse("198.51.100.0/24")


def _anycast_graph():
    """AS10 is the provider of AS20 and AS30, and AS20 of AS50; AS20
    and AS40 are siblings; AS30 and AS40 peer."""
    graph = ASGraph()
    graph.add_link(10, 20, Relationship.CUSTOMER)
    graph.add_link(10, 30, Relationship.CUSTOMER)
    graph.add_link(20, 50, Relationship.CUSTOMER)
    graph.add_link(20, 40, Relationship.SIBLING)
    graph.add_link(30, 40, Relationship.PEER)
    return graph


@pytest.fixture
def passes(monkeypatch):
    """Every export pass: (speaker, prefix, what each neighbor heard
    before, what it hears after, the updates the pass returned)."""
    seen = []
    real = BGPSpeaker.exports

    def recorded(self, prefix, state=None):
        before = self.advertised(prefix)
        updates = real(self, prefix, state)
        seen.append((self, prefix, before, self.advertised(prefix), updates))
        return updates

    monkeypatch.setattr(BGPSpeaker, "exports", recorded)
    return seen


def _assert_exports_are_the_oracles(simulator, prefix, passes):
    """Every speaker's derived exports are the oracle's, neighbor by
    neighbor, and every pass so far sent exactly the updates a stored
    per-neighbor table would have: one per changed neighbor, in
    ascending-ASN order."""
    assert oracle_stable_faults(simulator, prefix) == []
    for asn, speaker in simulator.speakers.items():
        origination = speaker.origination(prefix)
        poisoned = frozenset() if origination is None else origination.poisoned
        expected = {}
        for neighbor in speaker.neighbors:
            export = oracle_export(
                speaker.policy,
                speaker.neighbors,
                prefix,
                speaker.best(prefix),
                neighbor,
                poisoned,
            )
            if export is not None:
                expected[neighbor] = export
        assert speaker.advertised(prefix) == expected, f"AS{asn}"
    assert passes
    for speaker, prefix, before, after, updates in passes:
        owed = []
        for neighbor in sorted(speaker.neighbors):
            if before.get(neighbor) == after.get(neighbor):
                continue
            if neighbor not in after:
                owed.append((neighbor, Withdrawal(prefix=prefix, sender=speaker.asn)))
            else:
                path, communities = after[neighbor]
                owed.append(
                    (neighbor, Announcement(prefix, path, speaker.asn, communities))
                )
        assert updates == owed, f"AS{speaker.asn}"
    passes.clear()


class TestDerivedExports:
    def test_origin_to_learned_and_back(self, passes):
        """An anycast origin that withdraws while another origin holds
        the prefix goes from telling its origination to telling a
        learned route, and back when it re-originates."""
        simulator = BGPSimulator(_anycast_graph())
        speaker = simulator.speakers[20]
        simulator.originate(30, PFX)
        simulator.originate(20, PFX)
        assert type(speaker.record(PFX).told) is tuple
        _assert_exports_are_the_oracles(simulator, PFX, passes)
        simulator.withdraw(20, PFX)
        told = speaker.record(PFX).told
        assert told is speaker.best(PFX) and told.learned_from == 40
        assert set(speaker.advertised(PFX)) == {50}
        _assert_exports_are_the_oracles(simulator, PFX, passes)
        simulator.originate(20, PFX)
        assert type(speaker.record(PFX).told) is tuple
        _assert_exports_are_the_oracles(simulator, PFX, passes)

    def test_a_sibling_session_hears_a_tagged_export(self, passes):
        """AS40 tells its sibling AS20 AS30's peer route tagged with its
        entry class, and its other neighbors nothing."""
        simulator = BGPSimulator(_anycast_graph())
        simulator.originate(30, PFX)
        _assert_exports_are_the_oracles(simulator, PFX, passes)
        heard = simulator.speakers[40].advertised(PFX)
        assert set(heard) == {20}
        assert read_entry_class(heard[20][1]) is Relationship.PEER

    def test_an_origin_whose_export_policy_changes(self, passes):
        """The origin's selective export and prepends change between
        convergences: what its neighbors heard is derived from the
        inputs it exported under, not the ones loaded now."""
        policy = Policy(
            asn=20,
            selective_export={PFX: frozenset({10})},
            export_prepend={(PFX, 10): 2},
        )
        simulator = BGPSimulator(_anycast_graph(), policies={20: policy})
        simulator.originate(20, PFX)
        assert set(simulator.speakers[20].advertised(PFX)) == {10}
        _assert_exports_are_the_oracles(simulator, PFX, passes)
        policy.selective_export[PFX] = frozenset({10, 40})
        policy.export_prepend = {(PFX, 40): 1}
        simulator.originate(20, PFX)
        heard = simulator.speakers[20].advertised(PFX)
        assert set(heard) == {10, 40} and heard[10][0].segments == (20,)
        _assert_exports_are_the_oracles(simulator, PFX, passes)
        policy.selective_export[PFX] = frozenset()
        simulator.originate(20, PFX)
        assert simulator.speakers[20].record(PFX).told is None
        _assert_exports_are_the_oracles(simulator, PFX, passes)

    def test_an_unchanged_export_is_not_announced_again(self, passes):
        """A neighbor replaces its route with one that differs only in
        an org-internal tag, which the speaker strips: its other
        neighbors heard that export already and hear nothing new."""
        speaker = BGPSpeaker(
            1,
            Policy(asn=1),
            {2: Relationship.CUSTOMER, 3: Relationship.CUSTOMER, 4: Relationship.PEER},
        )
        path = ASPathAttribute((2, 9))
        tagged = frozenset({entry_class_community(2, Relationship.CUSTOMER)})
        for clock, communities in enumerate((tagged, frozenset()), start=1):
            record = speaker.receive(Announcement(PFX, path, 2, communities), clock)
            assert record is not None
            speaker.exports(PFX, record)
        (_, _, _, first, sent), (_, _, before, after, resent) = passes
        assert set(first) == {3, 4} and len(sent) == 2
        assert before == after == first and resent == []
        passes.clear()

    def test_partial_transit_is_read_when_the_speaker_is_built(self, passes):
        """What a record told is derived from the partial-transit
        customers as the speaker read them when it was built: a later
        edit of the policy moves neither the derivation nor the next
        export pass."""
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.CUSTOMER)
        graph.add_link(2, 3, Relationship.CUSTOMER)
        policy = Policy(asn=2, partial_transit_to={3})
        simulator = BGPSimulator(graph, policies={2: policy})
        simulator.originate(1, PFX)
        _assert_exports_are_the_oracles(simulator, PFX, passes)
        speaker = simulator.speakers[2]
        assert speaker.advertised(PFX) == {}
        policy.partial_transit_to.clear()
        assert speaker.advertised(PFX) == {}
        assert speaker.exports(PFX) == []
