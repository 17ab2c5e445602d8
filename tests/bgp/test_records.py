"""One object per routing record.

A speaker's record for a prefix is its Adj-RIB-In (a ``dict`` of
neighbor ASN -> route) whose slots hold the rest, and what each
neighbor was last told is a list kept by session position, present
only while the record tells some neighbor something.  On a fresh
simulator converged over the small study's world, this module holds
the layout to that, copies to owning their tables, and the speaker to
calling the policy's import rule only where the rule can move a
route's local preference.
"""

import copy

import pytest

from repro.bgp import BGPSimulator, Policy
from repro.bgp.speaker import _PrefixState
from repro.check.oracles import oracle_stable_faults


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
        simulator, prefixes, _ = world
        silent = telling = 0
        for speaker, prefix, record in _records(simulator, prefixes):
            told = speaker.advertised(prefix)
            if record.advertised is None:
                assert told == {}
                silent += 1
                continue
            assert len(record.advertised) == len(speaker.neighbors)
            assert told == {
                neighbor: export
                for neighbor, export in zip(sorted(speaker.neighbors), record.advertised)
                if export is not None
            }
            assert told
            telling += 1
        assert silent > 0 and telling > 0

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
                if record.advertised is not None
            ),
            key=len,
        )
        routes, told = dict(record), list(record.advertised)
        twin = record.copy_for(prefixes[0])
        assert twin == record and twin.advertised == told
        assert (twin.best, twin.step) == (record.best, record.step)
        twin.clear()
        twin.advertised[:] = [None] * len(told)
        assert dict(record) == routes and record.advertised == told

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
