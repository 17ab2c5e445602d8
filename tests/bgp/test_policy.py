"""Tests for per-AS routing policy."""

from dataclasses import fields

from repro.bgp import ASPathAttribute, Policy, Route
from repro.bgp.policy import (
    DEFAULT_LOCAL_PREF,
    DOMESTIC_BONUS,
    NO_PREFIX_INPUTS,
    path_accepted,
)
from repro.net.ip import Prefix
from repro.topology.relationships import Relationship

PFX = Prefix.parse("198.51.100.0/24")


def _route(learned_from, rel, path):
    return Route(
        as_path=ASPathAttribute.from_sequence(path),
        learned_from=learned_from,
        relationship=rel,
        local_pref=DEFAULT_LOCAL_PREF[rel],
    )


class TestImportFilter:
    def test_loop_prevention(self):
        policy = Policy(asn=10)
        assert not policy.accepts(ASPathAttribute.from_sequence([5, 10, 7]))
        assert policy.accepts(ASPathAttribute.from_sequence([5, 7]))

    def test_loop_prevention_sees_inside_as_sets(self):
        policy = Policy(asn=10)
        poisoned = ASPathAttribute.origin(99).with_poison_set({10}, owner=99)
        assert not policy.accepts(poisoned)

    def test_disabled_loop_prevention(self):
        policy = Policy(asn=10, loop_prevention_disabled=True)
        assert policy.accepts(ASPathAttribute.from_sequence([5, 10, 7]))

    def test_poison_filtering(self):
        policy = Policy(asn=10, filters_poisoned=True)
        poisoned = ASPathAttribute.origin(99).with_poison_set({4}, owner=99)
        assert not policy.accepts(poisoned)
        assert policy.accepts(ASPathAttribute.origin(99))

    def test_speaker_filter_is_accepts_with_the_flags_read_once(self):
        """``path_accepted``, which a speaker calls with the flags it
        read when built, decides every path as ``accepts`` does: no
        AS-set when poison is filtered, and the AS's own number nowhere
        on the path (AS-sets included) unless loop prevention is off."""
        paths = [
            ASPathAttribute.from_sequence([5, 7]),
            ASPathAttribute.from_sequence([5, 10, 7]),
            ASPathAttribute((5, frozenset({3, 4}), 5, 7)),
            ASPathAttribute((5, frozenset({10, 4}), 5, 7)),
            ASPathAttribute((10, frozenset({4}), 10)),
        ]
        for filters in (False, True):
            for no_loops in (False, True):
                policy = Policy(
                    asn=10, filters_poisoned=filters, loop_prevention_disabled=no_loops
                )
                for path in paths:
                    poisoned = any(isinstance(s, frozenset) for s in path.segments)
                    looped = 10 in path.all_asns()
                    expected = not (filters and poisoned) and (no_loops or not looped)
                    assert policy.accepts(path) is expected, (filters, no_loops, path)
                    assert path_accepted(path, 10, filters, no_loops) is expected


class TestLocalPref:
    def test_relationship_bands(self):
        policy = Policy(asn=10)
        path = ASPathAttribute.origin(9)
        assert policy.local_pref_for(1, Relationship.CUSTOMER, PFX, path) == 300
        assert policy.local_pref_for(2, Relationship.PEER, PFX, path) == 200
        assert policy.local_pref_for(3, Relationship.PROVIDER, PFX, path) == 100
        assert policy.local_pref_for(4, Relationship.SIBLING, PFX, path) == 300

    def test_neighbor_override(self):
        policy = Policy(asn=10, neighbor_local_pref={2: 350})
        path = ASPathAttribute.origin(9)
        assert policy.local_pref_for(2, Relationship.PEER, PFX, path) == 350

    def test_prefix_override_beats_neighbor_override(self):
        policy = Policy(
            asn=10,
            neighbor_local_pref={2: 350},
            prefix_local_pref={(2, PFX): 50},
        )
        path = ASPathAttribute.origin(9)
        assert policy.local_pref_for(2, Relationship.PEER, PFX, path) == 50

    def test_domestic_bonus_applied(self):
        policy = Policy(asn=10, home_country="BR", prefers_domestic=True)
        countries = {9: "BR", 8: "BR", 7: "US"}
        path_domestic = ASPathAttribute.from_sequence([8, 9])
        path_foreign = ASPathAttribute.from_sequence([8, 7, 9])
        lp_dom = policy.local_pref_for(
            2, Relationship.PEER, PFX, path_domestic, countries.get
        )
        lp_for = policy.local_pref_for(
            2, Relationship.PEER, PFX, path_foreign, countries.get
        )
        assert lp_dom == 200 + DOMESTIC_BONUS
        assert lp_for == 200

    def test_domestic_bonus_needs_flag_and_lookup(self):
        policy = Policy(asn=10, home_country="BR", prefers_domestic=False)
        path = ASPathAttribute.from_sequence([8])
        assert policy.local_pref_for(2, Relationship.PEER, PFX, path, {8: "BR"}.get) == 200

    def test_igp_cost_default_zero(self):
        policy = Policy(asn=10, igp_cost={3: 12})
        assert policy.igp_cost_for(3) == 12
        assert policy.igp_cost_for(4) == 0


class TestExportPolicy:
    def test_gao_rexford_export(self):
        policy = Policy(asn=10)
        customer_route = _route(1, Relationship.CUSTOMER, [1, 9])
        peer_route = _route(2, Relationship.PEER, [2, 9])
        provider_route = _route(3, Relationship.PROVIDER, [3, 9])
        # Customer routes go to everyone.
        assert policy.should_export(customer_route, 5, Relationship.PEER)
        assert policy.should_export(customer_route, 6, Relationship.PROVIDER)
        assert policy.should_export(customer_route, 7, Relationship.CUSTOMER)
        # Peer/provider routes only to customers.
        assert policy.should_export(peer_route, 7, Relationship.CUSTOMER)
        assert not policy.should_export(peer_route, 5, Relationship.PEER)
        assert not policy.should_export(provider_route, 6, Relationship.PROVIDER)

    def test_never_export_back_to_source(self):
        policy = Policy(asn=10)
        route = _route(1, Relationship.CUSTOMER, [1, 9])
        assert not policy.should_export(route, 1, Relationship.CUSTOMER)

    def test_partial_transit_blocks_provider_routes(self):
        policy = Policy(asn=10, partial_transit_to={7})
        provider_route = _route(3, Relationship.PROVIDER, [3, 9])
        peer_route = _route(2, Relationship.PEER, [2, 9])
        assert not policy.should_export(provider_route, 7, Relationship.CUSTOMER)
        assert policy.should_export(peer_route, 7, Relationship.CUSTOMER)
        # Full-transit customers still get everything.
        assert policy.should_export(provider_route, 8, Relationship.CUSTOMER)

    def test_selective_origin_export(self):
        policy = Policy(asn=10, selective_export={PFX: frozenset({1, 2})})
        assert policy.exports_origin_prefix(PFX, 1)
        assert not policy.exports_origin_prefix(PFX, 3)
        other = Prefix.parse("203.0.113.0/24")
        assert policy.exports_origin_prefix(other, 3)


#: One sample entry per prefix-keyed ``Policy`` field, all about ``PFX``.
PREFIX_KEYED_SAMPLES = {
    "prefix_local_pref": {(2, PFX): 250},
    "selective_export": {PFX: frozenset({1, 2})},
    "export_prepend": {(PFX, 2): 2},
}


class TestPrefixInputs:
    def test_every_prefix_keyed_field_is_covered(self):
        """A new ``Policy`` field keyed by ``Prefix`` must be read by
        ``prefix_inputs``: converged states are keyed on the inputs, so
        a field they missed would let unequal prefixes share a state."""
        keyed = {f.name for f in fields(Policy) if "Prefix" in str(f.type)}
        assert keyed == set(PREFIX_KEYED_SAMPLES)
        other = Prefix.parse("203.0.113.0/24")
        for name, sample in PREFIX_KEYED_SAMPLES.items():
            policy = Policy(asn=10, **{name: dict(sample)})
            assert policy.prefix_inputs(PFX) != NO_PREFIX_INPUTS, name
            assert policy.prefix_inputs(other) == NO_PREFIX_INPUTS, name

    def test_inputs_are_prefix_free_and_order_independent(self):
        other = Prefix.parse("203.0.113.0/24")
        policy = Policy(
            asn=10,
            prefix_local_pref={
                (3, PFX): 80,
                (2, PFX): 250,
                (2, other): 250,
                (3, other): 80,
            },
            export_prepend={(PFX, 2): 1, (other, 2): 1},
        )
        assert policy.prefix_inputs(PFX) == policy.prefix_inputs(other)
        inputs = policy.prefix_inputs(PFX)
        assert inputs.local_pref == ((2, 250), (3, 80))
        assert inputs.local_pref_from(3) == 80 and inputs.local_pref_from(4) is None
        assert inputs.prepends_to(2) == 1 and inputs.prepends_to(3) == 0
        assert inputs.exports_to(7)
