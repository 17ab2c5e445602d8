"""Unit and property-based tests for the longest-prefix-match trie."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.oracles import OracleLPM
from repro.net.ip import IPAddress, Prefix
from repro.net.trie import PrefixTrie


def _prefix(text):
    return Prefix.parse(text)


class TestPrefixTrieBasics:
    def test_empty_lookup_returns_none(self):
        trie = PrefixTrie()
        assert trie.lookup(IPAddress.parse("10.0.0.1")) is None

    def test_exact_and_lpm(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.0.0.0/8"), "eight")
        trie.insert(_prefix("10.1.0.0/16"), "sixteen")
        assert trie.lookup(IPAddress.parse("10.1.2.3")) == "sixteen"
        assert trie.lookup(IPAddress.parse("10.2.0.1")) == "eight"
        assert trie.lookup(IPAddress.parse("11.0.0.1")) is None

    def test_lookup_with_prefix_returns_match(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.1.0.0/16"), "v")
        matched = trie.lookup_with_prefix(IPAddress.parse("10.1.9.9"))
        assert matched == (_prefix("10.1.0.0/16"), "v")

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert(_prefix("0.0.0.0/0"), "default")
        assert trie.lookup(IPAddress.parse("203.0.113.77")) == "default"

    def test_insert_replaces_value(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.0.0.0/24"), "a")
        trie.insert(_prefix("10.0.0.0/24"), "b")
        assert trie.exact(_prefix("10.0.0.0/24")) == "b"
        assert len(trie) == 1

    def test_remove(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.0.0.0/8"), "eight")
        trie.insert(_prefix("10.1.0.0/16"), "sixteen")
        assert trie.remove(_prefix("10.1.0.0/16"))
        assert trie.lookup(IPAddress.parse("10.1.2.3")) == "eight"
        assert not trie.remove(_prefix("10.1.0.0/16"))
        assert len(trie) == 1

    def test_host_route(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.0.0.0/24"), "net")
        trie.insert(_prefix("10.0.0.7/32"), "host")
        assert trie.lookup(IPAddress.parse("10.0.0.7")) == "host"
        assert trie.lookup(IPAddress.parse("10.0.0.8")) == "net"

    def test_contains(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.0.0.0/24"), "v")
        assert _prefix("10.0.0.0/24") in trie
        assert _prefix("10.0.0.0/25") not in trie

    def test_a_length_emptied_and_refilled_still_matches(self):
        trie = PrefixTrie()
        trie.insert(_prefix("10.0.0.0/8"), "eight")
        trie.insert(_prefix("10.1.0.0/16"), "sixteen")
        assert trie.remove(_prefix("10.1.0.0/16"))
        assert trie.lookup_all(IPAddress.parse("10.1.2.3")) == [
            (_prefix("10.0.0.0/8"), "eight")
        ]
        trie.insert(_prefix("10.1.0.0/16"), "again")
        assert trie.lookup(IPAddress.parse("10.1.2.3")) == "again"

    def test_items_yields_all_entries(self):
        trie = PrefixTrie()
        prefixes = ["10.0.0.0/8", "10.1.0.0/16", "192.0.2.0/24", "0.0.0.0/0"]
        for index, text in enumerate(prefixes):
            trie.insert(_prefix(text), index)
        items = dict(trie.items())
        assert items == {_prefix(text): i for i, text in enumerate(prefixes)}


prefix_lengths = st.integers(min_value=0, max_value=32)
addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)


@st.composite
def prefixes(draw):
    length = draw(prefix_lengths)
    address = draw(addresses)
    return Prefix.from_address(IPAddress(address), length)


class TestPrefixTrieProperties:
    @given(st.lists(st.tuples(prefixes(), st.integers()), max_size=40), addresses)
    @settings(max_examples=200, deadline=None)
    def test_lpm_matches_linear_scan(self, entries, query_value):
        """The trie's answer always equals a brute-force LPM scan."""
        trie = PrefixTrie()
        table = {}
        for prefix, value in entries:
            trie.insert(prefix, value)
            table[prefix] = value
        query = IPAddress(query_value)
        covering = [p for p in table if p.contains(query)]
        if not covering:
            assert trie.lookup(query) is None
        else:
            best = max(covering, key=lambda p: p.length)
            assert trie.lookup(query) == table[best]

    @given(st.lists(st.tuples(prefixes(), st.integers()), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_items_roundtrip(self, entries):
        trie = PrefixTrie()
        table = {}
        for prefix, value in entries:
            trie.insert(prefix, value)
            table[prefix] = value
        assert dict(trie.items()) == table
        assert len(trie) == len(table)
        # By (network, length): every covering prefix before the
        # prefixes it covers, the order of a bitwise trie's preorder.
        assert [prefix for prefix, _ in trie.items()] == sorted(
            table, key=lambda prefix: (prefix.network, prefix.length)
        )

    @given(st.lists(prefixes(), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_remove_all_empties_trie(self, entries):
        trie = PrefixTrie()
        for prefix in entries:
            trie.insert(prefix, str(prefix))
        for prefix in set(entries):
            assert trie.remove(prefix)
        assert len(trie) == 0
        assert list(trie.items()) == []


#: Boundary lengths that stress octet edges and the root/host extremes.
boundary_lengths = st.sampled_from(
    [0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32]
)


@st.composite
def boundary_prefixes(draw):
    length = draw(boundary_lengths)
    address = draw(addresses)
    return Prefix.from_address(IPAddress(address), length)


class TestPrefixTrieVsOracle:
    """Differential property tests against the linear-scan reference."""

    @given(
        st.lists(st.tuples(prefixes(), st.integers()), max_size=40), addresses
    )
    @settings(max_examples=200, deadline=None)
    def test_lookup_matches_oracle(self, entries, query_value):
        trie, oracle = PrefixTrie(), OracleLPM()
        for prefix, value in entries:
            trie.insert(prefix, value)
            oracle.insert(prefix, value)
        query = IPAddress(query_value)
        assert trie.lookup_with_prefix(query) == oracle.lookup_with_prefix(query)
        assert trie.lookup(query) == oracle.lookup(query)
        assert trie.lookup_all(query) == oracle.lookup_all(query)

    @given(
        st.lists(st.tuples(boundary_prefixes(), st.integers()), max_size=30),
        addresses,
    )
    @settings(max_examples=150, deadline=None)
    def test_boundary_lengths_match_oracle(self, entries, query_value):
        """Octet-boundary prefix lengths, where bit-walk bugs live."""
        trie, oracle = PrefixTrie(), OracleLPM()
        for prefix, value in entries:
            trie.insert(prefix, value)
            oracle.insert(prefix, value)
        query = IPAddress(query_value)
        assert trie.lookup_with_prefix(query) == oracle.lookup_with_prefix(query)
        assert trie.lookup_all(query) == oracle.lookup_all(query)

    @given(st.lists(prefixes(), max_size=25), addresses)
    @settings(max_examples=100, deadline=None)
    def test_default_route_always_matches(self, entries, query_value):
        trie, oracle = PrefixTrie(), OracleLPM()
        for table in (trie, oracle):
            table.insert(Prefix(0, 0), "default")
        for index, prefix in enumerate(entries):
            trie.insert(prefix, index)
            oracle.insert(prefix, index)
        query = IPAddress(query_value)
        matched = trie.lookup_with_prefix(query)
        assert matched is not None
        assert matched == oracle.lookup_with_prefix(query)
        # The default route is always the first (shortest) covering
        # entry (a generated /0 may have overwritten its value).
        assert trie.lookup_all(query)[0][0] == Prefix(0, 0)

    @given(
        st.lists(prefixes(), min_size=2, max_size=30),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_removal_stays_in_sync_with_oracle(self, entries, seed):
        rng = random.Random(seed)
        trie, oracle = PrefixTrie(), OracleLPM()
        for prefix in entries:
            trie.insert(prefix, str(prefix))
            oracle.insert(prefix, str(prefix))
        for prefix in rng.sample(entries, k=len(entries) // 2):
            assert trie.remove(prefix) == oracle.remove(prefix)
        assert len(trie) == len(oracle)
        for _ in range(8):
            query = IPAddress(rng.getrandbits(32))
            assert trie.lookup_with_prefix(query) == oracle.lookup_with_prefix(
                query
            )

    def test_lookup_all_unit(self):
        trie = PrefixTrie()
        trie.insert(_prefix("0.0.0.0/0"), "default")
        trie.insert(_prefix("10.0.0.0/8"), "eight")
        trie.insert(_prefix("10.1.0.0/16"), "sixteen")
        matches = trie.lookup_all(IPAddress.parse("10.1.2.3"))
        assert [v for _p, v in matches] == ["default", "eight", "sixteen"]
        assert trie.lookup_all(IPAddress.parse("203.0.113.1")) == [
            (_prefix("0.0.0.0/0"), "default")
        ]
