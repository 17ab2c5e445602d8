"""Unit tests for IPv4 address and prefix primitives."""

import pytest

from repro.net.ip import IPAddress, Prefix, PrefixAllocator


class TestIPAddress:
    def test_parse_and_format_roundtrip(self):
        for text in ["0.0.0.0", "10.0.0.1", "192.0.2.255", "255.255.255.255"]:
            assert str(IPAddress.parse(text)) == text

    def test_parse_rejects_malformed(self):
        for text in ["10.0.0", "10.0.0.0.1", "a.b.c.d", "10..0.1", ""]:
            with pytest.raises(ValueError):
                IPAddress.parse(text)

    def test_parse_rejects_octet_overflow(self):
        with pytest.raises(ValueError):
            IPAddress.parse("10.0.0.256")

    def test_parse_raises_on_garbled_text_after_a_cached_success(self):
        good = IPAddress.parse("10.20.30.40")
        assert IPAddress.parse("10.20.30.40") is good
        garbled = ["10.20.30.40x", " 10.20.30.40", "10.20.30", "10.20.30.400", ""]
        for text in garbled:
            for _ in range(2):  # a failure is not remembered either
                with pytest.raises(ValueError):
                    IPAddress.parse(text)
        assert IPAddress.parse("10.20.30.40") is good

    def test_format_matches_the_per_octet_text(self):
        for value in (0, 1, 0x0A000001, 0xC0000201, 0xFFFFFFFF, 0x7F00FF01):
            expected = ".".join(str((value >> s) & 0xFF) for s in (24, 16, 8, 0))
            assert str(IPAddress(value)) == expected
            assert str(IPAddress(value)) == expected  # from the memo

    def test_value_range_enforced(self):
        with pytest.raises(ValueError):
            IPAddress(-1)
        with pytest.raises(ValueError):
            IPAddress(1 << 32)

    def test_ordering_matches_numeric_value(self):
        assert IPAddress.parse("10.0.0.1") < IPAddress.parse("10.0.0.2")
        assert IPAddress.parse("9.255.255.255") < IPAddress.parse("10.0.0.0")

    def test_addition_offsets_address(self):
        assert IPAddress.parse("10.0.0.1") + 254 == IPAddress.parse("10.0.0.255")

    def test_int_conversion(self):
        assert int(IPAddress.parse("0.0.0.1")) == 1
        assert int(IPAddress.parse("1.0.0.0")) == 1 << 24


class TestPrefix:
    def test_parse_and_format_roundtrip(self):
        for text in ["0.0.0.0/0", "10.0.0.0/8", "192.0.2.0/24", "10.1.2.3/32"]:
            assert str(Prefix.parse(text)) == text

    def test_hash_is_the_field_tuples_hash(self):
        # Computed once per prefix, to the generated hash's value, so
        # set and dict orders of prefixes do not move.
        for text in ("0.0.0.0/0", "10.0.0.0/8", "192.0.2.0/24", "203.0.113.7/32"):
            prefix = Prefix.parse(text)
            assert hash(prefix) == hash((prefix.network, prefix.length))
            assert hash(Prefix(prefix.network, prefix.length)) == hash(prefix)
        prefixes = [Prefix(n << 16, 16 - n % 3) for n in range(0, 3000, 8)]
        keys = [(p.network, p.length) for p in prefixes]
        assert [(p.network, p.length) for p in set(prefixes)] == list(set(keys))

    def test_rejects_host_bits(self):
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0.1/24")

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0.0/33")

    def test_rejects_missing_slash(self):
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0.0")

    def test_from_address_zeroes_host_bits(self):
        prefix = Prefix.from_address(IPAddress.parse("10.1.2.3"), 16)
        assert prefix == Prefix.parse("10.1.0.0/16")

    def test_contains(self):
        prefix = Prefix.parse("192.0.2.0/24")
        assert prefix.contains(IPAddress.parse("192.0.2.0"))
        assert prefix.contains(IPAddress.parse("192.0.2.255"))
        assert not prefix.contains(IPAddress.parse("192.0.3.0"))

    def test_covers(self):
        big = Prefix.parse("10.0.0.0/8")
        small = Prefix.parse("10.1.0.0/16")
        assert big.covers(small)
        assert big.covers(big)
        assert not small.covers(big)
        assert not small.covers(Prefix.parse("10.2.0.0/16"))

    def test_num_addresses(self):
        assert Prefix.parse("10.0.0.0/24").num_addresses() == 256
        assert Prefix.parse("10.0.0.4/30").num_addresses() == 4

    def test_address_at_bounds(self):
        prefix = Prefix.parse("10.0.0.0/30")
        assert prefix.address_at(0) == IPAddress.parse("10.0.0.0")
        assert prefix.address_at(3) == IPAddress.parse("10.0.0.3")
        with pytest.raises(ValueError):
            prefix.address_at(4)
        with pytest.raises(ValueError):
            prefix.address_at(-1)

    def test_first_and_last_address(self):
        prefix = Prefix.parse("192.0.2.0/25")
        assert prefix.first_address() == IPAddress.parse("192.0.2.0")
        assert prefix.last_address() == IPAddress.parse("192.0.2.127")

    def test_subnets(self):
        subnets = list(Prefix.parse("10.0.0.0/24").subnets(26))
        assert [str(p) for p in subnets] == [
            "10.0.0.0/26",
            "10.0.0.64/26",
            "10.0.0.128/26",
            "10.0.0.192/26",
        ]

    def test_subnets_rejects_shorter(self):
        with pytest.raises(ValueError):
            list(Prefix.parse("10.0.0.0/24").subnets(16))


class TestPrefixAllocator:
    def test_sequential_allocation(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/8"))
        first = allocator.allocate(24)
        second = allocator.allocate(24)
        assert str(first) == "10.0.0.0/24"
        assert str(second) == "10.0.1.0/24"

    def test_alignment_of_mixed_sizes(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/8"))
        allocator.allocate(30)
        aligned = allocator.allocate(24)
        # /24 must be /24-aligned despite the preceding /30.
        assert str(aligned) == "10.0.1.0/24"

    def test_exhaustion_raises(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/30"))
        allocator.allocate(31)
        allocator.allocate(31)
        with pytest.raises(RuntimeError):
            allocator.allocate(31)

    def test_cannot_allocate_larger_than_pool(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/16"))
        with pytest.raises(ValueError):
            allocator.allocate(8)

    def test_remaining_addresses_decreases(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/24"))
        before = allocator.remaining_addresses()
        allocator.allocate(26)
        assert allocator.remaining_addresses() == before - 64
