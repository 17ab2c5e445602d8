"""Longest-prefix match over per-length tables.

This is the lookup structure behind both the simulated data plane
(the announced prefix a traceroute heads for) and the measurement
pipeline (IP-to-AS mapping).
Entries live in one table per prefix length, ``{length: {network:
(prefix, value)}}``; a lookup masks the address to each length in use,
longest first, and returns the first stored ``(prefix, value)`` it
finds, so it builds no :class:`~repro.net.ip.Prefix` and costs one dict
probe per length in use rather than one step per bit.  Values are
arbitrary Python objects; inserting the same prefix twice replaces the
value, matching how a routing table holds exactly one best route per
prefix.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.net.ip import IPAddress, Prefix

V = TypeVar("V")

_ALL_ONES = (1 << 32) - 1
#: The netmask of every prefix length, as a 32-bit integer.
_MASKS = tuple((_ALL_ONES << (32 - length)) & _ALL_ONES for length in range(33))


class PrefixTrie(Generic[V]):
    """Maps IPv4 prefixes to values with longest-prefix-match lookup."""

    def __init__(self) -> None:
        #: Prefix length -> network -> (prefix, value); no empty tables.
        self._tables: Dict[int, Dict[int, Tuple[Prefix, V]]] = {}
        #: (netmask, table) per length in use, longest first: the order
        #: a lookup probes them in.
        self._probes: List[Tuple[int, Dict[int, Tuple[Prefix, V]]]] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _reindex(self) -> None:
        self._probes = [
            (_MASKS[length], self._tables[length])
            for length in sorted(self._tables, reverse=True)
        ]

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value stored at ``prefix``."""
        table = self._tables.get(prefix.length)
        if table is None:
            table = self._tables[prefix.length] = {}
            self._reindex()
        if prefix.network not in table:
            self._size += 1
        table[prefix.network] = (prefix, value)

    def remove(self, prefix: Prefix) -> bool:
        """Remove the entry at ``prefix``; returns whether it existed."""
        table = self._tables.get(prefix.length)
        if table is None or table.pop(prefix.network, None) is None:
            return False
        self._size -= 1
        if not table:
            del self._tables[prefix.length]
            self._reindex()
        return True

    def lookup(self, address: IPAddress) -> Optional[V]:
        """Longest-prefix-match lookup; ``None`` when nothing covers it."""
        match = self.lookup_with_prefix(address)
        return None if match is None else match[1]

    def lookup_with_prefix(self, address: IPAddress) -> Optional[Tuple[Prefix, V]]:
        """Like :meth:`lookup` but also returns the matched prefix."""
        value = address.value
        for mask, table in self._probes:
            match = table.get(value & mask)
            if match is not None:
                return match
        return None

    def lookup_all(self, address: IPAddress) -> list:
        """Every stored prefix covering ``address``, shortest first.

        The last element (if any) is exactly what
        :meth:`lookup_with_prefix` returns; the full chain is what
        coverage analyses and the longest-prefix-match oracle
        (:mod:`repro.check`) compare against.
        """
        value = address.value
        matches = []
        for mask, table in reversed(self._probes):
            match = table.get(value & mask)
            if match is not None:
                matches.append(match)
        return matches

    def exact(self, prefix: Prefix) -> Optional[V]:
        """The value stored at exactly ``prefix``, or ``None``."""
        match = self._tables.get(prefix.length, {}).get(prefix.network)
        return None if match is None else match[1]

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Iterate ``(prefix, value)`` pairs by (network, length): a
        covering prefix comes before the prefixes it covers."""
        entries = [match for table in self._tables.values() for match in table.values()]
        entries.sort(key=lambda match: (match[0].network, match[0].length))
        return iter(entries)

    def __contains__(self, prefix: Prefix) -> bool:
        return self.exact(prefix) is not None
