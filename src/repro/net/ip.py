"""IPv4 address and prefix primitives.

The library models the Internet at the granularity real BGP operates at:
IPv4 prefixes.  We implement our own small value types rather than using
:mod:`ipaddress` because the simulator manipulates millions of addresses
as plain integers and needs allocation helpers (subnetting, host
enumeration) that are cheap and deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

_MAX_IPV4 = (1 << 32) - 1
_DOTTED_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")
#: Entries of each text memo below: over four times the 1,787 distinct
#: addresses the full study's campaign formats and parses.
_TEXT_MEMO_SIZE = 1 << 13


def _parse_dotted(text: str) -> int:
    """Parse dotted-quad notation into a 32-bit integer.

    Raises ``ValueError`` on malformed input, including octets > 255.
    """
    match = _DOTTED_RE.match(text)
    if match is None:
        raise ValueError(f"malformed IPv4 address: {text!r}")
    value = 0
    for octet_text in match.groups():
        octet = int(octet_text)
        if octet > 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


@lru_cache(maxsize=_TEXT_MEMO_SIZE)
def _format_dotted(value: int) -> str:
    """Dotted-quad text of a 32-bit integer (memoized: the campaign
    formats every hop address of every traceroute it exports)."""
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@lru_cache(maxsize=_TEXT_MEMO_SIZE)
def _address_of(text: str) -> "IPAddress":
    """The one :class:`IPAddress` for ``text``.

    Memoized: every campaign measurement parses its traceroute back
    from text.  Addresses are immutable, so the hops of all
    measurements share one object per address.  A failed parse raises
    and is not remembered, so malformed text raises on every call.
    """
    return IPAddress(_parse_dotted(text))


@dataclass(frozen=True, order=True)
class IPAddress:
    """A single IPv4 address stored as a 32-bit integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= _MAX_IPV4:
            raise ValueError(f"IPv4 address out of range: {self.value}")

    @classmethod
    def parse(cls, text: str) -> "IPAddress":
        """Parse dotted-quad notation, e.g. ``IPAddress.parse("10.0.0.1")``.

        Raises ``ValueError`` on malformed text.  Equal texts give the
        same (shared, immutable) object.
        """
        return _address_of(text)

    def __str__(self) -> str:
        return _format_dotted(self.value)

    def __int__(self) -> int:
        return self.value

    def __add__(self, offset: int) -> "IPAddress":
        return IPAddress(self.value + offset)


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 prefix (network address plus mask length).

    The network address is canonicalized: host bits must be zero, which
    we enforce at construction so two equal prefixes always compare
    equal.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length out of range: {self.length}")
        if not 0 <= self.network <= _MAX_IPV4:
            raise ValueError(f"network address out of range: {self.network}")
        if self.network & ~self.mask():
            raise ValueError(
                f"host bits set in prefix {_format_dotted(self.network)}/{self.length}"
            )
        # BGP delivery hashes a prefix several times per update: hash
        # once, to the value the generated ``__hash__`` gave, so set
        # and dict orders do not move.
        object.__setattr__(self, "_hash", hash((self.network, self.length)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse CIDR notation, e.g. ``Prefix.parse("192.0.2.0/24")``."""
        try:
            network_text, length_text = text.split("/")
        except ValueError:
            raise ValueError(f"malformed prefix (missing '/'): {text!r}") from None
        return cls(_parse_dotted(network_text), int(length_text))

    @classmethod
    def from_address(cls, address: IPAddress, length: int) -> "Prefix":
        """Build the length-``length`` prefix covering ``address``."""
        mask = 0 if length == 0 else (_MAX_IPV4 << (32 - length)) & _MAX_IPV4
        return cls(address.value & mask, length)

    def mask(self) -> int:
        """The netmask as a 32-bit integer."""
        if self.length == 0:
            return 0
        return (_MAX_IPV4 << (32 - self.length)) & _MAX_IPV4

    def contains(self, address: IPAddress) -> bool:
        """Whether ``address`` falls inside this prefix."""
        return (address.value & self.mask()) == self.network

    def covers(self, other: "Prefix") -> bool:
        """Whether this prefix covers ``other`` (equal or less specific)."""
        return other.length >= self.length and (other.network & self.mask()) == self.network

    def num_addresses(self) -> int:
        return 1 << (32 - self.length)

    def first_address(self) -> IPAddress:
        return IPAddress(self.network)

    def last_address(self) -> IPAddress:
        return IPAddress(self.network + self.num_addresses() - 1)

    def address_at(self, offset: int) -> IPAddress:
        """The address ``offset`` positions into the prefix.

        Raises ``ValueError`` when ``offset`` walks off the end; silent
        wraparound would hand out addresses in someone else's prefix.
        """
        if not 0 <= offset < self.num_addresses():
            raise ValueError(f"offset {offset} outside {self}")
        return IPAddress(self.network + offset)

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Iterate the subnets of this prefix at ``new_length``."""
        if new_length < self.length:
            raise ValueError(
                f"cannot subnet /{self.length} into shorter /{new_length}"
            )
        step = 1 << (32 - new_length)
        for network in range(self.network, self.network + self.num_addresses(), step):
            yield Prefix(network, new_length)

    def __str__(self) -> str:
        return f"{_format_dotted(self.network)}/{self.length}"


class PrefixAllocator:
    """Sequentially carves subnets out of a pool prefix.

    The topology generator uses one allocator per address pool (e.g. one
    for eyeball ASes, one for content providers) so that address
    assignment is deterministic given the generation order.
    """

    def __init__(self, pool: Prefix) -> None:
        self._pool = pool
        self._cursor = pool.network

    @property
    def pool(self) -> Prefix:
        return self._pool

    def allocate(self, length: int) -> Prefix:
        """Allocate the next free subnet of the given length.

        Raises ``RuntimeError`` when the pool is exhausted.
        """
        if length < self._pool.length:
            raise ValueError(
                f"cannot allocate /{length} from pool {self._pool}"
            )
        size = 1 << (32 - length)
        # Align the cursor to the requested size.
        aligned = (self._cursor + size - 1) & ~(size - 1)
        end = self._pool.network + self._pool.num_addresses()
        if aligned + size > end:
            raise RuntimeError(f"address pool {self._pool} exhausted")
        self._cursor = aligned + size
        return Prefix(aligned, length)

    def remaining_addresses(self) -> int:
        end = self._pool.network + self._pool.num_addresses()
        return max(0, end - self._cursor)
