"""The AS_PATH attribute, including AS_SET segments for poisoning.

The paper's poisoning methodology (Section 3.2) inserts all poisoned
ASes into a single AS-set surrounded by PEERING's own AS number, which
keeps the path short, prevents inference of non-existent links, and
lets operators spot the experiment.  We model an AS path as a sequence
of segments: plain ASNs (AS_SEQUENCE members) and frozensets of ASNs
(AS_SET segments).  Per RFC 4271, an AS_SET counts as one hop for path
length.

Paths are built on every delivered update, so :class:`ASPathAttribute`
is a plain slotted dataclass rather than a frozen one (a frozen
dataclass sets each field through ``object.__setattr__``).  It is
immutable by convention: nothing assigns to a path once built, routes
and exports share paths freely, and equality and hashing are by value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple, Union

Segment = Union[int, FrozenSet[int]]


@dataclass(slots=True, unsafe_hash=True)
class ASPathAttribute:
    """An AS_PATH: a tuple of ASNs and AS-set segments, origin last.

    Immutable by convention (see the module docstring).
    """

    segments: Tuple[Segment, ...] = ()

    @classmethod
    def origin(cls, asn: int) -> "ASPathAttribute":
        """The path as announced by the origin AS."""
        return cls((asn,))

    @classmethod
    def from_sequence(cls, asns: Iterable[int]) -> "ASPathAttribute":
        return cls(tuple(asns))

    def prepend(self, asn: int) -> "ASPathAttribute":
        """The path after ``asn`` announces it onward."""
        return ASPathAttribute((asn,) + self.segments)

    def with_poison_set(self, poisoned: Iterable[int], owner: int) -> "ASPathAttribute":
        """Wrap ``poisoned`` ASNs in an AS-set surrounded by ``owner``.

        This reproduces the paper's announcement shape: the origin's own
        ASN appears on both sides of the poison set, so the path reads
        ``owner {poisoned...} owner <rest>``.  Callers apply this to the
        path as seen at the origin.
        """
        poison_set = frozenset(poisoned)
        if not poison_set:
            return self
        return ASPathAttribute((owner, poison_set, owner) + self.segments[1:])

    def length(self) -> int:
        """Path length for the decision process; AS-sets count as one."""
        return len(self.segments)

    def all_asns(self) -> FrozenSet[int]:
        """Every ASN mentioned anywhere on the path."""
        asns = set()
        for segment in self.segments:
            if isinstance(segment, frozenset):
                asns.update(segment)
            else:
                asns.add(segment)
        return frozenset(asns)

    def sequence(self) -> Tuple[int, ...]:
        """The AS_SEQUENCE members only, skipping AS-sets.

        This is what AS-level analysis sees: collectors and traceroute
        conversion ignore set members (they are not on the data path).
        """
        return tuple(s for s in self.segments if not isinstance(s, frozenset))

    @property
    def origin_asn(self) -> int:
        """The origin (rightmost sequence member)."""
        for segment in reversed(self.segments):
            if not isinstance(segment, frozenset):
                return segment
        raise ValueError("AS path has no sequence members")

    @property
    def first_asn(self) -> int:
        """The neighbor-facing (leftmost sequence) ASN."""
        for segment in self.segments:
            if not isinstance(segment, frozenset):
                return segment
        raise ValueError("AS path has no sequence members")

    def __len__(self) -> int:
        return self.length()

    def __str__(self) -> str:
        parts = []
        for segment in self.segments:
            if isinstance(segment, frozenset):
                parts.append("{" + ",".join(str(a) for a in sorted(segment)) + "}")
            else:
                parts.append(str(segment))
        return " ".join(parts)
