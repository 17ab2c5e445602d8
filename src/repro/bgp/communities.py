"""BGP community values used by the simulator.

Real organizations running multiple ASNs tag routes with communities so
every member AS knows the economic class of the link where a route
entered the organization, and applies org-wide local preference and
export policy accordingly.  The simulator models exactly that slice of
the community mechanism: an *informational, org-internal* tag carrying
the entry class.

Communities are ``(asn, value)`` pairs as in RFC 1997; the entry-class
values live in a private value range.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from repro.topology.relationships import Relationship

Community = Tuple[int, int]

#: Private value range encoding the org entry class.
_ENTRY_CLASS_BASE = 64500
_CLASS_TO_VALUE = {
    Relationship.CUSTOMER: _ENTRY_CLASS_BASE + 1,
    Relationship.PEER: _ENTRY_CLASS_BASE + 2,
    Relationship.PROVIDER: _ENTRY_CLASS_BASE + 3,
    Relationship.SIBLING: _ENTRY_CLASS_BASE + 4,
}
_VALUE_TO_CLASS = {value: rel for rel, value in _CLASS_TO_VALUE.items()}


def entry_class_community(asn: int, relationship: Relationship) -> Community:
    """The community ``asn`` attaches to mark a route's entry class."""
    return (asn, _CLASS_TO_VALUE[relationship])


def read_entry_class(
    communities: FrozenSet[Community],
) -> Optional[Relationship]:
    """Extract the entry class from a community set, if tagged.

    Any org member's tag is accepted — within one organization the tag
    is set once, at the border where the route entered.
    """
    for _asn, value in communities:
        relationship = _VALUE_TO_CLASS.get(value)
        if relationship is not None:
            return relationship
    return None


def strip_entry_class(communities: FrozenSet[Community]) -> FrozenSet[Community]:
    """Remove org-internal tags before exporting outside the org."""
    if not communities:
        return communities
    return frozenset(
        (asn, value)
        for asn, value in communities
        if value not in _VALUE_TO_CLASS
    )
