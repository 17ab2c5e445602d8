"""Business relationship types between ASes.

A relationship is always expressed from the point of view of one AS
toward a neighbor: ``Relationship.CUSTOMER`` means "the neighbor is my
customer".  The Gao-Rexford local-preference order (customer routes over
peer routes over provider routes) is encoded in :meth:`Relationship.rank`
— lower rank means cheaper, hence preferred.
"""

from __future__ import annotations

import enum


class Relationship(enum.Enum):
    """Role of a neighbor AS relative to the local AS."""

    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"
    SIBLING = "sibling"

    def flipped(self) -> "Relationship":
        """The same link seen from the other endpoint."""
        if self is Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self is Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return self

    def rank(self) -> int:
        """Gao-Rexford preference rank; lower is preferred (cheaper).

        Sibling links carry full routing tables in both directions and
        organizations do not charge themselves, so siblings rank with
        customers.
        """
        if self in (Relationship.CUSTOMER, Relationship.SIBLING):
            return 0
        if self is Relationship.PEER:
            return 1
        return 2

    def exports_all(self) -> bool:
        """Whether *all* routes may be exported to this neighbor.

        Under Gao-Rexford export policy, everything is announced to
        customers (they pay for it) and to siblings (same organization);
        peers and providers only receive customer routes.
        """
        return self in (Relationship.CUSTOMER, Relationship.SIBLING)

