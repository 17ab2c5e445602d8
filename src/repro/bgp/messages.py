"""BGP update messages exchanged between simulated speakers.

An :class:`Announcement` is built on every export pass, so it is a
plain slotted dataclass, immutable by convention like the routes and
paths it carries (:mod:`repro.bgp.routes`); one announcement is shared
by every neighbor that hears the same export.  :class:`Withdrawal` is
built at most once per pass and stays frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.bgp.attributes import ASPathAttribute
from repro.net.ip import Prefix


@dataclass(slots=True, unsafe_hash=True)
class Announcement:
    """A route announcement for one prefix.

    ``sender`` is the ASN announcing; the AS path already includes the
    sender's prepension by the time the message is delivered.
    ``communities`` carry RFC 1997-style ``(asn, value)`` tags; the
    simulator uses them for org-internal entry-class marking across
    sibling links.
    """

    prefix: Prefix
    as_path: ASPathAttribute
    sender: int
    communities: FrozenSet[Tuple[int, int]] = frozenset()

    def __str__(self) -> str:
        return f"A {self.prefix} path=[{self.as_path}] from AS{self.sender}"


@dataclass(frozen=True, slots=True)
class Withdrawal:
    """Withdrawal of the sender's route for one prefix."""

    prefix: Prefix
    sender: int

    def __str__(self) -> str:
        return f"W {self.prefix} from AS{self.sender}"
