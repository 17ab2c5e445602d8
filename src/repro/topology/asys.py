"""Autonomous System objects.

An :class:`AS` carries the administrative facts the analysis needs:
which organization runs it, which countries it is registered and
operates in, what kind of network it is (Table 1's stub / small ISP /
large ISP / tier-1 taxonomy), and special roles such as content
provider or undersea-cable operator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple


class ASType(enum.Enum):
    """AS categories following Oliveira et al., as used in Table 1."""

    STUB = "Stub-AS"
    SMALL_ISP = "Small ISP"
    LARGE_ISP = "Large ISP"
    TIER1 = "Tier-1"

    def __str__(self) -> str:
        return self.value


class ASRole(enum.Enum):
    """Functional role of an AS in the synthetic Internet."""

    TRANSIT = "transit"
    EYEBALL = "eyeball"
    CONTENT = "content"
    CDN = "cdn"
    CABLE = "cable"
    EDUCATION = "education"
    IXP_ROUTE_SERVER = "ixp"


@dataclass(frozen=True)
class AS:
    """Static facts about one Autonomous System.

    ``country`` is the whois registration country (what Table 3's
    domestic-path analysis sees); ``presence`` is the set of countries
    the AS actually operates routers in, which may be wider for
    multinational networks.
    """

    asn: int
    name: str = ""
    org_id: str = ""
    country: str = ""
    presence: FrozenSet[str] = frozenset()
    role: ASRole = ASRole.TRANSIT
    continent: str = ""

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ValueError(f"ASN must be positive, got {self.asn}")
        if not self.presence and self.country:
            object.__setattr__(self, "presence", frozenset({self.country}))

    def __str__(self) -> str:
        return f"AS{self.asn}"


@dataclass(frozen=True)
class ASPath:
    """An AS-level path as a tuple of ASNs, origin last.

    Paths never contain loops except through explicit poisoning, which
    is represented at the BGP layer (AS-sets), not here.
    """

    hops: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.hops:
            raise ValueError("empty AS path")

    @property
    def source(self) -> int:
        return self.hops[0]

    @property
    def destination(self) -> int:
        return self.hops[-1]

    def __len__(self) -> int:
        return len(self.hops)

    def __iter__(self):
        return iter(self.hops)

    def __getitem__(self, index):
        return self.hops[index]

    def suffix_from(self, asn: int) -> Optional["ASPath"]:
        """The sub-path from ``asn`` to the destination, or ``None``."""
        try:
            index = self.hops.index(asn)
        except ValueError:
            return None
        return ASPath(self.hops[index:])

    def adjacencies(self) -> Tuple[Tuple[int, int], ...]:
        """Consecutive (upstream, downstream) AS pairs along the path."""
        return tuple(zip(self.hops[:-1], self.hops[1:]))

    def __str__(self) -> str:
        return " ".join(str(h) for h in self.hops)
