"""Undersea cable registry (paper Section 6, Table 4).

Some undersea cables are operated by independent organizations with
their own ASNs and prefixes (the paper's EAC-C2C/PACNET example).  These
ASes provide point-to-point transit along the cable, originate no
traffic, and confuse relationship inference — the paper likens them to
"high-latency, high-cost IXPs".  The paper identifies them from the
TeleGeography Submarine Cable Map; we model that map as a
:class:`CableRegistry` the generator populates and the analysis queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set


@dataclass(frozen=True)
class Cable:
    """One submarine cable system."""

    name: str
    landing_countries: FrozenSet[str]
    #: ASN of the independent operator, or ``None`` when the cable is
    #: jointly owned by large ISPs (Pan-American Crossing style) and has
    #: no ASN of its own.
    operator_asn: Optional[int] = None
    owners: FrozenSet[str] = frozenset()


class CableRegistry:
    """Queryable set of cables, indexed by operator ASN."""

    def __init__(self, cables: Iterable[Cable] = ()) -> None:
        self._cables: List[Cable] = []
        self._by_asn: Dict[int, Cable] = {}
        for cable in cables:
            self.add(cable)

    def add(self, cable: Cable) -> None:
        self._cables.append(cable)
        if cable.operator_asn is not None:
            if cable.operator_asn in self._by_asn:
                raise ValueError(
                    f"AS{cable.operator_asn} already operates "
                    f"{self._by_asn[cable.operator_asn].name}"
                )
            self._by_asn[cable.operator_asn] = cable

    def __len__(self) -> int:
        return len(self._cables)

    def cables(self) -> List[Cable]:
        return list(self._cables)

    def cable_asns(self) -> Set[int]:
        """ASNs of independently operated cables."""
        return set(self._by_asn)

    def is_cable_asn(self, asn: int) -> bool:
        return asn in self._by_asn

    def cable_for_asn(self, asn: int) -> Optional[Cable]:
        return self._by_asn.get(asn)

    def cables_between(self, country_a: str, country_b: str) -> List[Cable]:
        """Cables landing in both countries."""
        return [
            cable
            for cable in self._cables
            if country_a in cable.landing_countries
            and country_b in cable.landing_countries
        ]
