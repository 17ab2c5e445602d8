"""Traceroute-to-AS-path conversion (Chen et al., CoNEXT'09 style).

Raw traceroutes are IP-level and messy: unresponsive hops, interconnect
/30 addresses that belong to the neighboring AS, and hops with no
origination data.  The conversion maps each responding hop to an AS,
collapses consecutive duplicates (which also absorbs the
interconnect-ownership artifact), bridges short gaps, and records
whether the result is complete enough to trust.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dataplane.traceroute import TracerouteResult
from repro.ipmap.ip2as import IPToASMapper


@dataclass(frozen=True)
class ASLevelPath:
    """An AS-level path recovered from one traceroute."""

    source_asn: int
    destination_asn: int
    hops: Tuple[int, ...]
    #: False when unresolved gaps forced us to bridge between ASes, so
    #: some adjacency may be inferred rather than observed.
    complete: bool

    def __len__(self) -> int:
        return len(self.hops)

    def adjacencies(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(zip(self.hops[:-1], self.hops[1:]))


def convert_traceroute(
    result: TracerouteResult, mapper: IPToASMapper
) -> Optional[ASLevelPath]:
    """Convert one traceroute to an AS path, or ``None`` if unusable.

    A traceroute is unusable when it did not reach the destination or
    when too little of it maps to ASes to recover even the endpoints.
    """
    if not result.reached or not result.hops:
        return None
    # Map hop IPs to ASNs; None for '*' and unmapped addresses.
    mapped: List[Optional[int]] = []
    for hop in result.hops:
        if hop.ip is None:
            mapped.append(None)
        else:
            mapped.append(mapper.lookup(hop.ip))
    destination_asn = mapper.lookup(result.destination_ip)
    if destination_asn is None:
        return None

    # Prepend the probe's own AS (the probe knows where it sits).
    sequence: List[Optional[int]] = [result.source_asn] + mapped

    # Collapse consecutive duplicates, tracking unresolved gaps.
    hops: List[int] = []
    bridged = False
    pending_gap = False
    for asn in sequence:
        if asn is None:
            pending_gap = True
            continue
        if hops and hops[-1] == asn:
            # Same AS on both sides of any gap: the gap was internal.
            pending_gap = False
            continue
        if hops and pending_gap:
            bridged = True
        pending_gap = False
        hops.append(asn)
    if not hops:
        return None
    if hops[-1] != destination_asn:
        hops.append(destination_asn)
    if len(hops) < 2:
        return None
    return ASLevelPath(
        source_asn=result.source_asn,
        destination_asn=destination_asn,
        hops=tuple(hops),
        complete=not bridged,
    )
