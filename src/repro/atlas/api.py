"""Measurement results as JSON documents (RIPE Atlas API shape).

Real Atlas traceroute results arrive as JSON with ``src_addr``,
``dst_addr``, ``prb_id`` and a ``result`` array of per-hop records.
These converters let a campaign be exported in that shape and parsed
back: every campaign measurement goes through the round trip.

Documents in the wild are frequently malformed — truncated writes,
missing keys, non-traceroute types mixed into a result stream.  Every
parse failure raises a structured
:class:`~repro.faults.errors.MalformedResultError` (a ``ValueError``
subclass), which the campaign runner and study layers consume to
quarantine the document instead of crashing.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.atlas.campaign import Measurement
from repro.dataplane.traceroute import TracerouteHop, TracerouteResult
from repro.faults.errors import MalformedResultError
from repro.net.ip import IPAddress


def traceroute_to_json(result: TracerouteResult, probe_id: int = 0) -> Dict:
    """One traceroute as an Atlas-style result document."""
    hops = []
    for index, hop in enumerate(result.hops, start=1):
        if hop.ip is None:
            hops.append({"hop": index, "result": [{"x": "*"}]})
        else:
            hops.append(
                {
                    "hop": index,
                    "result": [{"from": str(hop.ip), "rtt": hop.rtt}],
                }
            )
    return {
        "type": "traceroute",
        "prb_id": probe_id,
        "src_addr": str(result.source_ip),
        "dst_addr": str(result.destination_ip),
        "from_asn": result.source_asn,
        "reached": result.reached,
        "result": hops,
    }


def _parse_address(document: Dict, key: str) -> IPAddress:
    value = document.get(key)
    if value is None:
        raise MalformedResultError(
            f"document missing {key!r}", document=document, reason=f"missing-{key}"
        )
    try:
        return IPAddress.parse(str(value))
    except ValueError as exc:
        raise MalformedResultError(
            f"unparseable {key!r}: {value!r}", document=document, reason=f"bad-{key}"
        ) from exc


def _parse_hop(entry: object, document: Dict) -> TracerouteHop:
    if not isinstance(entry, dict):
        raise MalformedResultError(
            f"hop record is not an object: {entry!r}",
            document=document,
            reason="bad-hop-record",
        )
    replies = entry.get("result", [])
    if not isinstance(replies, list):
        raise MalformedResultError(
            f"hop replies are not an array: {replies!r}",
            document=document,
            reason="bad-hop-record",
        )
    # A hop can carry several replies (one per sent packet); pick the
    # first that actually answered with an address.
    reply = next(
        (r for r in replies if isinstance(r, dict) and "from" in r), None
    )
    if reply is None:
        return TracerouteHop(ip=None, rtt=None)
    try:
        ip = IPAddress.parse(str(reply["from"]))
    except ValueError as exc:
        raise MalformedResultError(
            f"unparseable hop address: {reply['from']!r}",
            document=document,
            reason="bad-hop-address",
        ) from exc
    rtt = reply.get("rtt")
    if rtt is not None and not isinstance(rtt, (int, float)):
        raise MalformedResultError(
            f"non-numeric hop rtt: {rtt!r}", document=document, reason="bad-hop-rtt"
        )
    return TracerouteHop(ip=ip, rtt=rtt)


def traceroute_from_json(document: Dict) -> TracerouteResult:
    """Parse an Atlas-style result document back into a traceroute.

    Raises :class:`MalformedResultError` (a ``ValueError``) on any
    document that cannot be understood — wrong type, missing or
    unparseable required keys, malformed hop records.
    """
    if not isinstance(document, dict):
        raise MalformedResultError(
            f"document is not an object: {type(document).__name__}",
            document=document,
            reason="not-an-object",
        )
    if document.get("type") != "traceroute":
        raise MalformedResultError(
            f"not a traceroute document: {document.get('type')!r}",
            document=document,
            reason="wrong-type",
        )
    raw_hops = document.get("result", [])
    if not isinstance(raw_hops, list):
        raise MalformedResultError(
            f"result is not an array: {raw_hops!r}",
            document=document,
            reason="bad-result-array",
        )
    hops: List[TracerouteHop] = [_parse_hop(entry, document) for entry in raw_hops]
    asn = document.get("from_asn")
    if asn is None:
        raise MalformedResultError(
            "document missing 'from_asn'", document=document, reason="missing-from_asn"
        )
    try:
        source_asn = int(asn)
    except (TypeError, ValueError) as exc:
        raise MalformedResultError(
            f"unparseable 'from_asn': {asn!r}",
            document=document,
            reason="bad-from_asn",
        ) from exc
    return TracerouteResult(
        source_asn=source_asn,
        source_ip=_parse_address(document, "src_addr"),
        destination_ip=_parse_address(document, "dst_addr"),
        hops=hops,
        reached=bool(document.get("reached", False)),
    )


def dump_measurements(measurements: Iterable[Measurement]) -> str:
    """Serialize campaign measurements as JSON Lines."""
    lines = []
    for measurement in measurements:
        document = traceroute_to_json(
            measurement.traceroute, probe_id=measurement.probe.probe_id
        )
        document["dns_name"] = measurement.dns_name
        lines.append(json.dumps(document, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")
