"""CAIDA serial-format relationship file I/O.

CAIDA publishes inferred AS relationships as pipe-separated lines::

    # comment lines start with '#'
    <provider-asn>|<customer-asn>|-1
    <peer-asn>|<peer-asn>|0
    <sibling-asn>|<sibling-asn>|2   (serial-2 extension used here)

We read and write this format so inferred topologies can be persisted
and reloaded like CAIDA's monthly snapshots the paper aggregates.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, TextIO, Union

from repro.topology.graph import ASGraph
from repro.topology.relationships import Relationship

#: Relationship encoding used by CAIDA's files, plus a sibling code.
_CODE_TO_REL = {
    -1: Relationship.CUSTOMER,  # first AS is the provider of the second
    0: Relationship.PEER,
    2: Relationship.SIBLING,
}
_REL_TO_CODE = {rel: code for code, rel in _CODE_TO_REL.items()}


def parse_relationship_lines(lines: Iterable[str]) -> ASGraph:
    """Build an :class:`ASGraph` from serial-format lines."""
    graph = ASGraph()
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("|")
        if len(fields) < 3:
            raise ValueError(f"line {line_number}: expected a|b|code, got {line!r}")
        try:
            first, second, code = int(fields[0]), int(fields[1]), int(fields[2])
        except ValueError as exc:
            raise ValueError(f"line {line_number}: non-integer field in {line!r}") from exc
        relationship = _CODE_TO_REL.get(code)
        if relationship is None:
            raise ValueError(f"line {line_number}: unknown relationship code {code}")
        graph.add_link(first, second, relationship)
    return graph


def load_relationships(source: Union[str, Path, TextIO]) -> ASGraph:
    """Load a serial-format relationship file from a path or stream."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return parse_relationship_lines(handle)
    return parse_relationship_lines(source)


def dump_relationships(graph: ASGraph, sink: Union[str, Path, TextIO, None] = None) -> str:
    """Serialize ``graph`` to serial format; returns the text.

    When ``sink`` is a path or stream the text is also written there.
    """
    buffer = io.StringIO()
    buffer.write("# repro AS relationships (serial format)\n")
    buffer.write("# <a>|<b>|<code>: -1 = a provider of b, 0 = peers, 2 = siblings\n")
    for asn, neighbor, rel in graph.links():
        buffer.write(f"{asn}|{neighbor}|{_REL_TO_CODE[rel]}\n")
    text = buffer.getvalue()
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as handle:
            handle.write(text)
    elif sink is not None:
        sink.write(text)
    return text


def link_set(graph: ASGraph) -> frozenset:
    """Normalized edge set for comparing two topologies.

    Each edge is ``(a, b, code)`` as produced by :meth:`ASGraph.links`.
    """
    return frozenset((a, b, _REL_TO_CODE[rel]) for a, b, rel in graph.links())
