"""Textual RIB-dump format for collector feeds (MRT-inspired).

Real RouteViews/RIS archives ship MRT files that tooling reads with
``bgpdump``, whose one-line TABLE_DUMP2 output looks like::

    TABLE_DUMP2|<timestamp>|B|<peer-ip>|<peer-asn>|<prefix>|<as-path>|IGP

We persist collector feeds in that shape so a downstream user can dump
a simulated feed to disk, diff feeds across experiments, and reload
them into a :class:`~repro.peering.collectors.FeedArchive`.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, List, TextIO, Tuple, Union

from repro.net.ip import Prefix
from repro.peering.collectors import FeedArchive

_RECORD_TYPE = "TABLE_DUMP2"


def dump_feed_lines(feeds: FeedArchive, timestamp: int = 0) -> List[str]:
    """Serialize every archived feed path to TABLE_DUMP2-style lines."""
    lines = []
    for prefix in feeds.prefixes():
        for path in sorted(feeds.paths_for(prefix)):
            peer_asn = path[0]
            as_path = " ".join(str(asn) for asn in path)
            lines.append(
                f"{_RECORD_TYPE}|{timestamp}|B|0.0.0.0|{peer_asn}|{prefix}|{as_path}|IGP"
            )
    return lines


def dump_feed(
    feeds: FeedArchive,
    sink: Union[str, Path, TextIO, None] = None,
    timestamp: int = 0,
) -> str:
    """Serialize an archive; optionally write it to a path or stream."""
    text = "\n".join(dump_feed_lines(feeds, timestamp))
    if text:
        text += "\n"
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as handle:
            handle.write(text)
    elif sink is not None:
        sink.write(text)
    return text


def parse_feed_lines(lines: Iterable[str]) -> List[Tuple[Prefix, Tuple[int, ...]]]:
    """Parse TABLE_DUMP2-style lines into (prefix, feed path) records."""
    records = []
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("|")
        if len(fields) < 7 or fields[0] != _RECORD_TYPE:
            raise ValueError(f"line {line_number}: not a {_RECORD_TYPE} record")
        prefix = Prefix.parse(fields[5])
        try:
            path = tuple(int(token) for token in fields[6].split())
        except ValueError as exc:
            raise ValueError(
                f"line {line_number}: malformed AS path {fields[6]!r}"
            ) from exc
        if not path:
            raise ValueError(f"line {line_number}: empty AS path")
        if str(path[0]) != fields[4]:
            raise ValueError(
                f"line {line_number}: peer ASN {fields[4]} does not match "
                f"path head {path[0]}"
            )
        records.append((prefix, path))
    return records


def load_feed(source: Union[str, Path, TextIO]) -> FeedArchive:
    """Load a dumped feed back into a (collector-less) archive."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            records = parse_feed_lines(handle)
    else:
        records = parse_feed_lines(source)
    archive = FeedArchive([])
    for prefix, path in records:
        archive.add_path(prefix, path)
    return archive
