"""The AS-level relationship graph.

:class:`ASGraph` is the central data structure of the library: a graph
of ASes whose edges are annotated with business relationships.  Both
the ground-truth topology produced by the generator and the CAIDA-like
inferred topologies consumed by the analysis are instances of it.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.topology.asys import AS
from repro.topology.relationships import Relationship


class AdjacencyIndex:
    """Relationship-partitioned adjacency lists for routing computation.

    The Gao-Rexford engine's three construction stages each walk one
    relationship class of edges; pre-partitioning the adjacency into the
    lists each stage needs avoids re-filtering (and copying) the full
    neighbor map once per node per routing tree.  Lists preserve the
    neighbor map's insertion order so traversals (and therefore parent
    tie-breaking) are identical to filtering in place.
    """

    __slots__ = ("up", "peers", "down")

    def __init__(
        self,
        up: Dict[int, Tuple[int, ...]],
        peers: Dict[int, Tuple[int, ...]],
        down: Dict[int, Tuple[int, ...]],
    ) -> None:
        #: Neighbors that are providers or siblings of the key AS
        #: (customer routes propagate key -> neighbor).
        self.up = up
        #: Neighbors that are peers of the key AS.
        self.peers = peers
        #: Neighbors that are customers of the key AS
        #: (provider routes propagate key -> neighbor).
        self.down = down

    @classmethod
    def build(cls, neighbors: Dict[int, Dict[int, Relationship]]) -> "AdjacencyIndex":
        up: Dict[int, Tuple[int, ...]] = {}
        peers: Dict[int, Tuple[int, ...]] = {}
        down: Dict[int, Tuple[int, ...]] = {}
        for asn, edges in neighbors.items():
            up_list: List[int] = []
            peer_list: List[int] = []
            down_list: List[int] = []
            for neighbor, rel in edges.items():
                if rel is Relationship.CUSTOMER:
                    down_list.append(neighbor)
                elif rel is Relationship.PEER:
                    peer_list.append(neighbor)
                else:  # PROVIDER or SIBLING
                    up_list.append(neighbor)
            if up_list:
                up[asn] = tuple(up_list)
            if peer_list:
                peers[asn] = tuple(peer_list)
            if down_list:
                down[asn] = tuple(down_list)
        return cls(up, peers, down)


class ASGraph:
    """Graph of ASes with relationship-annotated edges.

    Edges are stored from both endpoints' perspectives so that
    ``relationship(a, b)`` answers "what is b to a?" in O(1).
    """

    #: Class-level defaults keep instances unpickled from older
    #: serializations working (their instance dicts lack these).
    _version: int = 0
    _index_cache: Optional[Tuple[int, AdjacencyIndex]] = None
    _fingerprint_cache: Optional[Tuple[int, str]] = None

    def __init__(self) -> None:
        self._ases: Dict[int, AS] = {}
        self._neighbors: Dict[int, Dict[int, Relationship]] = {}
        self._version = 0
        self._index_cache = None
        self._fingerprint_cache = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_as(self, asys: AS) -> None:
        """Register an AS; replaces any prior record for the same ASN."""
        self._ases[asys.asn] = asys
        self._neighbors.setdefault(asys.asn, {})
        self._version += 1

    def ensure_asn(self, asn: int) -> None:
        """Register a bare ASN with no metadata if unseen.

        Relationship files mention ASNs with no administrative data; the
        graph must still hold edges for them.
        """
        if asn not in self._ases:
            self.add_as(AS(asn=asn))

    def add_link(self, asn: int, neighbor: int, relationship: Relationship) -> None:
        """Add an edge; ``relationship`` is the neighbor's role to ``asn``.

        ``add_link(1, 2, Relationship.CUSTOMER)`` records that AS2 is a
        customer of AS1.  The reverse direction is stored automatically.
        Re-adding an existing edge overwrites its relationship.
        """
        if asn == neighbor:
            raise ValueError(f"self-link on AS{asn}")
        self.ensure_asn(asn)
        self.ensure_asn(neighbor)
        self._neighbors[asn][neighbor] = relationship
        self._neighbors[neighbor][asn] = relationship.flipped()
        self._version += 1

    def remove_link(self, asn: int, neighbor: int) -> bool:
        """Remove the edge if present; returns whether it existed."""
        if neighbor not in self._neighbors.get(asn, {}):
            return False
        del self._neighbors[asn][neighbor]
        del self._neighbors[neighbor][asn]
        self._version += 1
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, asn: int) -> bool:
        return asn in self._ases

    def __len__(self) -> int:
        return len(self._ases)

    def asns(self) -> Iterator[int]:
        return iter(self._ases)

    def ases(self) -> Iterator[AS]:
        return iter(self._ases.values())

    def get_as(self, asn: int) -> AS:
        return self._ases[asn]

    def has_link(self, asn: int, neighbor: int) -> bool:
        return neighbor in self._neighbors.get(asn, {})

    def relationship(self, asn: int, neighbor: int) -> Optional[Relationship]:
        """What ``neighbor`` is to ``asn``; ``None`` if not adjacent."""
        return self._neighbors.get(asn, {}).get(neighbor)

    def neighbors(self, asn: int) -> Dict[int, Relationship]:
        """Mapping neighbor ASN -> its relationship to ``asn``."""
        return dict(self._neighbors.get(asn, {}))

    def neighbor_set(self, asn: int) -> Iterable[int]:
        """The neighbor ASNs of ``asn`` without copying (read-only view)."""
        return self._neighbors.get(asn, {}).keys()

    def routing_adjacency(self) -> AdjacencyIndex:
        """Relationship-partitioned adjacency, cached until mutation.

        The cache key is an internal version counter bumped by every
        mutator, so callers may hold the graph across edits and still
        observe a consistent, current index.
        """
        cache = self._index_cache
        if cache is not None and cache[0] == self._version:
            return cache[1]
        index = AdjacencyIndex.build(self._neighbors)
        self._index_cache = (self._version, index)
        return index

    def neighbors_by_class(self, asn: int, relationship: Relationship) -> List[int]:
        return [
            neighbor
            for neighbor, rel in self._neighbors.get(asn, {}).items()
            if rel is relationship
        ]

    def customers(self, asn: int) -> List[int]:
        return self.neighbors_by_class(asn, Relationship.CUSTOMER)

    def providers(self, asn: int) -> List[int]:
        return self.neighbors_by_class(asn, Relationship.PROVIDER)

    def peers(self, asn: int) -> List[int]:
        return self.neighbors_by_class(asn, Relationship.PEER)

    def siblings(self, asn: int) -> List[int]:
        return self.neighbors_by_class(asn, Relationship.SIBLING)

    def degree(self, asn: int) -> int:
        return len(self._neighbors.get(asn, {}))

    def links(self) -> Iterator[Tuple[int, int, Relationship]]:
        """Iterate each undirected edge once.

        Edges are yielded as ``(a, b, rel)`` where ``rel`` is b's role
        to a, normalized so that customer-provider edges appear with the
        provider first (``rel`` is CUSTOMER) and symmetric edges with
        the lower ASN first.
        """
        for asn in sorted(self._neighbors):
            for neighbor, rel in sorted(self._neighbors[asn].items()):
                if rel is Relationship.CUSTOMER:
                    yield asn, neighbor, rel
                elif rel in (Relationship.PEER, Relationship.SIBLING) and asn < neighbor:
                    yield asn, neighbor, rel

    def num_links(self) -> int:
        return sum(1 for _ in self.links())

    def fingerprint(self) -> str:
        """Hash of the full link set, cached until the graph mutates.

        Graphs with the same links share a fingerprint, whatever object
        holds them; the run ledger and the temporal journal key on it.
        The cache lives on the instance (like :meth:`routing_adjacency`),
        so a copy never inherits another graph's digest.
        """
        cache = self._fingerprint_cache
        if cache is not None and cache[0] == self._version:
            return cache[1]
        digest = hashlib.blake2b(digest_size=8)
        for a, b, rel in sorted(
            self.links(), key=lambda link: (link[0], link[1], str(link[2].value))
        ):
            digest.update(f"{a}|{b}|{rel.value}\n".encode("utf-8"))
        fingerprint = digest.hexdigest()
        self._fingerprint_cache = (self._version, fingerprint)
        return fingerprint

    def customer_cone(self, asn: int) -> frozenset:
        """The set of ASNs reachable by walking only provider->customer
        edges from ``asn``, including ``asn`` itself.

        This is CAIDA's "customer cone", used by the AS-type classifier.
        """
        cone = {asn}
        frontier = [asn]
        while frontier:
            current = frontier.pop()
            for customer in self.customers(current):
                if customer not in cone:
                    cone.add(customer)
                    frontier.append(customer)
        return frozenset(cone)

    def copy(self) -> "ASGraph":
        clone = ASGraph()
        clone._ases = dict(self._ases)
        clone._neighbors = {asn: dict(nbrs) for asn, nbrs in self._neighbors.items()}
        return clone

    def subgraph(self, asns: Iterable[int]) -> "ASGraph":
        """The induced subgraph on ``asns`` (links between kept ASes)."""
        keep = set(asns)
        sub = ASGraph()
        for asn in keep:
            if asn in self._ases:
                sub.add_as(self._ases[asn])
        for asn, neighbor, rel in self.links():
            if asn in keep and neighbor in keep:
                sub.add_link(asn, neighbor, rel)
        return sub
