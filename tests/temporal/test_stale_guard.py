"""Engine cache-staleness guard: no silently stale routing trees.

Regression battery for the version-stamped routing cache.  A graph
mutation must flush the cache (counted in ``stale_flushes``), never
return a tree of a topology that no longer exists.
"""

import pytest

from repro.core.gao_rexford import GaoRexfordEngine
from repro.topology.graph import ASGraph
from repro.topology.relationships import Relationship

pytestmark = pytest.mark.temporal


def _chain_graph():
    """10 --provider-of--> 20 --provider-of--> 30, with 20 -- 40 peers.

    Destination 30 is reached by 10 over the customer chain (length 2)
    and by 40 over its peer 20 (length 2, peer-learned).
    """
    graph = ASGraph()
    graph.add_link(10, 20, Relationship.CUSTOMER)
    graph.add_link(20, 30, Relationship.CUSTOMER)
    graph.add_link(20, 40, Relationship.PEER)
    return graph


class TestStaleGuard:
    def test_unexplained_mutation_flushes_and_recomputes(self):
        graph = _chain_graph()
        engine = GaoRexfordEngine(graph)
        before = engine.routing_info(30)
        assert before.best_class(40) is Relationship.PEER
        assert before.gr_route_length(40) == 2
        misses_before = engine.cache_stats().misses

        # A new direct customer edge 40 -> 30 changes 40's best route.
        graph.add_link(40, 30, Relationship.CUSTOMER)

        after = engine.routing_info(30)
        assert engine.stale_flushes == 1
        assert engine.cache_stats().misses == misses_before + 1
        assert after.best_class(40) is Relationship.CUSTOMER
        assert after.gr_route_length(40) == 1

    def test_link_removal_never_serves_stale_reachability(self):
        graph = _chain_graph()
        engine = GaoRexfordEngine(graph)
        assert engine.routing_info(30).best_class(40) is Relationship.PEER

        graph.remove_link(20, 40)

        after = engine.routing_info(30)
        assert engine.stale_flushes == 1
        # 40 lost its only path to 30; a stale tree would still route it.
        assert after.best_class(40) is None
        assert after.gr_route_length(40) is None

    def test_flush_fires_on_any_cache_access(self):
        """The guard lives on every cache entry point, not just
        ``routing_info`` — a batched prewarm after a mutation must
        already see the flush and rebuild the tree."""
        graph = _chain_graph()
        engine = GaoRexfordEngine(graph)
        engine.routing_info(30)
        assert engine.warm_batch([(30, None)]) == 0

        graph.add_link(10, 40, Relationship.PEER)

        assert engine.warm_batch([(30, None)]) == 1
        assert engine.stale_flushes == 1

    def test_repeated_access_flushes_once_per_mutation(self):
        graph = _chain_graph()
        engine = GaoRexfordEngine(graph)
        engine.routing_info(30)
        graph.add_link(10, 40, Relationship.PEER)
        engine.routing_info(30)
        engine.routing_info(30)
        engine.routing_info(10)
        assert engine.stale_flushes == 1
