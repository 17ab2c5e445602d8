"""Tests for AS-path attributes and the decision process."""

import pytest

from repro.bgp import ASPathAttribute, DecisionStep, Route, best_route
from repro.bgp.decision import rank_routes
from repro.bgp.policy import path_accepted
from repro.net.ip import Prefix
from repro.topology.relationships import Relationship

PFX = Prefix.parse("198.51.100.0/24")


def _route(lp=100, path=(1, 2), igp=0, age=0, rid=1, rel=Relationship.PROVIDER):
    return Route(
        as_path=ASPathAttribute.from_sequence(path),
        learned_from=path[0],
        relationship=rel,
        local_pref=lp,
        igp_cost=igp,
        age=age,
        router_id=rid,
    )


class TestASPathAttribute:
    def test_origin_and_prepend(self):
        path = ASPathAttribute.origin(65001).prepend(65002).prepend(65003)
        assert path.sequence() == (65003, 65002, 65001)
        assert path.origin_asn == 65001
        assert path.first_asn == 65003
        assert path.length() == 3

    def test_as_set_counts_as_one_hop(self):
        path = ASPathAttribute.origin(100).with_poison_set({7, 8, 9}, owner=100)
        # owner {7,8,9} owner
        assert path.length() == 3
        # Loop prevention sees the set's members and the owner, no one else.
        assert not path_accepted(path, 8, False, False)
        assert not path_accepted(path, 100, False, False)
        assert path_accepted(path, 11, False, False)

    def test_with_empty_poison_set_is_identity(self):
        path = ASPathAttribute.origin(100)
        assert path.with_poison_set([], owner=100) == path

    def test_sequence_skips_sets(self):
        path = ASPathAttribute.origin(100).with_poison_set({7}, owner=100).prepend(5)
        assert path.sequence() == (5, 100, 100)

    def test_all_asns(self):
        path = ASPathAttribute.origin(100).with_poison_set({7, 8}, owner=100)
        assert path.all_asns() == frozenset({100, 7, 8})

    def test_str_rendering(self):
        path = ASPathAttribute((1, frozenset({3, 2}), 1))
        assert str(path) == "1 {2,3} 1"

    def test_origin_of_set_only_path_raises(self):
        with pytest.raises(ValueError):
            ASPathAttribute((frozenset({1, 2}),)).origin_asn


class TestDecisionProcess:
    def test_empty_candidates(self):
        assert best_route([]) == (None, None)

    def test_single_route(self):
        route = _route()
        winner, step = best_route([route])
        assert winner == route
        assert step is DecisionStep.ONLY_ROUTE

    def test_local_pref_wins_over_shorter_path(self):
        cheap_long = _route(lp=300, path=(1, 2, 3, 4))
        expensive_short = _route(lp=100, path=(5, 4), rid=5)
        winner, step = best_route([expensive_short, cheap_long])
        assert winner == cheap_long
        assert step is DecisionStep.LOCAL_PREF

    def test_path_length_breaks_local_pref_tie(self):
        short = _route(lp=200, path=(1, 4), rid=1)
        long = _route(lp=200, path=(2, 3, 4), rid=2)
        winner, step = best_route([long, short])
        assert winner == short
        assert step is DecisionStep.PATH_LENGTH

    def test_igp_cost_breaks_length_tie(self):
        near = _route(igp=5, path=(1, 4), rid=1)
        far = _route(igp=9, path=(2, 4), rid=2)
        winner, step = best_route([far, near])
        assert winner == near
        assert step is DecisionStep.IGP_COST

    def test_route_age_breaks_igp_tie(self):
        old = _route(age=3, path=(1, 4), rid=1)
        new = _route(age=8, path=(2, 4), rid=2)
        winner, step = best_route([new, old])
        assert winner == old
        assert step is DecisionStep.ROUTE_AGE

    def test_router_id_is_final_tiebreak(self):
        low = _route(rid=1, path=(1, 4))
        high = _route(rid=2, path=(2, 4))
        winner, step = best_route([high, low])
        assert winner == low
        assert step is DecisionStep.ROUTER_ID

    def test_rank_routes_total_order(self):
        routes = [
            _route(lp=100, path=(1, 9), rid=1),
            _route(lp=300, path=(2, 9), rid=2),
            _route(lp=200, path=(3, 9), rid=3),
        ]
        ranked = rank_routes(routes)
        assert [r.local_pref for r in ranked] == [300, 200, 100]
