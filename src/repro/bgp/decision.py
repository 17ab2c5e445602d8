"""The BGP best-path decision process.

The simulator implements the steps of the standard (Cisco-documented)
decision process that the paper's reverse-engineering experiment
targets (Table 2):

1. highest local preference,
2. shortest AS-path length,
3. lowest intradomain (IGP) cost to the egress — hot-potato routing,
4. oldest route,
5. lowest router ID.

:func:`best_route` additionally reports which step broke the tie, which
serves as ground truth when validating the paper's inference method.
"""

from __future__ import annotations

import enum
from typing import Iterable, List, Optional, Tuple

from repro.bgp.routes import Route


class DecisionStep(enum.Enum):
    """The decision-process step that selected the best route."""

    ONLY_ROUTE = "only route"
    LOCAL_PREF = "local preference"
    PATH_LENGTH = "as-path length"
    IGP_COST = "intradomain cost"
    ROUTE_AGE = "route age"
    ROUTER_ID = "router id"


def preference_key(route: Route) -> Tuple[int, int, int, int, int]:
    """Sort key: smaller is better on every component.

    Public so equivalence tooling (:mod:`repro.check`) can assert that
    the whole decision process is exactly "minimize this tuple" — the
    reference oracle deliberately avoids it and compares attribute by
    attribute instead.
    """
    return (
        -route.local_pref,
        route.path_length(),
        route.igp_cost,
        route.age,
        route.router_id,
    )


def rank_routes(routes: Iterable[Route]) -> List[Route]:
    """Routes sorted most-preferred first."""
    return sorted(routes, key=preference_key)


#: The step each :func:`preference_key` component decides, in order.
_KEY_STEPS = (
    DecisionStep.LOCAL_PREF,
    DecisionStep.PATH_LENGTH,
    DecisionStep.IGP_COST,
    DecisionStep.ROUTE_AGE,
    DecisionStep.ROUTER_ID,
)


def best_route(routes: Iterable[Route]) -> Tuple[Optional[Route], Optional[DecisionStep]]:
    """The winning route and the decision step that picked it.

    The reported step is the first attribute on which the winner beats
    the runner-up; with a single candidate it is ``ONLY_ROUTE``.  One
    pass keeps the winner and the runner-up; among routes with equal
    keys the earlier one ranks first, exactly as in the stable sort of
    :func:`rank_routes`.
    """
    winner = runner_up = winner_key = runner_key = None
    for route in routes:
        key = preference_key(route)
        if winner is None or key < winner_key:
            runner_up, runner_key = winner, winner_key
            winner, winner_key = route, key
        elif runner_up is None or key < runner_key:
            runner_up, runner_key = route, key
    if winner is None:
        return None, None
    if runner_up is None:
        return winner, DecisionStep.ONLY_ROUTE
    for step, ours, theirs in zip(_KEY_STEPS, winner_key, runner_key):
        if ours != theirs:
            return winner, step
    return winner, DecisionStep.ROUTER_ID
