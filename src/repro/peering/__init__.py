"""PEERING testbed and route-collector simulation (paper Section 3.2).

The testbed attaches a PEERING AS to university host networks (muxes),
announces experiment prefixes with per-mux control and BGP poisoning,
and drives the paper's two active experiments: alternate-route
discovery through iterative poisoning, and magnet/anycast rounds that
expose which BGP decision step picked each route.  Route collectors
model RouteViews/RIPE RIS: BGP feeds from a limited set of peer ASes.
"""

from repro.peering.collectors import FeedArchive, RouteCollector, default_collectors
from repro.peering.testbed import PeeringTestbed, Mux
from repro.peering.schedule import ExperimentSchedule, schedule_discovery
from repro.peering.experiments import (
    ActiveRunConfig,
    ActiveSupervisor,
    AlternateRouteObservation,
    DiscoveryResult,
    MagnetObservation,
    discover_alternate_routes,
    run_magnet_experiments,
)

__all__ = [
    "FeedArchive",
    "RouteCollector",
    "default_collectors",
    "PeeringTestbed",
    "Mux",
    "ExperimentSchedule",
    "schedule_discovery",
    "ActiveRunConfig",
    "ActiveSupervisor",
    "AlternateRouteObservation",
    "DiscoveryResult",
    "MagnetObservation",
    "discover_alternate_routes",
    "run_magnet_experiments",
]
