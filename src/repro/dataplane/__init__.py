"""Data-plane simulation: traceroute and latency.

Converts converged BGP state (the AS-level walk of
:meth:`~repro.bgp.simulator.BGPSimulator.forwarding_path`) plus
router-level topology detail into the measurement artifacts the
paper's pipeline consumes: IP-level traceroute hops with realistic
addressing (interconnect /30s owned by one side, occasional missing
hops) and geography-driven round-trip times.
"""

from repro.dataplane.latency import rtt_ms, propagation_delay_ms
from repro.dataplane.traceroute import TracerouteEngine, TracerouteHop, TracerouteResult

__all__ = [
    "rtt_ms",
    "propagation_delay_ms",
    "TracerouteEngine",
    "TracerouteHop",
    "TracerouteResult",
]
