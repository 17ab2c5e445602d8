"""Geography-driven latency model.

Round-trip times are dominated by propagation delay: light in fiber
covers roughly 200 km per millisecond one way, and real paths detour,
which we fold into a path-inefficiency factor.  Each router hop adds a
small queueing/processing delay.
"""

from __future__ import annotations

from repro.topogen.geography import City, distance_km

#: Speed of light in fiber, km per ms (one way).
_FIBER_KM_PER_MS = 200.0
#: Real paths are not great circles.
_PATH_INEFFICIENCY = 1.4
#: Per-hop processing/queueing delay in ms.
_PER_HOP_MS = 0.15


def propagation_delay_ms(a: City, b: City) -> float:
    """One-way propagation delay between two cities."""
    return distance_km(a, b) * _PATH_INEFFICIENCY / _FIBER_KM_PER_MS


def rtt_ms(source: City, hop: City, hop_count: int, jitter: float = 0.0) -> float:
    """Round-trip time from ``source`` to a router in ``hop``.

    ``hop_count`` is the number of router hops to reach it; ``jitter``
    is an additive noise term the caller draws from its RNG so latency
    stays deterministic under a fixed seed.
    """
    if hop_count < 0:
        raise ValueError("hop_count must be non-negative")
    base = 2.0 * propagation_delay_ms(source, hop)
    return base + hop_count * _PER_HOP_MS + max(0.0, jitter)
