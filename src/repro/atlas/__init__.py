"""Measurement-platform simulation (RIPE Atlas style).

Provides a globally distributed probe population (with the real
platform's Europe skew), the paper's two probe-selection strategies —
continent-balanced round-robin for the passive campaign (Section 3.1)
and greedy AS-coverage maximization for PEERING monitoring (Section
3.2) — CDN-aware DNS resolution, and the traceroute campaign runner.
"""

from repro.atlas.probes import Probe, generate_probes
from repro.atlas.selection import select_probes_balanced, select_probes_greedy
from repro.atlas.dns import CDNResolver
from repro.atlas.campaign import (
    CampaignConfig,
    CampaignDataset,
    Measurement,
    run_campaign,
)
from repro.atlas.api import dump_measurements

__all__ = [
    "Probe",
    "generate_probes",
    "select_probes_balanced",
    "select_probes_greedy",
    "CDNResolver",
    "CampaignConfig",
    "CampaignDataset",
    "Measurement",
    "run_campaign",
    "dump_measurements",
]
