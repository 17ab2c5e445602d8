"""IP-to-AS mapping, geolocation, and traceroute conversion.

These are the measurement-pipeline substrates of Section 3.1: mapping
traceroute hop addresses to ASes by longest-prefix match over
originated prefixes, converting IP-level paths to AS-level paths with
the cleanups of Chen et al. (CoNEXT'09), and geolocating
infrastructure addresses (the paper uses the Alidade database; we use
the generated ground truth behind a configurable error model).
"""

from repro.ipmap.ip2as import IPToASMapper
from repro.ipmap.geolocation import GeoDatabase
from repro.ipmap.path_conversion import ASLevelPath, convert_traceroute

__all__ = [
    "IPToASMapper",
    "GeoDatabase",
    "ASLevelPath",
    "convert_traceroute",
]
