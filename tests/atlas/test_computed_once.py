"""The campaign's once-computed values equal the per-pair computations
they replace, on every pair of the quick study.

The resolver ranks a name's replicas once per probe city, distances
are memoized per pair of coordinates, and hop addresses are formatted
and parsed through memos.  Each test recomputes the value per unit,
without the cache, and compares.
"""

import ipaddress
import random

import pytest

from repro.atlas.dns import CDNResolver
from repro.faults import derive_seed
from repro.net.ip import IPAddress
from repro.topogen.geography import _haversine_km

#: The uncached great-circle formula.
_fresh_distance = _haversine_km.__wrapped__


def _fresh_window(internet, probe, dns_name, locality):
    """A name's nearest replicas, ranked from scratch for one probe."""
    by_name = {}
    for provider in internet.content:
        by_name.update(provider.replicas)
    ranked = sorted(
        by_name.get(dns_name, ()),
        key=lambda replica: (
            _fresh_distance(
                probe.city.lat, probe.city.lon, replica.city.lat, replica.city.lon
            ),
            replica.ip,
        ),
    )
    return ranked[:locality]


class TestResolver:
    @pytest.mark.parametrize("locality", [1, 2, 3])
    def test_every_pair_resolves_to_a_fresh_rankings_pick(self, study, locality):
        resolver = CDNResolver(study.internet, locality=locality)
        for probe in study.selected_probes:
            for dns_name in resolver.names():
                key = derive_seed(locality, "resolve", probe.probe_id, dns_name)
                window = _fresh_window(study.internet, probe, dns_name, locality)
                expected = random.Random(key).choice(window) if window else None
                assert resolver.resolve(dns_name, probe, random.Random(key)) == expected

    def test_every_measured_replica_is_in_its_fresh_window(self, study):
        measurements = study.dataset.measurements
        assert measurements
        for measurement in measurements:
            window = _fresh_window(
                study.internet, measurement.probe, measurement.dns_name, 2
            )
            assert measurement.replica in window


class TestHopAddresses:
    def test_every_hop_address_survives_the_text_round_trip(self, study):
        addresses = {
            hop.ip
            for measurement in study.dataset.measurements
            for hop in measurement.traceroute.hops
            if hop.ip is not None
        }
        assert len(addresses) > 100
        for address in addresses:
            text = str(address)
            assert text == str(ipaddress.IPv4Address(address.value))
            parsed = IPAddress.parse(text)
            assert parsed == address
            assert parsed.value == int(ipaddress.IPv4Address(text))

    def test_measurements_share_one_object_per_address(self, study):
        by_value = {}
        for measurement in study.dataset.measurements:
            for hop in measurement.traceroute.hops:
                if hop.ip is not None:
                    assert by_value.setdefault(hop.ip.value, hop.ip) is hop.ip
