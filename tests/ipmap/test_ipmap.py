"""Tests for IP-to-AS mapping, geolocation, and path conversion."""

import pytest

from repro.dataplane.traceroute import TracerouteHop, TracerouteResult
from repro.ipmap import ASLevelPath, GeoDatabase, IPToASMapper, convert_traceroute
from repro.net.ip import IPAddress, Prefix
from repro.topogen import generate_internet
from repro.topogen.config import small_config


def _mapper():
    return IPToASMapper(
        [
            (Prefix.parse("10.1.0.0/16"), 1),
            (Prefix.parse("10.2.0.0/16"), 2),
            (Prefix.parse("10.3.0.0/16"), 3),
        ]
    )


def _result(hop_ips, destination="10.3.0.9", source_asn=1, reached=True):
    hops = [
        TracerouteHop(ip=None if ip is None else IPAddress.parse(ip), rtt=1.0)
        for ip in hop_ips
    ]
    return TracerouteResult(
        source_asn=source_asn,
        source_ip=IPAddress.parse("10.1.0.1"),
        destination_ip=IPAddress.parse(destination),
        hops=hops,
        reached=reached,
    )


class TestIPToASMapper:
    def test_lookup(self):
        mapper = _mapper()
        assert mapper.lookup(IPAddress.parse("10.2.3.4")) == 2
        assert mapper.lookup(IPAddress.parse("172.16.0.1")) is None
        assert mapper.lookup_prefix(IPAddress.parse("10.2.3.4")) == Prefix.parse(
            "10.2.0.0/16"
        )

    def test_from_prefix_map(self):
        mapper = IPToASMapper.from_prefix_map({7: [Prefix.parse("10.9.0.0/16")]})
        assert mapper.lookup(IPAddress.parse("10.9.1.1")) == 7
        assert len(mapper) == 1


class TestConvertTraceroute:
    def test_clean_conversion(self):
        path = convert_traceroute(
            _result(["10.1.0.5", "10.2.0.5", "10.3.0.5", "10.3.0.9"]), _mapper()
        )
        assert path.hops == (1, 2, 3)
        assert path.complete
        assert path.source_asn == 1
        assert path.destination_asn == 3

    def test_consecutive_duplicates_collapse(self):
        path = convert_traceroute(
            _result(["10.1.0.5", "10.1.0.6", "10.2.0.5", "10.2.0.9", "10.3.0.9"]),
            _mapper(),
        )
        assert path.hops == (1, 2, 3)

    def test_gap_within_same_as_stays_complete(self):
        path = convert_traceroute(
            _result(["10.1.0.5", None, "10.1.0.6", "10.2.0.5", "10.3.0.9"]),
            _mapper(),
        )
        assert path.hops == (1, 2, 3)
        assert path.complete

    def test_gap_between_ases_marks_incomplete(self):
        path = convert_traceroute(
            _result(["10.1.0.5", None, "10.2.0.5", "10.3.0.9"]), _mapper()
        )
        assert path.hops == (1, 2, 3)
        assert not path.complete

    def test_unmapped_hop_bridged(self):
        path = convert_traceroute(
            _result(["10.1.0.5", "192.0.2.1", "10.2.0.5", "10.3.0.9"]), _mapper()
        )
        assert path.hops == (1, 2, 3)
        assert not path.complete

    def test_unreached_returns_none(self):
        assert convert_traceroute(_result(["10.1.0.5"], reached=False), _mapper()) is None

    def test_unmapped_destination_returns_none(self):
        result = _result(["10.1.0.5"], destination="192.0.2.9")
        assert convert_traceroute(result, _mapper()) is None

    def test_destination_appended_if_missing(self):
        # Trace cut short before the destination's own AS responded.
        path = convert_traceroute(_result(["10.1.0.5", "10.2.0.5"]), _mapper())
        assert path.hops == (1, 2, 3)

    def test_adjacencies(self):
        path = ASLevelPath(source_asn=1, destination_asn=3, hops=(1, 2, 3), complete=True)
        assert path.adjacencies() == ((1, 2), (2, 3))


class TestGeoDatabase:
    def test_from_internet_coverage(self):
        internet = generate_internet(small_config(), seed=9)
        geo = GeoDatabase.from_internet(internet, error_rate=0.0, miss_rate=0.0, seed=0)
        assert len(geo) == len(internet.ip_locations)
        some_ip_value, city = next(iter(internet.ip_locations.items()))
        assert geo.city_of(IPAddress(some_ip_value)) == city

    def test_miss_rate_drops_entries(self):
        internet = generate_internet(small_config(), seed=9)
        geo = GeoDatabase.from_internet(internet, error_rate=0.0, miss_rate=0.5, seed=0)
        assert len(geo) < len(internet.ip_locations)

    def test_error_rate_misplaces_entries(self):
        internet = generate_internet(small_config(), seed=9)
        geo = GeoDatabase.from_internet(internet, error_rate=1.0, miss_rate=0.0, seed=0)
        wrong = 0
        for value, truth in list(internet.ip_locations.items())[:200]:
            located = geo.city_of(IPAddress(value))
            if located != truth:
                wrong += 1
        assert wrong > 100

    def test_country_continent_helpers(self):
        geo = GeoDatabase()
        from repro.topogen.geography import City

        geo.add(IPAddress.parse("10.0.0.1"), City("Paris", "FR", "EU", 48.9, 2.4))
        ip = IPAddress.parse("10.0.0.1")
        assert geo.country_of(ip) == "FR"
        assert geo.continent_of(ip) == "EU"
        assert ip in geo
        missing = IPAddress.parse("10.0.0.2")
        assert geo.city_of(missing) is None
        assert geo.continents_of_path([ip, missing]) == ["EU", None]
