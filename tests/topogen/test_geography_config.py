"""Tests for the world map and generator configuration."""

import math

import pytest

from repro.topogen.config import TopologyConfig, small_config
from repro.topogen.geography import (
    CONTINENTS,
    _haversine_km,
    build_world,
    distance_km,
)


class TestWorld:
    def test_every_continent_has_countries(self):
        world = build_world()
        for continent in CONTINENTS:
            assert world.countries_in(continent), continent

    def test_country_lookup(self):
        world = build_world()
        assert world.continent_of("BR") == "SA"
        assert world.continent_of("DE") == "EU"
        assert world.cities_in_country("US")

    def test_all_cities_unique_names_within_country(self):
        world = build_world()
        for country in world.countries.values():
            names = [city.name for city in country.cities]
            assert len(names) == len(set(names))

    def test_capital_is_first_city(self):
        world = build_world()
        us = world.countries["US"]
        assert us.capital == us.cities[0]

    def test_city_continent_matches_country(self):
        world = build_world()
        for city in world.all_cities():
            assert city.continent == world.continent_of(city.country)


class TestDistance:
    def test_zero_distance_to_self(self):
        world = build_world()
        city = world.all_cities()[0]
        assert distance_km(city, city) == pytest.approx(0.0)

    def test_symmetry(self):
        world = build_world()
        a, b = world.all_cities()[0], world.all_cities()[10]
        assert distance_km(a, b) == pytest.approx(distance_km(b, a))

    def test_known_distance_roughly_right(self):
        world = build_world()
        cities = {c.name: c for c in world.all_cities()}
        ny_london = distance_km(cities["New York"], cities["London"])
        # Great-circle NY-London is about 5,570 km.
        assert 5000 < ny_london < 6100

    def test_transpacific_longer_than_domestic(self):
        world = build_world()
        cities = {c.name: c for c in world.all_cities()}
        assert distance_km(cities["New York"], cities["Tokyo"]) > distance_km(
            cities["New York"], cities["Chicago"]
        )

    def test_memoized_distance_is_the_formulas_float_in_either_order(self):
        """One memo entry per ordered coordinate pair: each call returns
        the uncached haversine's exact float for its argument order, so
        hop RTTs (and the journal bytes they reach) do not move."""
        cities = build_world().all_cities()
        assert len(cities) ** 2 <= _haversine_km.cache_info().maxsize
        for a in cities:
            for b in cities:
                fresh = _haversine_km.__wrapped__(a.lat, a.lon, b.lat, b.lon)
                for _ in range(2):
                    assert distance_km(a, b) == fresh


class TestTopologyConfig:
    def test_default_validates(self):
        TopologyConfig().validate()
        small_config().validate()

    def test_rejects_bad_rate(self):
        config = TopologyConfig(selective_export_rate=1.5)
        with pytest.raises(ValueError):
            config.validate()

    def test_rejects_negative_count(self):
        config = TopologyConfig(num_stubs=-1)
        with pytest.raises(ValueError):
            config.validate()

    def test_rejects_single_tier1(self):
        config = TopologyConfig(num_tier1=1)
        with pytest.raises(ValueError):
            config.validate()
