"""A fixed world map for the synthetic Internet.

Continents, countries and cities with coordinates.  The layout is
hand-built rather than random so that distances (and thus latencies and
undersea-cable placement) are stable and roughly realistic: crossing an
ocean requires a cable AS or a multinational backbone, and intra-country
hops are short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Tuple

#: Continent codes follow the paper's Figure 3 labels.
CONTINENTS = ("AF", "NA", "EU", "SA", "AS", "OC")


@dataclass(frozen=True)
class City:
    name: str
    country: str
    continent: str
    lat: float
    lon: float


@dataclass(frozen=True)
class Country:
    code: str
    continent: str
    cities: Tuple[City, ...]

    @property
    def capital(self) -> City:
        return self.cities[0]


@dataclass
class World:
    """Queryable container of the world map."""

    countries: Dict[str, Country] = field(default_factory=dict)

    def add_country(self, country: Country) -> None:
        self.countries[country.code] = country

    def continent_of(self, country_code: str) -> str:
        return self.countries[country_code].continent

    def countries_in(self, continent: str) -> List[Country]:
        return [c for c in self.countries.values() if c.continent == continent]

    def all_cities(self) -> List[City]:
        return [city for country in self.countries.values() for city in country.cities]

    def cities_in_country(self, country_code: str) -> Tuple[City, ...]:
        return self.countries[country_code].cities


def distance_km(a: City, b: City) -> float:
    """Great-circle distance between two cities (haversine).

    Computed once per ordered pair of coordinates: the campaign ranks
    replicas and times hops by the same few hundred city pairs.
    """
    return _haversine_km(a.lat, a.lon, b.lat, b.lon)


@lru_cache(maxsize=4096)
def _haversine_km(lat_a: float, lon_a: float, lat_b: float, lon_b: float) -> float:
    lat1, lon1, lat2, lon2 = map(math.radians, (lat_a, lon_a, lat_b, lon_b))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * 6371.0 * math.asin(min(1.0, math.sqrt(h)))


# ---------------------------------------------------------------------------
# The fixed world: (country, continent, [(city, lat, lon), ...])
# ---------------------------------------------------------------------------
_WORLD_SPEC = [
    # North America
    ("US", "NA", [("New York", 40.7, -74.0), ("Los Angeles", 34.1, -118.2),
                  ("Chicago", 41.9, -87.6), ("Ashburn", 39.0, -77.5),
                  ("Miami", 25.8, -80.2), ("Seattle", 47.6, -122.3)]),
    ("CA", "NA", [("Toronto", 43.7, -79.4), ("Vancouver", 49.3, -123.1)]),
    ("MX", "NA", [("Mexico City", 19.4, -99.1), ("Monterrey", 25.7, -100.3)]),
    # Europe
    ("DE", "EU", [("Frankfurt", 50.1, 8.7), ("Berlin", 52.5, 13.4)]),
    ("NL", "EU", [("Amsterdam", 52.4, 4.9)]),
    ("GB", "EU", [("London", 51.5, -0.1), ("Manchester", 53.5, -2.2)]),
    ("FR", "EU", [("Paris", 48.9, 2.4), ("Marseille", 43.3, 5.4)]),
    ("IT", "EU", [("Milan", 45.5, 9.2), ("Rome", 41.9, 12.5)]),
    ("ES", "EU", [("Madrid", 40.4, -3.7)]),
    ("SE", "EU", [("Stockholm", 59.3, 18.1)]),
    ("PL", "EU", [("Warsaw", 52.2, 21.0)]),
    # South America
    ("BR", "SA", [("Sao Paulo", -23.6, -46.6), ("Rio de Janeiro", -22.9, -43.2),
                  ("Fortaleza", -3.7, -38.5)]),
    ("AR", "SA", [("Buenos Aires", -34.6, -58.4)]),
    ("CL", "SA", [("Santiago", -33.4, -70.7)]),
    ("CO", "SA", [("Bogota", 4.7, -74.1)]),
    # Asia
    ("JP", "AS", [("Tokyo", 35.7, 139.7), ("Osaka", 34.7, 135.5)]),
    ("SG", "AS", [("Singapore", 1.4, 103.8)]),
    ("IN", "AS", [("Mumbai", 19.1, 72.9), ("Chennai", 13.1, 80.3)]),
    ("KR", "AS", [("Seoul", 37.6, 127.0)]),
    ("HK", "AS", [("Hong Kong", 22.3, 114.2)]),
    ("ID", "AS", [("Jakarta", -6.2, 106.8)]),
    # Africa
    ("ZA", "AF", [("Johannesburg", -26.2, 28.0), ("Cape Town", -33.9, 18.4)]),
    ("KE", "AF", [("Nairobi", -1.3, 36.8)]),
    ("NG", "AF", [("Lagos", 6.5, 3.4)]),
    ("EG", "AF", [("Cairo", 30.0, 31.2)]),
    # Oceania
    ("AU", "OC", [("Sydney", -33.9, 151.2), ("Perth", -32.0, 115.9)]),
    ("NZ", "OC", [("Auckland", -36.8, 174.8)]),
]


def build_world() -> World:
    """Construct the fixed world map used by the generator."""
    world = World()
    for code, continent, cities in _WORLD_SPEC:
        city_objects = tuple(
            City(name=name, country=code, continent=continent, lat=lat, lon=lon)
            for name, lat, lon in cities
        )
        world.add_country(Country(code=code, continent=continent, cities=city_objects))
    return world
