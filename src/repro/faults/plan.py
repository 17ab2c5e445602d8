"""Seeded, deterministic fault plans.

A :class:`FaultPlan` decides, for every substrate boundary, whether a
given operation fails — *without consuming any sequential RNG stream*.
Every decision is a pure hash of ``(plan seed, site, key)``, so:

* injection at one site never perturbs another site's randomness,
* a resumed campaign that skips checkpointed work sees exactly the
  same faults on the remaining work as an uninterrupted run, and
* transient faults (keyed by attempt number) can clear on retry while
  persistent faults (keyed without it) exhaust the retry budget.

Plans serialize to/from JSON so campaigns can be driven by
``repro study --fault-plan plan.json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Mapping, Union

from repro.obs.context import publish
from repro.obs.events import CATEGORY_FAULT


class FaultSite(str, Enum):
    """Every boundary where the plan can inject a failure."""

    PROBE_DROPOUT = "atlas/probes:dropout"
    PROBE_FLAP = "atlas/probes:flap"
    DNS_SERVFAIL = "atlas/dns:servfail"
    DNS_TIMEOUT = "atlas/dns:timeout"
    TRACEROUTE_TRUNCATE = "dataplane/traceroute:truncate"
    TRACEROUTE_LOOP = "dataplane/traceroute:loop"
    TRACEROUTE_GARBLE = "dataplane/traceroute:garble"
    API_RATE_LIMIT = "atlas/api:rate-limit"
    API_SERVER_ERROR = "atlas/api:server-error"
    MUX_RESET = "peering/testbed:session-reset"
    # Active control-plane sites (poisoning / magnet experiments).
    POISON_FILTERED = "bgp/poison:filtered"
    LONG_PATH_REJECTED = "bgp/poison:long-path"
    ROUTE_FLAP_DAMPING = "bgp/announce:damping"
    CONVERGENCE_STALL = "bgp/announce:stall"
    COLLECTOR_FEED_GAP = "peering/collectors:feed-gap"
    MUX_WITHDRAWAL_LOSS = "peering/testbed:withdrawal-loss"
    # Filesystem sites (the durable-storage layer).  Keyed by
    # (file basename, record ordinal, ledger generation) so a crash
    # drill clears on the next resume instead of firing forever.
    STORAGE_TORN_APPEND = "faults/storage:torn-append"
    STORAGE_ENOSPC = "faults/storage:enospc"
    STORAGE_RENAME_CRASH = "faults/storage:crash-before-rename"
    STORAGE_STALE_LOCK = "faults/storage:stale-lock"


_SITE_BY_VALUE = {site.value: site for site in FaultSite}


def derive_seed(*parts: Union[int, str]) -> int:
    """A stable 64-bit sub-seed from arbitrary key parts.

    Used to build per-measurement RNGs so that each (probe, name) pair
    draws from its own stream regardless of iteration order — the
    property checkpoint/resume determinism rests on.
    """
    text = "|".join(str(part) for part in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class FaultPlan:
    """Fault rates per site plus the seed that makes them deterministic."""

    seed: int = 0
    rates: Mapping[FaultSite, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        normalized: Dict[FaultSite, float] = {}
        for site, rate in dict(self.rates).items():
            if not isinstance(site, FaultSite):
                site = self._parse_site(site)
            rate = float(rate)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {site.value} must be in [0, 1], got {rate}")
            normalized[site] = rate
        object.__setattr__(self, "rates", normalized)

    @staticmethod
    def _parse_site(name: str) -> FaultSite:
        site = _SITE_BY_VALUE.get(str(name))
        if site is None:
            valid = ", ".join(sorted(_SITE_BY_VALUE))
            raise ValueError(f"unknown fault site {name!r}; valid sites: {valid}")
        return site

    @classmethod
    def none(cls, seed: int = 0) -> "FaultPlan":
        """A plan that injects nothing (the fault-free reference)."""
        return cls(seed=seed, rates={})

    def is_zero(self) -> bool:
        return all(rate == 0.0 for rate in self.rates.values())

    def rate(self, site: FaultSite) -> float:
        return self.rates.get(site, 0.0)

    # ------------------------------------------------------------------
    # Deterministic decisions
    # ------------------------------------------------------------------
    def roll(self, site: FaultSite, *key: Union[int, str]) -> float:
        """A uniform [0, 1) draw fully determined by (seed, site, key)."""
        value = derive_seed(self.seed, site.value, *key)
        return value / 2.0 ** 64

    def fires(self, site: FaultSite, *key: Union[int, str]) -> bool:
        """Whether the fault at ``site`` fires for this key.

        Firings are published to the observability event stream (when
        one is enabled) under the site's value, so a run manifest can
        list exactly which faults fired.  Publishing consumes no
        randomness: the decision is a pure hash either way.
        """
        rate = self.rate(site)
        if rate <= 0.0:
            return False
        fired = self.roll(site, *key) < rate
        if fired:
            publish(
                CATEGORY_FAULT,
                site.value,
                key="/".join(str(part) for part in key),
            )
        return fired

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "rates": {site.value: rate for site, rate in sorted(self.rates.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise ValueError(f"fault plan must be an object, got {type(data).__name__}")
        rates = data.get("rates", {})
        if not isinstance(rates, Mapping):
            raise ValueError("fault plan 'rates' must be an object")
        return cls(seed=int(data.get("seed", 0)), rates=dict(rates))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    def fingerprint(self) -> str:
        """Stable digest used to guard checkpoint resumption."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()
