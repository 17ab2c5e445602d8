"""repro.serve — the study-as-a-service daemon.

One long-lived process answers JSON-over-HTTP requests for the
repository's four workloads (``study``, ``classify``, ``check``,
``bench``) from many concurrent clients, sharing warm state that the
one-shot CLI rebuilds from scratch on every invocation:

* :mod:`repro.serve.cache` — the :class:`ArtifactStore` of routing
  engines (keyed by graph fingerprint and partial-transit set) and
  memoized study snapshots, shared across tenants.
* :mod:`repro.serve.tenants` — per-tenant admission budgets built on
  :class:`repro.atlas.budget.CreditLedger`.
* :mod:`repro.serve.protocol` — request parsing/validation, and
  :func:`~repro.core.pipeline.build_study_config` (the one config
  constructor the daemon and the CLI both use, so a daemon-submitted
  study is byte-identical to ``repro study``) with an unknown scale
  rejected as a protocol error.
* :mod:`repro.serve.daemon` — the asyncio HTTP server: bounded
  admission queue (429 + ``Retry-After``), NDJSON progress streaming,
  ``/metrics`` (Prometheus) and ``/healthz``, graceful SIGTERM drain.
* :mod:`repro.serve.client` — the stdlib HTTP client behind
  ``repro query`` and the load generator.
* :mod:`repro.serve.loadgen` — the concurrency load generator behind
  ``repro perf bench --section serve``.

Everything is stdlib-only (``asyncio`` + ``http.client``); no new
dependencies.
"""

from repro.serve.cache import ArtifactStore
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import DaemonHandle, ReproDaemon, ServeConfig
from repro.serve.protocol import (
    CATEGORY_SERVE,
    PROTOCOL_VERSION,
    SERVE_COSTS,
    WORKLOADS,
    ProtocolError,
    ServeRequest,
    build_study_config,
    parse_request,
)
from repro.serve.tenants import TenantRegistry

__all__ = [
    "ArtifactStore",
    "CATEGORY_SERVE",
    "DaemonHandle",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ReproDaemon",
    "SERVE_COSTS",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeRequest",
    "TenantRegistry",
    "WORKLOADS",
    "build_study_config",
    "parse_request",
]
