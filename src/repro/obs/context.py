"""The ambient observability context.

One :class:`Observability` object bundles the run's metrics registry,
event stream and garbage-collector pause counts.  A process-wide
current context (disabled by default) lets deeply nested layers — the
retry policy, the circuit breaker, the fault plan, the BGP simulator —
publish without any plumbing changes to their call signatures, while
the default disabled context keeps those sites at one-boolean-check
overhead.

``Study.run`` / the CLI enable a real context for the duration of a
run; tests use :func:`using` to install a scoped context.  The program
runs on one thread, so the current context is plain module state.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.events import DEFAULT_MAX_EVENTS, EventStream
from repro.obs.gc import CollectorPauses
from repro.obs.metrics import MetricsRegistry


class Observability:
    """Metrics, events and collector pauses for one run, plus the
    master enable switch."""

    def __init__(
        self, enabled: bool = True, max_events: int = DEFAULT_MAX_EVENTS
    ) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry(enabled=enabled)
        self.events = EventStream(enabled=enabled, max_events=max_events)
        #: Counts collector pauses while this context is current and
        #: enabled (:func:`set_obs` installs it).
        self.collector = CollectorPauses()

    @classmethod
    def disabled(cls) -> "Observability":
        return cls(enabled=False)

    def reset(self) -> None:
        """Drop all recorded state, keeping the enabled flag."""
        self.metrics = MetricsRegistry(enabled=self.enabled)
        self.events = EventStream(
            enabled=self.enabled, max_events=self.events.max_events
        )
        self.collector.clear()


#: The current context.  Disabled by default: the fault-free reference
#: paths must stay at reference speed unless telemetry is explicitly
#: requested (``repro study --obs-out FILE`` or :func:`enable`).
_current = Observability.disabled()


def get_obs() -> Observability:
    return _current


def set_obs(obs: Observability) -> Observability:
    """Install ``obs`` as the current context.

    Returns the previous context so callers (and :func:`using`) can
    restore it.  Only the current context counts collector pauses.
    """
    global _current
    previous = _current
    previous.collector.uninstall()
    _current = obs
    if obs.enabled:
        obs.collector.install()
    return previous


def enable(max_events: int = DEFAULT_MAX_EVENTS) -> Observability:
    """Install and return a fresh enabled context."""
    obs = Observability(enabled=True, max_events=max_events)
    set_obs(obs)
    return obs


def disable() -> Observability:
    """Install and return a fresh disabled context."""
    obs = Observability.disabled()
    set_obs(obs)
    return obs


@contextmanager
def using(obs: Optional[Observability] = None) -> Iterator[Observability]:
    """Scoped context installation (tests, nested runs)."""
    obs = obs if obs is not None else Observability()
    previous = set_obs(obs)
    try:
        yield obs
    finally:
        set_obs(previous)


def events_enabled() -> bool:
    """Cheap hot-path gate used by publishers."""
    return get_obs().events.enabled


def publish(category: str, name: str, /, **attrs: object) -> None:
    """Publish to the current context's event stream (if enabled)."""
    events = get_obs().events
    if events.enabled:
        events.publish(category, name, **attrs)
