"""Structured fault taxonomy for every substrate boundary.

Real measurement campaigns fail in typed, recognisable ways: probes go
dark or flap, resolvers answer SERVFAIL or time out, the Atlas API
throttles (429) or hiccups (5xx), PEERING mux sessions reset, and
result documents arrive torn or garbled.  Each failure mode gets its
own exception carrying a ``site`` (which substrate boundary raised it),
a ``reason`` slug (stable key for quarantine/loss accounting) and a
``retryable`` flag consumed by :class:`repro.faults.retry.RetryPolicy`.
"""

from __future__ import annotations

from typing import Optional


class FaultError(Exception):
    """Base class for injected or observed measurement faults."""

    #: Substrate boundary the fault belongs to (overridden per class).
    site: str = "unknown"
    #: Whether a retry can plausibly succeed.
    retryable: bool = False

    def __init__(
        self,
        message: str,
        *,
        site: Optional[str] = None,
        reason: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        if site is not None:
            self.site = site
        #: Stable accounting slug, e.g. ``dns-servfail``.
        self.reason = reason if reason is not None else self.default_reason()

    @classmethod
    def default_reason(cls) -> str:
        return cls.__name__


class ProbeFlapError(FaultError):
    """The probe missed this scheduling round but is expected back."""

    site = "atlas/probes"
    retryable = True

    @classmethod
    def default_reason(cls) -> str:
        return "probe-flap"


class DnsServfail(FaultError):
    """The resolver answered SERVFAIL for this name.

    Retryable in principle, but injected SERVFAILs are keyed per
    (probe, name) — persistent — so retries exhaust, exercising the
    exhaustion accounting path.
    """

    site = "atlas/dns"
    retryable = True

    @classmethod
    def default_reason(cls) -> str:
        return "dns-servfail"


class DnsTimeout(FaultError):
    """The DNS query timed out (transient; retries can succeed)."""

    site = "atlas/dns"
    retryable = True

    @classmethod
    def default_reason(cls) -> str:
        return "dns-timeout"


class AtlasApiError(FaultError):
    """Transient HTTP-level failure fetching results from the API."""

    site = "atlas/api"
    retryable = True
    #: HTTP status the simulated API answered with.
    status: int = 500

    def __init__(self, message: str, *, status: Optional[int] = None, **kwargs) -> None:
        super().__init__(message, **kwargs)
        if status is not None:
            self.status = status


class ApiRateLimit(AtlasApiError):
    """HTTP 429: the platform throttled the result fetch."""

    status = 429

    @classmethod
    def default_reason(cls) -> str:
        return "api-rate-limit"


class ApiServerError(AtlasApiError):
    """HTTP 5xx: the platform failed transiently."""

    status = 503

    @classmethod
    def default_reason(cls) -> str:
        return "api-server-error"


class MuxSessionReset(FaultError):
    """A PEERING mux BGP session reset mid-announcement."""

    site = "peering/testbed"
    retryable = True

    @classmethod
    def default_reason(cls) -> str:
        return "mux-session-reset"


class PoisonFiltered(FaultError):
    """An intermediate AS filtered the poisoned announcement.

    Smith et al. document transit ASes dropping announcements whose
    AS-path carries unexpected AS-sets; the filter is a standing policy,
    so the same poison set fails every attempt.  Keyed per
    (target, round) — persistent — so retries exhaust and the target's
    discovery ends with a *censored* partial preference order.
    """

    site = "bgp/poison"
    retryable = True

    @classmethod
    def default_reason(cls) -> str:
        return "poison-filtered"


class LongPathRejected(FaultError):
    """A transit AS rejected the announcement for an over-long AS path.

    Iterative poisoning grows the path by one AS-set member per round;
    real networks enforce maximum-length import filters, so deep
    iterations stop being propagatable.  Non-retryable: the path only
    gets longer from here.
    """

    site = "bgp/poison"
    retryable = False

    @classmethod
    def default_reason(cls) -> str:
        return "long-path-rejected"


class RouteFlapDamped(FaultError):
    """Route-flap damping suppressed the announcement at an upstream.

    The paper spaces announcements 90 minutes apart precisely to dodge
    this; when it fires anyway the suppression decays, so a (virtual)
    backoff retry can succeed.  Keyed per attempt — transient.
    """

    site = "bgp/announce"
    retryable = True

    @classmethod
    def default_reason(cls) -> str:
        return "route-flap-damped"


class ConvergenceStall(FaultError):
    """The control plane failed to settle within the observation window.

    Models slow convergence (path hunting, MRAI timers) rather than a
    true dispute wheel: waiting and re-announcing can succeed, so the
    fault is transient/retryable.  A genuine
    :class:`repro.bgp.simulator.ConvergenceError` (hard event-budget
    blowout) is *not* retryable and quarantines the target instead.
    """

    site = "bgp/announce"
    retryable = True

    @classmethod
    def default_reason(cls) -> str:
        return "convergence-stall"


class WithdrawalLost(FaultError):
    """A mux lost the withdrawal message; the prefix stayed announced.

    Dangerous in the real world (the testbed keeps polluting the
    control plane), so the supervisor retries until the withdrawal is
    confirmed.  Keyed per attempt — transient.
    """

    site = "peering/testbed"
    retryable = True

    @classmethod
    def default_reason(cls) -> str:
        return "withdrawal-lost"


class BreakerOpen(FaultError):
    """The supervisor's circuit breaker rejected the operation.

    Raised instead of attempting an announcement while the breaker is
    open; the current target is quarantined rather than retried (the
    breaker exists to stop hammering a failing control plane).
    """

    site = "supervisor"
    retryable = False

    @classmethod
    def default_reason(cls) -> str:
        return "breaker-open"


class MalformedResultError(FaultError, ValueError):
    """A result document that cannot be parsed into a traceroute.

    Subclasses :class:`ValueError` so pre-existing strict callers that
    catch ``ValueError`` keep working; resilient callers catch this type
    and quarantine the document instead of crashing.
    """

    site = "atlas/api"
    retryable = False

    def __init__(self, message: str, *, document=None, **kwargs) -> None:
        super().__init__(message, **kwargs)
        #: The offending document (may be ``None`` for raw-text input).
        self.document = document

    @classmethod
    def default_reason(cls) -> str:
        return "malformed-result"


class RetryExhausted(FaultError):
    """A retryable operation failed on every allowed attempt."""

    retryable = False

    def __init__(
        self,
        message: str,
        *,
        last_error: Optional[FaultError] = None,
        attempts: int = 0,
        **kwargs,
    ) -> None:
        super().__init__(message, **kwargs)
        self.last_error = last_error
        self.attempts = attempts
        if last_error is not None:
            self.site = last_error.site
            self.reason = f"exhausted:{last_error.reason}"


class CampaignInterrupted(RuntimeError):
    """The campaign was killed mid-run (crash drill / operator abort).

    Raised by the runner's ``abort_after`` crash-injection knob after
    the checkpoint journal has been flushed, so tests can verify that a
    resumed campaign reproduces the uninterrupted one.
    """

    def __init__(self, message: str, completed_pairs: int = 0) -> None:
        super().__init__(message)
        self.completed_pairs = completed_pairs
