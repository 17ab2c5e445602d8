"""Tests for the seeded retry policy and its virtual clock."""

import random

import pytest

from repro.faults import (
    DnsServfail,
    DnsTimeout,
    MalformedResultError,
    RetryExhausted,
    RetryPolicy,
    RetryStats,
    derive_seed,
)

pytestmark = pytest.mark.faults


def _fail_times(n, error_factory=DnsTimeout):
    """A callable that fails the first ``n`` attempts, then succeeds."""

    def fn(attempt):
        if attempt <= n:
            raise error_factory(f"attempt {attempt} failed")
        return f"ok@{attempt}"

    return fn


class TestExecute:
    def test_success_first_try(self):
        stats = RetryStats()
        policy = RetryPolicy(max_attempts=3)
        assert policy.execute(_fail_times(0), key=("k",), stats=stats) == "ok@1"
        assert stats.attempts == 1
        assert stats.retries == 0
        assert stats.succeeded_after_retry == 0

    def test_transient_fault_recovers(self):
        stats = RetryStats()
        policy = RetryPolicy(max_attempts=4)
        assert policy.execute(_fail_times(2), key=("k",), stats=stats) == "ok@3"
        assert stats.attempts == 3
        assert stats.retries == 2
        assert stats.succeeded_after_retry == 1
        assert stats.retries_by_site == {"atlas/dns": 2}

    def test_exhaustion_raises_with_last_error(self):
        stats = RetryStats()
        policy = RetryPolicy(max_attempts=3)
        with pytest.raises(RetryExhausted) as excinfo:
            policy.execute(_fail_times(99, DnsServfail), key=("k",), stats=stats)
        assert isinstance(excinfo.value.last_error, DnsServfail)
        assert excinfo.value.attempts == 3
        assert excinfo.value.reason == "exhausted:dns-servfail"
        assert stats.exhausted == 1
        assert stats.exhausted_by_reason == {"dns-servfail": 1}

    def test_non_retryable_propagates_immediately(self):
        stats = RetryStats()
        policy = RetryPolicy(max_attempts=5)

        def fn(attempt):
            raise MalformedResultError("garbage")

        with pytest.raises(MalformedResultError):
            policy.execute(fn, key=("k",), stats=stats)
        assert stats.attempts == 1
        assert stats.retries == 0

    def test_other_exceptions_not_swallowed(self):
        policy = RetryPolicy(max_attempts=5)
        with pytest.raises(ZeroDivisionError):
            policy.execute(lambda attempt: 1 // 0)

    def test_deadline_cuts_retries_short(self):
        stats = RetryStats()
        # Each failed attempt costs 10 virtual seconds; deadline of 15
        # cannot fit a second full attempt + backoff.
        policy = RetryPolicy(
            max_attempts=10,
            attempt_timeout_s=10.0,
            base_delay_s=8.0,
            multiplier=1.0,
            deadline_s=15.0,
        )
        with pytest.raises(RetryExhausted):
            policy.execute(_fail_times(99), key=("k",), stats=stats)
        assert stats.attempts < 10

    def test_deterministic_given_key(self):
        policy = RetryPolicy(max_attempts=5, seed=7)
        s1, s2 = RetryStats(), RetryStats()
        with pytest.raises(RetryExhausted):
            policy.execute(_fail_times(99), key=("pair", 1), stats=s1)
        with pytest.raises(RetryExhausted):
            policy.execute(_fail_times(99), key=("pair", 1), stats=s2)
        assert s1.as_dict() == s2.as_dict()


def _recording(**kwargs):
    """A policy that records every backoff delay it draws, and the list."""
    drawn = []

    class Recording(RetryPolicy):
        def backoff(self, attempt, rng):
            delay = super().backoff(attempt, rng)
            drawn.append(delay)
            return delay

    return Recording(**kwargs), drawn


class TestKeyedJitter:
    """Backoff draws from a stream keyed by (policy seed, call key),
    seeded at the first retryable failure."""

    @pytest.mark.parametrize("failures", [1, 2, 3, 4, 9])
    def test_failing_attempts_draw_the_keyed_streams_delays(self, failures):
        policy, drawn = _recording(max_attempts=4, seed=11)
        key = (17, "www.example.com")
        try:
            policy.execute(_fail_times(failures), key=key)
        except RetryExhausted:
            pass
        reference = RetryPolicy(max_attempts=4, seed=11)
        rng = random.Random(derive_seed(11, "retry", *key))
        expected = [
            reference.backoff(attempt, rng)
            for attempt in range(1, min(failures, reference.max_attempts) + 1)
        ]
        assert drawn == expected

    def test_a_call_that_never_fails_draws_nothing(self):
        policy, drawn = _recording(seed=11)
        assert policy.execute(_fail_times(0), key=(1, "x")) == "ok@1"
        assert drawn == []

    def test_wait_is_timeouts_plus_the_keyed_delays(self):
        policy = RetryPolicy(max_attempts=5, seed=3, attempt_timeout_s=2.0)
        stats = RetryStats()
        assert policy.execute(_fail_times(3), key=("p", 9), stats=stats) == "ok@4"
        rng = random.Random(derive_seed(3, "retry", "p", 9))
        expected = 0.0
        for attempt in (1, 2, 3):
            expected += policy.attempt_timeout_s
            expected += policy.backoff(attempt, rng)
        assert stats.simulated_wait_s == expected


class TestBackoff:
    def test_full_jitter_bounds(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=8.0, multiplier=2.0)
        rng = random.Random(0)
        for attempt in range(1, 8):
            cap = min(8.0, 1.0 * 2.0 ** (attempt - 1))
            for _ in range(20):
                delay = policy.backoff(attempt, rng)
                assert 0.0 <= delay <= cap

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)


class TestStats:
    def test_merge_accumulates(self):
        a, b = RetryStats(), RetryStats()
        a.calls, a.attempts, a.retries = 1, 3, 2
        a.retries_by_site["atlas/dns"] = 2
        b.calls, b.attempts, b.exhausted = 2, 4, 1
        b.retries_by_site["atlas/dns"] = 1
        b.exhausted_by_reason["exhausted:dns-timeout"] = 1
        a.merge(b)
        assert a.calls == 3
        assert a.attempts == 7
        assert a.retries_by_site == {"atlas/dns": 3}
        assert a.exhausted_by_reason == {"exhausted:dns-timeout": 1}
