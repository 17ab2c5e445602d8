"""Unit tests for the circuit breaker."""

import pytest

from repro.faults import BreakerOpen, CircuitBreaker
from repro.faults.supervisor import CLOSED, HALF_OPEN, OPEN


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=2)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.stats.trips == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_open_rejects_for_cooldown_then_half_opens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=2)
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.state == HALF_OPEN
        assert breaker.stats.rejected == 2
        # The half-open probe is admitted.
        assert breaker.allow()
        assert breaker.stats.half_open_probes == 1

    def test_half_open_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        breaker.record_failure()
        breaker.allow()  # burn the cooldown -> half-open
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        breaker.record_failure()
        breaker.allow()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.stats.trips == 2

    def test_check_raises_breaker_open(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5)
        breaker.record_failure()
        with pytest.raises(BreakerOpen):
            breaker.check("announcement")

    def test_serialization_round_trip(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=3)
        breaker.record_failure()
        breaker.record_failure()  # tripped
        breaker.allow()  # one cooldown tick
        snapshot = breaker.as_dict()

        restored = CircuitBreaker(failure_threshold=2, cooldown=3)
        restored.restore(snapshot)
        assert restored.state == breaker.state
        assert restored.cooldown_left == breaker.cooldown_left
        assert restored.stats.as_dict() == breaker.stats.as_dict()
        # The restored breaker continues exactly where the original does.
        assert restored.allow() == breaker.allow()
        assert restored.state == breaker.state

    def test_restore_rejects_garbage_state(self):
        breaker = CircuitBreaker()
        with pytest.raises(ValueError):
            breaker.restore({"state": "molten"})

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0)
