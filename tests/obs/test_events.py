"""Unit tests for the event stream and the typed publishers wired into
the faults layer and the BGP simulator."""

import pytest

from repro.bgp import BGPSimulator
from repro.faults import (
    CircuitBreaker,
    DnsTimeout,
    FaultPlan,
    FaultSite,
    RetryExhausted,
    RetryPolicy,
    RetryStats,
)
from repro.net.ip import Prefix
from repro.obs import (
    CATEGORY_BGP,
    CATEGORY_BREAKER,
    CATEGORY_FAULT,
    CATEGORY_RETRY,
    Event,
    EventStream,
    Observability,
    using,
)
from repro.topology import ASGraph, Relationship

pytestmark = pytest.mark.obs


class TestEventStream:
    def test_publish_records_seq_and_attrs(self):
        stream = EventStream()
        event = stream.publish("retry", "attempt", site="atlas/dns", attempt=2)
        assert event.seq == 0
        assert event.attr("site") == "atlas/dns"
        assert stream.count("retry", "attempt") == 1

    def test_name_attr_does_not_collide(self):
        # attrs may themselves be called "name" (e.g. a DNS name).
        stream = EventStream()
        event = stream.publish("quarantine", "pair", name="r1.example.net")
        assert event.name == "pair"
        assert event.attr("name") == "r1.example.net"

    def test_disabled_stream_records_nothing(self):
        stream = EventStream(enabled=False)
        assert stream.publish("x", "y") is None
        assert len(stream) == 0
        assert stream.counts == {}

    def test_cap_drops_events_but_counts_stay_complete(self):
        stream = EventStream(max_events=3)
        for index in range(5):
            stream.publish("cat", "n", index=index)
        assert len(stream) == 3
        assert stream.dropped == 2
        assert stream.count("cat", "n") == 5

    def test_round_trip(self):
        stream = EventStream()
        stream.publish("fault", "atlas/dns:timeout", key="1/n")
        restored = EventStream.from_dicts(stream.to_dicts())
        assert restored == stream.events
        assert isinstance(restored[0], Event)


def _failing(error_factory=DnsTimeout):
    def fn(attempt):
        raise error_factory(f"attempt {attempt} failed")

    return fn


class TestTypedPublishers:
    def test_retry_attempts_and_exhaustion_published(self):
        with using(Observability()) as obs:
            policy = RetryPolicy(max_attempts=3)
            with pytest.raises(RetryExhausted):
                policy.execute(_failing(), key=("k",), stats=RetryStats())
        assert obs.events.count(CATEGORY_RETRY, "attempt") == 2
        assert obs.events.count(CATEGORY_RETRY, "exhausted") == 1
        exhausted = obs.events.of_category(CATEGORY_RETRY)[-1]
        assert exhausted.attr("attempts") == 3

    def test_breaker_transitions_published(self):
        with using(Observability()) as obs:
            breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
            breaker.record_failure()  # -> open
            breaker.allow()  # burn cooldown -> half-open
            breaker.allow()  # half-open probe admitted
            breaker.record_success()  # -> closed
        assert obs.events.count(CATEGORY_BREAKER, "open") == 1
        assert obs.events.count(CATEGORY_BREAKER, "half_open") == 1
        assert obs.events.count(CATEGORY_BREAKER, "closed") == 1

    def test_fault_plan_firings_published_under_site_value(self):
        plan = FaultPlan(seed=3, rates={FaultSite.DNS_TIMEOUT: 1.0})
        with using(Observability()) as obs:
            assert plan.fires(FaultSite.DNS_TIMEOUT, 7, "name")
            assert not plan.fires(FaultSite.DNS_SERVFAIL, 7, "name")
        key = f"fault:{FaultSite.DNS_TIMEOUT.value}"
        assert obs.events.counts == {key: 1}
        event = obs.events.of_category(CATEGORY_FAULT)[0]
        assert event.attr("key") == "7/name"

    def test_fault_plan_decision_unchanged_by_publishing(self):
        plan = FaultPlan(seed=3, rates={FaultSite.DNS_TIMEOUT: 0.5})
        keys = [(index, "n") for index in range(200)]
        silent = [plan.fires(FaultSite.DNS_TIMEOUT, *key) for key in keys]
        with using(Observability()) as obs:
            observed = [plan.fires(FaultSite.DNS_TIMEOUT, *key) for key in keys]
        assert observed == silent
        assert obs.events.count(
            CATEGORY_FAULT, FaultSite.DNS_TIMEOUT.value
        ) == sum(silent)

    def test_simulator_convergence_published(self):
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.CUSTOMER)
        graph.add_link(2, 3, Relationship.CUSTOMER)
        with using(Observability()) as obs:
            simulator = BGPSimulator(graph)
            simulator.originate(3, Prefix.parse("198.51.100.0/24"))
        assert obs.events.count(CATEGORY_BGP, "converged") >= 1
        event = obs.events.of_category(CATEGORY_BGP)[0]
        assert event.attr("delivered") > 0

    def test_simulator_withdraw_reset_published(self):
        """The reset, the sole origin's withdrawal, copies the empty
        state: one copied convergence that skipped no message."""
        graph = ASGraph()
        graph.add_link(1, 2, Relationship.CUSTOMER)
        graph.add_link(2, 3, Relationship.CUSTOMER)
        prefix = Prefix.parse("198.51.100.0/24")
        simulator = BGPSimulator(graph)
        simulator.originate(3, prefix)
        with using(Observability()) as obs:
            simulator.withdraw(3, prefix)
        assert obs.events.counts == {"bgp:converged": 1}
        event = obs.events.of_category(CATEGORY_BGP)[0]
        assert event.attr("epoch") == simulator.epoch == 2
        assert event.attr("reused") is True
        assert (event.attr("delivered"), event.attr("skipped")) == (0, 0)
