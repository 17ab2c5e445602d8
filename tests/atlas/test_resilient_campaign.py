"""Tests for the campaign runner under fault plans."""

import pytest

from repro.atlas import (
    CampaignConfig,
    dump_measurements,
    generate_probes,
    run_campaign,
)
from repro.faults import FaultPlan, FaultSite
from repro.topogen import generate_internet
from repro.topogen.config import small_config

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def world():
    internet = generate_internet(small_config(), seed=77)
    probes = generate_probes(internet, count=24, seed=77)
    return internet, probes


#: A plan exercising every campaign-side fault site.
FULL_PLAN = FaultPlan(
    seed=5,
    rates={
        FaultSite.PROBE_DROPOUT: 0.08,
        FaultSite.PROBE_FLAP: 0.10,
        FaultSite.DNS_SERVFAIL: 0.05,
        FaultSite.DNS_TIMEOUT: 0.10,
        FaultSite.TRACEROUTE_TRUNCATE: 0.05,
        FaultSite.TRACEROUTE_LOOP: 0.04,
        FaultSite.TRACEROUTE_GARBLE: 0.05,
        FaultSite.API_RATE_LIMIT: 0.10,
        FaultSite.API_SERVER_ERROR: 0.05,
    },
)


class TestZeroPlan:
    def test_zero_plan_full_coverage(self, world):
        internet, probes = world
        dataset = run_campaign(internet, probes, CampaignConfig(seed=2))
        report = dataset.robustness
        assert report.completed == report.total_pairs == len(dataset.measurements)
        assert report.coverage() == 1.0
        assert report.accounted()
        assert not report.quarantined and not report.lost and not report.degraded


class TestFaultedCampaign:
    def test_deterministic_byte_identical_output(self, world):
        internet, probes = world
        config = lambda: CampaignConfig(seed=2, fault_plan=FULL_PLAN)  # noqa: E731
        first = run_campaign(internet, probes, config())
        second = run_campaign(internet, probes, config())
        assert dump_measurements(first.measurements) == dump_measurements(
            second.measurements
        )
        assert first.robustness.as_dict() == second.robustness.as_dict()

    def test_accounting_balances_against_fault_free_total(self, world):
        internet, probes = world
        faulted = run_campaign(
            internet, probes, CampaignConfig(seed=2, fault_plan=FULL_PLAN)
        )
        fault_free = run_campaign(internet, probes, CampaignConfig(seed=2))
        report = faulted.robustness
        assert report.accounted()
        assert report.total_pairs == len(fault_free.measurements)
        assert (
            report.completed
            + report.degraded_total()
            + report.quarantined_total()
            + report.lost_total()
            == len(fault_free.measurements)
        )

    def test_every_fault_family_observed(self, world):
        internet, probes = world
        report = run_campaign(
            internet, probes, CampaignConfig(seed=2, fault_plan=FULL_PLAN)
        ).robustness
        assert report.lost.get("probe-dropout", 0) > 0
        assert any(reason.startswith("exhausted:") for reason in report.lost)
        assert report.quarantined_total() > 0
        assert report.degraded_total() > 0
        assert report.retry.retries > 0
        assert report.retry.succeeded_after_retry > 0

    def test_per_as_coverage_consistent(self, world):
        internet, probes = world
        report = run_campaign(
            internet, probes, CampaignConfig(seed=2, fault_plan=FULL_PLAN)
        ).robustness
        assert sum(report.per_as_expected.values()) == report.total_pairs
        assert sum(report.per_as_observed.values()) == report.completed
        for asn, observed in report.per_as_observed.items():
            assert observed <= report.per_as_expected[asn]
            assert 0.0 <= report.as_coverage(asn) <= 1.0

    def test_truncated_traces_do_not_reach(self, world):
        internet, probes = world
        dataset = run_campaign(
            internet,
            probes,
            CampaignConfig(
                seed=2,
                fault_plan=FaultPlan(
                    seed=5, rates={FaultSite.TRACEROUTE_TRUNCATE: 1.0}
                ),
            ),
        )
        assert dataset.measurements
        assert not dataset.successful()
        assert dataset.robustness.degraded == {
            "truncated": dataset.robustness.total_pairs
        }

