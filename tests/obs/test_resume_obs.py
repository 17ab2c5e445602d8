"""Telemetry must not perturb kill/resume determinism.

The acceptance bar for the obs subsystem: with telemetry enabled, a
campaign killed mid-run and resumed from its checkpoint produces the
same byte-identical measurement dump as an uninterrupted run — and the
same bytes as the obs-disabled runs, since instrumentation consumes no
randomness and publishes no wall-clock state.
"""

import pytest

from repro.atlas import (
    CampaignConfig,
    dump_measurements,
    generate_probes,
    run_campaign,
)
from repro.faults import CampaignInterrupted, FaultPlan, FaultSite
from repro.obs import CATEGORY_FAULT, Observability, using
from repro.topogen import generate_internet
from repro.topogen.config import small_config

pytestmark = [pytest.mark.obs, pytest.mark.faults]

PLAN = FaultPlan(
    seed=11,
    rates={
        FaultSite.PROBE_DROPOUT: 0.05,
        FaultSite.DNS_SERVFAIL: 0.04,
        FaultSite.DNS_TIMEOUT: 0.08,
        FaultSite.TRACEROUTE_TRUNCATE: 0.04,
        FaultSite.API_RATE_LIMIT: 0.08,
    },
)


@pytest.fixture(scope="module")
def world():
    internet = generate_internet(small_config(), seed=31)
    probes = generate_probes(internet, count=20, seed=31)
    return internet, probes


def _config(**kwargs):
    return CampaignConfig(seed=6, fault_plan=PLAN, **kwargs)


class TestObsResumeDeterminism:
    def test_resume_byte_identical_with_obs_enabled(self, world, tmp_path):
        internet, probes = world

        # Baseline: uninterrupted, telemetry disabled (the reference bytes).
        reference = dump_measurements(
            run_campaign(internet, probes, _config()).measurements
        )

        # Uninterrupted with telemetry enabled: identical bytes.
        with using(Observability()) as obs:
            observed = run_campaign(internet, probes, _config())
        assert dump_measurements(observed.measurements) == reference
        # The telemetry actually recorded the run's faults.
        assert any(
            key.startswith(f"{CATEGORY_FAULT}:") for key in obs.events.counts
        )

        # Kill mid-run and resume, all under telemetry: same bytes again.
        journal = str(tmp_path / "campaign.jsonl")
        with using(Observability()):
            with pytest.raises(CampaignInterrupted):
                run_campaign(
                    internet,
                    probes,
                    _config(checkpoint_path=journal, abort_after=25),
                )
        with using(Observability()) as resumed_obs:
            resumed = run_campaign(
                internet,
                probes,
                _config(checkpoint_path=journal, resume=True),
            )
        assert dump_measurements(resumed.measurements) == reference
        assert resumed.robustness.resumed_pairs == 25
        # Replayed pairs skip their fault rolls, so the resumed run's
        # event log reflects only the work it actually performed.
        assert resumed_obs.events.counts

    def test_event_log_identical_across_reruns(self, world):
        internet, probes = world

        def run_events():
            with using(Observability()) as obs:
                run_campaign(internet, probes, _config())
            return [event.to_dict() for event in obs.events.events]

        assert run_events() == run_events()
