"""Converged-state reuse inside the study.

Copied states keep the route ages they were installed with, so route
ages differ from what event delivery would have left, though never in
order.  These tests pin that no output reads an absolute age, and that
reuse keeps snapshots only where states recur (the discovery phase).
"""

import os

import pytest

from repro.atlas import run_campaign
from repro.atlas.probes import generate_probes
from repro.bgp import simulator as simulator_module
from repro.check.golden import serialize, snapshot_study
from repro.core.pipeline import Study, StudyConfig
from repro.peering import FeedArchive, PeeringTestbed, run_magnet_experiments
from repro.topogen import generate_internet
from repro.topogen.config import small_config


def _active_config(run_dir):
    return StudyConfig(
        seed=1,
        topology=small_config(),
        num_probes=100,
        probes_per_continent=8,
        max_discovery_targets=4,
        num_muxes=3,
        active_vp_budget=8,
        run_dir=run_dir,
        durability="none",
    )


def _outputs(run_dir):
    results = Study(_active_config(str(run_dir))).run()
    journals = {
        name: (run_dir / name).read_bytes() for name in sorted(os.listdir(run_dir))
    }
    feeds = results.feeds
    return (
        serialize(snapshot_study(results)),
        {prefix: sorted(feeds.paths_for(prefix)) for prefix in feeds.prefixes()},
        results.discovery.observations,
        results.magnet_observations,
        journals,
    ), results.dataset.simulator.clock


def test_no_output_carries_an_absolute_route_age(tmp_path, monkeypatch):
    """Collector feeds, RouteViews, journals and the golden snapshot
    are unchanged when every route age is shifted."""
    (tmp_path / "plain").mkdir()
    (tmp_path / "shifted").mkdir()
    plain, plain_clock = _outputs(tmp_path / "plain")
    real_init = simulator_module.BGPSimulator.__init__
    offset = 10**9

    def shifted_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self.clock = offset

    monkeypatch.setattr(simulator_module.BGPSimulator, "__init__", shifted_init)
    shifted, shifted_clock = _outputs(tmp_path / "shifted")
    assert shifted_clock == plain_clock + offset
    assert shifted == plain


@pytest.fixture(scope="module")
def passive_then_magnet():
    internet = generate_internet(small_config(), seed=31)
    testbed = PeeringTestbed(internet, num_muxes=4, seed=31)
    probes = generate_probes(internet, count=40, seed=31)
    simulator = run_campaign(internet, probes).simulator
    after_campaign = (simulator.reused, simulator._states.snapshots())
    run_magnet_experiments(testbed, simulator, FeedArchive([]))
    return after_campaign, (simulator.reused, simulator._states.snapshots())


def test_campaign_copies_twins_and_keeps_no_snapshot(passive_then_magnet):
    (reused, snapshots), _ = passive_then_magnet
    assert reused > 0
    assert snapshots == 0


def test_magnet_rounds_keep_no_snapshot(passive_then_magnet):
    _, (_, snapshots) = passive_then_magnet
    assert snapshots == 0
