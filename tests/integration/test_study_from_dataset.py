"""Running a study over a serialized, reloaded dataset."""

import pytest

from repro.check.golden import snapshot_study
from repro.core.classification import DecisionLabel
from repro.core.pipeline import FIGURE1_LAYERS, Study, StudyConfig, build_study_config
from repro.topogen import generate_internet, load_internet, save_internet
from repro.topogen.config import small_config


def _study_config():
    return StudyConfig(
        topology=small_config(),
        seed=33,
        num_probes=200,
        probes_per_continent=10,
        active_experiments=False,
    )


def test_study_over_reloaded_internet_matches_generated(tmp_path):
    """The same study over a saved-and-reloaded dataset reproduces the
    exact decision breakdown of the freshly generated one."""
    internet = generate_internet(small_config(), seed=33)
    path = tmp_path / "dataset.json"
    save_internet(internet, path)

    fresh = Study(_study_config(), internet=generate_internet(small_config(), seed=33)).run()
    reloaded = Study(_study_config(), internet=load_internet(path)).run()

    assert len(fresh.decisions) == len(reloaded.decisions)
    for layer in FIGURE1_LAYERS:
        assert fresh.figure1[layer].counts == reloaded.figure1[layer].counts
    assert fresh.figure1["Simple"].percent(DecisionLabel.BEST_SHORT) > 0


def test_second_active_study_on_one_world_is_refused(study):
    """An active study installs PEERING into the world it is given; a
    second one on the same object is refused before touching it, and
    the first study computes what a study of its own world does."""
    config = build_study_config(study.config.seed, "small")
    world = generate_internet(config.topology, seed=config.seed)
    first = Study(config, internet=world).run()
    assert snapshot_study(first) == snapshot_study(study)
    fingerprint = world.graph.fingerprint()
    with pytest.raises(ValueError, match="fresh or reloaded world"):
        Study(config, internet=world).run()
    assert world.graph.fingerprint() == fingerprint
