"""Seeded fuzz battery for snapshot diffs.

Over 50+ independently-seeded churn series derived through the real
:func:`~repro.topogen.inference.inferred_snapshots` pipeline, the delta
:func:`~repro.temporal.delta.diff_graphs` reports for every consecutive
snapshot pair must be exactly the difference of the two graphs: its
added, removed and relabeled links are the set differences of
``links()`` (a relabel keeping its AS pair), applying them to the old
link set gives the new one link-for-link, and its AS sets match.
"""

import random

import pytest

from repro.temporal.delta import diff_graphs
from repro.topogen import generate_internet, inferred_snapshots
from repro.topogen.config import small_config
from repro.topogen.inference import InferenceConfig, perturb_snapshot

pytestmark = pytest.mark.temporal

#: Fuzz floor from the PR checklist: 50+ seeded churn series.
FUZZ_SEEDS = range(50)

#: A couple of higher-churn configurations ride along so removals,
#: relabels, and node churn all appear (2% churn alone is too gentle to
#: exercise every delta field in a 4-snapshot series).
CHURNS = (0.02, 0.15, 0.5)


@pytest.fixture(scope="module")
def internet():
    return generate_internet(small_config(), seed=321)


def _normalized(graph):
    return sorted(graph.links())


def _pair(link):
    a, b, _rel = link
    return (min(a, b), max(a, b))


def _assert_delta_is_link_difference(old, new, delta):
    old_links, new_links = set(old.links()), set(new.links())
    added, removed = set(delta.added), set(delta.removed)
    relabeled_old = {before for before, _after in delta.relabeled}
    relabeled_new = {after for _before, after in delta.relabeled}
    assert removed | relabeled_old == old_links - new_links
    assert added | relabeled_new == new_links - old_links
    # A relabel keeps its AS pair; an addition or removal does not.
    assert [_pair(a) for a, _b in delta.relabeled] == [
        _pair(b) for _a, b in delta.relabeled
    ]
    assert not {_pair(link) for link in added} & {_pair(link) for link in old_links}
    assert not {_pair(link) for link in removed} & {_pair(link) for link in new_links}
    # Applied to the old link set, the delta yields the new one.
    patched = (old_links - removed - relabeled_old) | added | relabeled_new
    assert patched == new_links
    assert set(delta.added_asns) == set(new.asns()) - set(old.asns())
    assert set(delta.removed_asns) == set(old.asns()) - set(new.asns())


class TestPatchEquivalence:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_delta_applied_matches_fresh_snapshot(self, internet, seed):
        churn = CHURNS[seed % len(CHURNS)]
        config = InferenceConfig(num_snapshots=4, snapshot_churn=churn)
        snapshots, _known = inferred_snapshots(internet, config, seed=seed)
        assert len(snapshots) == 4
        for old, new in zip(snapshots, snapshots[1:]):
            before = _normalized(old)
            delta = diff_graphs(old, new)
            _assert_delta_is_link_difference(old, new, delta)
            # Diffing must leave the source graph untouched.
            assert _normalized(old) == before

    def test_total_churn_diffs_cleanly(self, internet):
        """100% churn (every link dropped or flipped) still diffs exactly."""
        config = InferenceConfig(num_snapshots=2, snapshot_churn=1.0)
        snapshots, _known = inferred_snapshots(internet, config, seed=3)
        old, new = snapshots
        delta = diff_graphs(old, new)
        assert not delta.empty
        _assert_delta_is_link_difference(old, new, delta)

    def test_zero_churn_is_empty_delta(self, internet):
        base, _known = inferred_snapshots(
            internet, InferenceConfig(num_snapshots=1), seed=5
        )
        snapshot = base[0]
        delta = diff_graphs(snapshot, snapshot.copy())
        assert delta.empty
        assert set(delta.summary().values()) == {0}

    def test_fuzz_covers_every_field(self, internet):
        """At least one fuzzed delta must exercise each link field, or
        the difference assertions above are vacuous for that field."""
        seen = set()
        base, _known = inferred_snapshots(
            internet, InferenceConfig(num_snapshots=1), seed=11
        )
        rng = random.Random(11)
        previous = base[0]
        for _ in range(30):
            current = perturb_snapshot(previous, 0.4, rng)
            # Both directions: a link dropped by the perturbation is a
            # removal forward and an addition backward.
            for old, new in ((previous, current), (current, previous)):
                delta = diff_graphs(old, new)
                _assert_delta_is_link_difference(old, new, delta)
                for name, count in delta.summary().items():
                    if count:
                        seen.add(name)
            previous = current
        assert {"links_added", "links_removed", "links_relabeled"} <= seen
