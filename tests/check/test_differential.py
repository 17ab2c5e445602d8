"""Optimized-vs-oracle differential coverage over seeded topologies.

Every test embeds its seed in the pytest id, so a failure like
``test_engine_and_labels_agree_with_oracle[137]`` is a complete
reproduction recipe: ``generate_scenario(137)`` rebuilds the world.

The mutation tests at the bottom prove the checks are not vacuous: an
injected bug in the optimized path must surface as a disagreement.
"""

import dataclasses
from collections import Counter

import pytest

from repro.bgp.decision import best_route
from repro.bgp.messages import Withdrawal
from repro.bgp.policy import NO_PREFIX_INPUTS
from repro.bgp.simulator import BGPSimulator
from repro.bgp.speaker import BGPSpeaker, _PrefixState
from repro.check import (
    ALL_CHECKS,
    check_bgp_decision,
    check_bgp_scenario,
    check_gr_trees,
    check_labels,
    check_lpm,
    generate_scenario,
    oracle_labels,
    run_checks,
)
from repro.check import differential
from repro.core.classification import DecisionLabel
from repro.perf.parallel import ParallelClassifier

pytestmark = pytest.mark.check

#: Differential coverage floor from the PR checklist: 200+ seeded
#: topologies through cache-on vs cache-off vs oracle.
DIFFERENTIAL_SEEDS = range(200)

#: Seeds of the parallel-classifier comparisons: outside
#: ``DIFFERENTIAL_SEEDS`` and CI's ``repro check run --seeds 500``, so
#: they grade scenarios no other check grades.
PARALLEL_SEEDS = (500, 507, 542, 599, 623)

#: Seeds of the BGP scenario driver's coverage and mutation tests.
BGP_SEEDS = range(0, 40, 4)


def _bgp_problems(tally=None):
    problems = []
    for seed in BGP_SEEDS:
        problems.extend(check_bgp_scenario(generate_scenario(seed), tally=tally))
    return problems


@pytest.fixture(scope="module")
def bgp_run():
    """One driver run over ``BGP_SEEDS``: its disagreements and counts."""
    tally = Counter()
    return _bgp_problems(tally), tally


class TestScenarioGeneration:
    @pytest.mark.parametrize("seed", range(30))
    def test_same_seed_same_scenario(self, seed):
        first = generate_scenario(seed)
        second = generate_scenario(seed)
        assert first.describe() == second.describe()
        assert first.decisions == second.decisions
        assert first.first_hops_for == second.first_hops_for
        assert sorted(first.graph.links()) == sorted(second.graph.links())

    def test_seeds_produce_distinct_worlds(self):
        descriptions = {generate_scenario(seed).describe() for seed in range(20)}
        assert len(descriptions) > 1

    @pytest.mark.parametrize("seed", range(10))
    def test_scenario_is_well_formed(self, seed):
        scenario = generate_scenario(seed)
        assert scenario.decisions, "a scenario must grade something"
        for decision in scenario.decisions:
            assert decision.destination in scenario.graph
            assert decision.destination in scenario.prefix_of
        for destination in scenario.destinations:
            assert destination in scenario.graph


class TestEngineVsOracle:
    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_engine_and_labels_agree_with_oracle(self, seed):
        """Cached engine, reference construction, and every label path
        vs oracle."""
        scenario = generate_scenario(seed)
        problems = check_gr_trees(scenario) + check_labels(scenario)
        assert problems == [], "\n".join(str(p) for p in problems)


class TestParallelClassifierVsOracle:
    @pytest.mark.parametrize("seed", PARALLEL_SEEDS)
    def test_serial_precompute_path(self, seed):
        """In-process precompute (one kernel sweep) + arena grading, which
        ``check_labels`` grades on every scenario."""
        scenario = generate_scenario(seed)
        problems = check_labels(scenario)
        assert problems == [], "\n".join(str(p) for p in problems)


class TestOracleLabelMix:
    def test_scenarios_exercise_every_label(self):
        """The generator must produce all four grades, or the label
        checks silently degenerate."""
        seen = set()
        for seed in range(40):
            seen.update(oracle_labels(generate_scenario(seed)))
            if len(seen) == 4:
                break
        assert seen == set(DecisionLabel)


class TestRunner:
    def test_clean_report(self):
        report = run_checks(5)
        assert report.ok
        assert report.seeds_run == 5
        assert report.decisions_graded > 0
        assert report.trees_checked > 0
        assert set(report.checks) == set(ALL_CHECKS)
        assert report.tally["bgp-withdraw resets"] > 0
        assert "counted    bgp-withdraw resets" in report.render()
        assert "all oracles agree" in report.render()

    def test_only_restricts_checks(self):
        report = run_checks(3, only=["lpm"])
        assert report.checks == ["lpm"]
        assert report.ok
        assert report.decisions_graded == report.trees_checked == 0
        assert "decisions  0 graded" in report.render()

    def test_only_labels_counts_decisions_but_no_trees(self):
        report = run_checks(2, only=["labels"])
        assert report.ok
        assert report.decisions_graded > 0
        assert report.trees_checked == 0

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown checks"):
            run_checks(1, only=["no-such-check"])

    def test_base_seed_offsets_range(self):
        report = run_checks(2, base_seed=100)
        assert report.base_seed == 100
        assert "100..101" in report.render()

    def test_progress_callback_invoked(self):
        ticks = []
        run_checks(2, progress=lambda done, total: ticks.append((done, total)))
        assert ticks == [(1, 2), (2, 2)]

    def test_one_bgp_family_reports_only_its_lines(self):
        report = run_checks(2, only=["bgp-reuse"])
        lines = [line for line in report.render().splitlines() if "bgp-" in line]
        assert "  bgp-reuse      ok" in lines
        assert any(line.startswith("  counted    bgp-reuse ") for line in lines)
        assert all("bgp-reuse" in line for line in lines)

    def test_bgp_families_share_one_simulator_per_seed(self, monkeypatch):
        built = []

        class Counted(BGPSimulator):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(differential, "BGPSimulator", Counted)
        report = run_checks(3, only=["bgp-withdraw", "bgp-stable"])
        assert report.ok
        assert len(built) == 3
        assert {name.split()[0] for name in report.tally} == {
            "bgp-withdraw",
            "bgp-stable",
        }


class TestWithdrawCheckCoverage:
    def test_every_path_and_leftover_kind_is_exercised(self, bgp_run):
        """Fallbacks and resets both occur, and every reset's
        event-driven fork ended empty: no route was left behind."""
        problems, tally = bgp_run
        assert problems == []
        assert tally["bgp-withdraw fallback"] > 0
        assert tally["bgp-withdraw resets"] > 0


class TestReuseCheckCoverage:
    def test_twins_snapshots_damping_and_soft_limits_are_exercised(self, bgp_run):
        """Copies from a twin and from a snapshot both occur (the
        simulator has neither damping nor a soft limit left to copy)."""
        problems, tally = bgp_run
        assert problems == []
        assert tally["bgp-reuse copies from a twin"] > 0
        assert tally["bgp-reuse copies from a snapshot"] > 0


class TestStableCheckCoverage:
    def test_every_seed_converges_to_a_fixed_point_damping_included(self, bgp_run):
        """Every convergence is held to the exact fixed point, every
        speaker's Adj-RIB-In included, and none fails to converge."""
        problems, tally = bgp_run
        assert problems == []
        assert tally["bgp-stable convergences"] > 0
        assert tally["bgp-stable unconverged"] == 0


def _key_without(field: str, ases: int = 0):
    """A reuse key that drops ``field`` from the prefix inputs (from the
    first ``ases`` ASes that have one; 0: from all of them)."""
    real = BGPSimulator._load_inputs
    empty = getattr(NO_PREFIX_INPUTS, field)

    def blind(self, prefix):
        kept, dropped = [], 0
        for asn, inputs in real(self, prefix):
            if getattr(inputs, field) != empty and (not ases or dropped < ases):
                inputs = dataclasses.replace(inputs, **{field: empty})
                dropped += 1
            if inputs != NO_PREFIX_INPUTS:
                kept.append((asn, inputs))
        return tuple(kept)

    return blind


class TestMutationsAreCaught:
    """Inject a bug into each optimized path; the checker must see it."""

    def test_broken_gr_distances_flagged(self, monkeypatch):
        real = differential.compute_routing_info

        def skewed(graph, destination, **kwargs):
            info = real(graph, destination, **kwargs)
            if info.customer_dist:
                asn = max(info.customer_dist)
                info.customer_dist[asn] += 1  # off-by-one "optimization"
            return info

        monkeypatch.setattr(differential, "compute_routing_info", skewed)
        problems = check_gr_trees(generate_scenario(0))
        assert any(p.check == "gr-tree" for p in problems)

    def test_broken_grading_flagged(self, monkeypatch):
        scenario = generate_scenario(3)
        reference = set(oracle_labels(scenario))
        assert len(reference) > 1, "need a mixed-label scenario"

        monkeypatch.setattr(
            differential,
            "classify_decision",
            lambda *args, **kwargs: DecisionLabel.BEST_SHORT,
        )
        problems = check_labels(scenario)
        assert any("per-decision" in p.detail for p in problems)

    def test_broken_classifier_flagged(self, monkeypatch):
        """The labels check grades the classifier ``Study.run`` uses."""
        monkeypatch.setattr(
            ParallelClassifier,
            "label_layer",
            lambda self, decisions, layer: [
                (decision, DecisionLabel.BEST_SHORT) for decision in decisions
            ],
        )
        problems = check_labels(generate_scenario(3))
        assert any("parallel-classifier" in p.detail for p in problems)

    def test_broken_decision_process_flagged(self, monkeypatch):
        def worst_route(routes):
            winner, step = best_route(list(reversed(routes)))
            return routes[-1], step

        monkeypatch.setattr(differential, "best_route", worst_route)
        problems = []
        for seed in range(5):
            problems.extend(check_bgp_decision(seed))
        assert any(p.check == "bgp-decision" for p in problems)

    def test_broken_lpm_flagged(self, monkeypatch):
        from repro.net.trie import PrefixTrie

        monkeypatch.setattr(
            PrefixTrie, "lookup_with_prefix", lambda self, address: None
        )
        problems = []
        for seed in range(5):
            problems.extend(check_lpm(seed))
        assert any(p.check == "lpm" for p in problems)

    @pytest.mark.parametrize("table", ["_advertised", "_decision_steps"])
    def test_incomplete_reset_flagged(self, monkeypatch, table):
        """A copy of the empty state that keeps what a record told its
        neighbors (``told``, from which its exports are derived) or its
        decision step is caught."""
        real = BGPSpeaker.adopt
        field = {"_advertised": "told", "_decision_steps": "step"}[table]

        def adopt_but_keep(self, prefix, record):
            held = self.record(prefix)
            real(self, prefix, record)
            if record is None and held is not None:
                setattr(self._state(prefix), field, getattr(held, field))

        monkeypatch.setattr(BGPSpeaker, "adopt", adopt_but_keep)
        assert any(p.check == "bgp-withdraw" for p in _bgp_problems())

    @pytest.mark.parametrize(
        "field, ases",
        [("prepends", 0), ("selective_export", 0), ("local_pref", 1)],
        ids=["prepends", "selective-export", "one-AS-local-pref"],
    )
    def test_incomplete_reuse_key_flagged(self, monkeypatch, field, ases):
        """A key blind to one prefix input copies a twin's state onto a
        prefix that converges differently."""
        monkeypatch.setattr(BGPSimulator, "_load_inputs", _key_without(field, ases))
        assert any(p.check == "bgp-reuse" for p in _bgp_problems())

    def test_state_kept_known_after_a_fallback_withdrawal_flagged(
        self, monkeypatch
    ):
        """A withdrawal delivered by events must leave the state unknown;
        one that keeps it lets later originations copy a stale state."""
        real = BGPSimulator._withdraw_by_events

        def keep_state(self, asn, prefix):
            node = self._states.node(prefix)
            real(self, asn, prefix)
            if node is not None and node is not self._states.root:
                self._states.arrive(prefix, node)

        monkeypatch.setattr(BGPSimulator, "_withdraw_by_events", keep_state)
        assert any(p.check == "bgp-reuse" for p in _bgp_problems())

    def test_twin_copy_keeping_the_source_origination_flagged(self, monkeypatch):
        real = _PrefixState.copy_for

        def keep_local(self, prefix):
            copied = real(self, prefix)
            copied.local = self.local
            return copied

        monkeypatch.setattr(_PrefixState, "copy_for", keep_local)
        assert any(p.check == "bgp-reuse" for p in _bgp_problems())

    def test_a_withdrawal_fork_leaving_a_route_flagged(self, monkeypatch):
        """An event-driven withdrawal whose first withdrawal message is
        lost leaves a route behind, where the reset leaves none."""
        withdraw_by_events = BGPSimulator._withdraw_by_events
        receive = BGPSpeaker.receive
        losing = []

        def lose_one(self, asn, prefix):
            losing.append(True)
            try:
                withdraw_by_events(self, asn, prefix)
            finally:
                losing.clear()

        def deaf_once(self, message, clock, country_of=None):
            if losing and isinstance(message, Withdrawal):
                losing.clear()
                return None
            return receive(self, message, clock, country_of)

        monkeypatch.setattr(BGPSimulator, "_withdraw_by_events", lose_one)
        monkeypatch.setattr(BGPSpeaker, "receive", deaf_once)
        assert any(
            p.check == "bgp-withdraw" and "after withdrawal" in p.detail
            for p in _bgp_problems()
        )

    def test_a_lost_withdrawal_flagged_as_unstable(self, monkeypatch):
        """Speakers that never hear a withdrawal keep routes their
        neighbors no longer advertise."""
        receive = BGPSpeaker.receive

        def deaf(self, message, clock, country_of=None):
            if isinstance(message, Withdrawal):
                return None
            return receive(self, message, clock, country_of)

        monkeypatch.setattr(BGPSpeaker, "receive", deaf)
        assert any(p.check == "bgp-stable" for p in _bgp_problems())

    def test_a_stale_decision_step_flagged_as_unstable(self, monkeypatch):
        """A speaker that keeps its decision step after a route other
        than its best is withdrawn reports a step its candidates no
        longer support."""
        real = BGPSpeaker._receive_withdrawal

        def keep_step(self, withdrawal):
            state = self._prefixes.get(withdrawal.prefix)
            kept = (
                state is not None
                and state.best is not None
                and state.best.learned_from != withdrawal.sender
            )
            step = state.step if kept else None
            changed = real(self, withdrawal)
            if kept:
                state.step = step
            return changed

        monkeypatch.setattr(BGPSpeaker, "_receive_withdrawal", keep_step)
        assert any(p.check == "bgp-stable" for p in _bgp_problems())
