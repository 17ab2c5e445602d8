"""Tests for violation case-study extraction and experiment scheduling."""

import pytest

from repro.core.active_analysis import PreferenceViolation
from repro.core.case_studies import build_case_studies, build_case_study
from repro.peering.experiments import RouteView
from repro.peering.schedule import ExperimentSchedule, schedule_discovery
from repro.topology import ASGraph, Relationship


def _graph(*links):
    graph = ASGraph()
    for a, b, rel in links:
        graph.add_link(a, b, rel)
    return graph


def _violation(preferred_path, fallback_path, pref_rel, fall_rel, target=1):
    return PreferenceViolation(
        target=target,
        preferred=RouteView(next_hop=preferred_path[0], path=preferred_path),
        fallback=RouteView(next_hop=fallback_path[0], path=fallback_path),
        preferred_relationship=pref_rel,
        fallback_relationship=fall_rel,
    )


class TestCaseStudies:
    def test_detects_unnecessary_detour(self):
        """The OpenPeering pattern: fallback is a suffix of preferred."""
        graph = _graph(
            (2, 1, Relationship.CUSTOMER),
            (1, 5, Relationship.PEER),
        )
        violation = _violation(
            preferred_path=(2, 7, 5, 9),
            fallback_path=(5, 9),
            pref_rel=Relationship.PROVIDER,
            fall_rel=Relationship.PEER,
        )
        case = build_case_study(violation, graph)
        assert case.unnecessary_detour
        assert "unnecessary detour" in case.narrative

    def test_detects_backup_link_pattern(self):
        """The Internet2/Switch pattern: provider first, peer as backup."""
        graph = _graph(
            (2, 1, Relationship.CUSTOMER),
            (1, 5, Relationship.PEER),
        )
        violation = _violation(
            preferred_path=(2, 9),
            fallback_path=(5, 8, 9),
            pref_rel=Relationship.PROVIDER,
            fall_rel=Relationship.PEER,
        )
        case = build_case_study(violation, graph)
        assert case.backup_link_suspected
        assert "backup" in case.narrative

    def test_generic_violation_gets_ranking_narrative(self):
        graph = _graph((1, 2, Relationship.PEER), (1, 3, Relationship.CUSTOMER))
        violation = _violation(
            preferred_path=(2, 9),
            fallback_path=(3, 9),
            pref_rel=Relationship.PEER,
            fall_rel=Relationship.CUSTOMER,
        )
        case = build_case_study(violation, graph)
        assert not case.unnecessary_detour
        assert not case.backup_link_suspected
        assert "finer-grained" in case.narrative

    def test_build_many(self):
        graph = _graph((1, 2, Relationship.PEER))
        violations = [
            _violation((2, 9), (3, 9), Relationship.PEER, Relationship.CUSTOMER)
        ] * 3
        assert len(build_case_studies(violations, graph)) == 3


class TestSchedule:
    def test_spacing_enforced(self):
        schedule = schedule_discovery(4)
        minutes = [event.minute for event in schedule.events]
        assert minutes == [0, 90, 180, 270]
        assert schedule.total_minutes == 360

    def test_custom_spacing(self):
        schedule = schedule_discovery(2, spacing_minutes=30)
        assert [e.minute for e in schedule.events] == [0, 30]

    def test_paper_scale_discovery_takes_days(self):
        # The paper's 188 announcements at 90-minute spacing.
        schedule = schedule_discovery(188)
        assert 11 < schedule.total_days < 13

    def test_guards(self):
        with pytest.raises(ValueError):
            schedule_discovery(-1)
        with pytest.raises(ValueError):
            ExperimentSchedule(spacing_minutes=0)

    def test_empty_schedule(self):
        schedule = schedule_discovery(0)
        assert schedule.total_minutes == 0
        assert schedule.total_days == 0.0
