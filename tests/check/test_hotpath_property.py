"""Property suite: the vectorized grader vs the scalar grader and oracle.

Each property draws a random world (graph, hybrid relationships,
sibling groups, PSP first-hop restrictions, partial transit) and a
random decision batch from a seed, then requires the arena grader
over the engine's array trees to agree **label for label** with both
:func:`repro.core.classification.grade_decision` over the dict
reference trees (:func:`repro.check.oracles.compute_routing_info`) and
the independent fixpoint oracle from :mod:`repro.check.oracles`.

Seeds appear in the pytest ids (the parametrized regression rows) so a
failing world is reproducible by name; the hypothesis-driven property
explores fresh seeds on every run.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.oracles import compute_routing_info, oracle_label, oracle_routing_info
from repro.core.classification import Decision, grade_decision, label_decisions
from repro.core.gao_rexford import GaoRexfordEngine
from repro.net.ip import Prefix
from repro.topology import ASGraph, Relationship
from repro.topology.complex_rel import ComplexRelationships, HybridEntry
from repro.whois.siblings import SiblingGroups

pytestmark = pytest.mark.check

PFX = Prefix.parse("198.51.100.0/24")

RELS = [
    Relationship.PROVIDER,
    Relationship.PEER,
    Relationship.CUSTOMER,
    Relationship.SIBLING,
]


def _world(seed):
    """A full grading world, deterministically derived from ``seed``."""
    rng = random.Random(seed)
    graph = ASGraph()
    count = rng.randint(3, 24)
    asns = [100 + i for i in range(count)]
    for asn in asns:
        graph.ensure_asn(asn)
    for _ in range(rng.randint(count, count * 3)):
        a, b = rng.sample(asns, 2)
        graph.add_link(a, b, rng.choice(RELS))

    complex_rel = ComplexRelationships()
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(asns, 2)
        if graph.relationship(a, b) is not None:
            complex_rel.add_hybrid(
                HybridEntry(a, b, rng.choice(["nyc", "lon"]), rng.choice(RELS[:3]))
            )

    siblings = None
    if rng.random() < 0.5 and count >= 3:
        siblings = SiblingGroups([frozenset(rng.sample(asns, 3))])

    partial = frozenset()
    if rng.random() < 0.4:
        partial = frozenset(tuple(rng.sample(asns, 2)) for _ in range(2))

    first_hops = None
    if rng.random() < 0.5:
        first_hops = {PFX: frozenset(rng.sample(asns, rng.randint(1, count)))}

    decisions = []
    for _ in range(rng.randint(0, 100)):
        asn = rng.choice(asns)
        decisions.append(
            Decision(
                asn=asn,
                next_hop=rng.choice(asns + [999999]),
                destination=rng.choice(asns),
                prefix=PFX,
                measured_len=rng.randint(1, 6),
                source_asn=asn,
                border_city=rng.choice([None, "nyc", "lon"]),
            )
        )
    return graph, complex_rel, siblings, partial, first_hops, decisions


def _assert_label_for_label(seed):
    graph, complex_rel, siblings, partial, first_hops, decisions = _world(seed)

    engine_array = GaoRexfordEngine(graph, partial_transit=partial)
    array_labels = [
        label
        for _d, label in label_decisions(
            decisions,
            engine_array,
            first_hops_for=first_hops,
            complex_rel=complex_rel,
            siblings=siblings,
        )
    ]
    assert len(array_labels) == len(decisions)

    oracle_infos = {}
    for decision, array_label in zip(decisions, array_labels):
        allowed = None if first_hops is None else first_hops.get(decision.prefix)
        info = compute_routing_info(
            graph,
            decision.destination,
            partial_transit=partial,
            allowed_first_hops=allowed,
        )
        scalar = grade_decision(
            decision, info, graph, complex_rel=complex_rel, siblings=siblings
        )
        assert array_label is scalar, (
            f"seed={seed}: array graded AS{decision.asn}->AS{decision.next_hop}"
            f" toward AS{decision.destination} as {array_label.value}, "
            f"scalar grader says {scalar.value}"
        )
        key = (decision.destination, allowed)
        if key not in oracle_infos:
            oracle_infos[key] = oracle_routing_info(
                graph,
                decision.destination,
                partial_transit=partial,
                allowed_first_hops=allowed,
            )
        want = oracle_label(
            decision,
            oracle_infos[key],
            graph,
            complex_rel=complex_rel,
            siblings=siblings,
        )
        assert array_label is want, (
            f"seed={seed}: array graded AS{decision.asn}->AS{decision.next_hop}"
            f" toward AS{decision.destination} as {array_label.value}, "
            f"oracle says {want.value}"
        )


@pytest.mark.parametrize("seed", [0, 7, 42, 1337, 31415], ids=lambda s: f"seed{s}")
def test_array_grader_matches_scalar_and_oracle(seed):
    _assert_label_for_label(seed)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_array_grader_matches_scalar_and_oracle_property(seed):
    _assert_label_for_label(seed)
