"""A speaker reads its policy's per-session import inputs once, when it
is built: each session's local preference and IGP cost, and the loop
and poison flags.  Every route it accepts must still carry what the
policy's one local-preference rule (:meth:`Policy.local_pref_for`)
assigns, on a converged world that exercises every input: prefix and
neighbor overrides, sibling entry classes and the domestic bonus."""

from collections import Counter


def test_every_accepted_route_carries_the_policys_local_pref(study):
    simulator = study.dataset.simulator
    country_of = study.internet.country_of
    seen = Counter()
    for asn, speaker in simulator.speakers.items():
        policy = speaker.policy
        for prefix in speaker.prefixes():
            inputs = policy.prefix_inputs(prefix)
            for route in speaker.candidates(prefix):
                neighbor = route.learned_from
                if neighbor == asn:
                    continue  # the origin's self-route is not imported
                assert route.local_pref == policy.local_pref_for(
                    neighbor, route.effective_class, prefix, route.as_path, country_of
                ), (asn, str(prefix), str(route))
                assert route.igp_cost == policy.igp_cost_for(neighbor)
                assert policy.accepts(route.as_path)
                seen["routes"] += 1
                if inputs.local_pref_from(neighbor) is not None:
                    seen["prefix override"] += 1
                elif neighbor in policy.neighbor_local_pref:
                    seen["neighbor override"] += 1
                if route.relationship is not route.effective_class:
                    seen["sibling entry class"] += 1
                if policy.prefers_domestic and policy._is_domestic(
                    route.as_path, country_of
                ):
                    seen["domestic bonus"] += 1
    assert set(seen) == {
        "routes",
        "prefix override",
        "neighbor override",
        "sibling entry class",
        "domestic bonus",
    }, seen

