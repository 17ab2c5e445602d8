"""Telemetry overhead gate: enabled telemetry costs < 5% on classification.

Times the quick study's (``quick_study``, the ``repro study --small``
scenario) batched seven-layer Figure-1 pass with telemetry off and on,
without the ``--benchmark-only`` flag, which would skip it::

    python -m pytest benchmarks/test_telemetry_overhead.py -q -s

One pass takes a few milliseconds, and on a shared host the speed of
back-to-back passes drifts by more than 5% within a second, so a leg
of one pass, or of many passes run apart from the other leg's, times
the host.  Each round therefore gives each leg ``k`` passes, with
``k`` fixed up front so that a leg adds up to at least
:data:`LEG_SECONDS`, and runs the two legs' passes in turns, so both
legs see the same host; which leg runs first alternates by round.
Each round reads the overhead of its own pair of legs, and the gate
takes the median round: the best leg of each side may come from
rounds the host ran at different speeds.
"""

import math
import statistics

import pytest

from repro.experiments.scenario import quick_study
from repro.obs import Observability, Tracer, flatten, using
from seven_layer import seven_layer_batched

pytestmark = pytest.mark.bench

#: Largest accepted cost of enabled telemetry, in percent.
BOUND_PCT = 5.0
#: Off/on rounds; the gate reads the median round.
ROUNDS = 5
#: Shortest leg: enough passes that one leg adds up to this long.
LEG_SECONDS = 1.0


def test_telemetry_overhead_within_bound():
    """An obs-disabled leg against an obs-enabled leg (fresh
    :class:`~repro.obs.Observability` plus an active tracer, what
    ``repro study --obs-out FILE`` turns on), pass for pass, so clock drift
    cannot masquerade as overhead."""
    study = quick_study()
    one_pass = min(seven_layer_batched(study)[0] for _ in range(3))
    passes = max(1, math.ceil(LEG_SECONDS / one_pass))
    readings = []
    print()
    for round_no in range(ROUNDS):
        obs = Observability()
        tracer = Tracer()
        legs = {False: 0.0, True: 0.0}
        order = (False, True) if round_no % 2 == 0 else (True, False)
        for _ in range(passes):
            for enabled in order:
                if enabled:
                    with using(obs), tracer.activate():
                        legs[True] += seven_layer_batched(study)[0]
                else:
                    legs[False] += seven_layer_batched(study)[0]
        readings.append((legs[True] / legs[False] - 1.0) * 100.0)
        print(
            f"round {round_no}: {passes} passes per leg, "
            f"off {legs[False]:.4f}s, on {legs[True]:.4f}s ({readings[-1]:+.1f}%)"
        )
    overhead = round(statistics.median(readings), 2)
    print(f"telemetry (obs enabled): median round {overhead:+.1f}%")
    # The enabled leg must have recorded what it is charged for.
    assert any(node.name == "classify_layer" for node in flatten(tracer.roots))
    assert len(obs.metrics) > 0
    assert overhead <= BOUND_PCT, (
        f"telemetry overhead {overhead}% exceeds {BOUND_PCT}% budget"
    )
