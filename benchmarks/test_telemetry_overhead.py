"""Telemetry overhead gate: enabled telemetry costs < 5% on classification.

Times the quick study's (``quick_study``, the ``repro study --small``
scenario) batched seven-layer Figure-1 pass with telemetry off and on,
without the ``--benchmark-only`` flag, which would skip it::

    python -m pytest benchmarks/test_telemetry_overhead.py -q -s
"""

import pytest

from repro.experiments.scenario import quick_study
from repro.obs import Observability, Tracer, flatten, using
from seven_layer import seven_layer_batched

pytestmark = pytest.mark.bench

#: Largest accepted cost of enabled telemetry, in percent.
BOUND_PCT = 5.0
#: Interleaved off/on rounds; each leg keeps its best.
ROUNDS = 5


def test_telemetry_overhead_within_bound():
    """An obs-disabled leg interleaved with an obs-enabled leg (fresh
    :class:`~repro.obs.Observability` plus an active tracer, what
    ``repro study --obs`` turns on), so clock drift cannot masquerade
    as overhead."""
    study = quick_study()
    off_s = on_s = float("inf")
    for _ in range(ROUNDS):
        elapsed, _counts, _report = seven_layer_batched(study)
        off_s = min(off_s, elapsed)
        obs = Observability()
        tracer = Tracer()
        with using(obs), tracer.activate():
            elapsed, _counts, _report = seven_layer_batched(study)
        on_s = min(on_s, elapsed)
    overhead = round((on_s / off_s - 1.0) * 100.0, 2)
    print()
    print(
        f"telemetry (obs enabled): {off_s:.4f}s -> {on_s:.4f}s ({overhead:+.1f}%)"
    )
    # The enabled leg must have recorded what it is charged for.
    assert any(node.name == "classify_layer" for node in flatten(tracer.roots))
    assert len(obs.metrics) > 0
    assert overhead <= BOUND_PCT, (
        f"telemetry overhead {overhead}% exceeds {BOUND_PCT}% budget"
    )
