"""CPython's cyclic garbage collector: the study's one policy for it,
and its pauses as the run manifest sees them.

The study's state is nearly acyclic: routes, RIB records and AS-path
attributes die by reference counting, yet every gen-2 pass rescans all
of them.  :func:`collector_scope` runs a region with the collector off
over a frozen heap and collects once at its exit, so a study pays for
one pass over what it allocated instead of rescanning the whole
process heap on every gen-2 pass (DESIGN.md, "Collector policy").
That pass is a ``collect`` span on the ambient tracer, so a study's
span tree shows it beside the stages.

:class:`CollectorPauses` is a :data:`gc.callbacks` hook that counts the
collector's passes and pause seconds by generation.  An enabled
:class:`~repro.obs.context.Observability` owns one and installs it
while it is the current context; :func:`~repro.obs.manifest.build_manifest`
adds its counts to the manifest as two counters,
``repro_gc_collections_total{generation}`` and
``repro_gc_pause_seconds{generation}``.  The counts live outside the
metrics registry, so an instrumented region's own metrics never pick up
a collection that merely happened to run inside it.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

from repro.obs.metrics import label_key
from repro.obs.trace import span

#: Counter names in the manifest's metric snapshot.
COLLECTIONS_METRIC = "repro_gc_collections_total"
PAUSE_METRIC = "repro_gc_pause_seconds"

#: Series key per collector generation (0, 1, 2).
GENERATION_SERIES = tuple(
    label_key({"generation": generation}) for generation in range(3)
)


class CollectorPauses:
    """Collections and pause seconds by generation, counted by a
    :data:`gc.callbacks` hook while :meth:`install`-ed."""

    __slots__ = ("collections", "seconds", "_started")

    def __init__(self) -> None:
        self.collections: List[int] = [0, 0, 0]
        self.seconds: List[float] = [0.0, 0.0, 0.0]
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.collections[generation] += 1
        self.seconds[generation] += time.perf_counter() - self._started

    def install(self) -> None:
        if self not in gc.callbacks:
            gc.callbacks.append(self)

    def uninstall(self) -> None:
        if self in gc.callbacks:
            gc.callbacks.remove(self)

    def clear(self) -> None:
        self.collections[:] = [0, 0, 0]
        self.seconds[:] = [0.0, 0.0, 0.0]

    def counters(self) -> Dict[str, Dict]:
        """The counts as counter documents of a metric snapshot."""
        return {
            COLLECTIONS_METRIC: {
                "help": "Cyclic garbage collector passes, by generation.",
                "series": {
                    key: float(count)
                    for key, count in zip(GENERATION_SERIES, self.collections)
                },
            },
            PAUSE_METRIC: {
                "help": "Seconds the cyclic garbage collector paused the "
                "run, by generation.",
                "series": dict(zip(GENERATION_SERIES, self.seconds)),
            },
        }


@contextmanager
def collector_scope() -> Iterator[None]:
    """Run the body with the cyclic collector off, then collect once.

    Entry freezes the caller's heap (:func:`gc.freeze`, O(1)) and
    disables the collector; exit, also on an exception, re-enables it,
    runs one :func:`gc.collect`, which scans only what the body
    allocated, in a ``collect`` span on the ambient tracer (none when
    no tracer is active), and unfreezes.  When the collector is
    already disabled the scope does nothing: the caller's policy
    stands, and nested scopes collect once, at the outermost exit.  A
    caller that keeps a frozen heap of its own must disable the
    collector around the scope, because exit unfreezes everything; the
    scope cannot test for one, since CPython 3.12 keeps immortal
    objects in the frozen generation.
    Nothing inside may rely on the collector to close a file or release
    a lock.
    """
    if not gc.isenabled():
        yield
        return
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        # The span opens before the collector is back on: an allocation
        # after ``gc.enable()`` would start an automatic young-generation
        # pass over everything the body allocated, before this one.
        with span("collect"):
            gc.enable()
            gc.collect()
        gc.unfreeze()
