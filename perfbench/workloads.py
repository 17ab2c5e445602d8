"""The benchmark's workloads: one cold sample per fresh interpreter.

Both workloads study one fixed synthetic Internet, the world the
golden snapshots are blessed on (``WORLD_SEED``); the seed varies what
is measured in it: inference errors, snapshot churn, the PEERING
testbed, probe selection and the campaign.  Worlds generated from
different seeds converge at such different cost that study time
spreads by a third between seeds, more than any regression bound the
benchmark can hold, so the world stays fixed.  It is still generated
inside the timed region, where ``repro study`` generates it.

Each sample drives only the public API the CLI uses and passes no
backend, worker-count or durability setting; it records the values
the program chose.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import tempfile
import time
import traceback
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy

import repro.temporal as temporal
from repro.check import golden
from repro.core import pipeline
from repro.faults import ledger as run_ledger
from repro.faults import storage
from repro.serve.protocol import build_study_config
from repro.topogen import generator, inference

from spans import Recorder

#: Topology seed of the world every sample studies (the golden's).
WORLD_SEED = 0
#: Monthly snapshots in the ``longitudinal`` series (``repro temporal
#: --snapshots 12``).
SERIES_SNAPSHOTS = 12
#: Sample ``i`` of a ``study`` run with seed ``s`` measures seed
#: ``s * SEED_STRIDE + i``, so runs of different seeds share no input.
SEED_STRIDE = 100


def measurement_seed(workload: str, seed: int, index: int) -> int:
    """The study seed of sample ``index`` of a run with ``seed``.

    ``study`` samples spread over distinct seeds: the active
    experiments' cost varies by seed even in one world, and a median
    over several seeds is steadier than one seed's.  ``longitudinal``
    samples repeat the run's seed, whose cost barely varies in one
    world, so their outputs can be compared within the run.
    """
    if workload == "study":
        return seed * SEED_STRIDE + index
    return seed


class Sample:
    """Timings, output digests and check results of one sample."""

    def __init__(
        self,
        workload: str,
        phases: Tuple[str, ...],
        seed: int,
        index: int,
        spawned_at: float,
        tmp_dir: str,
        recorder: Optional[Recorder],
        verify_scratch: bool,
    ) -> None:
        self.spawned_at = spawned_at
        self.tmp_dir = tmp_dir
        self.recorder = recorder
        self.verify_scratch = verify_scratch
        self.run_dir: Optional[str] = None
        self.result: Dict[str, object] = {
            "workload": workload,
            "seed": seed,
            "index": index,
            "measurement_seed": measurement_seed(workload, seed, index),
            "setup_s": None,
            "peak_rss_mb": None,
            "phases": {
                name: {"s": None, "ok": False, "error": "not run", "digest": None}
                for name in phases
            },
            "checks": [],
            "env": {},
        }

    @property
    def phases(self) -> Dict[str, Dict[str, object]]:
        return self.result["phases"]  # type: ignore[return-value]

    def ready(self) -> None:
        """Marks the end of set-up: interpreter start to first timed call."""
        self.result["setup_s"] = time.perf_counter() - self.spawned_at

    @contextmanager
    def timed(self, phase: str) -> Iterator[None]:
        entry = self.phases[phase]
        entry["error"] = None
        index = self.recorder.begin(f"phase.{phase}") if self.recorder else None
        start = time.perf_counter()
        try:
            yield
        except Exception:
            entry["error"] = traceback.format_exc(limit=8)
            raise
        finally:
            elapsed = time.perf_counter() - start
            if index is not None:
                self.recorder.end(index)
        entry["s"] = elapsed
        entry["ok"] = True

    def measure_memory(self) -> None:
        """Peak RSS of this process and its waited-for pool workers."""
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        self.result["peak_rss_mb"] = peak_kb / 1024.0

    def digest(self, phase: str, payload: object) -> None:
        text = json.dumps(payload, sort_keys=True)
        self.phases[phase]["digest"] = hashlib.blake2b(
            text.encode("utf-8"), digest_size=12
        ).hexdigest()

    def check(self, phase: str, passed: bool, what: str) -> None:
        """Record an output check; a failed one fails the phase."""
        self.result["checks"].append(f"{what}: {'ok' if passed else 'FAILED'}")
        if not passed:
            self.phases[phase]["ok"] = False
            self.phases[phase]["error"] = f"output check failed: {what}"


def _study(config: pipeline.StudyConfig) -> pipeline.StudyResults:
    """What ``repro study`` runs: generate the world, then study it."""
    world = generator.generate_internet(config.topology, seed=WORLD_SEED)
    return pipeline.Study(config, internet=world).run()


def _filesystem(path: str) -> Optional[str]:
    """Type of the filesystem holding ``path``, from the mount table."""
    path = os.path.realpath(path)
    best, fstype = -1, None
    try:
        with open("/proc/self/mountinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                left, _sep, right = line.partition(" - ")
                mount = left.split()[4].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > best:
                    best, fstype = len(mount), right.split()[0]
    except (OSError, IndexError):
        return None
    return fstype


def _environment(results: pipeline.StudyResults, durability: Optional[str],
                 run_dir: Optional[str]) -> Dict[str, object]:
    """What the program chose.  Read defensively: a change that deletes
    the pool or a backend must still get its timings."""
    shard = getattr(results, "shard_execution", None)
    engaged = shard is not None and shard.completed_parallel > 0
    if shard is not None:
        workers = shard.workers
    else:
        try:
            from repro.perf.parallel import worker_count
        except ImportError:
            workers = None
        else:
            workers = min(worker_count(), os.cpu_count() or 1)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": getattr(getattr(results, "engine", None), "backend", None),
        "workers": workers,
        "durability": durability,
        "pool_engaged": engaged,
        "run_dir_fs": _filesystem(run_dir) if run_dir is not None else None,
    }


# -- study -----------------------------------------------------------------


def prepare_study(sample: Sample) -> pipeline.StudyConfig:
    return build_study_config(sample.result["measurement_seed"], scale="small")


def execute_study(sample: Sample, config: pipeline.StudyConfig) -> None:
    with sample.timed("study"):
        results = _study(config)
    sample.measure_memory()
    sample.result["env"] = _environment(results, storage.default_durability(), None)
    snapshot = golden.snapshot_study(results)
    sample.digest("study", snapshot)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = golden.golden_path(os.path.join(root, golden.DEFAULT_GOLDEN_DIR), config.seed)
    # A blessed golden describes the study of its seed's own world, so
    # only the world's own seed is comparable.
    if config.seed == WORLD_SEED and os.path.exists(path):
        drift = golden.diff_snapshots(golden.load(path), snapshot)
        sample.check("study", not drift, f"golden {os.path.basename(path)}: "
                     + (f"{len(drift)} drifted, first {drift[0]}" if drift else "no drift"))


# -- longitudinal ------------------------------------------------------------


def prepare_longitudinal(sample: Sample) -> pipeline.StudyConfig:
    sample.run_dir = tempfile.mkdtemp(prefix="run-", dir=sample.tmp_dir)
    config = build_study_config(sample.result["measurement_seed"], scale="full")
    return dataclasses.replace(config, active_experiments=False, run_dir=sample.run_dir)


def execute_longitudinal(sample: Sample, config: pipeline.StudyConfig) -> None:
    with sample.timed("study"):
        results = _study(config)
    with sample.timed("series"):
        series_config = dataclasses.replace(
            results.config.inference, num_snapshots=SERIES_SNAPSHOTS
        )
        snapshots, _ = inference.inferred_snapshots(
            results.internet, series_config, seed=results.config.seed + 1
        )
        inputs = temporal.TemporalInputs.from_study(results)
        series = temporal.run_incremental(
            snapshots,
            inputs,
            journal_path=os.path.join(config.run_dir, run_ledger.TEMPORAL_JOURNAL),
        )
    sample.measure_memory()
    recorded = run_ledger.RunLedger.read(config.run_dir) or {}
    sample.result["env"] = _environment(
        results, recorded.get("durability"), config.run_dir
    )
    sample.digest("study", golden.snapshot_study(results))
    sample.check("study", recorded.get("status") == run_ledger.STATUS_COMPLETED,
                 f"ledger status {recorded.get('status')!r}")

    figure1_series = series.figure1_series()
    decisions = len(inputs.decisions)
    sample.check("series", len(figure1_series) == SERIES_SNAPSHOTS,
                 f"{len(figure1_series)} epochs graded")
    unbalanced = [
        (epoch, layer)
        for epoch, figure1 in enumerate(figure1_series)
        for layer, counts in figure1.items()
        if sum(counts.values()) != decisions
    ]
    layers = len(pipeline.FIGURE1_LAYERS)
    sample.check("series", not unbalanced and all(len(f) == layers for f in figure1_series),
                 f"every layer tallies {decisions} decisions in every epoch")
    sample.digest("series", figure1_series)
    if sample.verify_scratch:
        run_scratch = getattr(temporal, "run_scratch", None)
        if run_scratch is None:
            sample.result["checks"].append("run_scratch absent: series not compared")
        else:
            sample.check("series", run_scratch(snapshots, inputs) == figure1_series,
                         "series equals run_scratch on the same snapshots")


#: workload -> (phases, prepare, execute)
WORKLOADS: Dict[str, Tuple[Tuple[str, ...], Callable, Callable]] = {
    "study": (("study",), prepare_study, execute_study),
    "longitudinal": (("study", "series"), prepare_longitudinal, execute_longitudinal),
}


def run_sample(
    workload: str,
    seed: int,
    index: int,
    spawned_at: float,
    tmp_dir: str,
    recorder: Optional[Recorder] = None,
    setup_only: bool = False,
    verify_scratch: bool = False,
) -> Dict[str, object]:
    """Run one sample and return its result record (never raises for a
    failure inside the program: the failed phase carries the error)."""
    phases, prepare, execute = WORKLOADS[workload]
    sample = Sample(
        workload, phases, seed, index, spawned_at, tmp_dir, recorder, verify_scratch
    )
    try:
        inputs = prepare(sample)
        sample.ready()
        if not setup_only:
            execute(sample, inputs)
    except Exception:
        # A phase that raised already holds its traceback; the others
        # fail too, because their checks never completed.
        error = traceback.format_exc(limit=8)
        for entry in sample.phases.values():
            if entry["ok"] or entry["error"] == "not run":
                entry["ok"] = False
                entry["error"] = error
    finally:
        if sample.run_dir is not None:
            shutil.rmtree(sample.run_dir, ignore_errors=True)
    return sample.result
