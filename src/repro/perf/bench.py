"""Pipeline benchmark entry point (``python -m repro.perf.bench``).

Measures the full seven-layer Figure-1 classification two ways over the
same study — the per-decision reference path and the batched +
precomputed arena path — and writes the trajectory to
``BENCH_pipeline.json`` together with the study's per-stage wall times
and routing-cache counters.  The benchmark suite reuses these helpers
so the reported speedup and the CI-asserted speedup are the same
measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, Optional, Tuple

from repro.core.classification import LabelCounts, classify_decisions_serial
from repro.core.gao_rexford import GaoRexfordEngine
from repro.core.pipeline import FIGURE1_LAYERS, StudyResults, figure1_layer_configs
from repro.perf.parallel import ParallelClassifier, PrecomputeReport

DEFAULT_BENCH_PATH = "BENCH_pipeline.json"


def _fresh_engines(
    study: StudyResults, canonical_keys: bool
) -> Tuple[GaoRexfordEngine, GaoRexfordEngine]:
    """Cold engines over the study topology, as ``Study.run`` builds them.

    ``canonical_keys=False`` reproduces the seed engine's cache
    behavior, so the serial leg measures the pre-optimization pipeline.
    """
    if study.engine_complex is None:
        raise ValueError("study results carry no complex engine")
    partial = study.engine_complex.partial_transit
    simple = GaoRexfordEngine(study.inferred, canonical_keys=canonical_keys)
    complex_ = GaoRexfordEngine(
        study.inferred, partial_transit=partial, canonical_keys=canonical_keys
    )
    return simple, complex_


def _layer_configs(study, engine_simple, engine_complex):
    return figure1_layer_configs(
        engine_simple,
        engine_complex,
        known_complex=study.known_complex,
        siblings=study.siblings,
        first_hops_1=study.first_hops_1,
        first_hops_2=study.first_hops_2,
    )


def seven_layer_serial(study: StudyResults) -> Tuple[float, Dict[str, LabelCounts]]:
    """Time the reference path: per-decision grading, cold engines."""
    engine_simple, engine_complex = _fresh_engines(study, canonical_keys=False)
    layers = _layer_configs(study, engine_simple, engine_complex)
    start = time.perf_counter()
    figure1 = {
        name: classify_decisions_serial(
            study.decisions,
            layer.engine,
            first_hops_for=layer.first_hops_for,
            complex_rel=layer.complex_rel,
            siblings=layer.siblings,
        )
        for name, layer in layers.items()
    }
    return time.perf_counter() - start, figure1


def seven_layer_batched(
    study: StudyResults,
) -> Tuple[float, Dict[str, LabelCounts], PrecomputeReport, Dict[str, Dict]]:
    """Time the optimized path: precomputed trees + arena grading.

    Engines start cold, so the measurement includes tree construction
    exactly like the serial leg does.
    """
    engine_simple, engine_complex = _fresh_engines(study, canonical_keys=True)
    layers = _layer_configs(study, engine_simple, engine_complex)
    classifier = ParallelClassifier()
    start = time.perf_counter()
    figure1 = classifier.classify_layers(study.decisions, layers)
    elapsed = time.perf_counter() - start
    report = classifier.last_report or PrecomputeReport()
    cache_stats = {
        "simple": engine_simple.cache_stats().as_dict(),
        "complex": engine_complex.cache_stats().as_dict(),
    }
    return elapsed, figure1, report, cache_stats


def ledger_durability_overhead(
    study: StudyResults, repeats: int = 3
) -> Dict[str, object]:
    """Cost of full durability (per-append fsync) on a journaled campaign.

    Two measurements compose the overhead figure.  First, two full
    campaign legs journal every pair to a throwaway run directory
    under ``durability=none`` and ``durability=fsync`` (the ledger
    default: per-record flush, group-committed fsync every
    ``fsync_interval`` records and on close) — these prove the outputs
    identical and time the campaign baseline.  Second, the exact
    record stream the campaign journaled is replayed through fresh
    journals under both policies, timing just the appends; the replay
    delta is the I/O the durability policy actually adds.  The
    reported ``overhead_pct`` is that delta relative to the campaign
    baseline — campaign wall time on a loaded CI box jitters by more
    than the whole durability cost, so timing the added I/O directly
    is the only way the <5% gate measures policy, not scheduler noise.
    """
    import shutil
    import tempfile

    from repro.atlas.campaign import CampaignConfig, run_campaign
    from repro.faults import CheckpointJournal
    from repro.faults.storage import (
        DURABILITY_FSYNC,
        DURABILITY_NONE,
        StoragePolicy,
    )

    internet = study.internet
    probes = study.selected_probes
    # The pipeline's campaign stage uses seed + 5 (see Study.run).
    campaign_seed = study.config.seed + 5

    def run_leg(durability: str):
        tmp = tempfile.mkdtemp(prefix="bench-ledger-")
        try:
            path = os.path.join(tmp, "campaign.jsonl")
            start = time.perf_counter()
            dataset = run_campaign(
                internet,
                probes,
                CampaignConfig(
                    seed=campaign_seed,
                    missing_hop_rate=study.config.missing_hop_rate,
                    checkpoint_path=path,
                    storage=StoragePolicy(durability=durability),
                ),
            )
            elapsed = time.perf_counter() - start
            _header, records = CheckpointJournal(path).load()
            return elapsed, dataset, records
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def replay(records, durability: str) -> float:
        tmp = tempfile.mkdtemp(prefix="bench-ledger-")
        try:
            journal = CheckpointJournal(
                os.path.join(tmp, "campaign.jsonl"),
                storage=StoragePolicy(durability=durability),
            )
            start = time.perf_counter()
            with journal:
                for record in records:
                    journal.append(record)
            return time.perf_counter() - start
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    campaign_s = float("inf")
    none_dataset = fsync_dataset = None
    records: list = []
    for _ in range(max(repeats, 3)):
        elapsed, none_dataset, records = run_leg(DURABILITY_NONE)
        campaign_s = min(campaign_s, elapsed)
        elapsed, fsync_dataset, _records = run_leg(DURABILITY_FSYNC)
        campaign_s = min(campaign_s, elapsed)
    assert none_dataset is not None and fsync_dataset is not None
    from repro.atlas import dump_measurements

    identical = dump_measurements(none_dataset.measurements) == dump_measurements(
        fsync_dataset.measurements
    )

    append_none_s = append_fsync_s = float("inf")
    for _ in range(max(repeats, 5)):
        append_none_s = min(append_none_s, replay(records, DURABILITY_NONE))
        append_fsync_s = min(append_fsync_s, replay(records, DURABILITY_FSYNC))
    added_s = max(0.0, append_fsync_s - append_none_s)

    pairs = none_dataset.robustness.total_pairs
    overhead = (
        round(added_s / campaign_s * 100.0, 2) if campaign_s else None
    )
    return {
        "fault_plan": None,
        "journaled_pairs": pairs,
        "campaign_seconds": round(campaign_s, 6),
        "append_none_seconds": round(append_none_s, 6),
        "append_fsync_seconds": round(append_fsync_s, 6),
        "added_seconds": round(added_s, 6),
        "overhead_pct": overhead,
        "results_identical": identical,
    }


def telemetry_overhead(study: StudyResults, repeats: int = 3) -> Dict[str, object]:
    """Cost of enabled telemetry on the hot seven-layer classification.

    Interleaves an obs-disabled leg with an obs-enabled leg (fresh
    :class:`~repro.obs.Observability` + active tracer, i.e. what
    ``repro study --obs`` turns on) so clock drift cannot masquerade as
    overhead, and keeps the enabled leg's run manifest so
    ``BENCH_pipeline.json`` records what the telemetry actually
    captured.  CI gates on ``overhead_pct``.
    """
    from repro.obs import Observability, Tracer, build_manifest, using

    off_s = on_s = float("inf")
    manifest: Optional[Dict[str, object]] = None
    for _ in range(max(repeats, 5)):
        elapsed, _counts, _report, _stats = seven_layer_batched(study)
        off_s = min(off_s, elapsed)
        obs = Observability()
        tracer = Tracer()
        with using(obs), tracer.activate():
            elapsed, _counts, _report, _stats = seven_layer_batched(study)
        on_s = min(on_s, elapsed)
        manifest = build_manifest(
            obs,
            tracer,
            kind="bench",
            config=study.config,
            topology_seed=study.config.seed,
            meta={
                "benchmark": "seven_layer_batched",
                "decisions": len(study.decisions),
                "layers": list(FIGURE1_LAYERS),
            },
        ).to_dict()
    overhead = round((on_s / off_s - 1.0) * 100.0, 2) if off_s else None
    return {
        "disabled_seconds": round(off_s, 6),
        "enabled_seconds": round(on_s, 6),
        "overhead_pct": overhead,
        "manifest": manifest,
    }


def run_benchmark(study: StudyResults, repeats: int = 3) -> Dict[str, object]:
    """Best-of-``repeats`` serial vs batched comparison as a JSON payload."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    serial_s = batched_s = float("inf")
    serial_counts = batched_counts = None
    report = None
    cache_stats: Dict[str, Dict] = {}
    for _ in range(repeats):
        elapsed, serial_counts = seven_layer_serial(study)
        serial_s = min(serial_s, elapsed)
        elapsed, batched_counts, report, cache_stats = seven_layer_batched(study)
        batched_s = min(batched_s, elapsed)
    assert serial_counts is not None and batched_counts is not None
    identical = all(
        serial_counts[layer] == batched_counts[layer] for layer in FIGURE1_LAYERS
    )
    decisions = len(study.decisions)
    graded = decisions * len(FIGURE1_LAYERS)
    return {
        "schema": 1,
        "generated_by": "repro.perf.bench",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "topology": {
            "ases": len(study.inferred),
            "links": study.inferred.num_links(),
        },
        "decisions": decisions,
        "stage_timings": dict(study.stage_timings),
        "classification": {
            "layers": list(FIGURE1_LAYERS),
            "decisions_graded": graded,
            "serial_seconds": round(serial_s, 6),
            "batched_seconds": round(batched_s, 6),
            "speedup": round(serial_s / batched_s, 3) if batched_s else None,
            "serial_decisions_per_second": round(graded / serial_s, 1),
            "batched_decisions_per_second": round(graded / batched_s, 1),
            "trees_computed": report.trees_computed if report else 0,
            "trees_reused": report.trees_reused if report else 0,
            "results_identical": identical,
        },
        "cache": cache_stats,
        "ledger": ledger_durability_overhead(study, repeats=repeats),
        "telemetry_overhead": telemetry_overhead(study, repeats=repeats),
    }


def write_bench_file(
    payload: Dict[str, object], path: str = DEFAULT_BENCH_PATH
) -> str:
    """Merge ``payload`` into the JSON trajectory file at ``path``.

    Existing top-level keys not in ``payload`` are preserved, so the
    CLI and individual benchmarks can each contribute their sections.
    """
    existing: Dict[str, object] = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                existing = loaded
        except (OSError, ValueError):
            existing = {}
    existing.update(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(existing, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench",
        description="Benchmark the Figure-1 classification pipeline and "
        "write BENCH_pipeline.json.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the small test scenario instead of the full study",
    )
    parser.add_argument("--seed", type=int, default=0, help="study seed")
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of repetitions per leg"
    )
    parser.add_argument(
        "--out", default=DEFAULT_BENCH_PATH, help="trajectory file path"
    )
    parser.add_argument(
        "--section",
        choices=("all", "obs", "ledger", "serve"),
        default="all",
        help="'obs' measures and merges only the telemetry_overhead "
        "section; 'ledger' measures journal fsync durability overhead "
        "and refreshes the ledger section; 'serve' load-tests the "
        "study-as-a-service daemon (concurrent clients, req/s, p99, "
        "cache reuse) and refreshes the serve section; other recorded "
        "sections stay untouched",
    )
    parser.add_argument(
        "--serve-clients",
        type=int,
        default=8,
        metavar="N",
        help="concurrent load-generator clients for --section serve "
        "(acceptance floor: 8)",
    )
    parser.add_argument(
        "--check-obs-overhead",
        type=float,
        default=None,
        metavar="PCT",
        help="exit nonzero if telemetry overhead on the classification "
        "benchmark exceeds PCT percent",
    )
    parser.add_argument(
        "--check-ledger-overhead",
        type=float,
        default=None,
        metavar="PCT",
        help="exit nonzero if fsync durability costs more than PCT "
        "percent over a non-durable journal on the same campaign",
    )
    parser.add_argument(
        "--check-serve-p99",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit nonzero if the serve daemon's p99 request latency "
        "under concurrent load exceeds SECONDS (also fails on any "
        "non-byte-identical study response or hard client error)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the sections written this run as JSON on stdout "
        "(human-readable summary moves to stderr)",
    )
    args = parser.parse_args(argv)

    # Fail fast on bad knobs before the (slow) study build.
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")

    from repro.experiments.scenario import default_study, quick_study

    # Under --json only the written sections go to stdout; the human
    # summary moves to stderr so piped consumers parse clean JSON.
    def say(message: str) -> None:
        print(message, file=sys.stderr if args.json else sys.stdout)

    def finish_section(written: Dict[str, object], path: str, failed: int) -> int:
        say(f"wrote {path}")
        if args.json:
            print(json.dumps(written, indent=2, sort_keys=True))
        return failed

    if args.section == "serve":
        # The daemon workload is the small scenario regardless of
        # --quick: the section measures service concurrency, not study
        # scale, and the differential reference is the quick snapshot.
        from repro.serve.loadgen import bench_serve

        serve = bench_serve(clients=args.serve_clients, seed=args.seed)
        say(
            f"serve: {serve['clients']} clients, "
            f"{serve['completed']}/{serve['requests']} completed, "
            f"{serve['req_per_s']:.1f} req/s, "
            f"p50 {serve['p50_s']:.3f}s, p99 {serve['p99_s']:.3f}s"
        )
        say(
            f"serve caches: engine hit-rate {serve['engine_cache_hit_rate']}, "
            f"study hit-rate {serve['study_cache_hit_rate']}, "
            f"{serve['tenants_seen']} tenants"
        )
        say(f"serve byte-identical: {serve['byte_identical']}")
        failed = 0
        if not serve["byte_identical"]:
            say("FAIL: a daemon study response differed from the CLI path")
            failed = 1
        if serve["errors"]:
            say(f"FAIL: {serve['errors']} hard client error(s) under load")
            failed = 1
        if args.check_serve_p99 is not None and (
            serve["p99_s"] > args.check_serve_p99
        ):
            say(
                f"FAIL: serve p99 {serve['p99_s']:.3f}s exceeds the "
                f"{args.check_serve_p99}s budget"
            )
            failed = 1
        written = {"serve": serve}
        path = write_bench_file(written, args.out)
        return finish_section(written, path, failed)

    build_start = time.perf_counter()
    study = (
        quick_study(seed=args.seed) if args.quick else default_study(seed=args.seed)
    )
    build_seconds = time.perf_counter() - build_start

    def check_gate(telemetry: Dict[str, object]) -> int:
        overhead = telemetry["overhead_pct"]
        label = "n/a" if overhead is None else f"{overhead:+.1f}%"
        say(
            f"telemetry (obs enabled): "
            f"{telemetry['disabled_seconds']:.3f}s -> "
            f"{telemetry['enabled_seconds']:.3f}s ({label})"
        )
        if args.check_obs_overhead is not None and (
            overhead is None or overhead > args.check_obs_overhead
        ):
            say(
                f"FAIL: telemetry overhead {overhead}% exceeds "
                f"{args.check_obs_overhead}% budget"
            )
            return 1
        return 0

    def check_ledger_gate(ledger: Dict[str, object]) -> int:
        overhead = ledger["overhead_pct"]
        label = "n/a" if overhead is None else f"{overhead:+.1f}%"
        say(
            f"ledger durability (fsync vs none): appends "
            f"{ledger['append_none_seconds']:.4f}s -> "
            f"{ledger['append_fsync_seconds']:.4f}s, "
            f"+{ledger['added_seconds']:.4f}s on a "
            f"{ledger['campaign_seconds']:.3f}s campaign ({label}, "
            f"{ledger['journaled_pairs']} journaled pairs)"
        )
        failed = 0
        if not ledger["results_identical"]:
            say("FAIL: fsync-durable campaign disagrees with the baseline")
            failed = 1
        if args.check_ledger_overhead is not None and (
            overhead is None or overhead > args.check_ledger_overhead
        ):
            say(
                f"FAIL: durability overhead {overhead}% exceeds "
                f"{args.check_ledger_overhead}% budget"
            )
            failed = 1
        return failed

    def finish(written: Dict[str, object], path: str, failed: int) -> int:
        say(f"wrote {path}")
        if args.json:
            print(json.dumps(written, indent=2, sort_keys=True))
        return failed

    if args.section == "ledger":
        ledger = ledger_durability_overhead(study, repeats=args.repeats)
        written = {"ledger": ledger}
        path = write_bench_file(written, args.out)
        return finish(written, path, check_ledger_gate(ledger))

    if args.section == "obs":
        telemetry = telemetry_overhead(study, repeats=args.repeats)
        written = {"telemetry_overhead": telemetry}
        path = write_bench_file(written, args.out)
        return finish(written, path, check_gate(telemetry))

    payload = run_benchmark(study, repeats=args.repeats)
    payload["study_build_seconds"] = round(build_seconds, 3)
    payload["scenario"] = "quick" if args.quick else "default"
    path = write_bench_file(payload, args.out)

    cls = payload["classification"]
    say(f"study build: {build_seconds:.1f}s ({payload['scenario']} scenario)")
    say(
        f"serial seven-layer classification:  {cls['serial_seconds']:.3f}s "
        f"({cls['serial_decisions_per_second']:.0f} decisions/s)"
    )
    say(
        f"batched seven-layer classification: {cls['batched_seconds']:.3f}s "
        f"({cls['batched_decisions_per_second']:.0f} decisions/s)"
    )
    say(
        f"speedup: {cls['speedup']:.2f}x  "
        f"(trees computed={cls['trees_computed']}, reused={cls['trees_reused']})"
    )
    say(f"results identical: {cls['results_identical']}")
    failed = 0
    failed |= check_ledger_gate(payload["ledger"])
    failed |= check_gate(payload["telemetry_overhead"])
    if not cls["results_identical"]:
        failed = 1
    return finish(payload, path, failed)


if __name__ == "__main__":
    sys.exit(main())
