"""Command-line front end.

Usage::

    repro generate [--seed N] [--small] [--out FILE]
        Generate a synthetic Internet and dump the inferred
        relationships in CAIDA serial format.

    repro study [--seed N] [--small] [--experiment ID]
          [--fault-plan PLAN.json] [--run-dir DIR [--resume]]
          [--durability fsync|flush|none]
        Run the full study and print every experiment report (or just
        the one named by --experiment).  A fault plan injects failures
        at every substrate boundary — including the active control
        plane (poison filtering, damping, convergence stalls, feed
        gaps, withdrawal loss) and the filesystem (torn appends,
        ENOSPC, pre-rename crashes, stale locks).

        --run-dir DIR is the one way to persist a study: it scopes all
        of the study's durable state to one ledger-managed directory
        (DIR/ledger.json, campaign.jsonl, active.jsonl) under an
        advisory lock, and --run-dir DIR --resume restores the passive
        and active state together, byte-identical to an uninterrupted
        run.  Persisting changes only how a study runs, never what it
        computes: a plain study and a --run-dir study print the same
        results.  --durability picks the fsync policy run-directory
        writes use (see DESIGN.md §12); like --resume, it requires
        --run-dir.  A run directory that already holds a run (without
        --resume), that belongs to another configuration, or that
        another live process has locked is refused with one error
        line (exit 2).

    repro temporal [--seed N] [--small]
          [--snapshots N] [--churn F] [--run-dir DIR] [--resume]
          [--json]
        Run the longitudinal study over the monthly snapshot series:
        every snapshot is graded on fresh engines, and the per-epoch
        Figure-1 violation counts are reported as a time-series next
        to each epoch's link churn.  --run-dir journals every
        completed epoch durably (DIR/temporal.jsonl) and --resume
        replays the journaled epochs verbatim and grades the rest; a
        run directory is refused as for a study.

    repro list
        List available experiment ids.

    repro obs report MANIFEST [--jsonl FILE] [--top N]
        Render a run manifest (produced by `repro study --obs-out`)
        as a terminal summary; optionally export it as JSONL.  --top N
        adds the N span names with the largest self time after the
        span tree.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.core.pipeline import Study, StudyResults, build_study_config
from repro.faults import FaultPlan, LedgerRefused, LockHeldError
from repro.topogen.config import TopologyConfig, small_config
from repro.topogen.generator import generate_internet
from repro.topogen.inference import infer_topology
from repro.topology.serial import dump_relationships

#: Experiment id -> harness module path.
_EXPERIMENTS = {
    "figure1": "repro.experiments.figure1",
    "figure2": "repro.experiments.figure2",
    "figure3": "repro.experiments.figure3",
    "table1": "repro.experiments.table1",
    "table2": "repro.experiments.table2",
    "table3": "repro.experiments.table3",
    "table4": "repro.experiments.table4",
    "alternate-routes": "repro.experiments.alternate_routes",
    "psp-validation": "repro.experiments.psp_validation",
    "poisoning-dataset": "repro.experiments.poisoning_dataset",
}


def _topology_config(small: bool) -> TopologyConfig:
    return small_config() if small else TopologyConfig()


def _at_least_one(text: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _fraction(text: str) -> float:
    """argparse type: a number in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _run_study(
    seed: int,
    small: bool,
    fault_plan: Optional[FaultPlan] = None,
    resume: bool = False,
    obs: bool = False,
    run_dir: Optional[str] = None,
    durability: Optional[str] = None,
) -> StudyResults:
    """Build and run a study from CLI-shaped arguments."""
    config = build_study_config(seed=seed, scale="small" if small else "full")
    if fault_plan is not None:
        config.fault_plan = fault_plan
    config.run_dir = run_dir
    config.resume = resume
    if durability is not None:
        config.durability = durability
    if obs:
        from repro.obs import Observability, using

        with using(Observability()):
            return Study(config).run()
    return Study(config).run()


def _cmd_generate(args: argparse.Namespace) -> int:
    internet = generate_internet(_topology_config(args.small), seed=args.seed)
    if args.json:
        from repro.topogen.serialization import save_internet

        save_internet(internet, args.json)
        print(f"wrote full ground-truth dataset to {args.json}")
    inferred, _complex = infer_topology(internet, seed=args.seed)
    text = dump_relationships(inferred, args.out)
    if args.out is None and not args.json:
        sys.stdout.write(text)
    elif args.out is not None:
        print(
            f"wrote {inferred.num_links()} inferred links "
            f"({len(internet.graph)} ASes) to {args.out}"
        )
    return 0


def _collect_reports(results: StudyResults, ids) -> list:
    import importlib

    reports = []
    for experiment_id in ids:
        module = importlib.import_module(_EXPERIMENTS[experiment_id])
        try:
            reports.append((experiment_id, module.run(results), module))
        except ValueError as error:
            reports.append((experiment_id, None, error))
    return reports


def _render_markdown(results: StudyResults, reports) -> str:
    lines = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Regenerated by `repro study --markdown EXPERIMENTS.md` over the",
        f"canonical scenario (seed {results.config.seed}, "
        f"{len(results.internet.graph)} ASes, "
        f"{len(results.dataset.measurements)} traceroutes, "
        f"{len(results.decisions)} routing decisions).",
        "",
        "Absolute numbers are not expected to match — the substrate is a",
        "synthetic Internet, not the authors' 2015 testbed — but every",
        "shape claim of the paper is asserted by the benchmark suite",
        "(`pytest benchmarks/`); a failed shape check",
        "fails the corresponding benchmark.",
        "",
    ]
    for experiment_id, report, module_or_error in reports:
        if report is None:
            lines.append(f"## {experiment_id}\n\nskipped: {module_or_error}\n")
            continue
        lines.append(f"## {report.experiment_id}: {report.title}")
        lines.append("")
        lines.append("| metric | paper | measured |")
        lines.append("|---|---|---|")
        for row in report.rows:
            paper = "-" if row.paper is None else f"{row.paper:.1f}{row.unit}"
            measured = (
                "-" if row.measured is None else f"{row.measured:.1f}{row.unit}"
            )
            lines.append(f"| {row.label} | {paper} | {measured} |")
        for note in report.notes:
            lines.append(f"\n{note}")
        shape = getattr(module_or_error, "shape_holds", None)
        if callable(shape):
            verdict = "holds" if shape(results) else "**DOES NOT HOLD**"
            lines.append(f"\nShape check: {verdict}.")
        lines.append("")
    return "\n".join(lines) + "\n"


def _write_figures(results: StudyResults, directory: str) -> list:
    """Render the paper's figures as text files in ``directory``."""
    import os

    from repro.core.classification import DecisionLabel
    from repro.core.geography import CONTINENT_ORDER
    from repro.core.pipeline import FIGURE1_LAYERS
    from repro.experiments.plots import cdf_plot, stacked_bar_chart

    os.makedirs(directory, exist_ok=True)
    written = []

    figure1_rows = {
        layer: {
            label.value: results.figure1[layer].percent(label)
            for label in DecisionLabel
        }
        for layer in FIGURE1_LAYERS
    }
    figure3_rows = {}
    for code in CONTINENT_ORDER:
        counts = results.continental.per_continent.get(code)
        if counts is not None and counts.total():
            figure3_rows[code] = {
                label.value: counts.percent(label) for label in DecisionLabel
            }
    figure3_rows["Cont"] = {
        label.value: results.continental.continental.percent(label)
        for label in DecisionLabel
    }
    figure3_rows["NonCont"] = {
        label.value: results.continental.intercontinental.percent(label)
        for label in DecisionLabel
    }
    figures = {
        "figure1.txt": stacked_bar_chart(figure1_rows),
        "figure2.txt": (
            "destination-AS violation CDF ('.' = no-skew reference)\n"
            + cdf_plot(results.skew.by_destination.cumulative_fractions())
            + "\n\nsource-AS violation CDF\n"
            + cdf_plot(results.skew.by_source.cumulative_fractions())
        ),
        "figure3.txt": stacked_bar_chart(figure3_rows),
    }
    for name, content in figures.items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content + "\n")
        written.append(path)
    return written


def _run_dir_missing(args: argparse.Namespace) -> bool:
    """Report (and return True for) a run-dir flag given without one.

    ``--resume`` replays the run directory's journals and
    ``--durability`` picks how they are written, so neither means
    anything without ``--run-dir``.
    """
    if args.run_dir is not None:
        return False
    for flag, value in (
        ("--resume", args.resume),
        ("--durability", getattr(args, "durability", None)),
    ):
        if value:
            print(
                f"error: {flag} requires --run-dir DIR (the journals live "
                "in the ledger-managed run directory)",
                file=sys.stderr,
            )
            return True
    return False


def _refused(error: Exception) -> int:
    """Report a run directory the ledger or its lock refuses (exit 2)."""
    message = str(error)
    if isinstance(error, LockHeldError):
        message = f"{error.strerror} ({error.filename})"
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_study(args: argparse.Namespace) -> int:
    if _run_dir_missing(args):
        return 2
    fault_plan = None
    if args.fault_plan is not None:
        try:
            fault_plan = FaultPlan.load(args.fault_plan)
        except (OSError, TypeError, ValueError) as error:
            print(
                f"error: cannot load fault plan {args.fault_plan}: {error}",
                file=sys.stderr,
            )
            return 2
    obs_out = getattr(args, "obs_out", None)
    try:
        results = _run_study(
            args.seed,
            args.small,
            fault_plan=fault_plan,
            resume=args.resume,
            obs=obs_out is not None,
            run_dir=args.run_dir,
            durability=getattr(args, "durability", None),
        )
    except (LedgerRefused, LockHeldError) as error:
        return _refused(error)
    if obs_out is not None and results.manifest is not None:
        results.manifest.save(obs_out)
        print(f"wrote run manifest to {obs_out}")
    ids = [args.experiment] if args.experiment else list(_EXPERIMENTS)
    reports = _collect_reports(results, ids)
    if results.config.fault_plan is not None or results.config.run_dir is not None:
        print(results.robustness.render())
        print()
        if results.active_robustness is not None:
            print(results.active_robustness.render())
            print()
    if args.figures:
        for path in _write_figures(results, args.figures):
            print(f"wrote {path}")
    if args.markdown:
        text = _render_markdown(results, reports)
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.markdown}")
        return 0
    for experiment_id, report, error in reports:
        if report is None:
            print(f"== {experiment_id}: skipped ({error}) ==")
            continue
        print(report.render())
        print()
    return 0


def _render_temporal(temporal) -> str:
    """The per-epoch accounting table for a temporal run."""
    title = f"longitudinal study: {len(temporal.epochs)} epoch(s)"
    if temporal.resumed_epochs:
        title += f", {temporal.resumed_epochs} replayed from journal"
    lines = [
        title,
        f"{'epoch':>5} {'delta':>6} {'misses':>7}  violations Simple/All-1",
    ]
    for epoch in temporal.epochs:
        violations = epoch.violations()
        lines.append(
            f"{epoch.index:>5} "
            f"{sum(epoch.delta.values()):>6} "
            f"{epoch.cache_misses:>7}  "
            f"{violations.get('Simple', 0)}/{violations.get('All-1', 0)}"
            + ("  [replayed]" if epoch.resumed else "")
        )
    return "\n".join(lines)


def _cmd_temporal(args: argparse.Namespace) -> int:
    """Standalone longitudinal study over a snapshot series."""
    if _run_dir_missing(args):
        return 2
    import dataclasses

    from repro.temporal import TemporalInputs, run_series

    results = _run_study(args.seed, args.small)
    inputs = TemporalInputs.from_study(results)
    snapshots = results.snapshots
    if args.snapshots is not None or args.churn is not None:
        from repro.topogen.inference import InferenceConfig, inferred_snapshots

        inference = results.config.inference or InferenceConfig()
        if args.snapshots is not None:
            inference = dataclasses.replace(inference, num_snapshots=args.snapshots)
        if args.churn is not None:
            inference = dataclasses.replace(inference, snapshot_churn=args.churn)
        snapshots, _ = inferred_snapshots(
            results.internet, inference, seed=results.config.seed + 1
        )

    try:
        temporal = run_series(
            snapshots, inputs, args.run_dir, resume=bool(args.resume)
        )
    except (LedgerRefused, LockHeldError) as error:
        return _refused(error)
    if args.json:
        print(json.dumps(temporal.as_dict(), indent=2, sort_keys=True))
        return 0
    print(_render_temporal(temporal))
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    for experiment_id in _EXPERIMENTS:
        print(experiment_id)
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs import RunManifest, render_summary, write_jsonl

    try:
        manifest = RunManifest.load(args.manifest)
    except (OSError, ValueError) as error:
        print(
            f"error: cannot load manifest {args.manifest}: {error}",
            file=sys.stderr,
        )
        return 1
    print(render_summary(manifest, top_spans=args.top))
    if args.jsonl is not None:
        write_jsonl(manifest, args.jsonl)
        print(f"wrote JSONL export to {args.jsonl}")
    return 0


def _cmd_check_run(args: argparse.Namespace) -> int:
    """Differential checks: optimized implementations vs oracles."""
    from repro.check import run_checks

    def progress(done: int, total: int) -> None:
        if args.progress and (done % 50 == 0 or done == total):
            print(f"  .. {done}/{total} seeds", file=sys.stderr)

    try:
        report = run_checks(
            args.seeds,
            base_seed=args.base_seed,
            only=args.only or None,
            progress=progress,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def _cmd_check_diff(args: argparse.Namespace) -> int:
    """Compare the canonical study against the blessed golden."""
    from repro.check import DEFAULT_GOLDEN_DIR, check_against_golden

    directory = args.golden_dir or DEFAULT_GOLDEN_DIR
    drifts = check_against_golden(directory=directory, seed=args.seed)
    if not drifts:
        print(f"golden clean: {directory} matches seed {args.seed}")
        return 0
    print(f"{len(drifts)} drift(s) against the blessed golden:")
    for drift in drifts:
        print(f"  {drift}")
    print("\nIf the change is intentional, re-bless with `repro check bless`.")
    return 1


def _cmd_check_bless(args: argparse.Namespace) -> int:
    """Snapshot the canonical study as the new blessed golden."""
    from repro.check import DEFAULT_GOLDEN_DIR, bless, compute_snapshot

    directory = args.golden_dir or DEFAULT_GOLDEN_DIR
    path = bless(compute_snapshot(args.seed), directory=directory, seed=args.seed)
    print(f"blessed golden written to {path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Run every experiment's shape check; non-zero exit on failure."""
    import importlib

    results = _run_study(args.seed, args.small)
    failures = 0
    for experiment_id, module_path in _EXPERIMENTS.items():
        module = importlib.import_module(module_path)
        shape = getattr(module, "shape_holds", None)
        if not callable(shape):
            continue
        sufficient = getattr(module, "has_sufficient_data", None)
        if callable(sufficient) and not sufficient(results):
            print(f"{experiment_id:<20} SKIPPED (insufficient data at this scale)")
            continue
        try:
            holds = shape(results)
        except ValueError:
            print(f"{experiment_id:<20} SKIPPED (needs active experiments)")
            continue
        verdict = "ok" if holds else "FAILED"
        print(f"{experiment_id:<20} {verdict}")
        failures += 0 if holds else 1
    if failures:
        print(f"{failures} shape check(s) failed")
        return 1
    print("all shape checks hold")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # No abbreviated long options: a deleted flag that prefixes a
    # remaining one must fail as unrecognized, not parse as the other.
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Investigating Interdomain Routing Policies "
            "in the Wild' (IMC 2015)"
        ),
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate",
        help="generate a topology and dump inferred relationships",
        allow_abbrev=False,
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--small", action="store_true", help="small topology")
    generate.add_argument("--out", default=None, help="output file (default stdout)")
    generate.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="also save the full ground-truth dataset as JSON",
    )
    generate.set_defaults(handler=_cmd_generate)

    study = subparsers.add_parser(
        "study", help="run the full study and report", allow_abbrev=False
    )
    study.add_argument("--seed", type=int, default=0)
    study.add_argument("--small", action="store_true", help="small, fast scenario")
    study.add_argument(
        "--experiment",
        choices=sorted(_EXPERIMENTS),
        default=None,
        help="report a single experiment",
    )
    study.add_argument(
        "--markdown",
        default=None,
        metavar="FILE",
        help="write a paper-vs-measured markdown report to FILE",
    )
    study.add_argument(
        "--figures",
        default=None,
        metavar="DIR",
        help="render the paper's figures as text files into DIR",
    )
    study.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help="JSON fault plan injected into the campaign (see repro.faults)",
    )
    study.add_argument(
        "--resume",
        action="store_true",
        help="resume a killed study from its --run-dir ledger (passive "
        "and active together; skips journaled work)",
    )
    study.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="durable run directory managed by the run ledger "
        "(DIR/ledger.json + campaign/active journals under an "
        "advisory lock); resume it with --run-dir DIR --resume",
    )
    study.add_argument(
        "--durability",
        choices=("fsync", "flush", "none"),
        default=None,
        help="fsync policy for run-directory writes (default fsync, or "
        "the REPRO_DURABILITY environment variable)",
    )
    study.add_argument(
        "--obs-out",
        default=None,
        metavar="FILE",
        help="enable telemetry (spans, metrics, events) and write the "
        "run manifest JSON to FILE; render it later with "
        "`repro obs report FILE`",
    )
    study.set_defaults(handler=_cmd_study)

    temporal = subparsers.add_parser(
        "temporal",
        help="longitudinal study over the snapshot series",
        allow_abbrev=False,
    )
    temporal.add_argument("--seed", type=int, default=0)
    temporal.add_argument(
        "--small", action="store_true", help="small, fast scenario"
    )
    temporal.add_argument(
        "--snapshots",
        type=_at_least_one,
        default=None,
        metavar="N",
        help="regenerate the series with N monthly snapshots "
        "(default: the study's own series)",
    )
    temporal.add_argument(
        "--churn",
        type=_fraction,
        default=None,
        metavar="FRACTION",
        help="regenerate the series with per-link churn FRACTION "
        "(default: the study's configured churn)",
    )
    temporal.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="ledger-managed run directory; every completed epoch is "
        "journaled durably to DIR/temporal.jsonl",
    )
    temporal.add_argument(
        "--resume",
        action="store_true",
        help="replay the journaled epochs verbatim and grade the "
        "missing ones (requires --run-dir)",
    )
    temporal.add_argument(
        "--json",
        action="store_true",
        help="print the full time-series and accounting as JSON",
    )
    temporal.set_defaults(handler=_cmd_temporal)

    list_parser = subparsers.add_parser(
        "list", help="list experiment ids", allow_abbrev=False
    )
    list_parser.set_defaults(handler=_cmd_list)

    obs_parser = subparsers.add_parser(
        "obs", help="observability tools (run manifests)", allow_abbrev=False
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report",
        help="render a run manifest produced by --obs-out",
        allow_abbrev=False,
    )
    report.add_argument("manifest", help="manifest file (JSON or JSONL)")
    report.add_argument(
        "--jsonl",
        default=None,
        metavar="FILE",
        help="also export the manifest as JSONL",
    )
    report.add_argument(
        "--top",
        type=_at_least_one,
        default=None,
        metavar="N",
        help="after the span tree, list the N span names with the largest "
        "self time (duration minus child spans): calls, seconds and share "
        "of the span total",
    )
    report.set_defaults(handler=_cmd_obs_report)

    check = subparsers.add_parser(
        "check",
        help="correctness tooling: differential oracles and golden runs",
        allow_abbrev=False,
    )
    check_sub = check.add_subparsers(dest="check_command", required=True)

    check_run = check_sub.add_parser(
        "run", help="run optimized-vs-oracle differential checks", allow_abbrev=False
    )
    check_run.add_argument(
        "--seeds", type=int, default=100, help="number of seeded scenarios"
    )
    check_run.add_argument(
        "--base-seed", type=int, default=0, help="first seed of the range"
    )
    check_run.add_argument(
        "--only",
        action="append",
        metavar="CHECK",
        help="restrict to one check (repeatable): gr-tree, labels, "
        "metamorphic, bgp-decision, lpm, bgp-withdraw, bgp-reuse, "
        "bgp-stable (the last three are assertion families of one BGP "
        "scenario driver, which runs once per seed for any of them); the "
        "heavy opt-in check ledger-resume runs only when named here",
    )
    check_run.add_argument(
        "--progress", action="store_true", help="print progress to stderr"
    )
    check_run.set_defaults(handler=_cmd_check_run)

    check_diff = check_sub.add_parser(
        "diff",
        help="diff the canonical study against the blessed golden",
        allow_abbrev=False,
    )
    check_bless = check_sub.add_parser(
        "bless",
        help="snapshot the canonical study as the blessed golden",
        allow_abbrev=False,
    )
    for sub in (check_diff, check_bless):
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--golden-dir",
            default=None,
            metavar="DIR",
            help="golden directory (default tests/golden)",
        )
    check_diff.set_defaults(handler=_cmd_check_diff)
    check_bless.set_defaults(handler=_cmd_check_bless)

    validate = subparsers.add_parser(
        "validate", help="run every experiment's shape check", allow_abbrev=False
    )
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--small", action="store_true", help="small, fast scenario")
    validate.set_defaults(handler=_cmd_validate)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
