"""The repository benchmark: cold ``study`` and journaled ``longitudinal``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload study --seed 0 --seconds 48 --trace 0

Every sample is a cold start in a fresh interpreter, as every ``repro
study`` invocation is, and samples run one after another.  With
``--trace 0`` the run prints the end-to-end metrics (medians with their
sample counts); with ``--trace 1`` it alternates traced and untraced
samples of one seed and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and per-sample records are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import layers  # noqa: E402
from spans import Span, totals_by_name  # noqa: E402
from stats import summarize  # noqa: E402

#: Phases each workload times, in order.
PHASES = {"study": ("study",), "longitudinal": ("study", "series")}
#: Nominal seconds of one sample on a 2-CPU x86-64 VM; ``--seconds``
#: over this fixes the sample count, so a run's inputs depend only on
#: its seed and length, never on how fast the host happens to be.
NOMINAL_SAMPLE_S = {"study": 8.0, "longitudinal": 27.0}
MIN_SAMPLES = {"study": 3, "longitudinal": 2}
#: Set-up is measured in every sample, and in extra set-up-only
#: samples until there are this many.
MIN_SETUP_SAMPLES = 5
#: No sample outlives this point of the run, and none starts unless
#: half again its kind's longest sample so far still fits.
RUN_DEADLINE_S = 170.0

END_TO_END = (
    ("study_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def sample_count(workload: str, seconds: float) -> int:
    return max(MIN_SAMPLES[workload], round(seconds / NOMINAL_SAMPLE_S[workload]))


class Runner:
    """Starts samples one at a time and collects their records."""

    def __init__(self, workload: str, seed: int, tmp_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp_dir = tmp_dir
        self.started = time.perf_counter()
        self.records: List[Dict[str, object]] = []
        # The program's own defaults are what users get; an inherited
        # REPRO_* setting would silently pick another backend, worker
        # count or durability.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        #: Longest sample so far, per kind (set-up only or not).
        self.longest = {True: 2.0, False: NOMINAL_SAMPLE_S[workload]}

    def sample(self, index: int = 0, trace: bool = False, setup_only: bool = False,
               verify_scratch: bool = False) -> Optional[Dict[str, object]]:
        """Run one sample; ``None`` when too little of the run is left."""
        timeout = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        if timeout < 1.5 * self.longest[setup_only]:
            return None
        spawned_at = time.perf_counter()
        command = [
            sys.executable, os.path.join(HERE, "sample.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--index", str(index), "--spawned-at", repr(spawned_at),
            "--tmp-dir", self.tmp_dir, "--trace", str(int(trace)),
        ]
        if setup_only:
            command.append("--setup-only")
        if verify_scratch:
            command.append("--verify-scratch")
        process = subprocess.Popen(
            command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            start_new_session=True,
        )
        error = None
        try:
            stdout, _ = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            error = f"sample timed out after {timeout:.0f} s"
            stdout = b""
        finally:
            # The sample's pool workers share its process group; none may
            # outlive it.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.communicate()
        record = None
        if error is None:
            lines = stdout.decode("utf-8", "replace").strip().splitlines()
            try:
                record = json.loads(lines[-1]) if lines else None
            except ValueError:
                record = None
            if record is None:
                error = f"sample exited with code {process.returncode} and no result"
        if record is None:
            record = {
                "workload": self.workload, "seed": self.seed, "index": index,
                "measurement_seed": None, "setup_s": None, "peak_rss_mb": None,
                "phases": {p: {"s": None, "ok": False, "error": error, "digest": None}
                           for p in PHASES[self.workload]},
                "checks": [], "env": {},
            }
        self.longest[setup_only] = max(
            self.longest[setup_only], time.perf_counter() - spawned_at
        )
        record["traced"] = trace
        record["setup_only"] = setup_only
        self.records.append(record)
        return record


def _phase_times(records, phase: str) -> List[float]:
    return [r["phases"][phase]["s"] for r in records if r["phases"][phase]["ok"]]


def _end_to_end(workload: str, records) -> Dict[str, tuple]:
    """name -> (unit, values) over the untraced samples."""
    plain = [r for r in records if not r["traced"]]
    timed = [r for r in plain if not r["setup_only"]]
    rows = {"study_s": ("s", _phase_times(timed, "study"))}
    if "series" in PHASES[workload]:
        rows["series_s"] = ("s", _phase_times(timed, "series"))
    rows["setup_s"] = ("s", [r["setup_s"] for r in plain if r["setup_s"] is not None])
    rows["peak_rss_mb"] = ("MB", [r["peak_rss_mb"] for r in timed
                                  if r["peak_rss_mb"] is not None])
    return rows


def _digest_problems(records) -> List[str]:
    """Samples of one study seed whose outputs differ, within this run
    or from earlier runs in this checkout; each fails its phase."""
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            known = json.load(handle)
    except (OSError, ValueError):
        known = {}
    problems = []
    for record in records:
        for phase, entry in record["phases"].items():
            if not entry["ok"] or entry["digest"] is None:
                continue
            key = f"{record['workload']}:{record['measurement_seed']}:{phase}"
            seen = known.setdefault(key, entry["digest"])
            if seen != entry["digest"]:
                entry["ok"] = False
                entry["error"] = f"output digest {entry['digest']} != {seen} seen before"
                problems.append(f"{key}: output digest {entry['digest']} != {seen}")
    scratch = path + ".tmp"
    with open(scratch, "w", encoding="utf-8") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
    os.replace(scratch, path)
    return problems


def _operations(records) -> tuple:
    """(attempted, failed) timed operations: one per phase of a sample."""
    timed = [r for r in records if not r["setup_only"]]
    attempted = sum(len(r["phases"]) for r in timed)
    failed = sum(1 for r in timed for e in r["phases"].values() if not e["ok"])
    return attempted, failed


def _print_report(args, records, problems) -> None:
    kind = "traced" if args.trace else "timed"
    seeds = sorted({r["measurement_seed"] for r in records if r["measurement_seed"] is not None})
    print(f"perfbench {args.workload} ({kind}): seed {args.seed}, "
          f"{sum(not r['setup_only'] for r in records)} samples of study seeds {seeds}")
    env = next((r["env"] for r in records if r["env"]), {})
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (unit, values) in _end_to_end(args.workload, records).items():
        if values:
            s = summarize(values)
            print(f"{name:<12} {s.median:.4f} {unit}  median of n={s.n}"
                  f"  (q1 {s.q1:.4f}, q3 {s.q3:.4f})")
        else:
            print(f"{name:<12} -  n=0")
    if "series" not in PHASES[args.workload]:
        print(f"{'series_s':<12} -  n=0  ({args.workload} grades no snapshot series)")
    attempted, failed = _operations(records)
    fraction = failed / attempted if attempted else math.nan
    print(f"{'failed_frac':<12} {fraction:.4f}  ({failed} of {attempted} operations)")
    checks: Dict[str, int] = {}
    for record in records:
        for check in record["checks"]:
            checks[check] = checks.get(check, 0) + 1
    for check, count in checks.items():
        print(f"check: {check} (x{count})")
    for line in problems:
        print(f"FAILED {line}")
    for record in records:
        if record["setup_only"]:
            continue
        for phase, entry in record["phases"].items():
            if not entry["ok"]:
                lines = (entry["error"] or "?").strip().splitlines()
                print(f"FAILED sample {record['index']} {phase}: {lines[-1]}")


def _write(args, records, values) -> None:
    kind = "trace" if args.trace else "run"
    path = os.path.join(OUT, f"{kind}-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "layer_metrics": values, "samples": records}, handle)


def run_timed(args) -> Dict[str, object]:
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp_dir:
        runner = Runner(args.workload, args.seed, tmp_dir)
        for index in range(sample_count(args.workload, args.seconds)):
            if runner.sample(index, verify_scratch=(index == 0)) is None:
                break
        while sum(r["setup_s"] is not None for r in runner.records) < MIN_SETUP_SAMPLES:
            if runner.sample(setup_only=True) is None:
                break
    records = runner.records
    problems = _digest_problems(records)
    _print_report(args, records, problems)
    _write(args, records, {})
    rows = _end_to_end(args.workload, records)
    if not all(rows[name][1] for name, _unit in END_TO_END):
        raise SystemExit("perfbench: no sample completed; no metrics to report")
    attempted, failed = _operations(records)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": summarize(rows[name][1]).median, "unit": unit}
                    for name, unit in END_TO_END},
    }


def run_traced(args) -> Dict[str, object]:
    # Traced, untraced, traced samples of one seed: counts must repeat
    # and outputs must not depend on tracing.
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp_dir:
        runner = Runner(args.workload, args.seed, tmp_dir)
        for trace, verify in ((True, True), (False, False), (True, False)):
            if runner.sample(0, trace=trace, verify_scratch=verify) is None:
                break
    records = runner.records
    problems = _digest_problems(records)
    traced = [
        (r, [Span.from_list(row) for row in r["trace"]["spans"]])
        for r in records if r["traced"] and "trace" in r
    ]
    per_sample = [layers.layer_metrics(spans, r["trace"]["counts"]) for r, spans in traced]
    values: Dict[str, float] = {}
    if len(per_sample) == 2:
        first, second = per_sample
        for name in first:
            if layers.is_exact(name):
                if first[name] != second[name]:
                    problems.append(f"exact count {name}: {first[name]} != {second[name]}")
                values[name] = first[name]
            else:
                values[name] = summarize([first[name], second[name]]).median
    else:
        problems.append(f"{len(per_sample)} traced samples completed, 2 needed")
    traced_study = _phase_times([r for r, _spans in traced], "study")
    plain_study = _phase_times([r for r in records if not r["traced"]], "study")
    if traced_study and plain_study:
        values["trace.overhead_frac"] = (
            summarize(traced_study).median / summarize(plain_study).median - 1
        )

    seen = set()
    absent = set()
    for record, spans in traced:
        seen.update(layers.layers_seen(spans, record["trace"]["counts"]))
        absent.update(record["trace"]["absent"])
    if per_sample:
        if args.workload == "longitudinal" and values.get("bgp.withdraw_calls"):
            problems.append("bypass: bgp.withdraw_calls is not 0 on longitudinal")
        if args.workload == "study" and values.get("faults.append_calls"):
            problems.append("bypass: faults.append_calls is not 0 on study")
        if args.workload == "study" and "temporal" in seen:
            problems.append("bypass: a temporal span or count appeared on study")

    _print_report(args, records, problems)
    print("per-layer (median of the traced samples; counts repeat exactly):")
    for metric in layers.PER_LAYER:
        layer = metric.name.split(".", 1)[0]
        state = "" if layer == "trace" or layer in seen else "  [layer absent]"
        shown = f"{values[metric.name]:.6g}" if metric.name in values else "-"
        print(f"  {metric.name:<38} {shown:>12} {metric.unit:<6}"
              f" moves {metric.moves} on {metric.on}{state}")
    if traced:
        print("spans of the first traced sample: name, calls, total s, self s")
        totals = totals_by_name(traced[0][1])
        for name, entry in sorted(totals.items(), key=lambda kv: -kv[1].self_s):
            print(f"  {name:<22} {entry.calls:>8} {entry.total_s:>10.4f} {entry.self_s:>10.4f}")
    for entry in sorted(absent):
        print(f"absent: {entry}")
    _write(args, records, values)

    missing = [m.name for m in layers.PER_LAYER if m.name not in values]
    if missing:
        raise SystemExit(f"perfbench: no traced values for {', '.join(missing)}")
    attempted, failed = _operations(records)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in layers.PER_LAYER},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PHASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # Unwind on termination too, so the running sample's process group
    # is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    result = run_traced(args) if args.trace else run_timed(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
