"""Steadiness check: the benchmark over several seeds, as a gate sees it.

Runs ``run.py`` once per seed and workload, then prints, for every
end-to-end metric in ``BENCHMARK.json``, the median and quartiles of
the per-run values and their spread ``(q3 - q1) / median`` against the
metric's bound.  With ``--passes 2`` the seeds run twice and the second
pass's median is compared with the first's under the same bound::

    python3 perfbench/spread.py --seeds 0 1 2 3 4 5 6 7 8 9 --passes 2
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import regressed, summarize  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, check=False)
    lines = completed.stdout.decode("utf-8", "replace").strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {completed.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--passes", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    runs: Dict[tuple, List[Dict[str, object]]] = {}
    for number in range(args.passes):
        for workload in workloads:
            for seed in args.seeds:
                result = run_once(workload, seed, spec["run_seconds"])
                runs.setdefault((number, workload), []).append(result)
                values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
                print(f"pass {number + 1} {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      f"wall={result['wall_s']:.0f}s {values}", flush=True)

    ok = True
    for workload in workloads:
        print(f"\n{workload}: metric, median, q1, q3, spread, bound, bound/3")
        medians: Dict[str, List[float]] = {}
        for number in range(args.passes):
            results = runs[(number, workload)]
            ok &= all(r["correct"] and r["failed"] == 0 for r in results)
            for metric in metrics:
                name, bound = metric["name"], metric["bound"]
                s = summarize([r["metrics"][name]["value"] for r in results])
                medians.setdefault(name, []).append(s.median)
                verdict = "ok" if s.spread <= bound else "TOO WIDE"
                if name == "setup_s":
                    verdict += " (not gated)"
                elif s.spread > bound:
                    ok = False
                print(f"  pass {number + 1} {name:<12} {s.median:.4f} {s.q1:.4f} {s.q3:.4f} "
                      f"{s.spread:.4f} {bound} {bound / 3:.4f} {verdict}")
        for metric in metrics:
            values = medians[metric["name"]]
            for later in values[1:]:
                worse = regressed(values[0], later, metric["bound"], metric["better"])
                ok &= not worse
                print(f"  {metric['name']}: median {values[0]:.4f} -> {later:.4f} "
                      f"{'REGRESSED' if worse else 'within bound'}")
        walls = [r["wall_s"] for n in range(args.passes) for r in runs[(n, workload)]]
        print(f"  run wall time: median {summarize(walls).median:.0f} s, max {max(walls):.0f} s")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
