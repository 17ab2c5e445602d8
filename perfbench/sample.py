"""One cold benchmark sample, run in a fresh interpreter by ``run.py``.

Prints the sample's result record as one JSON line on standard output.
``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this interpreter (the same monotonic clock in both processes),
so set-up time covers interpreter start, imports and input preparation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tmp-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--verify-scratch", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import layers
    import workloads
    from spans import Recorder

    recorder = binding = None
    if args.trace:
        recorder = Recorder(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        binding = layers.install(recorder)
    try:
        result = workloads.run_sample(
            args.workload,
            args.seed,
            args.index,
            args.spawned_at,
            args.tmp_dir,
            recorder=recorder,
            setup_only=args.setup_only,
            verify_scratch=args.verify_scratch,
        )
    finally:
        if binding is not None:
            binding.restore()
    if recorder is not None:
        result["trace"] = {
            "spans": [span.as_list() for span in recorder.spans],
            "counts": recorder.counts,
            "absent": binding.absent + sorted(recorder.missing),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
