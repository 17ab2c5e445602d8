"""The benchmark CLI's telemetry-overhead section and its gate.

Runs ``repro.perf.bench.main`` in-process on the quick scenario (shared
with the session study fixture, so the study build is cached) and
checks the machine-readable contract CI depends on: ``--json`` emits
parseable sections on stdout, the section lands in the bench file, and
``--check-obs-overhead`` turns a missed budget into a nonzero exit.
"""

import json

import pytest

from repro.perf.bench import main as bench_main

pytestmark = pytest.mark.tier1


def _run(tmp_path, capsys, *extra):
    out = tmp_path / "BENCH_pipeline.json"
    code = bench_main(
        [
            "--quick",
            "--section",
            "obs",
            "--repeats",
            "1",
            "--json",
            "--out",
            str(out),
            *extra,
        ]
    )
    stdout = capsys.readouterr().out
    return code, stdout, out


class TestBenchObsCLI:
    def test_json_report_lands_in_bench_file(self, tmp_path, capsys, study):
        code, stdout, out = _run(tmp_path, capsys)
        assert code == 0
        payload = json.loads(stdout)  # stdout is pure JSON under --json
        telemetry = payload["telemetry_overhead"]
        assert telemetry["disabled_seconds"] > 0
        assert telemetry["manifest"]["meta"]["decisions"] == len(study.decisions)
        recorded = json.loads(out.read_text())
        assert set(recorded) == {"telemetry_overhead"}

    def test_overhead_gate_failure_exits_nonzero(self, tmp_path, capsys, study):
        code, _stdout, _out = _run(tmp_path, capsys, "--check-obs-overhead", "-1000")
        assert code != 0

    def test_removed_sections_rejected(self, capsys):
        for section in ("hotpath", "pool", "temporal"):
            with pytest.raises(SystemExit):
                bench_main(["--quick", "--section", section])
        assert "invalid choice" in capsys.readouterr().err
