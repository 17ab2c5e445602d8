"""CLI surface of the telemetry subsystem: ``repro obs report``, the
``--obs-out`` study flag, and the declared console entry point."""

import pytest

from repro.cli import build_parser, main
from repro.obs import (
    Observability,
    RunManifest,
    Tracer,
    build_manifest,
    render_summary,
    write_jsonl,
)

pytestmark = pytest.mark.obs


def _manifest_file(tmp_path, jsonl=False) -> str:
    obs = Observability()
    obs.metrics.counter("repro_decisions_total", "Decisions.").inc(5)
    obs.events.publish("fault", "atlas/dns:timeout", key="1/n")
    tracer = Tracer()
    with tracer.span("stage"):
        pass
    manifest = build_manifest(
        obs, tracer, kind="study", config={"seed": 1}, topology_seed=1
    )
    if jsonl:
        return write_jsonl(manifest, str(tmp_path / "run.jsonl"))
    return manifest.save(str(tmp_path / "run.json"))


class TestObsReport:
    def test_report_renders_summary(self, tmp_path, capsys):
        path = _manifest_file(tmp_path)
        assert main(["obs", "report", path]) == 0
        output = capsys.readouterr().out
        assert "== run manifest (study) ==" in output
        assert "repro_decisions_total" in output
        assert "faults fired:" in output

    def test_report_reads_jsonl_export(self, tmp_path, capsys):
        path = _manifest_file(tmp_path, jsonl=True)
        assert main(["obs", "report", path]) == 0
        assert "repro_decisions_total" in capsys.readouterr().out

    def test_report_writes_exports(self, tmp_path, capsys):
        path = _manifest_file(tmp_path)
        jsonl = tmp_path / "run.jsonl"
        assert main(["obs", "report", path, "--jsonl", str(jsonl)]) == 0
        restored = RunManifest.load(str(jsonl))
        assert restored.to_dict() == RunManifest.load(path).to_dict()

    def test_report_shows_collector_pauses(self, tmp_path, capsys):
        """One line: passes and pause seconds by generation, and their
        share of the span total."""
        obs = Observability()
        obs.collector.collections[:] = [12, 3, 1]
        obs.collector.seconds[:] = [0.01, 0.02, 0.17]
        manifest = build_manifest(obs)
        manifest.spans = [{"name": "stage", "duration_s": 4.0}]
        path = manifest.save(str(tmp_path / "run.json"))
        assert main(["obs", "report", path]) == 0
        assert (
            "gc pauses: gen0 12x 0.010s, gen1 3x 0.020s, gen2 1x 0.170s; "
            "0.200s, 5.0% of the span total"
        ) in capsys.readouterr().out.splitlines()

    def test_report_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize(
        "content",
        ["", "[1, 2]\n", '{"kind": "header"}\n{"kind": "span"}\n'],
        ids=["empty", "array", "bodiless-span"],
    )
    def test_report_refuses_a_file_that_is_not_a_manifest(
        self, tmp_path, capsys, content
    ):
        path = tmp_path / "run.jsonl"
        path.write_text(content)
        assert main(["obs", "report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: cannot load manifest {path}: ")

    @pytest.mark.parametrize(
        "content",
        [
            '{"event_counts": [1]}',
            '{"spans": 5}',
            '{"spans": [5]}',
            '{"meta": [1]}',
            '{"kind": "header"}\n{"kind": "metrics", "metrics": [1, 2]}\n',
        ],
        ids=["event-counts", "spans", "span", "meta", "jsonl-metrics"],
    )
    def test_report_refuses_fields_of_the_wrong_type(
        self, tmp_path, capsys, content
    ):
        path = tmp_path / "run.json"
        path.write_text(content)
        assert main(["obs", "report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: cannot load manifest {path}: ")

    def test_report_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])


class TestReportTop:
    """``--top N``: the span names with the largest self time, after the
    span tree."""

    @pytest.fixture
    def path(self, tmp_path):
        manifest = RunManifest(
            spans=[
                {
                    "name": "stage",
                    "duration_s": 4.0,
                    "children": [
                        {"name": "inner", "duration_s": 1.5},
                        {
                            "name": "inner",
                            "duration_s": 0.5,
                            "children": [{"name": "leaf", "duration_s": 0.25}],
                        },
                    ],
                },
                {"name": "collect", "duration_s": 1.0},
            ]
        )
        return manifest.save(str(tmp_path / "run.json"))

    def _section(self, output):
        lines = output.splitlines()
        start = next(i for i, line in enumerate(lines) if "by self time" in line)
        end = lines.index("", start) if "" in lines[start:] else len(lines)
        return lines[start:end]

    def test_names_ranked_by_self_time(self, path, capsys):
        """Self time is duration minus the children's, summed per name:
        stage 4.0 - 2.0, inner 1.5 + (0.5 - 0.25); the span total is 5 s."""
        assert main(["obs", "report", path, "--top", "2"]) == 0
        assert self._section(capsys.readouterr().out) == [
            "top 2 spans by self time:",
            f"  {'stage':<34}       1x     2.000s   40.0%",
            f"  {'inner':<34}       2x     1.750s   35.0%",
        ]

    def test_fewer_names_than_asked(self, path, capsys):
        assert main(["obs", "report", path, "--top", "10"]) == 0
        section = self._section(capsys.readouterr().out)
        assert section[0] == "top 4 spans by self time:"
        assert [line.split()[0] for line in section[1:]] == [
            "stage",
            "inner",
            "collect",
            "leaf",
        ]

    def test_without_top_the_report_is_unchanged(self, path, capsys):
        assert main(["obs", "report", path]) == 0
        output = capsys.readouterr().out
        assert "self time" not in output
        assert output == render_summary(RunManifest.load(path)) + "\n"

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_not_a_positive_count_exits_two(self, path, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "report", path, "--top", value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = [line for line in captured.err.splitlines() if "error:" in line]
        assert "argument --top:" in line


class TestStudyObsFlags:
    def test_study_obs_out_writes_manifest(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert (
            main(
                [
                    "study",
                    "--small",
                    "--experiment",
                    "figure1",
                    "--obs-out",
                    str(out),
                ]
            )
            == 0
        )
        assert "wrote run manifest" in capsys.readouterr().out
        manifest = RunManifest.load(str(out))
        assert manifest.kind == "study"
        assert manifest.stage_timings()
        counters = manifest.metrics["counters"]
        assert counters["repro_gc_collections_total"]["series"]['generation="2"'] >= 1
        assert "repro_gc_pause_seconds" in counters
        # The written manifest feeds straight back into the report command.
        assert main(["obs", "report", str(out)]) == 0
        assert "gc pauses: gen0 " in capsys.readouterr().out


class TestConsoleEntryPoint:
    """The ``repro`` command is declared and resolves to the CLI main."""

    def _declared_entry_point(self):
        # Prefer installed metadata; fall back to pyproject.toml so the
        # test also passes in source checkouts that never ran pip.
        try:
            from importlib.metadata import entry_points

            try:
                scripts = entry_points(group="console_scripts")
            except TypeError:  # Python 3.9 API
                scripts = entry_points().get("console_scripts", [])
            for script in scripts:
                if script.name == "repro":
                    return script.value
        except Exception:
            pass
        import pathlib
        import re

        pyproject = (
            pathlib.Path(__file__).resolve().parents[2] / "pyproject.toml"
        )
        match = re.search(
            r'^repro\s*=\s*"([^"]+)"',
            pyproject.read_text(encoding="utf-8"),
            re.MULTILINE,
        )
        return match.group(1) if match else None

    def test_entry_point_resolves_and_runs(self, tmp_path, capsys):
        import importlib

        value = self._declared_entry_point()
        assert value == "repro.cli:main"
        module_name, _, attr = value.partition(":")
        entry_main = getattr(importlib.import_module(module_name), attr)
        # The resolved callable drives `repro obs report` end to end.
        path = _manifest_file(tmp_path)
        assert entry_main(["obs", "report", path]) == 0
        assert "== run manifest" in capsys.readouterr().out
