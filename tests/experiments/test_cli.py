"""Tests for the command-line front end."""

import json
import os

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.core.pipeline import build_study_config, study_fingerprint
from repro.faults import RunLedger


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure1" in output
        assert "poisoning-dataset" in output

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--small", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "serial format" in output
        assert "|" in output

    def test_generate_to_file(self, tmp_path, capsys):
        out = tmp_path / "topo.txt"
        assert main(["generate", "--small", "--seed", "1", "--out", str(out)]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_generated_file_parses_back(self, tmp_path):
        from repro.topology.serial import load_relationships

        out = tmp_path / "topo.txt"
        main(["generate", "--small", "--seed", "1", "--out", str(out)])
        graph = load_relationships(out)
        assert graph.num_links() > 100

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--experiment", "nope"])

    def test_bare_resume_parses_as_true(self):
        args = build_parser().parse_args(["study", "--run-dir", "d", "--resume"])
        assert args.resume is True

    def test_resume_with_file_rejected(self, capsys):
        # --run-dir is the one persistence path: --resume names no journal.
        for argv in (
            ["study", "--resume", "c.jsonl"],
            ["study", "--run-dir", "d", "--resume", "c.jsonl"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2
            assert "unrecognized arguments: c.jsonl" in capsys.readouterr().err


class TestStudyFlagConflicts:
    """Persistence flags fail loudly instead of silently ignoring one."""

    def _err(self, capsys, argv):
        assert main(argv) == 2
        return capsys.readouterr().err

    def test_bare_resume_without_run_dir_rejected(self, capsys):
        err = self._err(capsys, ["study", "--small", "--resume"])
        assert "--run-dir" in err

    def test_durability_without_run_dir_rejected(self, capsys):
        # Only run-directory writes have a durability policy; without a
        # run dir the flag would be silently ignored.
        err = self._err(capsys, ["study", "--small", "--durability", "none"])
        assert "--durability requires --run-dir DIR" in err



class TestFaultPlanInput:
    """A fault plan that cannot load exits 2 with one error line, before
    the study runs."""

    @pytest.fixture(autouse=True)
    def no_study(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli, "_run_study", refuse)

    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file"),
            ('{"seed": 1, "rates": {"nope": 0.1}}', "unknown fault site 'nope'"),
            ('{"rates": {"atlas/dns:timeout": 2}}', "must be in [0, 1]"),
            ("not json", "Expecting value"),
        ],
        ids=["missing", "unknown-site", "bad-rate", "not-json"],
    )
    def test_refused_before_the_study(self, tmp_path, capsys, content, reason):
        path = tmp_path / "plan.json"
        if content is not None:
            path.write_text(content)
        assert main(["study", "--small", "--fault-plan", str(path)]) == 2
        err = capsys.readouterr().err
        (line,) = err.splitlines()
        assert line.startswith(f"error: cannot load fault plan {path}: ")
        assert reason in line


class TestRunDirRefusals:
    """A run directory the ledger or its lock refuses exits 2 with one
    error line, before the study runs; a study's own errors still
    surface."""

    @pytest.fixture
    def run_dir(self, tmp_path):
        """A run directory holding a finished small seed-0 study's ledger."""
        path = str(tmp_path / "run")
        config = build_study_config(seed=0, scale="small")
        RunLedger(path).open({"config": study_fingerprint(config)}).finalize()
        return path

    def _refused(self, capsys, argv, reason):
        assert main(argv) == 2
        err = capsys.readouterr().err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and reason in line, line

    def test_a_second_run_needs_resume(self, run_dir, capsys):
        self._refused(
            capsys,
            ["study", "--small", "--run-dir", run_dir],
            "already contains a run ledger",
        )

    def test_resume_refuses_another_configuration(self, run_dir, capsys):
        self._refused(
            capsys,
            ["study", "--small", "--seed", "3", "--run-dir", run_dir, "--resume"],
            "refusing to resume: config fingerprint",
        )

    def test_a_directory_another_live_process_locked(self, run_dir, capsys):
        with open(os.path.join(run_dir, ".lock"), "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"pid": 1}))  # init: alive, not us
        self._refused(
            capsys,
            ["study", "--small", "--run-dir", run_dir, "--resume"],
            "run directory locked by live pid 1",
        )

    def test_a_study_error_is_not_a_refusal(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("not a ledger refusal")

        monkeypatch.setattr(cli, "_run_study", fail)
        with pytest.raises(ValueError, match="not a ledger refusal"):
            main(["study", "--small"])
