"""Tests for the command-line front end."""

import pytest

from repro import cli
from repro.cli import build_parser, main


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
