"""Tests for the command-line front end."""

import pytest

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


class TestServeQueryFlagConflicts:
    """The serve/query commands share one error shape: every pair lives
    in the one exclusion table, so the wording stays `X and Y are
    mutually exclusive: reason` everywhere."""

    def _err(self, capsys, argv):
        assert main(argv) == 2
        return capsys.readouterr().err

    def test_tenant_budget_plus_unmetered_rejected(self, capsys):
        err = self._err(
            capsys, ["serve", "--tenant-budget", "100", "--unmetered"]
        )
        assert "--tenant-budget and --unmetered are mutually exclusive" in err

    def test_stream_plus_out_rejected(self, capsys):
        err = self._err(
            capsys, ["query", "study", "--stream", "--out", "r.json"]
        )
        assert "--stream and --out are mutually exclusive" in err

    def test_every_table_entry_formats_consistently(self):
        from repro.cli import _FLAG_EXCLUSIONS, _conflict_message

        for command, pairs in _FLAG_EXCLUSIONS.items():
            for flag_a, flag_b, reason in pairs:
                message = _conflict_message(flag_a, flag_b, reason)
                assert message.startswith(f"{flag_a} and {flag_b} are ")
                assert "mutually exclusive: " in message
