"""End-to-end tests for the ``repro temporal`` CLI surface.

The expensive study build is patched to reuse the session study
fixture (itself the small scenario), so these exercise the whole
temporal command path — snapshot series, journal, ledger, rendering —
without rebuilding a study per invocation.
"""

import json
import os

import pytest

from repro import cli

pytestmark = pytest.mark.temporal


@pytest.fixture
def patched_study(monkeypatch, study):
    def fake_run_study(seed, small, **kwargs):
        return study

    monkeypatch.setattr(cli, "_run_study", fake_run_study)
    return study


class TestTemporalCommand:
    def test_json_output_parses(self, patched_study, capsys):
        assert cli.main(["temporal", "--small", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "backend" not in payload
        assert payload["resumed_epochs"] == 0
        assert len(payload["epochs"]) == len(patched_study.snapshots)
        for epoch in payload["epochs"]:
            assert set(epoch["figure1"])  # every epoch carries counts

    def test_renders_epoch_table(self, patched_study, capsys):
        assert cli.main(["temporal", "--small"]) == 0
        out = capsys.readouterr().out
        assert "longitudinal study:" in out
        assert f"{len(patched_study.snapshots)} epoch(s)" in out
        assert "epoch  delta  misses" in out

    def test_backend_flag_rejected(self, patched_study, capsys):
        with pytest.raises(SystemExit):
            cli.main(["temporal", "--small", "--backend", "array"])
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_series_override_flags(self, patched_study, capsys):
        code = cli.main(
            ["temporal", "--small", "--snapshots", "3", "--churn", "0.1", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["epochs"]) == 3

    def test_run_dir_writes_ledger_and_journal(
        self, patched_study, tmp_path, capsys
    ):
        run_dir = str(tmp_path / "run")
        assert cli.main(["temporal", "--small", "--run-dir", run_dir]) == 0
        assert os.path.exists(os.path.join(run_dir, "ledger.json"))
        assert os.path.exists(os.path.join(run_dir, "temporal.jsonl"))

    def test_resume_replays_journaled_epochs(
        self, patched_study, tmp_path, capsys
    ):
        run_dir = str(tmp_path / "run")
        assert cli.main(["temporal", "--small", "--run-dir", run_dir]) == 0
        first = capsys.readouterr().out
        assert "replayed" not in first

        code = cli.main(
            ["temporal", "--small", "--run-dir", run_dir, "--resume"]
        )
        assert code == 0
        out = capsys.readouterr().out
        epochs = len(patched_study.snapshots)
        assert f"{epochs} replayed from journal" in out
        assert out.count("[replayed]") == epochs

    def test_resume_without_run_dir_exits_two(self, patched_study, capsys):
        assert cli.main(["temporal", "--small", "--resume"]) == 2
        assert "--resume requires --run-dir" in capsys.readouterr().err


class TestRunDirRefusals:
    """A run directory the ledger or its lock refuses exits 2 with one
    error line instead of a traceback."""

    @pytest.fixture
    def run_dir(self, patched_study, tmp_path, capsys):
        """A run directory holding a finished 2-snapshot series."""
        path = str(tmp_path / "run")
        argv = ["temporal", "--small", "--snapshots", "2", "--run-dir", path]
        assert cli.main(argv) == 0
        capsys.readouterr()
        return path

    def _refused(self, capsys, argv, reason):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and reason in line, line

    def test_a_second_run_needs_resume(self, run_dir, capsys):
        self._refused(
            capsys,
            ["temporal", "--small", "--snapshots", "2", "--run-dir", run_dir],
            "already contains a run ledger",
        )

    def test_resume_refuses_another_series(self, run_dir, capsys):
        self._refused(
            capsys,
            ["temporal", "--small", "--snapshots", "3", "--run-dir", run_dir]
            + ["--resume"],
            "refusing to resume: temporal-series fingerprint",
        )

    def test_a_directory_another_live_process_locked(self, run_dir, capsys):
        with open(os.path.join(run_dir, ".lock"), "w", encoding="utf-8") as handle:
            json.dump({"pid": 1}, handle)  # init: alive, not us
        self._refused(
            capsys,
            ["temporal", "--small", "--snapshots", "2", "--run-dir", run_dir]
            + ["--resume"],
            "run directory locked by live pid 1",
        )


class TestStudyTemporalFlag:
    def test_flag_rejected(self, patched_study, capsys):
        with pytest.raises(SystemExit):
            cli.main(["study", "--small", "--temporal"])
        assert "unrecognized arguments: --temporal" in capsys.readouterr().err

    def test_deleted_obs_flag_rejected(self, patched_study, capsys):
        """A deleted flag that prefixes a remaining one (``--obs-out``)
        is unrecognized, not read as its abbreviation."""
        with pytest.raises(SystemExit):
            cli.main(["study", "--small", "--obs"])
        assert "unrecognized arguments: --obs" in capsys.readouterr().err


@pytest.fixture
def no_study(monkeypatch):
    """Fail the test if a study runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "_run_study", refuse)


class TestSeriesOverrideInput:
    """A bad --snapshots or --churn exits 2 with one error line, before
    any study runs."""

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--snapshots", "0"),
            ("--snapshots", "-3"),
            ("--snapshots", "two"),
            ("--churn", "2.0"),
            ("--churn", "-0.1"),
            ("--churn", "nan"),
            ("--churn", "lots"),
        ],
    )
    def test_rejected_before_the_study(self, no_study, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["temporal", "--small", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert f"argument {flag}:" in line
        assert "Traceback" not in err

    def test_bounds_are_accepted(self):
        for churn in ("0", "1"):
            args = cli.build_parser().parse_args(
                ["temporal", "--snapshots", "1", "--churn", churn]
            )
            assert (args.snapshots, args.churn) == (1, float(churn))
