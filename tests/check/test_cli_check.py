"""End-to-end tests for the ``repro check`` CLI surface."""

import pytest

from repro import cli
from repro.check import KNOWN_CHECKS, serialize

pytestmark = pytest.mark.check

#: A tiny stand-in snapshot so CLI golden tests don't run a full study.
FAKE_SNAPSHOT = {"schema": 1, "dataset": {"decisions": 3}, "figure1": {}}


@pytest.fixture
def fake_study(monkeypatch):
    # Patch the defining module and the package re-export: ``bless``
    # imports from the package, ``check_against_golden`` calls within
    # the golden module.
    for target in (
        "repro.check.golden.compute_snapshot",
        "repro.check.compute_snapshot",
    ):
        monkeypatch.setattr(target, lambda seed=0: FAKE_SNAPSHOT)


class TestCheckRun:
    def test_clean_run_exits_zero(self, capsys):
        assert cli.main(["check", "run", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "all oracles agree" in out
        assert "seeds      0..2" in out

    def test_only_filter(self, capsys):
        assert cli.main(["check", "run", "--seeds", "2", "--only", "lpm"]) == 0
        out = capsys.readouterr().out
        assert "lpm" in out
        assert "gr-tree" not in out

    def test_only_help_names_every_check(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "1000")  # one help line per option
        with pytest.raises(SystemExit):
            cli.main(["check", "run", "--help"])
        [only_help] = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.lstrip().startswith("--only")
        ]
        missing = [name for name in KNOWN_CHECKS if name not in only_help]
        assert missing == []

    def test_unknown_only_exits_two(self, capsys):
        assert cli.main(["check", "run", "--seeds", "1", "--only", "bogus"]) == 2
        assert "unknown checks" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_fewer_than_one_seed_exits_two(self, seeds, capsys):
        assert cli.main(["check", "run", "--seeds", seeds]) == 2
        captured = capsys.readouterr()
        assert "seeds must be at least 1" in captured.err
        assert "all oracles agree" not in captured.out

    def test_base_seed(self, capsys):
        assert cli.main(["check", "run", "--seeds", "1", "--base-seed", "7"]) == 0
        assert "seeds      7..7" in capsys.readouterr().out

    def test_progress_goes_to_stderr(self, capsys):
        code = cli.main(
            ["check", "run", "--seeds", "2", "--only", "lpm", "--progress"]
        )
        assert code == 0
        assert "2/2 seeds" in capsys.readouterr().err


class TestCheckBlessAndDiff:
    def test_bless_then_diff_clean(self, fake_study, tmp_path, capsys):
        directory = str(tmp_path)
        assert cli.main(["check", "bless", "--golden-dir", directory]) == 0
        assert "blessed golden written" in capsys.readouterr().out
        assert cli.main(["check", "diff", "--golden-dir", directory]) == 0
        assert "golden clean" in capsys.readouterr().out

    def test_diff_without_golden_fails(self, fake_study, tmp_path, capsys):
        assert cli.main(["check", "diff", "--golden-dir", str(tmp_path)]) == 1
        assert "bless" in capsys.readouterr().out

    def test_diff_reports_drift(self, fake_study, tmp_path, capsys):
        directory = str(tmp_path)
        drifted = {"schema": 1, "dataset": {"decisions": 4}, "figure1": {}}
        (tmp_path / "study_quick_seed0.json").write_text(serialize(drifted))
        assert cli.main(["check", "diff", "--golden-dir", directory]) == 1
        out = capsys.readouterr().out
        assert "dataset.decisions: 4 -> 3" in out
        assert "re-bless" in out

    def test_bless_overwrites_stale_golden(self, fake_study, tmp_path, capsys):
        directory = str(tmp_path)
        (tmp_path / "study_quick_seed0.json").write_text("{}\n")
        assert cli.main(["check", "bless", "--golden-dir", directory]) == 0
        capsys.readouterr()
        assert cli.main(["check", "diff", "--golden-dir", directory]) == 0
