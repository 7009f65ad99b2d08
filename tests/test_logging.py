import csv
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mfglab
from mfglab.cli import main

# a Picard run small enough for a unit test; whether its checks pass does not matter here
SMALL_PICARD = [
    "run", "monotone_uniqueness", "--seed", "3",
    "--set", "params.n_steps=20",
    "--set", "params.n_player=32",
    "--set", "params.picard_particles=64",
    "--set", "params.picard_inits=[0.0, 0.5]",
    "--set", "params.monotonicity_trials=2",
]


def _picard_iterations(out: Path) -> int:
    with open(out / "rows.csv", newline="") as fh:
        return sum(int(row["iterations"]) for row in csv.DictReader(fh))


def _info_records(caplog, name=None):
    return [r for r in caplog.records if r.levelno == logging.INFO and r.name.startswith(name or "mfglab")]


class TestVerbosity:
    @pytest.mark.parametrize("raw", ["0", None])
    def test_level_zero_and_unset_log_no_info(self, raw, tmp_path, monkeypatch, caplog, capsys):
        if raw is None:
            monkeypatch.delenv("MFGLAB_VERBOSE", raising=False)
        else:
            monkeypatch.setenv("MFGLAB_VERBOSE", raw)
        assert main(SMALL_PICARD + ["--out", str(tmp_path)]) in (0, 2)
        assert _info_records(caplog) == []

    def test_level_one_logs_each_picard_iteration(self, tmp_path, monkeypatch, caplog, capsys):
        monkeypatch.setenv("MFGLAB_VERBOSE", "1")
        assert main(SMALL_PICARD + ["--out", str(tmp_path)]) in (0, 2)
        records = _info_records(caplog, "mfglab.mfe")
        assert len(records) == _picard_iterations(tmp_path) > 0
        msg = records[0].getMessage()
        assert msg.startswith("picard iteration 1: residual ") and "mean endpoint" in msg

    def test_level_is_restored_after_the_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MFGLAB_VERBOSE", "2")
        before = logging.getLogger("mfglab").level
        main(SMALL_PICARD + ["--out", str(tmp_path)])
        assert logging.getLogger("mfglab").level == before

    @pytest.mark.parametrize("raw", ["abc", "3", "", " 1"])
    def test_unknown_level_names_the_variable(self, raw, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MFGLAB_VERBOSE", raw)
        assert main(SMALL_PICARD + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "MFGLAB_VERBOSE" in err and repr(raw) in err
        assert not (tmp_path / "report.json").exists()

    def test_logs_go_to_stderr_not_to_stdout_or_reports(self, tmp_path):
        src = str(Path(mfglab.__file__).resolve().parents[1])
        env = dict(os.environ, MFGLAB_VERBOSE="1", PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "mfglab.cli"] + SMALL_PICARD + ["--out", str(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode in (0, 2), done.stderr
        iterations = _picard_iterations(tmp_path)
        assert done.stderr.count("INFO mfglab.mfe: picard iteration ") == iterations
        assert "picard iteration" not in done.stdout
        for path in tmp_path.iterdir():
            assert "picard iteration" not in path.read_text(), path.name
