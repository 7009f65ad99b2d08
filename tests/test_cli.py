import json
import os
import subprocess
import sys

import pytest

from mfglab.cli import main

FAST_ZERO = [
    "--set", "params.profile=zero",
    "--set", "params.n_values=[16]",
    "--set", "params.reps=10",
    "--set", "params.n_steps=50",
]


def _resolved(capsys):
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("resolved config: "):
            return json.loads(line[len("resolved config: "):]), out
    raise AssertionError(f"no resolved config line in output:\n{out}")


class TestListCatalog:
    def test_lists_games_then_scenarios(self, capsys):
        assert main(["list-catalog"]) == 0
        lines = capsys.readouterr().out.splitlines()
        games = [l.split(": ", 1)[1] for l in lines if l.startswith("game: ")]
        scenarios = [l.split(": ", 1)[1] for l in lines if l.startswith("scenario: ")]
        assert "sign_drift" in games and "monotone_lq" in games
        assert scenarios == ["mean_drift", "monotone_uniqueness", "sign_drift"]
        assert games == sorted(games)
        assert lines.index("scenario: mean_drift") > lines.index(f"game: {games[-1]}")


class TestRun:
    def test_passing_run_exits_zero_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["run", "mean_drift", "--seed", "1", "--out", str(out), "--svg"] + FAST_ZERO)
        config, text = _resolved(capsys)
        assert code == 0
        assert config["scenario"] == "mean_drift"
        assert config["seed"] == 1
        assert "[PASS]" in text and "overall: PASS" in text
        assert f"report written to {out}" in text
        for name in ("rows.csv", "summary.csv", "checks.csv", "summary.txt", "report.json", "curves.svg"):
            assert (out / name).exists(), name

    def test_failing_check_exits_two_but_still_writes(self, tmp_path, capsys):
        # a single repetition forces the basin-split estimate to 0 or 1,
        # outside any reasonable band, without burning runtime
        out = tmp_path / "fail"
        code = main([
            "run", "sign_drift", "--out", str(out),
            "--set", "params.reps=1",
            "--set", "params.n_values=[8]",
            "--set", "params.n_steps=50",
        ])
        assert code == 2
        text = capsys.readouterr().out
        assert "[FAIL]" in text and "overall: FAIL" in text
        assert (out / "report.json").exists()
        assert json.loads((out / "report.json").read_text())["passed"] is False

    def test_unknown_scenario_fails_validation(self, tmp_path, capsys):
        code = main(["run", "nonsense", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error at scenario:" in err

    def test_schema_rejects_bad_fields(self, tmp_path, capsys):
        assert main(["run", "mean_drift", "--threads", "0", "--out", str(tmp_path / "x")]) == 1
        assert "config error at threads:" in capsys.readouterr().err
        assert main(["run", "mean_drift", "--seed", "-1", "--out", str(tmp_path / "x")]) == 1
        assert "config error at seed:" in capsys.readouterr().err

    def test_schema_rejects_unknown_keys(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "mean_drift", "bogus": 1}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "config error at <root>:" in capsys.readouterr().err

    def test_missing_config_file_is_an_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_file_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_object_config_file_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "arr.json"
        cfg.write_text("[1, 2]")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_set_assignment_is_an_error(self, tmp_path, capsys):
        assert main(["run", "mean_drift", "--set", "reps", "--out", str(tmp_path / "x")]) == 1
        assert "--set expects key=value" in capsys.readouterr().err

    def test_unknown_scenario_parameter_names_the_field(self, tmp_path, capsys):
        code = main(["run", "sign_drift", "--set", "params.rep=3", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error at params.rep:" in err
        assert "reps" in err  # the accepted names are listed
        assert not (tmp_path / "x").exists()

    def test_parameter_of_the_wrong_kind_names_the_field(self, tmp_path, capsys):
        assert main(["run", "sign_drift", "--set", "params.reps=abc", "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "config error at params.reps: expected an integer, got str 'abc'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_scalar_for_a_list_parameter_names_the_field(self, tmp_path, capsys):
        assert main(["run", "sign_drift", "--set", "params.n_values=8", "--out", str(tmp_path / "x")]) == 1
        assert "config error at params.n_values: expected a list, got int 8" in capsys.readouterr().err
        assert main(["run", "sign_drift", "--set", "params.n_values=[8, 2.5]", "--set", "params.t0=true",
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "config error at params.n_values[1]: expected an integer, got float 2.5" in err
        assert "config error at params.t0: expected a number, got bool True" in err
        assert not (tmp_path / "x").exists()

    def test_seed_under_params_is_refused(self, tmp_path, capsys):
        assert main(["run", "mean_drift", "--set", "params.seed=3", "--out", str(tmp_path / "x")] + FAST_ZERO) == 1
        assert "config error at params.seed:" in capsys.readouterr().err

    def test_non_integer_thread_variable_names_the_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MFGLAB_THREADS", "abc")
        assert main(["run", "mean_drift", "--out", str(tmp_path / "x")] + FAST_ZERO) == 1
        err = capsys.readouterr().err
        assert "MFGLAB_THREADS" in err and "'abc'" in err

    def test_thread_flag_makes_the_variable_irrelevant(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MFGLAB_THREADS", "abc")
        assert main(["run", "mean_drift", "--threads", "2", "--out", str(tmp_path / "x")] + FAST_ZERO) == 0
        config, _ = _resolved(capsys)
        assert config["threads"] == 2

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main([])


class TestTopLevelFields:
    """The top-level fields get the kind rules of params: JSON integers only."""

    @pytest.mark.parametrize("args,message", [
        (["--set", "seed=3.0"], "config error at seed: expected an integer, got float 3.0"),
        (["--set", "seed=true"], "config error at seed: expected an integer, got bool True"),
        (["--set", "threads=2.0"], "config error at threads: expected an integer, got float 2.0"),
        (["--threads", "257"], "config error at threads: must be between 1 and 256, got 257"),
        (["--set", "params=[16]"], "config error at params: expected an object, got list [16]"),
        (["--threads", "0"], "config error at threads: must be between 1 and 256, got 0"),
        (["--seed", "-1"], "config error at seed: must be at least 0, got -1"),
        (["--set", 'threads="2"'], "config error at threads: expected an integer, got str '2'"),
        (["--set", 'scenario="nope"'],
         "config error at scenario: expected one of mean_drift, monotone_uniqueness, sign_drift, got str 'nope'"),
    ])
    def test_bad_field_names_itself_without_a_traceback(self, tmp_path, capsys, args, message):
        assert main(["run", "mean_drift", "--out", str(tmp_path / "x")] + args) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [message]
        assert "Traceback" not in captured.err and "resolved config" not in captured.out
        assert not (tmp_path / "x").exists()

    def test_missing_scenario_names_the_field(self, tmp_path, capsys):
        assert main(["run", "--seed", "1", "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error at scenario: expected one of mean_drift, monotone_uniqueness, sign_drift")
        assert "Traceback" not in err

    def test_unhashable_scenario_names_the_field(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": ["mean_drift"]}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "config error at scenario:" in err and "got list ['mean_drift']" in err
        assert "Traceback" not in err

    def test_every_bad_field_is_reported_before_anything_runs(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "mean_drift", "seed": -1, "threads": 1.5, "bogus": 0,
                                   "params": {"reps": "many"}}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "config error at <root>: unknown field 'bogus'; a config takes scenario, seed, threads, params",
            "config error at seed: must be at least 0, got -1",
            "config error at threads: expected an integer, got float 1.5",
            "config error at params.reps: expected an integer, got str 'many'",
        ]
        assert captured.out == ""
        assert not (tmp_path / "x").exists()

    @staticmethod
    def _child(code):
        # a child process, so module state cannot leak into other tests
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)

    def test_cli_imports_and_runs_with_jsonschema_blocked(self, tmp_path):
        child = self._child(f"""
import sys
sys.modules["jsonschema"] = None  # any import of it now fails
from mfglab.cli import main
sys.exit(main(["run", "mean_drift", "--out", {str(tmp_path / "o")!r}] + {FAST_ZERO!r}))
""")
        assert child.returncode == 0, child.stderr
        assert "overall: PASS" in child.stdout

    def test_importing_the_cli_loads_no_jsonschema(self):
        child = self._child("import sys, mfglab, mfglab.cli; print('jsonschema' in sys.modules)")
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "False"


class TestScenarioParameters:
    """Scenario parameters whose values the kind rules accept but no run can use."""

    @pytest.mark.parametrize("scenario,assignment,message", [
        ("sign_drift", "params.n_values=[0]", "error: n_values[0] must be at least 1, got 0"),
        ("sign_drift", "params.n_values=[16, -4]", "error: n_values[1] must be at least 1, got -4"),
        ("mean_drift", "params.n_values=[]", "error: n_values must hold at least one population size, got none"),
        ("monotone_uniqueness", "params.picard_inits=[0.5]",
         "error: picard_inits must hold at least two starts for the pairwise check, got [0.5]"),
        ("monotone_uniqueness", "params.monotonicity_trials=0", "error: monotonicity_trials must be at least 1, got 0"),
        ("monotone_uniqueness", "params.monotonicity_trials=-4", "error: monotonicity_trials must be at least 1, got -4"),
        ("monotone_uniqueness", "params.n_player=0", "error: n_player must be at least 1, got 0"),
        ("monotone_uniqueness", "params.picard_particles=0", "error: picard_particles must be at least 1, got 0"),
        ("monotone_uniqueness", "params.picard_particles=-8", "error: picard_particles must be at least 1, got -8"),
        ("sign_drift", "params.reps=0", "error: reps must be at least 1, got 0"),
        ("mean_drift", "params.reps=-3", "error: reps must be at least 1, got -3"),
    ])
    def test_refused_by_name_before_anything_runs(self, tmp_path, capsys, monkeypatch, scenario, assignment, message):
        from mfglab import scenarios

        def must_not_run(*args, **kwargs):
            raise AssertionError("the scenario started running")

        for name in ("chunk_inputs", "euler", "check_monotonicity", "candidate_flow", "picard_mfe"):
            monkeypatch.setattr(scenarios, name, must_not_run)
        assert main(["run", scenario, "--out", str(tmp_path / "x"), "--set", assignment]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [message]
        assert "Traceback" not in captured.err and "report written" not in captured.out
        assert not (tmp_path / "x").exists()


class TestConfigResolution:
    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "scenario": "mean_drift", "seed": 5,
            "params": {"profile": "zero", "n_values": [16], "reps": 10, "n_steps": 50},
        }))
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), "--seed", "9", "--out", str(out), "--set", "params.reps=4"])
        config, _ = _resolved(capsys)
        assert code == 0
        assert config["seed"] == 9
        assert config["params"]["reps"] == 4
        assert config["params"]["profile"] == "zero"

    def test_set_values_parse_as_json_with_string_fallback(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main([
            "run", "mean_drift", "--out", str(out),
            "--set", "params.profile=zero",       # bare word stays a string
            "--set", "params.n_values=[16, 32]",  # JSON list
            "--set", "params.reps=10",            # JSON integer
            "--set", "params.n_steps=50",
        ])
        config, _ = _resolved(capsys)
        assert code == 0
        assert config["params"] == {"profile": "zero", "n_values": [16, 32], "reps": 10, "n_steps": 50}

    def test_threads_default_comes_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MFGLAB_THREADS", "3")
        out = tmp_path / "o"
        assert main(["run", "mean_drift", "--out", str(out)] + FAST_ZERO) == 0
        config, _ = _resolved(capsys)
        assert config["threads"] == 3

    def test_threads_flag_beats_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MFGLAB_THREADS", "3")
        out = tmp_path / "o"
        assert main(["run", "mean_drift", "--threads", "2", "--out", str(out)] + FAST_ZERO) == 0
        config, _ = _resolved(capsys)
        assert config["threads"] == 2


class TestReproducibility:
    FILES = ("rows.csv", "summary.csv", "checks.csv", "summary.txt", "report.json")

    def test_identical_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["run", "mean_drift", "--seed", "7"] + FAST_ZERO
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        for name in self.FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_thread_count_does_not_change_outputs(self, tmp_path, capsys):
        a, b = tmp_path / "t1", tmp_path / "t4"
        args = ["run", "sign_drift", "--seed", "2",
                "--set", "params.n_values=[16, 64]",
                "--set", "params.reps=20",
                "--set", "params.n_steps=100"]
        code_a = main(args + ["--threads", "1", "--out", str(a)])
        code_b = main(args + ["--threads", "4", "--out", str(b)])
        capsys.readouterr()
        assert code_a == code_b
        for name in self.FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_echoed_config_round_trips(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "mean_drift", "--seed", "4", "--out", str(a)] + FAST_ZERO) == 0
        config, _ = _resolved(capsys)
        cfg = tmp_path / "echo.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        capsys.readouterr()
        for name in self.FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
