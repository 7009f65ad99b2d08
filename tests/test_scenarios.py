import dataclasses
import json
import weakref

import numpy as np
import pytest

from mfglab import games, scenarios, sim
from mfglab.controls import sign_of_mean
from mfglab.grids import TimeGrid
from mfglab.measures import EmpiricalFlow, flow_distance, sorted_slices
from mfglab.rng import derive_seed, initial_cloud, sample_brownian
from mfglab.scenarios import (
    SCENARIOS,
    ScenarioReport,
    run_mean_drift,
    run_monotone_uniqueness,
    run_sign_drift,
)
from mfglab.sim import simulate_nplayer


def _oracle_mean_path(game, feedback, tgrid, n, seed, labels, r):
    """One repetition the way the scenarios ran it before batching."""
    bundle = sample_brownian(derive_seed(seed, labels[0], n, r), n, tgrid, 1)
    x0 = initial_cloud(derive_seed(seed, labels[1], n, r), n, game.initial.sampler())
    return simulate_nplayer(game, feedback, bundle, x0).states[:, :, 0].mean(axis=0)


def _assert_rows_close(rows, expect):
    assert len(rows) == len(expect)
    for got, want in zip(rows, expect):
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, int):
                assert got[key] == value, key
            else:
                assert abs(got[key] - value) <= 1e-12, key


class TestScenarioReport:
    def _stub(self):
        report = ScenarioReport(scenario="stub", config={"scenario": "stub", "seed": 1}, seed=1)
        report.rows = [{"n": 4, "rep": 0, "v": 0.5}, {"n": 4, "rep": 1, "v": 0.25}]
        report.summary = [{"n": 4, "mean_v": 0.375}]
        report.curves = {"series": ([0.0, 1.0], [0.0, 0.375])}
        return report

    def test_check_bounds(self):
        report = self._stub()
        report.add_check("inside", 0.5, 0.0, 1.0)
        assert report.passed
        report.add_check("outside", 2.0, 0.0, 1.0)
        assert not report.passed
        assert [c["passed"] for c in report.checks] == [True, False]

    def test_summary_text_states_each_check(self):
        report = self._stub()
        report.add_check("inside", 0.5, 0.0, 1.0)
        report.add_check("outside", 2.0, 0.0, 1.0)
        text = report.summary_text()
        assert "[PASS] inside" in text
        assert "[FAIL] outside" in text
        assert text.rstrip().endswith("overall: FAIL")
        assert f"config_hash: {report.config_hash}" in text

    def test_write_emits_full_file_set(self, tmp_path):
        report = self._stub()
        report.add_check("inside", 0.5, 0.0, 1.0)
        report.write(tmp_path, svg=True)
        for name in ("rows.csv", "summary.csv", "checks.csv", "summary.txt", "report.json", "curves.svg"):
            assert (tmp_path / name).exists(), name
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["config"] == report.config
        assert payload["config_hash"] == report.config_hash
        assert payload["passed"] is True
        assert (tmp_path / "summary.txt").read_text() == report.summary_text()

    def test_write_without_rows_or_svg(self, tmp_path):
        report = ScenarioReport(scenario="stub", config={}, seed=0)
        report.add_check("trivial", 0.0, 0.0, 0.0)
        report.write(tmp_path)
        assert not (tmp_path / "rows.csv").exists()
        assert not (tmp_path / "curves.svg").exists()
        assert (tmp_path / "checks.csv").exists()

    def test_registry_names(self):
        assert set(SCENARIOS) == {"sign_drift", "mean_drift", "monotone_uniqueness"}
        assert SCENARIOS["sign_drift"] is run_sign_drift


class TestSignDriftScenario:
    def test_reduced_run_passes_asymptotic_checks(self):
        report = run_sign_drift(n_values=(32, 256), reps=200, n_steps=200, seed=0)
        assert report.passed
        assert {c["name"] for c in report.checks} == {
            "basin_split", "mean_abs_terminal", "mean_sq_terminal", "frac_near_ramp",
        }
        assert len(report.rows) == 2 * 200
        assert {s["n"] for s in report.summary} == {32, 256}
        assert "ramp +" in report.curves and "ramp -" in report.curves

    def test_late_start_keeps_mean_at_noise_level(self):
        report = run_sign_drift(t0=1.0, n_values=(32, 256), reps=30, n_steps=200, seed=0)
        assert report.passed
        (check,) = report.checks
        assert check["name"] == "late_start_mean_abs"

    def test_thread_count_does_not_change_results(self):
        kw = dict(n_values=(16, 64), reps=20, n_steps=100, seed=3)
        serial = run_sign_drift(threads=1, **kw)
        threaded = run_sign_drift(threads=4, **kw)
        assert serial.rows == threaded.rows
        assert serial.summary == threaded.summary
        assert serial.checks == threaded.checks
        assert serial.config == threaded.config


class TestMeanDriftScenario:
    def test_linear_profile_error_decays_like_root_n(self):
        report = run_mean_drift(profile="linear", n_values=(16, 64, 256), reps=50, n_steps=200, seed=0)
        assert report.passed
        (check,) = report.checks
        assert check["name"] == "sup_err_slope"
        assert -0.7 <= check["value"] <= -0.3
        assert "ode oracle" in report.curves

    def test_zero_profile_stays_within_noise_bound(self):
        report = run_mean_drift(profile="zero", n_values=(32, 128), reps=60, n_steps=200, seed=0)
        assert report.passed
        names = {c["name"] for c in report.checks}
        assert names == {"noise_bound_n32", "noise_bound_n128"}

    def test_sign_profile_splits_between_branches(self):
        report = run_mean_drift(profile="sign", n_values=(32, 256), reps=200, n_steps=200, seed=0)
        assert report.passed
        (check,) = report.checks
        assert check["name"] == "basin_split"

    def test_sqrt_profile_reports_without_asserting(self):
        # no well-posed limit to check against; the run only records paths
        report = run_mean_drift(profile="sqrt", n_values=(32,), reps=10, n_steps=200, seed=0)
        assert report.checks == []
        assert len(report.rows) == 10
        assert report.passed  # vacuously: nothing to fail

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            run_mean_drift(profile="cubic", n_values=(16,), reps=2, n_steps=50, seed=0)


class TestMonotoneScenario:
    def test_reduced_run_agrees_from_both_ramps(self):
        report = run_monotone_uniqueness(
            seed=0, n_steps=200, n_player=1024, picard_inits=(-1.0, 1.0), monotonicity_trials=60,
        )
        assert report.passed
        assert {c["name"] for c in report.checks} == {
            "monotonicity_violations",
            "picard_pairwise_w1",
            "picard_all_converged",
            "consistency_vs_baseline",
            "nplayer_tracks_fixed_point",
        }
        assert all(row["converged"] == 1 for row in report.rows)
        assert any(key.startswith("residuals init") for key in report.curves)


class TestCountsRefusedUpFront:
    """Scenario counts are refused by name before any simulation or solve."""

    @pytest.fixture
    def nothing_runs(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the scenario started running")

        for name in ("chunk_inputs", "euler", "check_monotonicity", "candidate_flow", "picard_mfe"):
            monkeypatch.setattr(scenarios, name, must_not_run)

    @pytest.mark.parametrize("kwargs,message", [
        ({"n_player": 0}, "n_player must be at least 1, got 0"),
        ({"n_player": 2.5}, "n_player must be an int, got 2.5"),
        ({"picard_particles": 0}, "picard_particles must be at least 1, got 0"),
        ({"picard_particles": True}, "picard_particles must be an int, got True"),
    ])
    def test_monotone_uniqueness_counts(self, nothing_runs, kwargs, message):
        with pytest.raises(ValueError) as err:
            run_monotone_uniqueness(**kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize("runner", [run_sign_drift, run_mean_drift])
    @pytest.mark.parametrize("reps,message", [
        (0, "reps must be at least 1, got 0"),
        (2.5, "reps must be an int, got 2.5"),
        (True, "reps must be an int, got True"),
    ])
    def test_repetition_count(self, nothing_runs, runner, reps, message):
        with pytest.raises(ValueError) as err:
            runner(n_values=(8,), reps=reps, n_steps=10)
        assert str(err.value) == message


class TestBatchedRepetitions:
    """Repetitions stepped in chunks against the one-at-a-time oracle."""

    @pytest.mark.parametrize("t0,n_values,reps,n_steps,seed", [
        (0.0, (16, 64), 7, 100, 3),
        (0.3, (33,), 5, 60, 1),
        (0.0, (1024,), 3, 500, 0),
    ])
    def test_sign_drift_rows_match_per_repetition_runs(self, t0, n_values, reps, n_steps, seed):
        report = run_sign_drift(t0=t0, n_values=n_values, reps=reps, n_steps=n_steps, seed=seed)
        tgrid = TimeGrid(1.0, n_steps)
        game, feedback = games.sign_drift(), sign_of_mean(tgrid, start=t0)
        ramp = np.maximum(tgrid.times - t0, 0.0)
        expect = []
        for n in n_values:
            for r in range(reps):
                mp = _oracle_mean_path(game, feedback, tgrid, n, seed, ("sign", "sign-init"), r)
                dist = min(np.abs(mp - ramp).max(), np.abs(mp + ramp).max())
                expect.append({"n": n, "rep": r, "mean_T": mp[-1], "abs_mean_T": abs(mp[-1]), "sq_mean_T": mp[-1] ** 2,
                               "near_ramp": int(dist <= 0.2), "ramp_dist": dist})
        _assert_rows_close(report.rows, expect)

    @pytest.mark.parametrize("profile", ["linear", "sign", "zero"])
    def test_mean_drift_rows_match_per_repetition_runs(self, profile):
        n_values, reps, n_steps, seed = (16, 50), 6, 80, 2
        report = run_mean_drift(profile=profile, n_values=n_values, reps=reps, n_steps=n_steps, seed=seed)
        tgrid = TimeGrid(1.0, n_steps)
        game = games.mean_drift(profile=profile, x0=1.0 if profile == "linear" else 0.0)
        oracle = report.curves["ode oracle"][1]
        expect = []
        for n in n_values:
            for r in range(reps):
                mp = _oracle_mean_path(game, sign_of_mean(tgrid, start=2.0), tgrid, n, seed, ("mdrift", "mdrift-init"), r)
                err = np.abs(mp - oracle).max()
                if profile == "sign":
                    err = min(err, np.abs(mp + oracle).max())
                expect.append({"n": n, "rep": r, "mean_T": mp[-1], "sup_err": err, "sup_abs_mean": np.abs(mp).max()})
        _assert_rows_close(report.rows, expect)

    def test_chunking_does_not_change_rows(self, monkeypatch):
        kw = dict(n_values=(16, 40), reps=9, n_steps=50, seed=5)
        reports = []
        for reps_per_chunk in (1, 2, 4, 9):
            monkeypatch.setattr(sim, "_CHUNK_NOISE_BYTES", reps_per_chunk * 40 * 50 * 8)
            assert len(sim.rep_chunks(9, 40, 50, 1)) == -(-9 // reps_per_chunk)
            reports.append(run_sign_drift(**kw))
        for other in reports[1:]:
            assert other.rows == reports[0].rows
            assert other.summary == reports[0].summary

    def test_chunks_cover_repetitions_in_order(self):
        assert sim.rep_chunks(5, 10**9, 1000, 1) == [range(r, r + 1) for r in range(5)]
        chunks = sim.rep_chunks(200, 1024, 1000, 1)
        assert [r for c in chunks for r in c] == list(range(200))
        assert max(len(c) for c in chunks) * 1024 * 1000 * 8 <= sim._CHUNK_NOISE_BYTES
        # the two-ramp run keeps its chunks of two repetitions
        assert chunks == [range(r, r + 2) for r in range(0, 200, 2)]
        # the cap counts every coordinate of a d-dimensional state
        assert len(sim.rep_chunks(200, 256, 1000, 3)[0]) == 2
        assert len(sim.rep_chunks(200, 256, 1000, 1)[0]) == 8

    def test_at_least_one_repetition(self):
        with pytest.raises(ValueError, match="reps"):
            run_sign_drift(n_values=(8,), reps=0, n_steps=10)

    def test_non_finite_drift_names_the_scenario_repetition(self, monkeypatch):
        # drift turns NaN once a repetition's mean passes 0.5, which only
        # repetitions on the upper ramp reach; with one repetition per chunk
        # the first of them fails, and the error must give its own number
        tgrid = TimeGrid(1.0, 50)
        base = games.sign_drift()
        game = dataclasses.replace(base, drift=lambda t, x, m, a: a + np.where(m.mean[..., :1] > 0.5, np.nan, 0.0))
        feedback = sign_of_mean(tgrid)
        # up to the first NaN the bad game steps exactly like the base game
        paths = [_oracle_mean_path(base, feedback, tgrid, 8, 1, ("sign", "sign-init"), r) for r in range(6)]
        first_up = next(r for r, mp in enumerate(paths) if mp[:-1].max() > 0.5)
        assert first_up > 0  # so the repetition number is not the chunk-local 0
        monkeypatch.setattr(sim, "_CHUNK_NOISE_BYTES", 8 * 50 * 8)
        with pytest.raises(FloatingPointError, match=rf"repetition {first_up}, particle 0, state"):
            scenarios._nplayer_mean_paths(game, feedback, tgrid, 8, 6, 1, ("sign", "sign-init"))


class TestPairwiseW1:
    def test_pairs_keep_flow_distance_bits_and_sort_each_stack_once(self, monkeypatch):
        tg = TimeGrid(1.0, 20)
        gen = np.random.default_rng(derive_seed(4, "pairs"))
        flows = [EmpiricalFlow(tg, gen.normal(c, 1.0, size=(tg.n_steps + 1, 257, 1))) for c in (-0.4, -0.1, 0.0, 0.2, 0.5)]
        expect = [flow_distance(flows[i], flows[k]) for i in range(5) for k in range(i + 1, 5)]

        live, most_live = set(), [0]

        def tracked(flow):
            # the sorted stacks alive at once, tracked by weak references
            stack = sorted_slices(flow)
            key = id(stack)
            live.add(key)
            weakref.finalize(stack, live.discard, key)
            most_live[0] = max(most_live[0], len(live))
            return stack

        calls = []
        monkeypatch.setattr(scenarios, "sorted_slices", lambda flow: calls.append(flow) or tracked(flow))
        assert scenarios._pairwise_w1(flows) == expect
        # 14 sorts where sorting both sides of every pair takes 20
        assert [flows.index(f) for f in calls] == [0, 1, 2, 3, 4, 1, 2, 3, 4, 2, 3, 4, 3, 4]
        assert most_live[0] == 2 and not live
