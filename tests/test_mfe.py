import dataclasses

import numpy as np
import pytest

from mfglab.controls import ControlField
from mfglab.games import monotone_lq, sign_drift, tracking_lq
from mfglab.grids import TimeGrid
from mfglab.mfe import (
    candidate_flow,
    check_monotonicity,
    consistency_residual,
    picard_mfe,
    same_law_baseline,
)
from mfglab.rng import derive_seed


def _ramp_init(game, tg, c, n=8192, seed=0):
    return candidate_flow(game, tg, c * tg.times, n, derive_seed(seed, "init", int(2 * c)))


class TestCandidateFlow:
    def test_mean_and_dispersion(self):
        game = sign_drift()
        tg = TimeGrid(1.0, 50)
        flow = candidate_flow(game, tg, tg.times, 20000, 3)
        mp = flow.mean_path()[:, 0]
        assert np.abs(mp - tg.times).max() < 0.05
        var_T = flow.samples[-1, :, 0].var()
        assert abs(var_T - 1.0) < 0.05


class TestPicard:
    def test_sign_drift_ramp_up_fixed_point(self):
        game = sign_drift()
        tg = TimeGrid(1.0, 200)
        res = picard_mfe(game, _ramp_init(game, tg, 1.0), seed=11)
        assert res.converged
        assert 0.9 <= res.flow.mean_path()[-1, 0] <= 1.1
        # the fixed-point feedback pushes up against its own flow
        a = res.control.actions(100, 0.5, np.zeros((1, 1)), None)
        assert np.all(a == 1.0)

    def test_sign_drift_ramp_down_fixed_point(self):
        game = sign_drift()
        tg = TimeGrid(1.0, 200)
        res = picard_mfe(game, _ramp_init(game, tg, -1.0), seed=12)
        assert res.converged
        assert -1.1 <= res.flow.mean_path()[-1, 0] <= -0.9

    def test_sign_drift_middle_fixed_point_with_indifference(self):
        # from the flat start the payoff surface is level; the indifference
        # band plus mean-drift tie-break keeps the population at rest
        game = sign_drift()
        tg = TimeGrid(1.0, 200)
        res = picard_mfe(game, _ramp_init(game, tg, 0.0), seed=13, indifference=0.05)
        assert res.converged
        assert abs(res.flow.mean_path()[-1, 0]) <= 0.1

    def test_residual_history_and_endpoints_recorded(self):
        game = monotone_lq()
        tg = TimeGrid(1.0, 100)
        res = picard_mfe(game, _ramp_init(game, tg, 0.5, n=4096), seed=14, tol=0.03)
        assert len(res.residuals) == res.iterations
        assert len(res.mean_endpoints) == res.iterations
        assert res.residuals[-1] <= 0.03

    def test_non_convergence_reported_not_raised(self):
        game = monotone_lq()
        tg = TimeGrid(1.0, 100)
        res = picard_mfe(game, _ramp_init(game, tg, 1.0, n=1024), seed=15, tol=1e-6, max_iter=3)
        assert not res.converged
        assert res.iterations == 3


class TestConsistency:
    def test_equilibrium_flow_near_baseline(self):
        game = sign_drift()
        tg = TimeGrid(1.0, 200)
        flow = _ramp_init(game, tg, 1.0)
        ctrl = ControlField.constant(tg, 1.0)
        res = consistency_residual(game, flow, ctrl, seed=21)
        base = same_law_baseline(game, flow, ctrl, seed=22)
        assert res <= 2.0 * base

    def test_wrong_control_leaves_large_residual(self):
        # flow drifts up, control pushes down: terminal means differ by 2T
        game = sign_drift()
        tg = TimeGrid(1.0, 200)
        flow = _ramp_init(game, tg, 1.0)
        res = consistency_residual(game, flow, ControlField.constant(tg, -1.0), seed=23)
        assert 1.8 <= res <= 2.2

    def test_baseline_positive_and_shrinks_with_n(self):
        game = sign_drift()
        tg = TimeGrid(1.0, 50)
        flow_small = _ramp_init(game, tg, 0.0, n=512)
        flow_big = _ramp_init(game, tg, 0.0, n=8192)
        ctrl = ControlField.constant(tg, 0.0)
        b_small = same_law_baseline(game, flow_small, ctrl, seed=24)
        b_big = same_law_baseline(game, flow_big, ctrl, seed=25)
        assert b_big > 0.0
        assert b_big < b_small


class TestMonotonicity:
    def test_crowd_averse_game_clean(self):
        rep = check_monotonicity(monotone_lq(), trials=100, seed=5)
        assert rep.trials == 100
        assert rep.violations == 0
        assert rep.worst_margin <= 0.0 + 1e-12

    def test_crowd_seeking_game_flagged(self):
        # terminal x * mean rewards joining the crowd; the pairing integral
        # is positive for most measure pairs
        rep = check_monotonicity(sign_drift(), trials=100, seed=6)
        assert rep.violations > 25
        assert rep.worst_margin > 0.0
        assert rep.rows  # offending trials are reported

    @pytest.mark.parametrize("seed", range(6))
    def test_crowd_averse_margin_is_negative(self, seed):
        # monotone_lq's f1 is identically zero; its rows carry no information
        # and must not pin the worst margin at exactly 0
        rep = check_monotonicity(monotone_lq(), trials=6, n_samples=200, seed=seed)
        assert rep.violations == 0
        assert rep.worst_margin < 0.0

    def test_measure_free_game_gives_zero_margin(self):
        # neither part depends on the measure: every row is skipped
        base = monotone_lq()
        game = dataclasses.replace(base, terminal=lambda x, m: -x[..., 0] ** 2)
        rep = check_monotonicity(game, trials=5, n_samples=50, seed=1)
        assert (rep.violations, rep.worst_margin, rep.rows) == (0, 0.0, [])

    def test_requires_separable_running_reward(self):
        with pytest.raises(ValueError):
            check_monotonicity(tracking_lq(), trials=10, seed=7)
