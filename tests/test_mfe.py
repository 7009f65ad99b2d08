import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from mfglab import mfe
from mfglab.controls import ControlField
from mfglab.games import InitialLaw, monotone_lq, sign_drift, tracking_lq
from mfglab.grids import TimeGrid
from mfglab.hjb import default_action_grid, solve_hjb, stable_spatial_grid
from mfglab.measures import EmpiricalFlow, flow_distance
from mfglab.mfe import (
    candidate_flow,
    check_monotonicity,
    consistency_residual,
    picard_mfe,
    same_law_baseline,
)
from mfglab.rng import derive_seed, initial_cloud, philox, sample_brownian
from mfglab.sim import simulate_frozen_flow


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

    @pytest.mark.parametrize("count,message", [(0, "must be at least 1, got 0"), (2.0, "must be an int, got 2.0"), (True, "must be an int, got True")])
    def test_particle_count_is_refused_by_name(self, count, message):
        tg = TimeGrid(1.0, 10)
        with pytest.raises(ValueError, match=f"^n_particles {message}$"):
            candidate_flow(sign_drift(), tg, tg.times, count, 3)


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


def _as_built(grid, samples):
    """A flow around samples exactly as given, whatever their memory layout."""
    flow = object.__new__(EmpiricalFlow)
    flow.grid, flow.samples, flow._stats = grid, samples, None
    return flow


def _picard_oracle(game, init_flow, *, damping, tol, max_iter, seed, indifference):
    """The damped loop as it was before the mix simulated only the kept
    particles: a full fresh cloud each iteration, mixed by concatenating
    fancy-indexed gathers (which leaves the flow particle-major)."""
    tgrid, n = init_flow.grid, init_flow.n_particles
    sgrid, agrid = stable_spatial_grid(game, tgrid), default_action_grid(game)
    flow, residuals, endpoints = init_flow, [], []
    for k in range(1, max_iter + 1):
        control = solve_hjb(game, flow, sgrid, agrid, tie_tol=indifference).control
        bundle = sample_brownian(derive_seed(seed, "picard", k), n, tgrid, game.dim)
        x0 = initial_cloud(derive_seed(seed, "picard-init", k), n, game.initial.sampler())
        fresh = EmpiricalFlow.from_ensemble(simulate_frozen_flow(game, control, flow, bundle, x0))
        n_new = int(round(damping * n))
        mixer = philox(derive_seed(seed, "mix", k), 0)
        take_new = mixer.choice(n, size=n_new, replace=False)
        take_old = mixer.choice(n, size=n - n_new, replace=False)
        mixed = _as_built(tgrid, np.concatenate([fresh.samples[:, take_new, :], flow.samples[:, take_old, :]], axis=1))
        residuals.append(flow_distance(mixed, flow))
        endpoints.append(float(mixed.mean_path()[-1, 0]))
        flow = mixed
        if residuals[-1] <= tol:
            break
    control = solve_hjb(game, flow, sgrid, agrid, tie_tol=indifference).control
    return flow, control, residuals, endpoints


def _spread(game):
    """game started from a Gaussian cloud, so each particle's initial state is its own."""
    return dataclasses.replace(game, initial=InitialLaw("gaussian", [0.0], [0.5]))


class TestPicardMix:
    TG = TimeGrid(1.0, 40)

    def _compare(self, game, init, **kw):
        kw = {"damping": 0.5, "tol": 0.0, "max_iter": 3, "seed": 57, "indifference": 0.0, **kw}
        flow, control, residuals, endpoints = _picard_oracle(game, init, **kw)
        res = picard_mfe(game, init, **kw)
        assert np.array_equal(res.flow.samples, flow.samples)
        assert np.array_equal(res.control.values, control.values)
        # the oracle's reductions run over particle-major slices, in another
        # summation order; endpoints are held relative to the size of the
        # values summed, since a mean near zero cancels
        np.testing.assert_allclose(res.residuals, residuals, rtol=1e-13, atol=0.0)
        scale = np.abs(flow.samples[-1, :, 0]).mean()
        assert np.all(np.abs(np.subtract(res.mean_endpoints, endpoints)) <= 1e-13 * np.maximum(np.abs(endpoints), scale))
        return res

    @pytest.mark.parametrize("damping", [0.3, 0.5, 1.0])
    def test_flows_and_controls_match_the_full_simulation(self, damping):
        game = _spread(monotone_lq())
        self._compare(game, _ramp_init(game, self.TG, 0.5, n=301), damping=damping)

    @pytest.mark.parametrize("damping", [0.3, 1.0])
    def test_indifference_matches_the_full_simulation(self, damping):
        game = _spread(sign_drift())
        self._compare(game, _ramp_init(game, self.TG, 0.0, n=257), damping=damping, indifference=0.05, seed=58)

    def test_tolerance_stop_matches_the_full_simulation(self):
        game = _spread(monotone_lq())
        res = self._compare(game, _ramp_init(game, self.TG, 0.5, n=400), tol=0.08, max_iter=10)
        assert res.converged and res.iterations == 3

    @pytest.mark.parametrize("damping,n", [(0.3, 301), (0.5, 301), (1.0, 64)])
    def test_simulates_only_the_kept_particles(self, damping, n, monkeypatch):
        drawn = []

        def counting(seed, n_streams, grid, dim=1, **kw):
            drawn.append(n_streams)
            return sample_brownian(seed, n_streams, grid, dim, **kw)

        game = _spread(monotone_lq())
        init = _ramp_init(game, self.TG, 0.5, n=n)
        monkeypatch.setattr(mfe, "sample_brownian", counting)
        res = picard_mfe(game, init, damping=damping, tol=0.0, max_iter=3, seed=5)
        assert drawn == [int(round(damping * n))] * res.iterations

    @pytest.mark.parametrize("damping", [0.3, 0.5, 1.0])
    def test_endpoints_are_the_mean_path_at_the_horizon(self, damping):
        # read off the last slice alone, each endpoint keeps the bits of the
        # last entry of its flow's whole mean path
        game = _spread(monotone_lq())
        init = _ramp_init(game, self.TG, 0.5, n=1001)
        kw = {"damping": damping, "tol": 0.0, "seed": 9}
        res = picard_mfe(game, init, max_iter=3, **kw)
        flows = [picard_mfe(game, init, max_iter=k, **kw).flow for k in (1, 2)] + [res.flow]
        assert res.mean_endpoints == [float(flow.mean_path()[-1, 0]) for flow in flows]

    def test_no_fresh_particle_kept(self, monkeypatch):
        # round(0.1 * 4) == 0: the mix would only reshuffle the old paths and
        # report residual 0.0, so the damping is refused before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("the damping must be checked before the first solve")

        monkeypatch.setattr(mfe, "solve_hjb", no_solve)
        game = _spread(monotone_lq())
        init = _ramp_init(game, self.TG, 0.5, n=4)
        with pytest.raises(ValueError, match=r"damping 0\.1 keeps no fresh particle of the flow's 4"):
            picard_mfe(game, init, damping=0.1)
        with pytest.raises(ValueError, match=r"damping 0\.12 keeps no fresh particle of the flow's 4"):
            picard_mfe(game, init, damping=0.12)

    def test_full_damping_keeps_nothing_old(self):
        game = _spread(monotone_lq())
        init = _ramp_init(game, self.TG, 0.5, n=64)
        res = self._compare(game, init, damping=1.0, max_iter=1)
        x0 = initial_cloud(derive_seed(57, "picard-init", 1), 64, game.initial.sampler())
        order = philox(derive_seed(57, "mix", 1), 0).choice(64, size=64, replace=False)
        assert np.array_equal(res.flow.samples[0], x0[order])

    @pytest.mark.parametrize("damping", [0.3, 1.0])
    def test_returned_flows_are_time_major(self, damping):
        game = _spread(monotone_lq())
        init = _ramp_init(game, self.TG, 0.5, n=100)
        particle_major = EmpiricalFlow(self.TG, np.swapaxes(np.ascontiguousarray(np.swapaxes(init.samples, 0, 1)), 0, 1))
        for start in (init, particle_major):
            assert start.samples.flags.c_contiguous
            for max_iter in (0, 1, 2):
                res = picard_mfe(game, start, damping=damping, tol=0.0, max_iter=max_iter, seed=3)
                assert res.flow.samples.flags.c_contiguous


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

    def test_baseline_matches_the_two_flow_loop(self):
        def oracle(game, flow, control, seed):
            # same_law_baseline as it stood: both sides' flows held at once,
            # compared by flow_distance, over three pairs
            tgrid, n = flow.grid, flow.n_particles
            vals = []
            for r in range(3):
                ens = []
                for side in (0, 1):
                    bundle = sample_brownian(derive_seed(seed, "baseline", r, side), n, tgrid, game.dim)
                    x0 = initial_cloud(derive_seed(seed, "baseline-init", r, side), n, game.initial.sampler())
                    ens.append(EmpiricalFlow.from_ensemble(simulate_frozen_flow(game, control, flow, bundle, x0)))
                vals.append(flow_distance(ens[0], ens[1]))
            return float(np.mean(vals))

        game = monotone_lq()
        tg = TimeGrid(1.0, 40)
        flow = _ramp_init(game, tg, 0.5, n=1024)
        control = solve_hjb(game, flow, stable_spatial_grid(game, tg), default_action_grid(game)).control
        for seed in (3, 4, 5):
            assert same_law_baseline(game, flow, control, seed=seed) == oracle(game, flow, control, seed)

    def test_residual_matches_the_flow_distance(self):
        def oracle(game, flow, control, seed):
            # consistency_residual as it stood: the fresh flow and its noise
            # held while flow_distance sorts both flows
            tgrid, n = flow.grid, flow.n_particles
            bundle = sample_brownian(derive_seed(seed, "consistency"), n, tgrid, game.dim)
            x0 = initial_cloud(derive_seed(seed, "consistency-init"), n, game.initial.sampler())
            return flow_distance(flow, EmpiricalFlow.from_ensemble(simulate_frozen_flow(game, control, flow, bundle, x0)))

        game = monotone_lq()
        tg = TimeGrid(1.0, 40)
        flow = _ramp_init(game, tg, 0.5, n=1024)
        control = solve_hjb(game, flow, stable_spatial_grid(game, tg), default_action_grid(game)).control
        for seed in (3, 4):
            assert consistency_residual(game, flow, control, seed=seed) == oracle(game, flow, control, seed)


def _peak_in_stacks(run, flow):
    """tracemalloc peak of run() in units of one (M+1, n) stack of flow."""
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / flow.samples.nbytes


class TestCertificatePeaks:
    """Each fresh cloud draws its noise into the array that takes its paths,
    and is sorted in place there; a flow held by the caller is sorted one
    slice at a time. Picard mixes in place once the flow is its own.

    At M = 50 sample_brownian's 1 MiB noise block is 0.65 of a stack; at
    M = 400 it is under a tenth, and the peaks read the stacks alone."""

    def _inputs(self, n_steps=50):
        tg = TimeGrid(1.0, n_steps)
        game = monotone_lq()
        flow = _ramp_init(game, tg, 0.5, n=4000)
        flow.stats_path()  # cached by the flow: not part of either peak
        return game, flow, ControlField.constant(tg, 0.25)

    def test_consistency_residual_holds_under_three_stacks(self):
        # the fresh cloud with the noise in it, then its sort in place, and
        # two rows of the flow at a time
        game, flow, control = self._inputs()
        assert _peak_in_stacks(lambda: consistency_residual(game, flow, control, seed=5), flow) < 2.2

    def test_same_law_baseline_holds_one_sorted_side_and_one_simulation(self):
        # the first side's sorted stack, then the second side's cloud with
        # its noise in it
        game, flow, control = self._inputs()
        assert _peak_in_stacks(lambda: same_law_baseline(game, flow, control, seed=5), flow) < 3.1

    def test_picard_frees_the_old_flow_before_sorting_the_mix(self):
        # the old flow, its sorted stack and the half-size fresh cloud with
        # its noise in it; the first mix needs a buffer of its own beside
        # the caller's init_flow, which is not counted here
        game, flow, _ = self._inputs()
        assert _peak_in_stacks(lambda: picard_mfe(game, flow, tol=0.0, max_iter=2, seed=4), flow) < 3.6

    def test_consistency_residual_holds_one_stack(self):
        game, flow, control = self._inputs(n_steps=400)
        assert _peak_in_stacks(lambda: consistency_residual(game, flow, control, seed=5), flow) < 1.3

    def test_same_law_baseline_holds_two_stacks(self):
        game, flow, control = self._inputs(n_steps=400)
        assert _peak_in_stacks(lambda: same_law_baseline(game, flow, control, seed=5), flow) < 2.3

    def test_picard_holds_two_and_a_half_stacks(self):
        game, flow, _ = self._inputs(n_steps=400)
        assert _peak_in_stacks(lambda: picard_mfe(game, flow, tol=0.0, max_iter=2, seed=4), flow) < 3.0


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

    @pytest.mark.parametrize("kw,message", [
        ({"trials": 0}, "trials must be at least 1, got 0"),
        ({"trials": -1}, "trials must be at least 1, got -1"),
        ({"trials": True}, "trials must be an int, got True"),
        ({"n_samples": 1}, "n_samples must be at least 2, got 1"),
        ({"n_samples": 0}, "n_samples must be at least 1, got 0"),
        ({"n_samples": 2.5}, "n_samples must be an int, got 2.5"),
    ])
    def test_vacuous_counts_are_refused_by_name(self, kw, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_monotonicity(monotone_lq(), seed=1, **kw)

    def test_requires_separable_running_reward(self):
        with pytest.raises(ValueError):
            check_monotonicity(tracking_lq(), trials=10, seed=7)


class TestPicardSortsOnce:
    TG = TimeGrid(1.0, 40)

    def test_residuals_keep_the_flow_distance_bits(self):
        # the flow after k iterations does not depend on max_iter, so runs
        # stopped after 0..3 iterations give every consecutive pair
        game = _spread(monotone_lq())
        init = _ramp_init(game, self.TG, 0.5, n=301)
        kw = {"damping": 0.5, "tol": 0.0, "seed": 9}
        flows = [picard_mfe(game, init, max_iter=k, **kw).flow for k in range(4)]
        res = picard_mfe(game, init, max_iter=3, **kw)
        assert res.residuals == [flow_distance(flows[k], flows[k - 1]) for k in (1, 2, 3)]
        assert res.mean_endpoints == [float(flows[k].mean_path()[-1, 0]) for k in (1, 2, 3)]
        assert np.array_equal(res.flow.samples, flows[3].samples)

    def test_each_flow_is_sorted_once(self, monkeypatch):
        # init_flow is sorted whole by np.sort; every mixed flow is sorted
        # slice by slice by one swap_sorted call, which leaves every slice of
        # it sorted in the stack
        whole, swapped = [], []
        real_sort, real_swap = np.sort, mfe.swap_sorted

        def counting_sort(a, *args, **kwargs):
            whole.append(np.shape(a))
            return real_sort(a, *args, **kwargs)

        def counting_swap(stack, flow):
            distance = real_swap(stack, flow)
            assert np.array_equal(stack, real_sort(flow.samples[:, :, 0], axis=1))
            swapped.append(flow.samples.copy())
            return distance

        game = _spread(monotone_lq())
        init = _ramp_init(game, self.TG, 0.5, n=101)
        monkeypatch.setattr(np, "sort", counting_sort)
        monkeypatch.setattr(mfe, "swap_sorted", counting_swap)
        res = picard_mfe(game, init, damping=0.5, tol=0.0, max_iter=3, seed=9)
        assert res.iterations == 3
        assert [s for s in whole if len(s) == 2] == [(self.TG.n_steps + 1, 101)]
        assert len(swapped) == 3 and np.array_equal(swapped[-1], res.flow.samples)
        assert not any(np.array_equal(a, b) for a, b in zip(swapped, swapped[1:]))

    def test_certificates_keep_the_flow_distance_bits(self):
        # on picard's own flow and control, against clouds simulated with
        # their noise apart from their paths
        def fresh(game, res, seed, label, *key):
            tgrid, n = res.flow.grid, res.flow.n_particles
            bundle = sample_brownian(derive_seed(seed, label, *key), n, tgrid, game.dim)
            x0 = initial_cloud(derive_seed(seed, f"{label}-init", *key), n, game.initial.sampler())
            return EmpiricalFlow.from_ensemble(simulate_frozen_flow(game, res.control, res.flow, bundle, x0))

        game = _spread(monotone_lq())
        res = picard_mfe(game, _ramp_init(game, self.TG, 0.5, n=301), damping=0.5, tol=0.0, max_iter=3, seed=9)
        for seed in (1, 11):
            consistency = flow_distance(res.flow, fresh(game, res, seed, "consistency"))
            baseline = float(np.mean([flow_distance(fresh(game, res, seed, "baseline", r, 0), fresh(game, res, seed, "baseline", r, 1)) for r in range(3)]))
            assert consistency_residual(game, res.flow, res.control, seed=seed) == consistency
            assert same_law_baseline(game, res.flow, res.control, seed=seed) == baseline

    def test_no_iteration_sorts_nothing(self, monkeypatch):
        def no_sort(*args, **kwargs):
            raise AssertionError("nothing to compare, so nothing to sort")

        game = _spread(monotone_lq())
        init = _ramp_init(game, self.TG, 0.5, n=51)
        monkeypatch.setattr(np, "sort", no_sort)
        res = picard_mfe(game, init, max_iter=0)
        assert res.residuals == [] and res.flow is init


class TestPicardRefusesEarly:
    """Bad input to picard_mfe is refused by name before any solve or draw."""

    @staticmethod
    def _nothing_runs(monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the input must be checked before any solve or draw")

        for name in ("solve_hjb", "sample_brownian", "simulate_frozen_flow"):
            monkeypatch.setattr(mfe, name, unreachable)

    @pytest.mark.parametrize("max_iter", [0, 3])
    def test_two_dimensional_flow(self, max_iter, monkeypatch):
        init = EmpiricalFlow(TimeGrid(1.0, 10), np.zeros((11, 16, 2)))
        self._nothing_runs(monkeypatch)
        with pytest.raises(ValueError, match="picard_mfe needs a one-dimensional flow, got dimension 2"):
            picard_mfe(monotone_lq(), init, max_iter=max_iter)

    @pytest.mark.parametrize("bad", [-1, 2.5, True, "3", None])
    def test_bad_max_iter(self, bad, monkeypatch):
        init = _ramp_init(monotone_lq(), TimeGrid(1.0, 10), 0.5, n=16)
        self._nothing_runs(monkeypatch)
        with pytest.raises(ValueError, match=r"max_iter must be an int >= 0, got " + re.escape(repr(bad))):
            picard_mfe(monotone_lq(), init, max_iter=bad)

    @pytest.mark.parametrize("bad", [-0.01, float("nan"), -np.inf])
    def test_bad_tol(self, bad, monkeypatch):
        init = _ramp_init(monotone_lq(), TimeGrid(1.0, 10), 0.5, n=16)
        self._nothing_runs(monkeypatch)
        with pytest.raises(ValueError, match=r"tol must be >= 0, got " + re.escape(repr(bad))):
            picard_mfe(monotone_lq(), init, tol=bad)

    def test_edge_values_stay_valid(self):
        game = monotone_lq()
        init = _ramp_init(game, TimeGrid(1.0, 10), 0.5, n=16)
        assert picard_mfe(game, init, max_iter=0).iterations == 0
        assert picard_mfe(game, init, max_iter=np.int64(1), tol=0.0).iterations == 1
        assert picard_mfe(game, init, max_iter=1, tol=np.inf).converged
