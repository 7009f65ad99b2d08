import dataclasses
import re

import numpy as np
import pytest

from mfglab import nash, sim
from mfglab.controls import ControlField, sign_of_mean
from mfglab.games import MeasureStats, mean_drift, monotone_lq, sign_drift
from mfglab.grids import ActionGrid, TimeGrid
from mfglab.hjb import default_action_grid, solve_hjb, stable_spatial_grid
from mfglab.measures import EmpiricalFlow
from mfglab.mfe import candidate_flow
from mfglab.nash import (
    averaged_deviation_weight,
    exploitability_estimate,
    girsanov_weights,
)
from mfglab.relaxed import constant_relaxed
from mfglab.rng import BrownianBundle, derive_seed, initial_cloud, sample_brownian
from mfglab.sim import ParticleEnsemble, _feedback_groups, control_running, simulate_frozen_flow, simulate_nplayer


def _coupled(game, tg, fb, n, seed):
    bundle = sample_brownian(derive_seed(seed, "w", n), n, tg, game.dim)
    x0 = initial_cloud(derive_seed(seed, "w0", n), n, game.initial.sampler())
    ens = simulate_nplayer(game, fb, bundle, x0)
    return ens, EmpiricalFlow.from_ensemble(ens)


class TestGirsanovWeights:
    def test_identity_deviation_gives_unit_weights(self):
        game = sign_drift()
        tg = TimeGrid(1.0, 40)
        fb = sign_of_mean(tg)
        ens, flow = _coupled(game, tg, fb, 128, seed=0)
        w = girsanov_weights(game, ens, flow, fb, fb)
        assert np.array_equal(w.zeta, np.ones_like(w.zeta))

    def test_paths_start_at_one_and_stay_positive(self):
        game = sign_drift()
        tg = TimeGrid(1.0, 40)
        fb = sign_of_mean(tg)
        ens, flow = _coupled(game, tg, fb, 128, seed=1)
        w = girsanov_weights(game, ens, flow, fb, ControlField.constant(tg, -1.0))
        assert w.zeta.shape == (128, tg.n_steps + 1)
        assert np.array_equal(w.zeta[:, 0], np.ones(128))
        assert np.all(w.zeta > 0)

    def test_missing_brownian_bundle_rejected(self):
        game = sign_drift()
        tg = TimeGrid(1.0, 40)
        fb = sign_of_mean(tg)
        ens, flow = _coupled(game, tg, fb, 64, seed=2)
        bare = dataclasses.replace(ens, bundle=None)
        with pytest.raises(ValueError):
            girsanov_weights(game, bare, flow, fb, ControlField.constant(tg, 0.0))
        with pytest.raises(ValueError):
            averaged_deviation_weight(game, bare, flow, fb, ControlField.constant(tg, 0.0))

    def test_average_weight_is_unbiased_and_variance_decays(self):
        # i.i.d. particles against a frozen flow keep the drift difference
        # deterministic, so the average-weight variance scales like 1/n
        game = sign_drift()
        tg = TimeGrid(1.0, 50)
        old = sign_of_mean(tg)
        new = ControlField.constant(tg, 0.0)
        sampler = game.initial.sampler()
        ramp = candidate_flow(game, tg, tg.times, 2048, derive_seed(99, "ramp"))

        n_values = (64, 256, 1024)
        variances = []
        for n in n_values:
            avg = np.empty(100)
            for r in range(100):
                bundle = sample_brownian(derive_seed(0, "vz", n, r), n, tg, 1)
                x0 = initial_cloud(derive_seed(0, "vzi", n, r), n, sampler)
                ens = simulate_frozen_flow(game, old, ramp, bundle, x0)
                w = girsanov_weights(game, ens, ramp, old, new)
                avg[r] = w.terminal.mean()
            se = avg.std(ddof=1) / np.sqrt(avg.size)
            assert abs(avg.mean() - 1.0) <= 3 * se
            variances.append(avg.var(ddof=1))

        slope = np.polyfit(np.log(n_values), np.log(variances), 1)[0]
        assert -1.3 <= slope <= -0.7

    def test_flow_on_another_grid_is_refused(self):
        # the weights would read the flow's statistics by step index
        game = sign_drift()
        tg = TimeGrid(1.0, 20)
        fb = sign_of_mean(tg)
        ens, _ = _coupled(game, tg, fb, 16, seed=3)
        fine = candidate_flow(game, TimeGrid(1.0, 40), np.zeros(41), 64, 0)
        message = r"^flow time grid TimeGrid\(horizon=1\.0, n_steps=40\) differs from the ensemble's grid TimeGrid\(horizon=1\.0, n_steps=20\)$"
        for weigh in (girsanov_weights, averaged_deviation_weight):
            with pytest.raises(ValueError, match=message):
                weigh(game, ens, fine, fb, ControlField.constant(tg, 0.0))

    def test_exchangeability_under_player_permutation(self):
        game = sign_drift()
        tg = TimeGrid(1.0, 30)
        n = 32
        old = [ControlField.constant(tg, 1.0) if k % 2 == 0 else ControlField.constant(tg, 0.25) for k in range(n)]
        new = ControlField.constant(tg, -0.5)
        bundle = sample_brownian(derive_seed(4, "perm"), n, tg, 1)
        x0 = initial_cloud(derive_seed(4, "perm0"), n, game.initial.sampler())
        ens = simulate_nplayer(game, old, bundle, x0)
        flow = EmpiricalFlow.from_ensemble(ens)
        w = girsanov_weights(game, ens, flow, old, new)

        perm = np.random.default_rng(7).permutation(n)
        ens_p = ParticleEnsemble(
            grid=ens.grid,
            states=ens.states[perm],
            bundle=BrownianBundle(seed=bundle.seed, grid=tg, n=n, dim=1, increments=bundle.increments[perm]),
        )
        w_p = girsanov_weights(game, ens_p, flow, [old[k] for k in perm], new)
        assert np.array_equal(w_p.terminal, w.terminal[perm])


def _oracle_averaged_weight(game, ensemble, flow, old, new):
    """averaged_deviation_weight as it was written before it shared _drift_difference."""
    stats_path = flow.stats_path()
    n, M = ensemble.n, ensemble.grid.n_steps
    times, dt = ensemble.grid.times, ensemble.grid.dt
    w_bar = ensemble.bundle.averaged()
    root_n = np.sqrt(n)
    old0 = old if isinstance(old, ControlField) else old[0]
    log_z = 0.0
    for j in range(M):
        x0 = ensemble.states[:1, j, :]
        stats = stats_path[j]
        xi0 = sim.control_drift(game, new, j, times[j], x0, stats)[0] - sim.control_drift(game, old0, j, times[j], x0, stats)[0]
        log_z += float(xi0 @ w_bar[j]) / root_n - 0.5 * float(xi0 @ xi0) * dt / n
    return float(np.exp(log_z))


class TestAveragedDeviationWeight:
    def test_entropy_shrinks_like_one_over_population(self):
        # relative-entropy proxy of the single-deviation tilt on the averaged
        # noise stays below 2T/n: drift differences are at most 2 in magnitude
        game = sign_drift()
        tg = TimeGrid(1.0, 50)
        old = sign_of_mean(tg)
        new = ControlField.constant(tg, -1.0)
        sampler = game.initial.sampler()
        n = 64
        z = np.empty(300)
        for r in range(300):
            bundle = sample_brownian(derive_seed(0, "ent", n, r), n, tg, 1)
            x0 = initial_cloud(derive_seed(0, "enti", n, r), n, sampler)
            ens = simulate_nplayer(game, old, bundle, x0)
            flow = EmpiricalFlow.from_ensemble(ens)
            z[r] = averaged_deviation_weight(game, ens, flow, old, new)
        assert np.all(z > 0)
        ent = z * np.log(z)
        bound = 2.0 * tg.horizon / n
        assert ent.mean() <= bound + 3 * ent.std(ddof=1) / np.sqrt(ent.size)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_per_step_loop(self, seed):
        # coupled paths under a shared field and under a family, and a relaxed
        # deviation: the weight keeps the bits of player 0's own loop
        game = sign_drift()
        tg = TimeGrid(1.0, 40)
        fb = sign_of_mean(tg)
        family = [ControlField.constant(tg, 0.5)] + [fb] * 15
        relaxed = constant_relaxed(tg, ActionGrid(np.array([-1.0]), np.array([1.0]), 3), np.tile([0.2, 0.3, 0.5], (tg.n_steps, 1)))
        for old in (fb, family):
            ens, flow = _coupled(game, tg, old, 16, seed)
            for new in (ControlField.constant(tg, -1.0), relaxed, fb):
                assert averaged_deviation_weight(game, ens, flow, old, new) == _oracle_averaged_weight(game, ens, flow, old, new)

    def test_frozen_flow_matches_the_per_step_loop(self):
        game = monotone_lq()
        tg = TimeGrid(1.0, 30)
        flow = candidate_flow(game, tg, 0.5 * tg.times, 500, derive_seed(3, "flow"))
        old, new = ControlField.constant(tg, 0.25), sign_of_mean(tg)
        bundle = sample_brownian(derive_seed(3, "w"), 32, tg, 1)
        ens = simulate_frozen_flow(game, old, flow, bundle, initial_cloud(derive_seed(3, "w0"), 32, game.initial.sampler()))
        assert averaged_deviation_weight(game, ens, flow, old, new) == _oracle_averaged_weight(game, ens, flow, old, new)


class TestExploitability:
    def test_zero_for_consistent_candidate(self):
        # driftless candidate of the coercive game: the solved best response
        # against the flat flow is again the zero control, and shared noise
        # makes both runs identical path by path
        game = monotone_lq()
        tg = TimeGrid(1.0, 100)
        flow = candidate_flow(game, tg, np.zeros_like(tg.times), 4096, derive_seed(18, "mf0"))
        zero = ControlField.constant(tg, 0.0)
        res = exploitability_estimate(game, flow, zero, n=64, reps=10, seed=6)
        assert res.gap == 0.0
        assert res.se_gap == 0.0
        assert res.j_dev == res.j_eq

    def test_zero_for_drift_seeking_candidate(self):
        game = sign_drift()
        tg = TimeGrid(1.0, 100)
        flow = candidate_flow(game, tg, tg.times, 4096, derive_seed(7, "flow"))
        plus = ControlField.constant(tg, 1.0)
        res = exploitability_estimate(game, flow, plus, n=64, reps=10, seed=3)
        assert res.gap == 0.0
        assert res.se_gap == 0.0

    def test_positive_for_exploitable_candidate(self):
        # crowd burns quadratic cost drifting upward; the deviator recoups the
        # cost and flips drift against the crowd mean, gaining about 2
        game = monotone_lq()
        tg = TimeGrid(1.0, 100)
        flow = candidate_flow(game, tg, tg.times, 4096, derive_seed(17, "mf"))
        plus = ControlField.constant(tg, 1.0)
        res = exploitability_estimate(game, flow, plus, n=64, reps=10, seed=5)
        assert res.gap > 10 * res.se_gap
        assert 1.5 <= res.gap <= 2.5
        assert res.j_dev > res.j_eq

    def test_zero_when_no_deviation_exists(self):
        game = mean_drift(profile="zero")
        tg = TimeGrid(1.0, 50)
        flow = candidate_flow(game, tg, np.zeros_like(tg.times), 1024, 5)
        fixed = ControlField.constant(tg, 0.0)
        res = exploitability_estimate(game, flow, fixed, n=32, reps=5, seed=1)
        assert res.gap == 0.0
        assert res.se_gap == 0.0

    def test_rows_record_each_repetition(self):
        game = mean_drift(profile="zero")
        tg = TimeGrid(1.0, 50)
        flow = candidate_flow(game, tg, np.zeros_like(tg.times), 256, 5)
        fixed = ControlField.constant(tg, 0.0)
        res = exploitability_estimate(game, flow, fixed, n=16, reps=4, seed=2)
        assert len(res.rows) == 4
        assert [row["rep"] for row in res.rows] == [0, 1, 2, 3]
        assert all(set(row) == {"n", "rep", "j_eq", "j_dev"} for row in res.rows)
        assert all(row["n"] == 16 for row in res.rows)


def _oracle_payoffs(game, ensemble, feedbacks):
    """path_payoffs as written before its reward helper: coupled-game statistics."""
    n, M = ensemble.n, ensemble.grid.n_steps
    dt, times = ensemble.grid.dt, ensemble.grid.times
    total = np.zeros(n)
    for j in range(M):
        x = ensemble.states[:, j, :]
        stats = MeasureStats.from_cloud(x)
        for field, idx in _feedback_groups(feedbacks, n):
            total[idx] += control_running(game, field, j, times[j], x[idx], stats) * dt
    x_T = ensemble.states[:, M, :]
    return total + np.asarray(game.terminal(x_T, MeasureStats.from_cloud(x_T)), dtype=float)


def _oracle_exploitability(game, flow, mfe_control, br_control, n, reps, seed):
    """exploitability_estimate as it ran before batching: one repetition at a time."""
    tgrid = flow.grid
    if br_control is None:
        br_control = solve_hjb(game, flow, stable_spatial_grid(game, tgrid), default_action_grid(game)).control
    sampler = game.initial.sampler()
    gaps, eqs, devs = np.empty(reps), np.empty(reps), np.empty(reps)
    rows = []
    for r in range(reps):
        bundle = sample_brownian(derive_seed(seed, "xp", n, r), n, tgrid, game.dim)
        x0 = initial_cloud(derive_seed(seed, "xp-init", n, r), n, sampler)

        eq_ens = simulate_nplayer(game, mfe_control, bundle, x0)
        j_eq = float(_oracle_payoffs(game, eq_ens, mfe_control)[0])

        family = [br_control] + [mfe_control] * (n - 1)
        dev_ens = simulate_nplayer(game, family, bundle, x0)
        j_dev = float(_oracle_payoffs(game, dev_ens, family)[0])

        eqs[r], devs[r], gaps[r] = j_eq, j_dev, j_dev - j_eq
        rows.append({"n": n, "rep": r, "j_eq": j_eq, "j_dev": j_dev})
    se_gap = float(gaps.std(ddof=1) / np.sqrt(reps)) if reps > 1 else float("inf")
    se_eq = float(eqs.std(ddof=1) / np.sqrt(reps)) if reps > 1 else float("inf")
    return rows, float(gaps.mean()), se_gap, se_eq


def _relaxed_rows(tg, seed):
    ag = ActionGrid(np.array([-1.0]), np.array([1.0]), 3)
    rows = np.random.default_rng(seed).dirichlet(np.ones(3), size=tg.n_steps)
    return constant_relaxed(tg, ag, rows)


def _profiles():
    """(label, game, flow, mfe_control, br_control or None) on a short grid."""
    tg = TimeGrid(1.0, 30)
    plus = ControlField.constant(tg, 1.0)
    return [
        ("sign_drift", sign_drift(), candidate_flow(sign_drift(), tg, tg.times, 512, 7), plus, None),
        ("monotone_lq", monotone_lq(), candidate_flow(monotone_lq(), tg, tg.times, 512, 17), plus, None),
        ("relaxed", monotone_lq(), candidate_flow(monotone_lq(), tg, 0.3 * tg.times, 512, 9), _relaxed_rows(tg, 3), None),
        ("relaxed_deviation", sign_drift(), candidate_flow(sign_drift(), tg, -tg.times, 512, 5),
         _relaxed_rows(tg, 4), _relaxed_rows(tg, 6)),
    ]


class TestBatchedExploitability:
    @pytest.mark.parametrize("profile", _profiles(), ids=lambda p: p[0])
    @pytest.mark.parametrize("n", [1, 16, 33])
    def test_matches_per_repetition_loop(self, profile, n, monkeypatch):
        # two repetitions per chunk, so five repetitions leave a chunk of one
        _, game, flow, ctrl, br = profile
        M = flow.grid.n_steps
        monkeypatch.setattr(sim, "_CHUNK_NOISE_BYTES", 2 * n * M * game.dim * 8)
        assert [len(c) for c in sim.rep_chunks(5, n, M, game.dim)] == [2, 2, 1]
        res = exploitability_estimate(game, flow, ctrl, n=n, reps=5, seed=11, br_control=br)
        rows, gap, se_gap, se_eq = _oracle_exploitability(game, flow, ctrl, br, n, 5, 11)
        assert res.rows == rows
        assert (res.gap, res.se_gap, res.se_eq) == (gap, se_gap, se_eq)

    @pytest.mark.parametrize("reps_per_chunk", [1, 3, 7])
    def test_chunking_does_not_change_results(self, reps_per_chunk, monkeypatch):
        _, game, flow, ctrl, _ = _profiles()[1]
        monkeypatch.setattr(sim, "_CHUNK_NOISE_BYTES", reps_per_chunk * 20 * flow.grid.n_steps * 8)
        res = exploitability_estimate(game, flow, ctrl, n=20, reps=7, seed=2)
        rows, gap, se_gap, se_eq = _oracle_exploitability(game, flow, ctrl, None, 20, 7, 2)
        assert res.rows == rows
        assert (res.gap, res.se_gap, res.se_eq) == (gap, se_gap, se_eq)

    def test_two_euler_passes_per_chunk(self, monkeypatch):
        # one pass for the equilibrium profile and one for the deviation
        # family per chunk: never one pass per repetition
        _, game, flow, ctrl, _ = _profiles()[1]
        M = flow.grid.n_steps
        monkeypatch.setattr(sim, "_CHUNK_NOISE_BYTES", 3 * 24 * M * 8)
        calls = []

        def counting_euler(*args, **kwargs):
            calls.append(args[2].shape)
            return sim.euler(*args, **kwargs)

        monkeypatch.setattr(nash, "euler", counting_euler)
        exploitability_estimate(game, flow, ctrl, n=24, reps=10, seed=1)
        chunks = sim.rep_chunks(10, 24, M, 1)
        assert len(chunks) == 4
        assert len(calls) == 2 * len(chunks)
        assert calls == [(len(c), 24, 1) for c in chunks for _ in (0, 1)]

    def _crossing_threshold(self, game, flow, ctrl, n, reps, seed, path_stat):
        """A level that only one repetition's (path_stat of its) mean path passes, and that repetition."""
        values = []
        for r in range(reps):
            bundle = sample_brownian(derive_seed(seed, "xp", n, r), n, flow.grid, 1)
            x0 = initial_cloud(derive_seed(seed, "xp-init", n, r), n, game.initial.sampler())
            values.append(path_stat(simulate_nplayer(game, ctrl, bundle, x0).states[:, :, 0].mean(axis=0)))
        order = np.argsort(values)
        return 0.5 * (values[order[-1]] + values[order[-2]]), int(order[-1])

    def test_non_finite_drift_names_the_repetition(self, monkeypatch):
        base = monotone_lq()
        tg = TimeGrid(1.0, 30)
        flow = candidate_flow(base, tg, np.zeros(tg.n_steps + 1), 512, 3)
        zero = ControlField.constant(tg, 0.0)
        # the drift turns NaN once a repetition's mean passes a level that,
        # before the last step, only one repetition reaches
        level, bad = self._crossing_threshold(base, flow, zero, 8, 6, 4, lambda mp: mp[:-1].max())
        assert bad > 0  # so the repetition number is not the chunk-local 0
        game = dataclasses.replace(base, drift=lambda t, x, m, a: base.drift(t, x, m, a) + np.where(m.mean[..., :1] > level, np.nan, 0.0))
        monkeypatch.setattr(sim, "_CHUNK_NOISE_BYTES", 8 * tg.n_steps * 8)
        with pytest.raises(FloatingPointError, match=rf"drift .* repetition {bad}, particle 0, state"):
            exploitability_estimate(game, flow, zero, n=8, reps=6, seed=4, br_control=zero)

    def test_non_finite_initial_state_names_the_repetition(self, monkeypatch):
        game = monotone_lq()
        tg = TimeGrid(1.0, 30)
        flow = candidate_flow(game, tg, np.zeros(tg.n_steps + 1), 512, 3)
        zero = ControlField.constant(tg, 0.0)
        bad_seed = derive_seed(2, "xp-init", 8, 4)

        def nan_cloud(seed, n, sampler):
            cloud = initial_cloud(seed, n, sampler)
            if seed == bad_seed:
                cloud[6] = np.nan
            return cloud

        monkeypatch.setattr(sim, "initial_cloud", nan_cloud)
        # three repetitions per chunk: repetition 4 is the second chunk's second
        monkeypatch.setattr(sim, "_CHUNK_NOISE_BYTES", 3 * 8 * tg.n_steps * 8)
        with pytest.raises(FloatingPointError, match=r"initial state .* t=0, repetition 4, particle 6, state \[nan\]"):
            exploitability_estimate(game, flow, zero, n=8, reps=6, seed=2, br_control=zero)

    def test_non_finite_terminal_reward_names_the_repetition(self, monkeypatch):
        base = monotone_lq()
        tg = TimeGrid(1.0, 30)
        flow = candidate_flow(base, tg, np.zeros(tg.n_steps + 1), 512, 3)
        zero = ControlField.constant(tg, 0.0)
        level, bad = self._crossing_threshold(base, flow, zero, 8, 6, 9, lambda mp: mp[-1])
        game = dataclasses.replace(base, terminal=lambda x, m: base.terminal(x, m) + np.where(m.mean[..., 0] > level, np.nan, 0.0))
        # three repetitions per chunk: the bad one sits inside the second
        # chunk, so neither its chunk-local number nor the chunk start is right
        monkeypatch.setattr(sim, "_CHUNK_NOISE_BYTES", 3 * 8 * tg.n_steps * 8)
        assert bad > 3
        with pytest.raises(FloatingPointError, match=rf"terminal reward .* repetition {bad}, particle 0, state"):
            exploitability_estimate(game, flow, zero, n=8, reps=6, seed=9, br_control=zero)


def _index_groups(feedbacks, n):
    """_feedback_groups as it stood: every family group gathers its players by index array."""
    if isinstance(feedbacks, ControlField):
        return [(feedbacks, slice(None))]
    seen: dict = {}
    for k, f in enumerate(feedbacks):
        seen.setdefault(id(f), (f, []))[1].append(k)
    return [(f, np.asarray(idx, dtype=np.intp)) for f, idx in seen.values()]


class TestSliceGroups:
    """Contiguous feedback groups are read as slices; the rows must be those
    of gathering every group by index array."""

    @pytest.mark.parametrize("profile", _profiles(), ids=lambda p: p[0])
    def test_deviation_family_rows(self, profile, monkeypatch):
        _, game, flow, ctrl, br = profile
        fast = exploitability_estimate(game, flow, ctrl, n=12, reps=3, seed=6, br_control=br)
        monkeypatch.setattr(nash, "_feedback_groups", _index_groups)
        slow = exploitability_estimate(game, flow, ctrl, n=12, reps=3, seed=6, br_control=br)
        assert fast.rows == slow.rows
        assert (fast.gap, fast.se_gap, fast.se_eq) == (slow.gap, slow.se_gap, slow.se_eq)

    @pytest.mark.parametrize("profile", _profiles(), ids=lambda p: p[0])
    def test_non_contiguous_family_rows(self, profile, monkeypatch):
        # a slice group, an index-array group and one of each within a family
        _, game, flow, ctrl, br = profile
        tg, n = flow.grid, 12
        other = br if br is not None else ControlField.constant(tg, -0.5)
        family = [other, ctrl, ctrl, other, other] + [sign_of_mean(tg)] * (n - 5)
        noise, x0 = sim.chunk_inputs(game, range(3), n, tg, 8, ("xp", "xp-init"))
        fast = nash._player0_payoffs(game, family, noise, x0, tg, 0)
        monkeypatch.setattr(nash, "_feedback_groups", _index_groups)
        slow = nash._player0_payoffs(game, family, noise, x0, tg, 0)
        assert np.array_equal(fast, slow)


class TestExploitabilityArguments:
    @pytest.fixture
    def setup(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("arguments must be checked before the best-response solve")

        monkeypatch.setattr(nash, "solve_hjb", no_solve)
        game = monotone_lq()
        tg = TimeGrid(1.0, 20)
        return game, candidate_flow(game, tg, np.zeros(tg.n_steps + 1), 64, 1), ControlField.constant(tg, 0.0)

    @pytest.mark.parametrize("reps", [0, -3])
    def test_reps_at_least_one(self, setup, reps):
        game, flow, ctrl = setup
        with pytest.raises(ValueError, match=rf"reps must be at least 1, got {reps}"):
            exploitability_estimate(game, flow, ctrl, n=8, reps=reps)

    @pytest.mark.parametrize("n", [0, -1])
    def test_population_at_least_one(self, setup, n):
        game, flow, ctrl = setup
        with pytest.raises(ValueError, match=rf"n must be at least 1, got {n}"):
            exploitability_estimate(game, flow, ctrl, n=n, reps=3)

    @pytest.mark.parametrize("value", [True, 2.5, 3.0, "3", None])
    @pytest.mark.parametrize("name", ["reps", "n"])
    def test_counts_must_be_ints(self, setup, name, value):
        game, flow, ctrl = setup
        kw = {"n": 8, "reps": 3, name: value}
        with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be an int, got {value!r}") + "$"):
            exploitability_estimate(game, flow, ctrl, **kw)

    def test_numpy_counts_accepted(self, setup):
        game, flow, ctrl = setup
        plain = exploitability_estimate(game, flow, ctrl, n=8, reps=3, br_control=ctrl)
        numpy = exploitability_estimate(game, flow, ctrl, n=np.int32(8), reps=np.int64(3), br_control=ctrl)
        assert type(numpy.n) is int and type(numpy.reps) is int
        assert numpy.rows == plain.rows

    def test_equilibrium_control_on_another_grid(self, setup):
        game, flow, _ = setup
        with pytest.raises(ValueError, match="mfe_control time grid .* differs from mfe_flow's grid"):
            exploitability_estimate(game, flow, ControlField.constant(TimeGrid(1.0, 40), 0.0), n=8, reps=3)

    def test_best_response_on_another_grid(self, setup):
        game, flow, ctrl = setup
        other = ControlField.constant(TimeGrid(2.0, 20), 0.0)
        with pytest.raises(ValueError, match="br_control time grid .* differs from mfe_flow's grid"):
            exploitability_estimate(game, flow, ctrl, n=8, reps=3, br_control=other)
