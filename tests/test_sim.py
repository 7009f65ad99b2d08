import tracemalloc
import warnings

import numpy as np
import pytest

from mfglab.controls import ControlField, sign_of_mean, sign_of_state
from mfglab.games import (
    GameSpec,
    InitialLaw,
    MeasureStats,
    action_square,
    driftless,
    make_game,
    mean_drift,
    sign_drift,
    tracking_lq,
)
from mfglab.grids import ActionGrid, SpatialGrid, TimeGrid
from mfglab.measures import DeterministicFlow, EmpiricalFlow
from mfglab.nash import exploitability_estimate
from mfglab import sim
from mfglab.relaxed import constant_relaxed
from mfglab.rng import derive_seed, initial_cloud, sample_brownian
from mfglab.sim import (
    _feedback_groups,
    chunk_inputs,
    control_drift,
    control_running,
    euler,
    integrate_paths,
    nplayer_drift,
    path_payoffs,
    simulate_frozen_flow,
    simulate_nplayer,
)


def _setup(game, n, n_steps, seed=0):
    tg = TimeGrid(game.horizon, n_steps)
    bundle = sample_brownian(derive_seed(seed, "w"), n, tg, game.dim)
    x0 = initial_cloud(derive_seed(seed, "x0"), n, game.initial.sampler())
    return tg, bundle, x0


def _recorder(drift):
    """drift for euler(), and the list that gets a copy of out after each
    of its steps."""
    steps = []

    def recording(j, x, out):
        drift(j, x, out)
        steps.append(out.copy())

    return recording, steps


def _stacked(steps):
    """Recorded per-step drifts (..., n, d) as one (..., n, M, d) array."""
    return np.stack(steps, axis=-2)


@pytest.fixture
def drift_log(monkeypatch):
    """The drifts of every later sim.euler call, one list of per-step copies
    per call: the simulators' drift callable is handed on inside a recorder,
    so each step's drift is seen as the loop stepped with it."""
    runs = []
    real = sim.euler

    def recording_euler(drift, *args, **kwargs):
        recording, steps = _recorder(drift)
        runs.append(steps)
        return real(recording, *args, **kwargs)

    monkeypatch.setattr(sim, "euler", recording_euler)
    return runs


class TestNPlayer:
    def test_driftless_paths_are_exact_brownian(self, drift_log):
        game = driftless()
        tg, bundle, x0 = _setup(game, 32, 25)
        ens = simulate_nplayer(game, ControlField.constant(tg, 0.0), bundle, x0)
        assert np.array_equal(ens.states, x0[:, None, :] + bundle.partial_sums())
        assert ens.drifts is None
        assert np.all(_stacked(drift_log[-1]) == 0.0) and len(drift_log[-1]) == 25

    def test_constant_drift_matches_closed_form(self):
        game = tracking_lq()
        tg, bundle, x0 = _setup(game, 16, 40)
        ens = simulate_nplayer(game, ControlField.constant(tg, 0.7), bundle, x0)
        expect = x0[:, None, :] + 0.7 * tg.times[None, :, None] + bundle.partial_sums()
        assert np.allclose(ens.states, expect, atol=1e-12)

    def test_sign_drift_mean_square_matches_horizon_square(self):
        # population commits to one ramp; E[mean_T^2] ~ T^2
        game = sign_drift()
        vals = []
        for r in range(30):
            tg, bundle, x0 = _setup(game, 512, 250, seed=r)
            ens = simulate_nplayer(game, sign_of_mean(tg), bundle, x0)
            vals.append(ens.states[:, -1, 0].mean() ** 2)
        assert abs(np.mean(vals) - 1.0) < 0.1

    def test_shared_feedback_matches_per_player_list(self):
        game = sign_drift()
        tg, bundle, x0 = _setup(game, 8, 10)
        fb = sign_of_mean(tg)
        a = simulate_nplayer(game, fb, bundle, x0)
        b = simulate_nplayer(game, [fb] * 8, bundle, x0)
        assert np.array_equal(a.states, b.states)

    def test_non_finite_drift_is_reported(self):
        law = InitialLaw("point", [0.0], [0.0])

        def bad_drift(t, x, m, a):
            out = np.ones(x.shape)
            if t > 0.5:
                out[:] = np.nan
            return out

        game = GameSpec(
            name="bad", action_lo=[0.0], action_hi=[0.0],
            horizon=1.0, initial=law, drift=bad_drift,
            running=lambda t, x, m, a: np.zeros(x.shape[0]),
            terminal=lambda x, m: np.zeros(x.shape[0]),
            drift_bound=1.0, running_bound=0.0, terminal_bound=0.0,
            state_lo=[-5.0], state_hi=[5.0],
        )
        tg, bundle, x0 = _setup(game, 4, 10)
        with pytest.raises(FloatingPointError):
            simulate_nplayer(game, ControlField.constant(tg, 0.0), bundle, x0)


class TestFrozenFlow:
    def test_uses_flow_stats_not_cloud(self):
        # frozen strictly positive mean forces everyone up, whatever the
        # cloud does (at mean exactly 0 the sign feedback stays put)
        game = sign_drift()
        tg, bundle, x0 = _setup(game, 64, 50)
        ramp = DeterministicFlow(tg, (1.0 + tg.times).reshape(-1, 1))
        ens = simulate_frozen_flow(game, sign_of_mean(tg), ramp, bundle, x0)
        # the feedback activates on the open interval (start, T], so the
        # first Euler step carries no drift
        det = np.maximum(tg.times - tg.dt, 0.0)
        expect = x0[:, None, :] + det[None, :, None] + bundle.partial_sums()
        assert np.allclose(ens.states, expect, atol=1e-12)

    def test_particles_iid_under_frozen_flow(self):
        game = sign_drift()
        tg, bundle, x0 = _setup(game, 2000, 20)
        flow = DeterministicFlow(tg, np.zeros((21, 1)))
        ens = simulate_frozen_flow(game, ControlField.constant(tg, 0.0), flow, bundle, x0)
        ends = ens.states[:, -1, 0]
        corr = np.corrcoef(ends[:1000], ends[1000:])[0, 1]
        assert abs(corr) < 0.1


class TestIntegratePaths:
    def test_array_drift(self):
        tg = TimeGrid(1.0, 5)
        bundle = sample_brownian(3, 4, tg, 1)
        drifts = np.full((4, 5, 1), 2.0)
        ens = integrate_paths(drifts, bundle, np.zeros((4, 1)))
        expect = 2.0 * tg.times[None, :, None] + bundle.partial_sums()
        assert np.allclose(ens.states, expect, atol=1e-12)

    def test_callable_drift(self):
        tg = TimeGrid(1.0, 5)
        bundle = sample_brownian(3, 4, tg, 1)
        ens = integrate_paths(lambda j, x: np.full((4, 1), float(j)), bundle, np.zeros((4, 1)))
        # drift at step j is j, so the deterministic part is dt * sum_{i<j} i
        det = np.cumsum(np.arange(5) * tg.dt)
        expect = np.concatenate([[0.0], det])
        assert np.allclose(ens.states.mean(axis=0)[:, 0], expect + bundle.increments.mean(axis=0).cumsum(axis=0)[..., 0].mean() * 0, atol=0.6)
        assert np.allclose(ens.states[:, 1:, 0] - bundle.partial_sums()[:, 1:, 0], np.broadcast_to(expect[1:], (4, 5)), atol=1e-12)


class TestPayoffs:
    def test_running_integral_exact_for_constant_reward(self):
        # running reward == 1 along the whole path integrates to the horizon
        game = action_square(reward_sign=1.0)
        tg, bundle, x0 = _setup(game, 8, 16)
        ctrl = ControlField.constant(tg, 1.0)
        ens = simulate_nplayer(game, ctrl, bundle, x0)
        pays = path_payoffs(game, ens, ctrl)
        assert np.allclose(pays, game.horizon, atol=1e-12)

    def test_terminal_reward_uses_final_cloud(self):
        game = sign_drift()
        tg, bundle, x0 = _setup(game, 4000, 50)
        ctrl = ControlField.constant(tg, 1.0)
        ens = simulate_nplayer(game, ctrl, bundle, x0)
        pays = path_payoffs(game, ens, ctrl)
        # everyone drifts +1: mean_T ~ 1, payoff ~ x_T * 1
        assert abs(pays.mean() - 1.0) < 0.05

    def test_frozen_stats_override(self):
        game = sign_drift()
        tg, bundle, x0 = _setup(game, 100, 20)
        ctrl = ControlField.constant(tg, 0.0)
        flow = DeterministicFlow(tg, np.full((21, 1), 2.0))
        ens = simulate_frozen_flow(game, ctrl, flow, bundle, x0)
        pays = path_payoffs(game, ens, ctrl, stats_path=flow.stats_path())
        # terminal reward x * 2 with x ~ N(0, T)
        assert abs(pays.mean() - 2.0 * ens.states[:, -1, 0].mean()) < 1e-12

    def test_relaxed_control_averages_running_reward(self):
        # 50/50 relaxed row over {-1, +1}: mean drift 0, mean running reward 1
        from mfglab.relaxed import constant_relaxed
        from mfglab.grids import ActionGrid

        game = action_square(reward_sign=1.0)
        tg, bundle, x0 = _setup(game, 32, 10)
        ag = ActionGrid(np.array([-1.0]), np.array([1.0]), 2)
        rel = constant_relaxed(tg, ag, np.full((10, 2), 0.5))
        ens = simulate_frozen_flow(game, rel, DeterministicFlow(tg, np.zeros((11, 1))), bundle, x0)
        # drift under the relaxed row is the probability-weighted mean: zero
        assert np.allclose(ens.states, x0[:, None, :] + bundle.partial_sums(), atol=1e-12)
        pays = path_payoffs(game, ens, rel)
        assert np.allclose(pays, game.horizon, atol=1e-12)


# The three stepping loops as they stood before they were merged into
# euler(); the public simulators must reproduce them bit for bit.

def _oracle_nplayer(game, feedbacks, bundle, init):
    n, M, d = bundle.n, bundle.grid.n_steps, bundle.dim
    init = np.asarray(init, dtype=float)
    groups = _feedback_groups(feedbacks, n)
    dt, times = bundle.grid.dt, bundle.grid.times
    states = np.empty((n, M + 1, d))
    drifts = np.empty((n, M, d))
    states[:, 0] = init
    x = init
    for j in range(M):
        stats = MeasureStats(mean=x.mean(axis=0))
        for field, idx in groups:
            drifts[idx, j] = control_drift(game, field, j, times[j], x[idx], stats)
        x = x + drifts[:, j] * dt + bundle.increments[:, j]
        states[:, j + 1] = x
    return states, drifts


def _oracle_frozen(game, control, flow, bundle, init):
    n, M, d = bundle.n, bundle.grid.n_steps, bundle.dim
    stats_path = flow.stats_path()
    dt, times = bundle.grid.dt, bundle.grid.times
    states = np.empty((n, M + 1, d))
    drifts = np.empty((n, M, d))
    states[:, 0] = init
    x = init
    for j in range(M):
        drifts[:, j] = control_drift(game, control, j, times[j], x, stats_path[j])
        x = x + drifts[:, j] * dt + bundle.increments[:, j]
        states[:, j + 1] = x
    return states, drifts


def _oracle_integrate(drift, bundle, init):
    n, M, d = bundle.n, bundle.grid.n_steps, bundle.dim
    dt = bundle.grid.dt
    states = np.empty((n, M + 1, d))
    drifts = np.empty((n, M, d))
    states[:, 0] = init
    x = init
    for j in range(M):
        drifts[:, j] = drift[:, j] if not callable(drift) else drift(j, x)
        x = x + drifts[:, j] * dt + bundle.increments[:, j]
        states[:, j + 1] = x
    return states, drifts


def _same_bits(ens, drifts, oracle):
    """ens's states and the drifts it was stepped with, against the oracle's."""
    states, expect = oracle
    assert np.array_equal(ens.states, states)
    assert np.array_equal(drifts, expect)


class TestWrappersMatchPreMergeLoops:
    """The simulators keep no drifts; the ones they stepped with are
    recorded by drift_log and held to the oracle's bits."""

    @pytest.mark.parametrize("n", [1, 7, 256])
    def test_nplayer_shared_field(self, n, drift_log):
        game = sign_drift()
        tg, bundle, x0 = _setup(game, n, 60, seed=n)
        fb = sign_of_mean(tg, start=0.2)
        ens = simulate_nplayer(game, fb, bundle, x0)
        _same_bits(ens, _stacked(drift_log[-1]), _oracle_nplayer(game, fb, bundle, x0))
        assert ens.drifts is None

    def test_nplayer_mean_interaction(self, drift_log):
        game = mean_drift(profile="linear", x0=1.0)
        tg, bundle, x0 = _setup(game, 100, 80, seed=5)
        fb = sign_of_mean(tg, start=2.0)
        ens = simulate_nplayer(game, fb, bundle, x0)
        _same_bits(ens, _stacked(drift_log[-1]), _oracle_nplayer(game, fb, bundle, x0))

    def test_nplayer_per_player_family(self, drift_log):
        game = sign_drift()
        tg, bundle, x0 = _setup(game, 9, 40, seed=2)
        fields = [sign_of_mean(tg), sign_of_state(tg, start=0.1), ControlField.constant(tg, -0.3)]
        family = [fields[k % 3] for k in range(9)]
        ens = simulate_nplayer(game, family, bundle, x0)
        _same_bits(ens, _stacked(drift_log[-1]), _oracle_nplayer(game, family, bundle, x0))

    def test_frozen_flow_analytic_and_relaxed(self, drift_log):
        game = action_square(reward_sign=1.0)
        tg, bundle, x0 = _setup(game, 50, 30, seed=3)
        flow = DeterministicFlow(tg, 0.5 * tg.times)
        ag = ActionGrid(np.array([-1.0]), np.array([1.0]), 3)
        rows = np.random.default_rng(0).dirichlet(np.ones(3), size=30)
        for control in (sign_of_mean(tg), constant_relaxed(tg, ag, rows)):
            ens = simulate_frozen_flow(game, control, flow, bundle, x0)
            _same_bits(ens, _stacked(drift_log[-1]), _oracle_frozen(game, control, flow, bundle, x0))
            assert ens.drifts is None

    def test_integrate_paths_array_and_callable(self, drift_log):
        tg = TimeGrid(1.0, 25)
        bundle = sample_brownian(11, 30, tg, 2)
        init = np.random.default_rng(1).normal(size=(30, 2))
        table = np.random.default_rng(2).normal(size=(30, 25, 2))
        ens = integrate_paths(table, bundle, init)
        _same_bits(ens, ens.drifts, _oracle_integrate(table, bundle, init))
        _same_bits(ens, _stacked(drift_log[-1]), _oracle_integrate(table, bundle, init))
        fn = lambda j, x: np.tanh(x) * (j % 3)
        ens = integrate_paths(fn, bundle, init)
        _same_bits(ens, _stacked(drift_log[-1]), _oracle_integrate(fn, bundle, init))
        assert ens.drifts is None


def _batch(game, n, n_steps, reps, seed=0):
    tg = TimeGrid(game.horizon, n_steps)
    bundles = [sample_brownian(derive_seed(seed, "bw", r), n, tg, game.dim) for r in range(reps)]
    inits = [initial_cloud(derive_seed(seed, "bx", r), n, game.initial.sampler()) for r in range(reps)]
    return tg, bundles, inits


class TestBatchedEuler:
    @pytest.mark.parametrize("profile", ["sign", "linear"])
    def test_batch_steps_each_repetition_as_alone(self, profile, drift_log):
        # stepped together, each repetition still sees only its own cloud
        game = mean_drift(profile=profile, x0=0.0)
        tg, bundles, inits = _batch(game, 64, 50, 3)
        drift = nplayer_drift(game, sign_of_mean(tg, start=2.0), tg, 64)
        noise = np.stack([b.increments for b in bundles])
        recording, steps = _recorder(drift)
        states = euler(recording, noise, np.stack(inits), tg)
        drifts = _stacked(steps)
        means = euler(drift, noise, np.stack(inits), tg, record="mean")
        assert means.shape == (3, 51, 1) and drifts.shape == (3, 64, 50, 1)
        for r in range(3):
            alone = simulate_nplayer(game, sign_of_mean(tg, start=2.0), bundles[r], inits[r])
            assert np.array_equal(states[r], alone.states)
            assert np.array_equal(drifts[r], _stacked(drift_log[-1]))
            assert np.allclose(means[r], alone.states.mean(axis=0), rtol=0.0, atol=1e-12)

    def test_sign_feedback_batch_matches_single_runs(self):
        game = sign_drift()
        tg, bundles, inits = _batch(game, 33, 40, 4, seed=8)
        fb = sign_of_mean(tg)
        states = euler(nplayer_drift(game, fb, tg, 33), np.stack([b.increments for b in bundles]),
                       np.stack(inits), tg)
        for r in range(4):
            assert np.array_equal(states[r], simulate_nplayer(game, fb, bundles[r], inits[r]).states)

    def test_rejects_mismatched_shapes_and_modes(self):
        tg = TimeGrid(1.0, 5)
        fill = lambda j, x, out: out.fill(0.0)
        with pytest.raises(ValueError):
            euler(fill, np.zeros((2, 3, 4, 1)), np.zeros((2, 3, 1)), tg)
        with pytest.raises(ValueError):
            euler(fill, np.zeros((2, 3, 5, 1)), np.zeros((3, 3, 1)), tg)
        with pytest.raises(ValueError):
            euler(fill, np.zeros((2, 3, 5, 1)), np.zeros((2, 3, 1)), tg, record="states")

    def test_full_record_is_refused_with_the_valid_values(self):
        # the drifts are no longer recorded; a drift callable that wants
        # them keeps a copy of out itself
        def fill(j, x, out):
            raise AssertionError("the record mode must be checked before the first step")

        with pytest.raises(ValueError, match=r"^record must be 'paths', 'mean' or 'last', got 'full'$"):
            euler(fill, np.zeros((2, 3, 5, 1)), np.zeros((2, 3, 1)), TimeGrid(1.0, 5), record="full")

    def test_non_finite_drift_names_time_repetition_particle_state(self):
        tg = TimeGrid(1.0, 10)

        def fill(j, x, out):
            out[...] = 1.0
            if j == 6:
                out[1, 3, 0] = np.inf

        noise = np.zeros((3, 5, 10, 1))
        x0 = np.zeros((3, 5, 1))
        with pytest.raises(FloatingPointError, match=r"t=0\.6, repetition 41, particle 3, state \[0\.6\]"):
            euler(fill, noise, x0, tg, record="mean", first_rep=40)
        with pytest.raises(FloatingPointError, match=r"t=0\.6, repetition 1, particle 3"):
            euler(fill, noise, x0, tg)

    def test_non_finite_drift_in_coupled_batch(self):
        law = InitialLaw("point", [0.0], [0.0])

        def bad_drift(t, x, m, a):
            return np.where(m.mean[..., :1] > 0.05, np.nan, 1.0) + 0.0 * x

        game = GameSpec(
            name="bad", action_lo=[0.0], action_hi=[0.0],
            horizon=1.0, initial=law, drift=bad_drift,
            running=lambda t, x, m, a: np.zeros(x.shape[:-1]),
            terminal=lambda x, m: np.zeros(x.shape[:-1]),
            drift_bound=1.0, running_bound=0.0, terminal_bound=0.0,
            state_lo=[-5.0], state_hi=[5.0],
        )
        tg = TimeGrid(1.0, 20)
        noise = np.zeros((2, 4, 20, 1))
        x0 = np.zeros((2, 4, 1))
        x0[1] = 0.1  # only the second repetition's mean is past the threshold
        drift = nplayer_drift(game, ControlField.constant(tg, 0.0), tg, 4)
        with pytest.raises(FloatingPointError, match=r"t=0, repetition 1, particle 0, state \[0\.1\]"):
            euler(drift, noise, x0, tg, record="mean")


class TestInPlaceStepping:
    """Under "mean" and "last" euler copies init once and steps that copy in
    place: the caller's init is never written, and every step hands the
    drift the same state buffer."""

    def _cases(self):
        game = sign_drift()
        tg = TimeGrid(1.0, 25)
        noise, x0 = chunk_inputs(game, range(3), 40, tg, 2, ("w", "x0"))
        coupled = nplayer_drift(game, sign_of_mean(tg, start=0.1), tg, 40)
        yield "single", coupled, noise[1], x0[1], tg
        yield "batched", coupled, noise, x0, tg

    @pytest.mark.parametrize("record", ["mean", "last"])
    def test_init_is_left_as_given_and_bits_match_the_oracle(self, record):
        for name, drift, noise, init, tg in self._cases():
            before = init.copy()
            seen = []

            def watching(j, x, out):
                seen.append(x)
                drift(j, x, out)

            got = euler(watching, noise, init, tg, record=record)
            assert np.array_equal(init, before), (name, record)
            assert all(x is seen[0] for x in seen) and not np.shares_memory(seen[0], init), (name, record)
            expect = _oracle_euler(drift, np.ascontiguousarray(noise), before, tg, record)
            assert np.array_equal(got, expect), (name, record)
            # a second run from the same init, as exploitability_estimate makes
            assert np.array_equal(euler(drift, noise, init, tg, record=record), expect), (name, record)


class TestNoiseDrawnIntoTheStates:
    """euler(out=) writes the paths into the caller's time-major array, whose
    rows 1..M may hold the noise: each step overwrites the increments it has
    just read, with the bits of separate noise."""

    N, M = 300, 45

    def _drawn(self, seeds, dim):
        """Paths buffer (R, M+1, n, d) with the noise of seeds in rows 1..M,
        and the same noise drawn apart, as euler's (R, n, M, d) input."""
        tg = TimeGrid(1.0, self.M)
        out = np.empty((len(seeds), self.M + 1, self.N, dim))
        apart = []
        for r, s in enumerate(seeds):
            sample_brownian(s, self.N, tg, dim, out=out[r, 1:])
            apart.append(sample_brownian(s, self.N, tg, dim).increments)
        return out, np.stack(apart)

    def _cases(self):
        game = sign_drift()
        tg = TimeGrid(1.0, self.M)
        coupled = nplayer_drift(game, sign_of_mean(tg, start=0.1), tg, self.N)
        x0 = np.stack([initial_cloud(derive_seed(5, "x0", r), self.N, game.initial.sampler()) for r in range(3)])
        seeds = [derive_seed(5, "w", r) for r in range(3)]
        out, apart = self._drawn(seeds[1:2], 1)
        yield "single", coupled, out[0], apart[0], x0[1]
        out, apart = self._drawn(seeds, 1)
        yield "batched", coupled, out, apart, x0

        def two_dim(j, x, step):
            step[...] = np.tanh(x[..., ::-1]) * (j % 3) - x.mean(axis=-2, keepdims=True)

        out, apart = self._drawn([6], 2)
        yield "two_dim", two_dim, out[0], apart[0], np.random.default_rng(3).normal(size=(self.N, 2))

    def test_paths_keep_the_bits_of_separate_noise_and_init_is_never_written(self):
        tg = TimeGrid(1.0, self.M)
        for name, drift, out, apart, init in self._cases():
            before = init.copy()
            expect = euler(drift, apart, init, tg)
            got = euler(drift, np.swapaxes(out[..., 1:, :, :], -3, -2), init, tg, out=out)
            assert np.array_equal(got, expect), name
            assert np.array_equal(init, before), name
            # the returned states are the caller's buffer, seen particle-major
            assert np.shares_memory(got, out) and np.array_equal(np.swapaxes(got, -3, -2), out), name

    def test_separate_noise_into_out_keeps_the_bits_and_the_noise(self):
        tg = TimeGrid(1.0, self.M)
        for name, drift, out, apart, init in self._cases():
            kept = apart.copy()
            got = euler(drift, apart, init, tg, out=out)
            assert np.array_equal(got, euler(drift, kept, init, tg)), name
            assert np.array_equal(apart, kept), name

    def test_frozen_flow_draws_into_its_states(self):
        game = sign_drift()
        tg = TimeGrid(1.0, self.M)
        x0 = initial_cloud(derive_seed(2, "x0"), self.N, game.initial.sampler())
        flow = DeterministicFlow(tg, (0.5 * tg.times).reshape(-1, 1))
        control = sign_of_mean(tg)
        alone = simulate_frozen_flow(game, control, flow, sample_brownian(7, self.N, tg), x0)
        out = np.empty((self.M + 1, self.N, 1))
        ens = simulate_frozen_flow(game, control, flow, sample_brownian(7, self.N, tg, out=out[1:]), x0, out=out)
        assert np.array_equal(ens.states, alone.states) and np.shares_memory(ens.states, out)
        # the increments were overwritten by the paths, so none is handed on
        assert ens.bundle is None and alone.bundle is not None
        bundle = sample_brownian(7, self.N, tg)
        ens = simulate_frozen_flow(game, control, flow, bundle, x0, out=np.empty((self.M + 1, self.N, 1)))
        assert np.array_equal(ens.states, alone.states) and ens.bundle is bundle

    @pytest.mark.parametrize(
        "bad",
        [
            np.empty((4, 3, 1)),  # one row short
            np.empty((6, 3, 2)),
            np.empty((6, 3, 1), dtype=np.float32),
            np.asfortranarray(np.empty((6, 3, 1))),
            np.empty((6, 6, 1))[:, ::2],  # strided
            [[[0.0]] * 3] * 6,  # not an array
        ],
    )
    def test_a_bad_out_is_refused_by_name(self, bad):
        def fill(j, x, step):
            raise AssertionError("out must be checked before the first step")

        with pytest.raises(ValueError, match=r"^out must be a C-contiguous float64 \(6, 3, 1\) array, got "):
            euler(fill, np.zeros((3, 5, 1)), np.zeros((3, 1)), TimeGrid(1.0, 5), out=bad)

    def test_other_overlaps_and_records_are_refused(self):
        def fill(j, x, step):
            raise AssertionError("out must be checked before the first step")

        tg, out = TimeGrid(1.0, 5), np.zeros((6, 3, 1))
        # noise in rows 0..M-1 would be overwritten one step before it is read
        with pytest.raises(ValueError, match=r"noise may share memory with out only as out\[\.\.\., 1:, :, :\]"):
            euler(fill, np.swapaxes(out[:-1], 0, 1), np.zeros((3, 1)), tg, out=out)
        for record in ("mean", "last"):
            with pytest.raises(ValueError, match=f"out receives the paths, so it needs record='paths', got '{record}'"):
                euler(fill, np.zeros((3, 5, 1)), np.zeros((3, 1)), tg, record=record, out=out)


class TestFeedbackGroups:
    def test_contiguous_runs_are_slices_and_the_rest_index_arrays(self):
        tg = TimeGrid(1.0, 4)
        a, b, c = (ControlField.constant(tg, v) for v in (-1.0, 0.0, 1.0))
        groups = _feedback_groups([a, b, b, a, c, c, c], 7)
        assert [f for f, _ in groups] == [a, b, c]
        assert np.array_equal(groups[0][1], [0, 3]) and groups[0][1].dtype == np.intp
        assert groups[1][1] == slice(1, 3) and groups[2][1] == slice(4, 7)
        assert _feedback_groups([a] + [b] * 4, 5) == [(a, slice(0, 1)), (b, slice(1, 5))]
        assert _feedback_groups(a, 5) == [(a, slice(None))]

    @pytest.mark.parametrize("family", ["deviation", "interleaved"])
    def test_slices_step_to_the_bits_of_index_arrays(self, family, monkeypatch):
        game = sign_drift()
        tg, bundle, x0 = _setup(game, 30, 20, seed=3)
        a, b = sign_of_mean(tg, start=0.3), ControlField.constant(tg, 0.5)
        fields = [a] + [b] * 29 if family == "deviation" else [a, b, b, a] + [b] * 10 + [a] * 16
        fast = simulate_nplayer(game, fields, bundle, x0)
        monkeypatch.setattr(sim, "_feedback_groups", _index_groups)
        slow = simulate_nplayer(game, fields, bundle, x0)
        assert np.array_equal(fast.states, slow.states)

    def test_one_shared_field_steps_to_the_bits_of_its_group(self):
        # nplayer_drift calls a lone pure or analytic field directly
        game = sign_drift()
        tg = TimeGrid(1.0, 30)
        noise, x0 = chunk_inputs(game, range(3), 50, tg, 4, ("w", "x0"))
        fb = sign_of_mean(tg, start=0.2)
        groups = [(fb, slice(None))]

        def grouped(j, x, out):
            sim.group_drift(game, groups, j, tg.times[j], x, MeasureStats.from_cloud(x), out)

        assert np.array_equal(euler(nplayer_drift(game, fb, tg, 50), noise, x0, tg), euler(grouped, noise, x0, tg))
        assert np.array_equal(euler(nplayer_drift(game, [fb] * 50, tg, 50), noise, x0, tg), euler(grouped, noise, x0, tg))


def _index_groups(feedbacks, n):
    """_feedback_groups as it stood: every family group gathers its players by index array."""
    if isinstance(feedbacks, ControlField):
        return [(feedbacks, slice(None))]
    seen: dict = {}
    for k, f in enumerate(feedbacks):
        seen.setdefault(id(f), (f, []))[1].append(k)
    return [(f, np.asarray(idx, dtype=np.intp)) for f, idx in seen.values()]


class TestFiniteCheck:
    """The per-step check screens with one sum of squares; it must raise
    exactly where an entry-by-entry isfinite check would."""

    @pytest.mark.parametrize("values", [
        np.full((2, 4, 1), 1e200),  # the screen overflows: every entry is finite
        np.array([[1e308], [-1e308]]),
        np.array([[0.0], [5e-324]]),
        np.array([[np.inf], [-np.inf]]),
        np.array([[1.0], [np.nan]]),
        np.array([[[1e300], [np.nan]], [[0.0], [1.0]]]),
    ], ids=["huge", "max", "tiny", "inf", "nan", "batched_nan"])
    def test_raises_exactly_on_non_finite_entries(self, values):
        x = np.zeros(values.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if np.isfinite(values).all():
                sim._check_finite(values, "drift", 0.5, x)
            else:
                with pytest.raises(FloatingPointError, match=r"drift evaluated to a non-finite value at t=0\.5, "):
                    sim._check_finite(values, "drift", 0.5, x)

    def test_huge_finite_drifts_step(self):
        tg = TimeGrid(1.0, 3)
        states = euler(lambda j, x, out: out.fill(1e200), np.zeros((4, 3, 1)), np.zeros((4, 1)), tg)
        assert np.isfinite(states).all()


class TestFeedbackFitsTheGame:
    """Each simulator refuses, before stepping, a feedback whose actions leave
    the game's action box or have the wrong dimension."""

    OUTSIDE = r"^feedback 'constant\[\[5\.0\]\]' on game 'sign_drift': action 5 in dimension 0 lies outside the action box \[-1, 1\]$"

    def _runs(self, game, field):
        """simulate_nplayer, then simulate_frozen_flow, then exploitability_estimate, under field."""
        tg, bundle, x0 = _setup(game, 8, 10)
        flow = DeterministicFlow(tg, np.zeros(tg.n_steps + 1))
        yield lambda: simulate_nplayer(game, field, bundle, x0)
        yield lambda: simulate_frozen_flow(game, field, flow, bundle, x0)
        yield lambda: exploitability_estimate(game, flow, field, n=8, reps=2, br_control=ControlField.constant(tg, 0.0))
        yield lambda: exploitability_estimate(game, flow, ControlField.constant(tg, 0.0), n=8, reps=2, br_control=field)

    def test_action_outside_the_box_is_refused_by_every_simulator(self):
        game = sign_drift()
        for run in self._runs(game, ControlField.constant(TimeGrid(1.0, 10), [5.0])):
            with pytest.raises(ValueError, match=self.OUTSIDE):
                run()

    def test_wrong_action_dimension_is_refused_by_every_simulator(self):
        game = sign_drift()
        message = r"^feedback 'two' on game 'sign_drift': actions have dimension 2, not the game's action dimension 1$"
        for run in self._runs(game, ControlField.constant(TimeGrid(1.0, 10), [0.5, -0.5], name="two")):
            with pytest.raises(ValueError, match=message):
                run()

    def test_one_player_of_a_family_is_enough(self):
        game = sign_drift()
        tg, bundle, x0 = _setup(game, 8, 10)
        family = [sign_of_mean(tg)] * 3 + [ControlField.constant(tg, [5.0])] + [sign_of_mean(tg)] * 4
        with pytest.raises(ValueError, match=self.OUTSIDE):
            simulate_nplayer(game, family, bundle, x0)

    @pytest.mark.parametrize("bad,shown", [(1.5, "1.5"), (np.nan, "nan")])
    def test_grid_table_is_checked_whole(self, bad, shown):
        # a single entry, at the last step, is enough to refuse the table
        game = sign_drift()
        tg, bundle, x0 = _setup(game, 8, 10)
        sg = SpatialGrid(np.array([-2.0]), np.array([2.0]), 5)
        values = np.zeros((tg.n_steps, 5, 1))
        values[-1, 3, 0] = bad
        field = ControlField.pure(tg, sg, values, name="table")
        with pytest.raises(ValueError, match=rf"^feedback 'table' on game 'sign_drift': action {shown} in dimension 0 lies outside"):
            simulate_nplayer(game, field, bundle, x0)

    def test_relaxed_atoms_are_checked(self):
        game = sign_drift()
        tg, bundle, x0 = _setup(game, 8, 10)
        wide = ActionGrid(np.array([-2.0]), np.array([2.0]), 3)
        field = constant_relaxed(tg, wide, np.tile([0.0, 1.0, 0.0], (tg.n_steps, 1)), name="wide")
        with pytest.raises(ValueError, match=r"^feedback 'wide' on game 'sign_drift': action -2 in dimension 0 lies outside"):
            simulate_nplayer(game, field, bundle, x0)

    def test_analytic_nan_at_step_0_is_refused(self):
        game = sign_drift()
        tg, bundle, x0 = _setup(game, 8, 10)
        field = ControlField.analytic(tg, lambda t, x, stats: np.full(x.shape, np.nan), name="nan")
        with pytest.raises(ValueError, match=r"^feedback 'nan' on game 'sign_drift': action nan in dimension 0"):
            simulate_nplayer(game, field, bundle, x0)

    def test_analytic_field_costs_one_extra_call(self):
        # the check calls an analytic field once, at step 0 on the initial
        # states; later actions are the caller's to keep in the box
        game = sign_drift()
        tg, bundle, x0 = _setup(game, 8, 10)
        calls = []

        def func(t, x, stats):
            calls.append(t)
            return np.full(x.shape, 0.5 if t == 0.0 else 3.0)

        simulate_nplayer(game, ControlField.analytic(tg, func), bundle, x0)
        assert calls == [0.0] + list(tg.times[:-1])


class TestNonFiniteInitialStates:
    """A non-finite initial state is refused before the first step, naming
    the repetition, the particle and the state."""

    def test_frozen_flow(self):
        game = sign_drift()
        tg, bundle, x0 = _setup(game, 64, 50)
        x0[5] = np.nan
        flow = DeterministicFlow(tg, np.zeros((51, 1)))
        with pytest.raises(FloatingPointError, match=r"initial state .* t=0, particle 5, state \[nan\]"):
            simulate_frozen_flow(game, ControlField.constant(tg, 0.0), flow, bundle, x0)

    def test_integrate_paths(self):
        tg, bundle, x0 = _setup(sign_drift(), 64, 50)
        x0[5] = -np.inf
        with pytest.raises(FloatingPointError, match=r"initial state .* t=0, particle 5, state \[-inf\]"):
            integrate_paths(np.zeros((64, 50, 1)), bundle, x0)

    @pytest.mark.parametrize("record", ["paths", "mean", "last"])
    def test_batched_names_the_repetition(self, record):
        tg = TimeGrid(1.0, 10)
        x0 = np.zeros((3, 5, 2))
        x0[2, 4, 1] = np.nan

        def fill(j, x, out):
            raise AssertionError("initial states must be checked before the first drift")

        with pytest.raises(FloatingPointError, match=r"t=0, repetition 9, particle 4, state \[0\.0, nan\]"):
            euler(fill, np.zeros((3, 5, 10, 2)), x0, tg, record=record, first_rep=7)


def _oracle_euler(drift, noise, init, grid, record="paths"):
    """euler() as it stood with particle-major memory: under "paths", the
    states (..., n, M+1, d) and the drifts (..., n, M, d) it stepped with."""
    M = grid.n_steps
    dt, times = grid.dt, grid.times
    lead = init.shape[:-1]
    if record == "paths":
        states = np.empty(lead + (M + 1,) + init.shape[-1:])
        drifts = np.empty(noise.shape)
        states[..., 0, :] = init
    else:
        if record == "mean":
            means = np.empty(lead[:-1] + (M + 1,) + init.shape[-1:])
        step = np.empty(init.shape)
    x = init
    for j in range(M):
        if record == "paths":
            step = drifts[..., j, :]
        elif record == "mean":
            means[..., j, :] = np.add.reduce(x, axis=-2)
        drift(j, x, step)
        x = x + step * dt + noise[..., j, :]
        if record == "paths":
            states[..., j + 1, :] = x
    if record == "paths":
        return states, drifts
    if record == "last":
        return x
    means[..., M, :] = np.add.reduce(x, axis=-2)
    means /= init.shape[-2]
    return means


class TestTimeMajorEulerMatchesParticleMajorLoop:
    def _cases(self):
        sign = sign_drift()
        tg = TimeGrid(sign.horizon, 45)
        # over 128 players, so the clouds' mean and variance sum pairwise
        noise, x0 = chunk_inputs(sign, range(3), 300, tg, 5, ("w", "x0"))
        coupled = nplayer_drift(sign, sign_of_mean(tg, start=0.1), tg, 300)
        yield "single", coupled, noise[1], x0[1], tg
        yield "batched", coupled, noise, x0, tg

        def two_dim(j, x, out):
            out[...] = np.tanh(x[..., ::-1]) * (j % 3) - x.mean(axis=-2, keepdims=True)

        tg2 = TimeGrid(1.0, 30)
        bundle = sample_brownian(6, 17, tg2, 2)
        init = np.random.default_rng(3).normal(size=(17, 2))
        yield "two_dim", two_dim, bundle.increments, init, tg2
        # a particle-major noise array steps to the same bits
        yield "particle_major_noise", two_dim, np.ascontiguousarray(bundle.increments), init, tg2

    def test_paths_mean_and_last_records(self):
        for name, drift, noise, init, tg in self._cases():
            recording, steps = _recorder(drift)
            states = euler(recording, noise, init, tg)
            expect_states, expect_drifts = _oracle_euler(drift, np.ascontiguousarray(noise), init, tg)
            assert np.array_equal(states, expect_states), name
            assert np.array_equal(_stacked(steps), expect_drifts), name
            assert np.swapaxes(states, -3, -2).flags.c_contiguous, name
            for record in ("mean", "last"):
                got = euler(drift, noise, init, tg, record=record)
                assert np.array_equal(got, _oracle_euler(drift, np.ascontiguousarray(noise), init, tg, record)), (name, record)

    def test_records_view_time_major_memory(self):
        game = sign_drift()
        tg, bundle, x0 = _setup(game, 20, 15)
        noise, _ = chunk_inputs(game, range(2), 20, tg, 1, ("w", "x0"))
        assert noise.shape == (2, 20, 15, 1) and np.swapaxes(noise, 1, 2).flags.c_contiguous
        ens = simulate_nplayer(game, sign_of_mean(tg), bundle, x0)
        assert ens.states.shape == (20, 16, 1) and ens.drifts is None
        assert np.swapaxes(ens.states, 0, 1).flags.c_contiguous
        # every step writes its drift into the same (n, d) buffer
        buffers = []

        def fill(j, x, out):
            buffers.append(out)
            out.fill(0.0)

        euler(fill, bundle.increments, x0, tg)
        assert len(buffers) == 15 and all(b is buffers[0] for b in buffers) and buffers[0].shape == (20, 1)


class TestArrayDriftIsReadInPlace:
    """integrate_paths holds an array drift once: its ensemble's drifts are
    the caller's table, not a copy."""

    def _inputs(self, n=2000, M=100, d=1):
        tg = TimeGrid(1.0, M)
        bundle = sample_brownian(derive_seed(4, "w"), n, tg, d)
        init = np.random.default_rng(derive_seed(4, "x0")).normal(size=(n, d))
        table = np.random.default_rng(derive_seed(4, "drift")).normal(size=(n, M, d))
        return table, bundle, init

    def test_drifts_alias_the_callers_table_read_only(self):
        table, bundle, init = self._inputs(d=2)
        expect = table.copy()
        ens = integrate_paths(table, bundle, init)
        assert np.shares_memory(ens.drifts, table)
        assert not ens.drifts.flags.writeable
        assert table.flags.writeable
        assert np.array_equal(ens.drifts, expect)
        with pytest.raises(ValueError, match="read-only"):
            ens.drifts[0, 0, 0] = 1.0

    def test_other_inputs_alias_their_float_copy(self):
        table, bundle, init = self._inputs(n=30, M=12)
        ints = np.rint(4.0 * table).astype(np.int64)
        ens = integrate_paths(ints, bundle, init)
        assert ens.drifts.dtype == np.float64 and not ens.drifts.flags.writeable
        assert not np.shares_memory(ens.drifts, ints)
        assert np.array_equal(ens.drifts, ints)
        ens = integrate_paths(ints.tolist(), bundle, init)
        _same_bits(ens, ens.drifts, _oracle_integrate(ints.astype(float), bundle, init))

    def test_allocates_nothing_of_drift_size(self):
        table, bundle, init = self._inputs()
        tracemalloc.start()
        try:
            ens = integrate_paths(table, bundle, init)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the states, (n, M+1, d), are the one array of that size made
        assert ens.states.nbytes <= peak < ens.states.nbytes + table.nbytes // 4


class TestSimulatorsRecordNoDrifts:
    """The simulators keep the states and one reused drift buffer: no array
    of drift size is made, and their ensembles carry drifts None."""

    N, M = 2000, 100

    def _peak_holds_states_alone(self, run):
        tracemalloc.start()
        try:
            ens = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        drift_bytes = self.N * self.M * 8
        assert ens.drifts is None
        assert ens.states.nbytes <= peak < ens.states.nbytes + drift_bytes // 4

    def test_nplayer(self):
        game = sign_drift()
        tg, bundle, x0 = _setup(game, self.N, self.M)
        fb = sign_of_mean(tg, start=0.2)
        self._peak_holds_states_alone(lambda: simulate_nplayer(game, fb, bundle, x0))

    def test_frozen_flow(self):
        game = sign_drift()
        tg, bundle, x0 = _setup(game, self.N, self.M)
        flow = DeterministicFlow(tg, 0.5 * tg.times)
        fb = sign_of_mean(tg)
        self._peak_holds_states_alone(lambda: simulate_frozen_flow(game, fb, flow, bundle, x0))

    def test_integrate_paths_with_a_callable(self):
        tg = TimeGrid(1.0, self.M)
        bundle = sample_brownian(derive_seed(5, "w"), self.N, tg, 1)
        init = np.zeros((self.N, 1))
        self._peak_holds_states_alone(lambda: integrate_paths(lambda j, x: np.tanh(x) * j, bundle, init))


# The relaxed branches of control_drift and control_running as they stood,
# each with its own per-atom loop; the shared atom-table branch must
# reproduce them bit for bit.

def _oracle_relaxed_drift(game, control, j, t, x, stats):
    probs = control.probabilities(j, x)
    atoms = control.agrid.atoms
    out = np.zeros_like(x)
    for i in range(atoms.shape[0]):
        a = np.broadcast_to(atoms[i], x.shape[:-1] + (atoms.shape[1],))
        out += probs[..., i : i + 1] * game.drift(t, x, stats, a)
    return out


def _oracle_relaxed_running(game, control, j, t, x, stats):
    probs = control.probabilities(j, x)
    atoms = control.agrid.atoms
    out = np.zeros(x.shape[:-1])
    for i in range(atoms.shape[0]):
        a = np.broadcast_to(atoms[i], x.shape[:-1] + (atoms.shape[1],))
        out += probs[..., i] * game.running(t, x, stats, a)
    return out


def _two_action_game():
    """One state, two action coordinates: 16 atoms on a 4 x 4 action lattice."""
    return GameSpec(
        name="two_action", action_lo=[-1.0, 0.0], action_hi=[1.0, 2.0], horizon=1.0,
        initial=InitialLaw("gaussian", [0.0], [1.0]),
        drift=lambda t, x, m, a: a[..., :1] - 0.5 * a[..., 1:] * np.tanh(x),
        running=lambda t, x, m, a: -a[..., 0] ** 2 + a[..., 1] * np.sin(x[..., 0]) * m.mean[..., 0],
        terminal=lambda x, m: np.zeros(x.shape[:-1]),
        drift_bound=2.0, running_bound=3.0, terminal_bound=0.0, state_lo=[-8.0], state_hi=[8.0],
    )


class TestRelaxedAveragingMatchesPerAtomLoop:
    def test_two_action_dimensions_come_from_the_initial_law_and_action_box(self):
        game = _two_action_game()
        assert (game.dim, game.action_dim) == (1, 2)

    @pytest.mark.parametrize("shape", [(1,), (37,), (3, 11)])
    @pytest.mark.parametrize("name", ["sign_drift", "monotone_lq", "tracking_lq", "action_square", "two_action"])
    def test_drift_and_running(self, name, shape):
        game = _two_action_game() if name == "two_action" else make_game(name)
        tg = TimeGrid(1.0, 4)
        sg = SpatialGrid(np.array([-2.0]), np.array([2.0]), 9)
        ag = ActionGrid(game.action_lo, game.action_hi, 4 if name == "two_action" else 5)
        rng = np.random.default_rng(derive_seed(9, name, len(shape)))
        rel = ControlField.relaxed(tg, sg, ag, rng.dirichlet(np.ones(ag.n_atoms), size=(tg.n_steps, 9)))
        x = rng.normal(scale=1.5, size=shape + (1,))
        stats = MeasureStats.from_cloud(x if x.ndim == 3 else x.reshape(-1, 1))
        for j in range(tg.n_steps):
            t = tg.times[j]
            drift = control_drift(game, rel, j, t, x, stats)
            running = control_running(game, rel, j, t, x, stats)
            assert np.array_equal(drift, _oracle_relaxed_drift(game, rel, j, t, x, stats))
            assert np.array_equal(running, _oracle_relaxed_running(game, rel, j, t, x, stats))
            assert drift.shape == x.shape and running.shape == x.shape[:-1]
