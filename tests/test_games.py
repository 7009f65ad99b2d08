import numpy as np
import pytest

from mfglab.games import (
    GAME_CATALOG,
    InitialLaw,
    MeasureStats,
    action_square,
    make_game,
    mean_drift,
    mean_drift_ode_rhs,
    monotone_lq,
    sign_drift,
)


class TestCatalog:
    def test_required_names_present(self):
        for name in ("sign_drift", "monotone_lq", "mean_drift", "driftless", "tracking_lq", "action_square"):
            assert name in GAME_CATALOG

    def test_make_game_passes_kwargs(self):
        g = make_game("sign_drift", horizon=2.0)
        assert g.horizon == 2.0
        with pytest.raises(KeyError):
            make_game("not_a_game")


class TestSignDrift:
    def test_structure(self):
        g = sign_drift()
        assert g.dim == 1
        assert list(g.action_lo) == [-1.0] and list(g.action_hi) == [1.0]
        assert g.drift_affine_in_action
        x = np.array([[0.3], [2.0]])
        a = np.array([[1.0], [-0.5]])
        m = MeasureStats.point(np.array([0.7]))
        assert np.array_equal(g.drift(0.2, x, m, a), a)
        assert np.array_equal(g.running(0.2, x, m, a), np.zeros(2))
        assert np.allclose(g.terminal(x, m), x[:, 0] * 0.7)

    def test_payoff_scale(self):
        g = sign_drift(horizon=2.0)
        assert g.payoff_scale == g.running_bound * 2.0 + g.terminal_bound
        assert g.payoff_scale > 0


class TestMonotone:
    def test_rewards(self):
        g = monotone_lq()
        x = np.array([[1.0], [-2.0]])
        a = np.array([[1.0], [0.5]])
        m = MeasureStats.point(np.array([0.4]))
        assert np.allclose(g.running(0.0, x, m, a), [-0.5, -0.125])
        assert np.allclose(g.terminal(x, m), [-0.4, 0.8])

    def test_running_split_reassembles(self):
        g = monotone_lq()
        f1, f2 = g.running_split
        x = np.array([[0.5], [1.5]])
        a = np.array([[-1.0], [0.25]])
        m = MeasureStats.point(np.array([2.0]))
        total = np.asarray(f1(0.3, x, m)) + np.asarray(f2(0.3, x, a))
        assert np.allclose(total, g.running(0.3, x, m, a))


class TestMeanDrift:
    def test_profiles(self):
        m2 = MeasureStats.point(np.array([2.0]))
        m_neg = MeasureStats.point(np.array([-3.0]))
        x = np.zeros((1, 1))
        a = np.zeros((1, 1))
        assert np.allclose(mean_drift("linear").drift(0, x, m2, a), -2.0)
        assert np.allclose(mean_drift("sign").drift(0, x, m_neg, a), -1.0)
        assert np.allclose(mean_drift("sqrt").drift(0, x, MeasureStats.point(np.array([4.0])), a), 2.0)
        assert np.allclose(mean_drift("zero").drift(0, x, m2, a), 0.0)

    def test_ode_rhs_matches_drift(self):
        g = mean_drift("linear", scale=2.0)
        rhs = mean_drift_ode_rhs(g)
        assert rhs(1.5) == -3.0
        with pytest.raises(ValueError):
            mean_drift_ode_rhs(sign_drift())

    def test_degenerate_action_box(self):
        g = mean_drift("zero")
        assert list(g.action_lo) == [0.0] and list(g.action_hi) == [0.0]

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            mean_drift("cubic")


class TestActionSquare:
    def test_reward_signs(self):
        x = np.zeros((2, 1))
        a = np.array([[1.0], [0.5]])
        m = MeasureStats.point(np.array([0.0]))
        up = action_square(reward_sign=1.0)
        down = action_square(reward_sign=-1.0)
        assert np.allclose(up.running(0, x, m, a), [1.0, 0.25])
        assert np.allclose(down.running(0, x, m, a), [-1.0, -0.25])
        assert not up.drift_affine_in_action or up.drift_affine_in_action  # flag exists either way
        assert np.allclose(up.terminal(x, m), 0.0)


class TestInitialLaw:
    def test_point(self):
        law = InitialLaw("point", [1.5], [0.0])
        gen = np.random.default_rng(0)
        x = law.sampler()(gen, 7)
        assert np.array_equal(x, np.full((7, 1), 1.5))
        assert law.support_radius() == 0.0

    def test_gaussian_moments(self):
        law = InitialLaw("gaussian", [2.0], [0.5])
        gen = np.random.default_rng(1)
        x = law.sampler()(gen, 40000)[:, 0]
        assert abs(x.mean() - 2.0) < 0.02
        assert abs(x.std() - 0.5) < 0.02
        assert law.support_radius() == 2.0

    def test_uniform_range(self):
        law = InitialLaw("uniform", [0.0], [1.0])
        gen = np.random.default_rng(2)
        x = law.sampler()(gen, 1000)[:, 0]
        assert x.min() >= -1.0 and x.max() <= 1.0


class TestMeasureStats:
    def test_from_cloud(self):
        cloud = np.array([[0.0], [2.0], [4.0]])
        s = MeasureStats.from_cloud(cloud)
        assert np.allclose(s.mean, [2.0])
        assert np.allclose(s.var, np.var(cloud[:, 0]))

    def test_point(self):
        s = MeasureStats.point(np.array([3.0]))
        assert np.allclose(s.mean, [3.0])
        assert np.allclose(s.var, [0.0])

    @pytest.mark.parametrize("shape", [(1, 1), (5, 1), (1000, 1), (1024, 3), (4097, 2)])
    def test_from_cloud_has_the_bits_of_np_mean_and_var(self, shape):
        cloud = 3.0 * np.random.default_rng(shape[0]).normal(size=shape) + 1.0
        s = MeasureStats.from_cloud(cloud)
        assert s.mean.shape == s.var.shape == (shape[1],)
        assert np.array_equal(s.mean, cloud.mean(axis=0))
        assert np.array_equal(s.var, cloud.var(axis=0))

    def test_batch_axis_matches_each_cloud(self):
        clouds = np.random.default_rng(4).normal(size=(3, 257, 2))
        s = MeasureStats.from_cloud(clouds)
        assert s.mean.shape == s.var.shape == (3, 1, 2)
        for r in range(3):
            one = MeasureStats.from_cloud(clouds[r])
            assert np.array_equal(s.mean[r, 0], one.mean)
            assert np.array_equal(s.var[r, 0], one.var)

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError):
            MeasureStats.from_cloud(np.zeros(4))
        with pytest.raises(ValueError):
            MeasureStats.from_cloud(np.zeros((2, 3, 4, 1)))


class TestCoefficientsBroadcastOverBatches:
    """Catalog coefficients read mean[..., 0], so one call serves a batch of
    clouds with the same values as one call per cloud."""

    def _clouds(self):
        return np.random.default_rng(9).normal(0.3, 1.0, size=(3, 40, 1)) * np.array([1.0, -1.0, 0.5])[:, None, None]

    def _per_cloud(self, f, clouds):
        return np.stack([f(c, MeasureStats.from_cloud(c)) for c in clouds])

    @pytest.mark.parametrize("factory", [sign_drift, monotone_lq])
    def test_terminal_rewards(self, factory):
        game = factory()
        clouds = self._clouds()
        batched = game.terminal(clouds, MeasureStats.from_cloud(clouds))
        assert np.array_equal(batched, self._per_cloud(game.terminal, clouds))

    @pytest.mark.parametrize("profile", ["linear", "sign", "sqrt", "zero"])
    def test_mean_drift(self, profile):
        game = mean_drift(profile=profile)
        clouds = self._clouds()
        a = np.zeros(clouds.shape)
        batched = game.drift(0.5, clouds, MeasureStats.from_cloud(clouds), a)
        assert batched.shape == clouds.shape
        expect = self._per_cloud(lambda c, m: game.drift(0.5, c, m, np.zeros(c.shape)), clouds)
        assert np.array_equal(batched, expect)

    def test_sign_of_mean_feedback(self):
        from mfglab.controls import sign_of_mean
        from mfglab.grids import TimeGrid

        fb = sign_of_mean(TimeGrid(1.0, 10))
        clouds = self._clouds()
        batched = fb.actions(5, 0.5, clouds, MeasureStats.from_cloud(clouds))
        assert batched.shape == clouds.shape
        assert np.array_equal(batched, self._per_cloud(lambda c, m: fb.actions(5, 0.5, c, m), clouds))
        assert set(np.unique(batched[:, 0, 0])) == {-1.0, 1.0}
