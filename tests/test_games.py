import copy
import dataclasses
import pickle
import warnings

import numpy as np
import pytest

from mfglab import games
from mfglab.games import (
    GAME_CATALOG,
    GameSpec,
    InitialLaw,
    MeasureStats,
    action_square,
    make_game,
    mean_drift,
    mean_drift_ode_rhs,
    monotone_lq,
    sign_drift,
)


# Each catalog factory at its default arguments and at one other set, as
# built before the four unit-control games shared one constructor: every
# non-callable field, and the callables on the probe below, flattened.
PINNED = [
    ("sign_drift", {}, dict(dims=(1, 1), action_box=([-1.0], [1.0]), horizon=1.0, initial=("point", [0.0], [0.0]),
        bounds=(1.0, 0.0, 14.0), state_box=([-7.0], [7.0]), flags=(True, True), params={"horizon": 1.0},
        drift=[-1.0, 0.25, 0.6], running=[0.0, 0.0, 0.0], terminal=[-0.27999999999999997, 0.08000000000000002, 0.52],
        split=([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]))),
    ("sign_drift", {"horizon": 2.5}, dict(dims=(1, 1), action_box=([-1.0], [1.0]), horizon=2.5,
        initial=("point", [0.0], [0.0]), bounds=(1.0, 0.0, 41.95391543176798),
        state_box=([-11.986832980505138], [11.986832980505138]), flags=(True, True), params={"horizon": 2.5},
        drift=[-1.0, 0.25, 0.6], running=[0.0, 0.0, 0.0], terminal=[-0.27999999999999997, 0.08000000000000002, 0.52],
        split=([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]))),
    ("monotone_lq", {}, dict(dims=(1, 1), action_box=([-1.0], [1.0]), horizon=1.0, initial=("point", [0.0], [0.0]),
        bounds=(1.0, 0.5, 14.0), state_box=([-7.0], [7.0]), flags=(True, True),
        params={"horizon": 1.0, "action_cost": 0.5}, drift=[-1.0, 0.25, 0.6], running=[-0.5, -0.03125, -0.18],
        terminal=[0.27999999999999997, -0.08000000000000002, -0.52], split=([0.0, 0.0, 0.0], [-0.5, -0.03125, -0.18]))),
    ("monotone_lq", {"horizon": 0.75, "action_cost": 1.3}, dict(dims=(1, 1), action_box=([-1.0], [1.0]), horizon=0.75,
        initial=("point", [0.0], [0.0]), bounds=(1.0, 1.3, 10.405766739736606),
        state_box=([-5.946152422706632], [5.946152422706632]), flags=(True, True),
        params={"horizon": 0.75, "action_cost": 1.3}, drift=[-1.0, 0.25, 0.6],
        running=[-1.3, -0.08125, -0.46799999999999997], terminal=[0.27999999999999997, -0.08000000000000002, -0.52],
        split=([0.0, 0.0, 0.0], [-1.3, -0.08125, -0.46799999999999997]))),
    ("mean_drift", {}, dict(dims=(1, 1), action_box=([0.0], [0.0]), horizon=1.0, initial=("point", [1.0], [0.0]),
        bounds=(8.0, 0.0, 0.0), state_box=([-13.0], [15.0]), flags=(False, True),
        params={"profile": "linear", "scale": 1.0, "x0": 1.0, "horizon": 1.0}, drift=[-0.4, -0.4, -0.4],
        running=[0.0, 0.0, 0.0], terminal=[0.0, 0.0, 0.0], split=None)),
    ("mean_drift", {"profile": "sqrt", "scale": -0.7, "x0": 0.5, "horizon": 2.0}, dict(dims=(1, 1),
        action_box=([0.0], [0.0]), horizon=2.0, initial=("point", [0.5], [0.0]),
        bounds=(np.float64(1.9798989873223332), 0.0, 0.0), state_box=([-11.945079348883237], [12.945079348883237]),
        flags=(False, True), params={"profile": "sqrt", "scale": -0.7, "x0": 0.5, "horizon": 2.0},
        drift=[-0.4427188724235731, -0.4427188724235731, -0.4427188724235731], running=[0.0, 0.0, 0.0],
        terminal=[0.0, 0.0, 0.0], split=None)),
    ("driftless", {}, dict(dims=(1, 1), action_box=([0.0], [0.0]), horizon=1.0, initial=("point", [0.0], [0.0]),
        bounds=(1e-12, 0.0, 0.0), state_box=([-6.0], [6.0]), flags=(False, True), params={"horizon": 1.0, "x0": 0.0},
        drift=[0.0, 0.0, 0.0], running=[0.0, 0.0, 0.0], terminal=[0.0, 0.0, 0.0], split=None)),
    ("driftless", {"horizon": 0.6, "x0": -1.5}, dict(dims=(1, 1), action_box=([0.0], [0.0]), horizon=0.6,
        initial=("point", [-1.5], [0.0]), bounds=(1e-12, 0.0, 0.0),
        state_box=([-6.1475800154489], [3.1475800154489004]), flags=(False, True),
        params={"horizon": 0.6, "x0": -1.5}, drift=[0.0, 0.0, 0.0], running=[0.0, 0.0, 0.0], terminal=[0.0, 0.0, 0.0],
        split=None)),
    ("tracking_lq", {}, dict(dims=(1, 1), action_box=([-1.0], [1.0]), horizon=1.0, initial=("point", [0.0], [0.0]),
        bounds=(1.0, 0.0, 64.0), state_box=([-7.0], [7.0]), flags=(True, True),
        params={"horizon": 1.0, "target": 1.0, "action_cost": 0.0}, drift=[-1.0, 0.25, 0.6],
        running=[-0.0, -0.0, -0.0], terminal=[-2.8899999999999997, -0.6400000000000001, -0.09000000000000002],
        split=None)),
    ("tracking_lq", {"horizon": 1.7, "target": -0.4, "action_cost": 0.8}, dict(dims=(1, 1),
        action_box=([-1.0], [1.0]), horizon=1.7, initial=("point", [0.0], [0.0]),
        bounds=(1.0, 0.8, 98.46678012222137), state_box=([-9.523042886243179], [9.523042886243179]),
        flags=(True, True), params={"horizon": 1.7, "target": -0.4, "action_cost": 0.8}, drift=[-1.0, 0.25, 0.6],
        running=[-0.8, -0.05, -0.288], terminal=[-0.08999999999999996, -0.3600000000000001, -2.8900000000000006],
        split=None)),
    ("action_square", {}, dict(dims=(1, 1), action_box=([-1.0], [1.0]), horizon=1.0, initial=("point", [0.0], [0.0]),
        bounds=(1.0, 1.0, 0.0), state_box=([-7.0], [7.0]), flags=(True, True),
        params={"horizon": 1.0, "reward_sign": 1.0}, drift=[-1.0, 0.25, 0.6], running=[1.0, 0.0625, 0.36],
        terminal=[0.0, 0.0, 0.0], split=None)),
    ("action_square", {"horizon": 0.9, "reward_sign": -1.0}, dict(dims=(1, 1), action_box=([-1.0], [1.0]),
        horizon=0.9, initial=("point", [0.0], [0.0]), bounds=(1.0, 1.0, 0.0),
        state_box=([-6.5920997883030825], [6.5920997883030825]), flags=(True, True),
        params={"horizon": 0.9, "reward_sign": -1.0}, drift=[-1.0, 0.25, 0.6], running=[-1.0, -0.0625, -0.36],
        terminal=[0.0, 0.0, 0.0], split=None)),
]


def _pinned_view(g):
    def flat(v):
        return [float(u) for u in np.ravel(v)]

    t, x, a = 0.3, np.array([[-0.7], [0.2], [1.3]]), np.array([[-1.0], [0.25], [0.6]])
    m = MeasureStats(mean=np.array([0.4]))
    split = None
    if g.running_split is not None:
        f1, f2 = g.running_split
        split = (flat(f1(t, x, m)), flat(f2(t, x, a)))
    return dict(
        dims=(g.dim, g.action_dim), action_box=(flat(g.action_lo), flat(g.action_hi)), horizon=g.horizon,
        initial=(g.initial.kind, flat(g.initial.loc), flat(g.initial.scale)),
        bounds=(g.drift_bound, g.running_bound, g.terminal_bound), state_box=(flat(g.state_lo), flat(g.state_hi)),
        flags=(g.drift_affine_in_action, g.coefficients_batch_time), params=g.params,
        drift=flat(g.drift(t, x, m, a)), running=flat(g.running(t, x, m, a)), terminal=flat(g.terminal(x, m)),
        split=split,
    )


class TestPinnedCatalog:
    @pytest.mark.parametrize("name,kwargs,want", PINNED, ids=[f"{n}-{'other' if kw else 'default'}" for n, kw, _ in PINNED])
    def test_fields_and_callables_keep_their_bits(self, name, kwargs, want):
        game = GAME_CATALOG[name](**kwargs)
        assert game.name == name
        # repr tells -0.0 from 0.0 and a float from an int, and round-trips
        # every double, so equal reprs are equal bits
        assert repr(_pinned_view(game)) == repr(want)


class TestGameSpecChecks:
    def _spec(self, **changes):
        return dataclasses.replace(sign_drift(), **changes)

    def test_dimensions_are_read_from_the_initial_law_and_action_box(self):
        assert not {"dim", "action_dim"} & {f.name for f in dataclasses.fields(GameSpec)}
        game = self._spec(initial=InitialLaw("point", [0.0, 1.0], [0.0, 0.0]), state_lo=[-1.0, -2.0],
                          state_hi=[1.0, 2.0], action_lo=[-1.0, 0.0, 0.0], action_hi=[1.0, 1.0, 2.0])
        assert (game.dim, game.action_dim) == (2, 3)

    def test_state_box_must_match_the_initial_law(self):
        with pytest.raises(ValueError, match=r"state_lo must have the initial law's shape \(1,\), got \(2,\)"):
            self._spec(state_lo=[-1.0, -1.0])
        with pytest.raises(ValueError, match=r"state_hi must have the initial law's shape \(2,\), got \(1,\)"):
            self._spec(initial=InitialLaw("point", [0.0, 0.0], [0.0, 0.0]), state_lo=[-1.0, -1.0])

    def test_action_bounds_must_share_one_shape(self):
        with pytest.raises(ValueError, match=r"action_lo and action_hi must be vectors of one shape, got \(1,\) and \(2,\)"):
            self._spec(action_hi=[1.0, 1.0])
        with pytest.raises(ValueError, match=r"got \(1, 2\) and \(1, 2\)"):
            self._spec(action_lo=[[-1.0, -1.0]], action_hi=[[1.0, 1.0]])

    BAD_HORIZONS = [0.0, -1.0, float("nan"), float("inf")]

    @pytest.mark.parametrize("horizon", BAD_HORIZONS)
    @pytest.mark.parametrize("name", sorted(GAME_CATALOG))
    def test_catalog_refuses_a_bad_horizon_before_using_it(self, name, horizon):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from arithmetic on it first
            with pytest.raises(ValueError, match=r"^horizon must be positive and finite, got "):
                GAME_CATALOG[name](horizon=horizon)

    @pytest.mark.parametrize("horizon", BAD_HORIZONS)
    def test_spec_refuses_a_bad_horizon(self, horizon):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^horizon must be positive and finite, got "):
                self._spec(horizon=horizon)


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

    def test_point(self):
        s = MeasureStats.point(np.array([3.0]))
        assert np.allclose(s.mean, [3.0])

    @pytest.mark.parametrize("shape", [(1, 1), (5, 1), (1000, 1), (1024, 3), (4097, 2)])
    def test_from_cloud_has_the_bits_of_np_mean(self, shape):
        cloud = 3.0 * np.random.default_rng(shape[0]).normal(size=shape) + 1.0
        s = MeasureStats.from_cloud(cloud)
        assert s.mean.shape == (shape[1],)
        assert np.array_equal(s.mean, cloud.mean(axis=0))

    def test_batch_axis_matches_each_cloud(self):
        clouds = np.random.default_rng(4).normal(size=(3, 257, 2))
        s = MeasureStats.from_cloud(clouds)
        assert s.mean.shape == (3, 1, 2)
        for r in range(3):
            one = MeasureStats.from_cloud(clouds[r])
            assert np.array_equal(s.mean[r, 0], one.mean)

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError):
            MeasureStats.from_cloud(np.zeros(4))
        with pytest.raises(ValueError):
            MeasureStats.from_cloud(np.zeros((2, 3, 4, 1)))

    def test_given_values_are_kept_and_stats_are_immutable(self):
        mean = np.array([0.4])
        s = MeasureStats(mean=mean)
        assert s.mean is mean
        for name in ("mean", "var"):
            with pytest.raises(AttributeError):
                setattr(s, name, np.zeros(1))
        assert repr(s) == "MeasureStats(mean=array([0.4]))"

    def test_copies_and_pickles_keep_the_values(self):
        s = MeasureStats.from_cloud(np.random.default_rng(2).normal(size=(3, 50, 2)))
        for twin in (copy.deepcopy(s), copy.copy(s), pickle.loads(pickle.dumps(s))):
            assert np.array_equal(twin.mean, s.mean)


class TestMeanDriftClip:
    """The profiles clip the mean with np.minimum and np.maximum instead of
    np.clip: the same bits, NaN, infinities and signed zeros included."""

    M = np.array([np.nan, -np.nan, np.inf, -np.inf, 8.0, -8.0, np.nextafter(8.0, 9.0), -9.5, 1e300,
                  0.0, -0.0, 2.5, -7.999, 5e-324])

    @staticmethod
    def _bits(a):
        return np.asarray(a, dtype=float).view(np.int64)

    def test_clip_has_the_bits_of_np_clip(self):
        assert np.array_equal(self._bits(games._clip8(self.M)), self._bits(np.clip(self.M, -8.0, 8.0)))
        batched = self.M.reshape(2, 7, 1)
        assert np.array_equal(self._bits(games._clip8(batched)), self._bits(np.clip(batched, -8.0, 8.0)))

    @pytest.mark.parametrize("profile,old", [
        ("linear", lambda m, s: -np.clip(m, -8.0, 8.0) * s),
        ("sqrt", lambda m, s: np.sign(m) * np.sqrt(np.abs(np.clip(m, -8.0, 8.0))) * s),
    ])
    def test_profiles_keep_their_bits(self, profile, old):
        B, _ = games._MEAN_DRIFT_PROFILES[profile]
        with np.errstate(invalid="ignore"):
            for scale in (1.0, -2.5):
                assert np.array_equal(self._bits(B(self.M, scale)), self._bits(old(self.M, scale)))


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
