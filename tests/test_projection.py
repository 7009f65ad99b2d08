import dataclasses

import numpy as np
import pytest

from mfglab.grids import TimeGrid
from mfglab.projection import (
    DriftTable,
    mimic_and_compare,
    path_autocovariance,
    project_drift,
)
from mfglab.rng import derive_seed, sample_brownian
from mfglab.sim import integrate_paths


def _coin_paths(n, tg, seed):
    """Unit-rate paths whose drift is a fair +-1 coin attached to the particle."""
    rng = np.random.default_rng(derive_seed(seed, "coin"))
    gamma = rng.choice([-1.0, 1.0], size=n)
    drift = np.broadcast_to(gamma[:, None, None], (n, tg.n_steps, 1)).copy()
    bundle = sample_brownian(derive_seed(seed, "coin-w"), n, tg, 1)
    return integrate_paths(drift, bundle, np.zeros((n, 1)))


def _posterior_mean_oracle(x, t):
    """Bayes posterior mean of the coin given the state, from the two Gaussian
    likelihoods directly."""
    up = np.exp(-((x - t) ** 2) / (2 * t))
    dn = np.exp(-((x + t) ** 2) / (2 * t))
    return (up - dn) / (up + dn)


class TestProjectDrift:
    def test_slice_means_match_a_particle_major_sum(self):
        # the drifts are time-major, so the slice means sum over a contiguous
        # axis, pairwise; a particle-major sum may differ in the last bits only
        tg = TimeGrid(1.0, 30)
        n = 5000
        drift = np.random.default_rng(derive_seed(1, "random-drift")).normal(size=(n, tg.n_steps, 1))
        ens = integrate_paths(drift, sample_brownian(derive_seed(1, "w"), n, tg, 1), np.zeros((n, 1)))
        table = project_drift(ens, bins=25, min_count=150)
        oracle = np.ascontiguousarray(ens.drifts).mean(axis=0)
        assert np.array_equal(np.ascontiguousarray(ens.drifts), drift)
        assert np.abs(table.slice_means - oracle).max() <= 1e-12
        assert table.fallback.any()
        assert np.abs(table.values[table.fallback] - np.broadcast_to(oracle[:, None], table.values.shape)[table.fallback]).max() <= 1e-12

    def test_constant_drift_recovered(self):
        tg = TimeGrid(1.0, 40)
        n = 2000
        drift = np.full((n, tg.n_steps, 1), 0.7)
        bundle = sample_brownian(derive_seed(0, "const"), n, tg, 1)
        ens = integrate_paths(drift, bundle, np.zeros((n, 1)))
        table = project_drift(ens, bins=20)
        assert np.allclose(table.values, 0.7, atol=1e-12)
        assert table.counts.sum() == n * tg.n_steps

    def test_coin_drift_estimates_posterior_mean(self):
        # closed form cross-checked against the likelihood-ratio computation
        xs = np.linspace(-3.0, 3.0, 61)
        assert np.allclose(_posterior_mean_oracle(xs, 0.5), np.tanh(xs), atol=1e-12)

        tg = TimeGrid(1.0, 100)
        ens = _coin_paths(40000, tg, seed=1)
        table = project_drift(ens, bins=40)
        j = tg.n_steps // 2  # t = 0.5
        centers = 0.5 * (table.edges[:-1] + table.edges[1:])
        mask = table.counts[j] >= 100
        assert mask.sum() >= 10
        err = np.abs(table.values[j, mask, 0] - np.tanh(centers[mask]))
        assert err.max() <= 0.15

    def test_state_dependent_drift_projects_to_itself(self):
        # drift already a function of the current state: the bin average can
        # differ from the value at the bin center by at most a bin half-width
        tg = TimeGrid(1.0, 50)
        n = 5000
        bundle = sample_brownian(derive_seed(2, "clip"), n, tg, 1)
        ens = integrate_paths(lambda j, x: np.clip(x, -1.0, 1.0), bundle, np.zeros((n, 1)))
        table = project_drift(ens, bins=30)
        centers = 0.5 * (table.edges[:-1] + table.edges[1:])
        half = 0.5 * np.diff(table.edges).max()
        populated = (table.counts >= 30) & ~table.fallback
        for j in range(tg.n_steps):
            b = populated[j]
            err = np.abs(table.values[j, b, 0] - np.clip(centers[b], -1.0, 1.0))
            assert err.size == 0 or err.max() <= half + 1e-12

    def test_slice_totals_conserved_outside_fallback(self):
        tg = TimeGrid(1.0, 30)
        ens = _coin_paths(3000, tg, seed=3)
        table = project_drift(ens, bins=25)
        for j in (0, 10, 29):
            keep = ~table.fallback[j]
            binned_total = float((table.values[j, :, 0] * table.counts[j])[keep].sum())
            idx = table.bin_of(ens.states[:, j, 0])
            direct_total = float(ens.drifts[np.isin(idx, np.flatnonzero(keep)), j, 0].sum())
            assert binned_total == pytest.approx(direct_total, abs=1e-9)

    def test_values_bounded_by_drift_samples(self):
        tg = TimeGrid(1.0, 40)
        ens = _coin_paths(500, tg, seed=4)
        table = project_drift(ens, bins=40)
        assert np.abs(table.values).max() <= 1.0 + 1e-12

    def test_sparse_bins_fall_back_to_slice_mean(self):
        tg = TimeGrid(1.0, 40)
        ens = _coin_paths(200, tg, seed=5)
        table = project_drift(ens, bins=40, min_count=30)
        assert table.fallback.any()
        j, b = np.argwhere(table.fallback)[0]
        assert table.values[j, b, 0] == table.slice_means[j, 0]

    def test_min_count_zero_disables_fallback_on_populated_bins(self):
        tg = TimeGrid(1.0, 20)
        ens = _coin_paths(400, tg, seed=6)
        table = project_drift(ens, bins=10, min_count=0)
        assert not table.fallback.any()

    def test_bad_bin_specs_rejected(self):
        tg = TimeGrid(1.0, 20)
        ens = _coin_paths(100, tg, seed=7)
        with pytest.raises(ValueError):
            project_drift(ens, bins=np.array([0.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            project_drift(ens, bins=np.array([0.5]))
        with pytest.raises(ValueError):
            project_drift(ens, bins=np.array([-0.1, 0.0, 0.1]))  # narrower than the data

    def test_missing_or_misshapen_drift_samples_rejected(self):
        tg = TimeGrid(1.0, 20)
        ens = _coin_paths(100, tg, seed=8)
        bare = dataclasses.replace(ens, drifts=None)
        with pytest.raises(ValueError):
            project_drift(bare)
        with pytest.raises(ValueError):
            project_drift(bare, drifts=np.zeros((100, 7, 1)))

    def test_multidimensional_states_rejected(self):
        tg = TimeGrid(1.0, 10)
        n = 50
        bundle = sample_brownian(derive_seed(9, "2d"), n, tg, 2)
        ens = integrate_paths(np.zeros((n, tg.n_steps, 2)), bundle, np.zeros((n, 2)))
        with pytest.raises(ValueError):
            project_drift(ens)


class TestMimic:
    def test_marginals_match_for_coin_drift(self):
        tg = TimeGrid(1.0, 100)
        n = 20000
        ens = _coin_paths(n, tg, seed=10)
        table = project_drift(ens, bins=40)
        fresh = sample_brownian(derive_seed(10, "mimic-w"), n, tg, 1)
        dist = mimic_and_compare(table, np.zeros((n, 1)), fresh)
        assert dist.shape == (tg.n_steps + 1,)
        assert dist[0] == 0.0
        assert dist.max() <= 0.05

    def test_zero_drift_reproduces_brownian_cloud(self):
        tg = TimeGrid(1.0, 50)
        n = 20000
        bundle = sample_brownian(derive_seed(11, "zero"), n, tg, 1)
        ens = integrate_paths(np.zeros((n, tg.n_steps, 1)), bundle, np.zeros((n, 1)))
        table = project_drift(ens, bins=30)
        assert np.array_equal(table.values, np.zeros_like(table.values))
        fresh = sample_brownian(derive_seed(11, "zero-w"), n, tg, 1)
        dist = mimic_and_compare(table, np.zeros((n, 1)), fresh)
        assert dist.max() <= 0.05


class TestPathAutocovariance:
    def test_matches_covariance_oracle(self):
        states = np.random.default_rng(0).normal(size=(300, 5, 1))
        got = path_autocovariance(states, 1, 4)
        want = np.cov(states[:, 1, 0], states[:, 4, 0], bias=True)[0, 1]
        assert got == pytest.approx(want, abs=1e-12)

    def test_mimic_forgets_the_coin(self):
        # marginals agree but joint laws do not: the mimicking process loses
        # the persistent per-particle drift, lowering Cov(X_s, X_T). Shared
        # noise between the two integrations cancels the common Brownian part
        # of the estimate without biasing the expected gap.
        tg = TimeGrid(1.0, 200)
        n = 20000
        ens = _coin_paths(n, tg, seed=12)
        table = project_drift(ens, bins=40)
        mim = integrate_paths(lambda j, y: table.drift_at(j, y), ens.bundle, np.zeros((n, 1)))
        j1, j2 = 100, 200  # s = 0.5, t = 1.0
        c_src = path_autocovariance(ens.states, j1, j2)
        c_mim = path_autocovariance(mim.states, j1, j2)
        # source covariance has closed form s*t*Var(coin) + min(s, t) = 1.0
        assert c_src == pytest.approx(1.0, abs=0.1)
        assert c_src - c_mim > 0.005
