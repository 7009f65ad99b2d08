import dataclasses
import re

import numpy as np
import pytest

from mfglab.grids import TimeGrid
from mfglab.measures import wasserstein1_1d
from mfglab.projection import (
    DriftTable,
    _bin_index,
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


def _recorder(drift):
    """A drift callable for integrate_paths, and the list that gets a copy of
    what it returns at each step."""
    steps = []

    def recording(j, x):
        steps.append(np.array(drift(j, x), dtype=float))
        return steps[-1]

    return recording, steps


def _searchsorted_bins(edges, x):
    """The bin rule as np.searchsorted states it, the oracle for _bin_index."""
    return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, edges.size - 2)


def _project_drift_oracle(ensemble, edges):
    """project_drift's per-step loop as it stood, binning with np.searchsorted."""
    n_bins, M = edges.size - 1, ensemble.grid.n_steps
    x, drifts = ensemble.states[:, :M, 0], ensemble.drifts
    values = np.zeros((M, n_bins, 1))
    counts = np.zeros((M, n_bins), dtype=np.intp)
    fallback = np.zeros((M, n_bins), dtype=bool)
    slice_means = drifts.mean(axis=0)
    for j in range(M):
        idx = _searchsorted_bins(edges, x[:, j])
        cnt = np.bincount(idx, minlength=n_bins)
        tot = np.bincount(idx, weights=drifts[:, j, 0], minlength=n_bins)
        counts[j] = cnt
        sparse = cnt < 30
        fallback[j] = sparse
        with np.errstate(invalid="ignore"):
            avg = np.where(cnt > 0, tot / np.maximum(cnt, 1), 0.0)
        values[j, :, 0] = np.where(sparse, slice_means[j, 0], avg)
    return values, counts, fallback, slice_means


def _edge_keys(edges):
    """Every edge, one ulp either side of each, the infinities, NaN, and the
    extreme and signed-zero finite values."""
    tiny, big = np.finfo(float).smallest_subnormal, np.finfo(float).max
    special = [np.inf, -np.inf, np.nan, big, -big, tiny, -tiny, 0.0, -0.0]
    return np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf), special])


def _edge_sets(n_bins, gen):
    """Evenly spaced edges over ranges of several scales and offsets, and
    uneven edges whose widths span three decades, so an even-width guess can
    be many bins off."""
    yield np.linspace(-3.7, 5.2, n_bins + 1)
    yield np.linspace(0.1, 0.3, n_bins + 1)
    yield np.linspace(1e6, 1e6 + 1.0, n_bins + 1)
    yield np.linspace(-2e-9, -1e-9, n_bins + 1)
    yield np.linspace(*np.sort(gen.normal(size=2) * 10.0), n_bins + 1)
    yield np.cumsum(np.concatenate([[-7.3], 10.0 ** gen.uniform(-3.0, 0.0, n_bins)]))
    yield np.geomspace(0.5, 5e3, n_bins + 1)


class TestBinIndex:
    def test_matches_searchsorted_at_and_around_every_edge(self):
        for n_bins in range(1, 61):
            gen = np.random.default_rng(derive_seed(n_bins, "edges"))
            for edges in _edge_sets(n_bins, gen):
                assert np.all(np.diff(edges) > 0)
                span = edges[-1] - edges[0]
                keys = np.concatenate([_edge_keys(edges), gen.uniform(edges[0] - span, edges[-1] + span, 300)])
                got = _bin_index(edges, keys)
                assert got.dtype == np.intp
                assert np.array_equal(got, _searchsorted_bins(edges, keys)), (n_bins, edges)

    def test_the_stated_rule(self):
        edges = np.array([-1.0, 0.0, 0.5, 2.0])
        keys = np.array([-5.0, -1.0, -0.0, 0.0, 0.25, 0.5, 1.999, 2.0, 7.0, -np.inf, np.inf, np.nan])
        assert _bin_index(edges, keys).tolist() == [0, 0, 1, 1, 1, 2, 2, 2, 2, 0, 2, 2]

    def test_keeps_the_key_shape(self):
        edges = np.linspace(0.0, 1.0, 11)
        keys = np.random.default_rng(derive_seed(0, "shape")).uniform(-0.2, 1.2, size=(7, 13))
        keys[3, 4] = np.nan
        assert np.array_equal(_bin_index(edges, keys), _searchsorted_bins(edges, keys))
        assert _bin_index(edges, 0.35) == 3

    def test_uneven_edges_at_sampled_states(self):
        # edges at sampled states, unevenly spaced, so some keys sit exactly
        # on an edge and the even-width guess needs several correction passes
        tg = TimeGrid(1.0, 40)
        ens = _coin_paths(6000, tg, seed=13)
        x = np.sort(ens.states[:, : tg.n_steps, 0], axis=None)
        picks = np.unique((np.linspace(0.0, 1.0, 30) ** 2 * (x.size - 1)).astype(int))
        edges = np.unique(np.concatenate([[x[0]], x[picks], [x[-1]]]))
        keys = np.concatenate([ens.states[:, : tg.n_steps, 0].ravel(), _edge_keys(edges)])
        assert np.array_equal(_bin_index(edges, keys), _searchsorted_bins(edges, keys))


class TestProjectDrift:
    def test_table_matches_the_searchsorted_loop(self):
        tg = TimeGrid(1.0, 40)
        ens = _coin_paths(6000, tg, seed=13)
        table = project_drift(ens, bins=40)
        assert np.array_equal(table.edges, np.linspace(ens.states[:, :-1, 0].min(), ens.states[:, :-1, 0].max(), 41))
        values, counts, fallback, slice_means = _project_drift_oracle(ens, table.edges)
        assert np.array_equal(table.values, values)
        assert np.array_equal(table.counts, counts)
        assert np.array_equal(table.fallback, fallback)
        assert np.array_equal(table.slice_means, slice_means)
        keys = np.concatenate([ens.states[:, 7, 0], _edge_keys(table.edges)])
        assert np.array_equal(table.bin_of(keys), _searchsorted_bins(table.edges, keys))

    def test_slice_means_match_a_particle_major_sum(self):
        # each step's drifts are gathered into a contiguous column and summed
        # pairwise; a sum down the particle axis of the (n, M, 1) table adds
        # the particles in sequence, and may differ in the last bits only
        tg = TimeGrid(1.0, 30)
        n = 5000
        drift = np.random.default_rng(derive_seed(1, "random-drift")).normal(size=(n, tg.n_steps, 1))
        ens = integrate_paths(drift, sample_brownian(derive_seed(1, "w"), n, tg, 1), np.zeros((n, 1)))
        table = project_drift(ens, bins=25)
        oracle = np.ascontiguousarray(ens.drifts).mean(axis=0)
        assert np.array_equal(np.ascontiguousarray(ens.drifts), drift)
        assert np.abs(table.slice_means - oracle).max() <= 1e-12
        assert table.fallback.any()
        assert np.abs(table.values[table.fallback] - np.broadcast_to(oracle[:, None], table.values.shape)[table.fallback]).max() <= 1e-12

    def test_particle_major_and_time_major_drifts_give_the_same_table(self):
        # an array drift's ensemble aliases the particle-major table; the
        # simulators record time-major drifts; project_drift reads both alike
        tg = TimeGrid(1.0, 30)
        n = 5000
        drift = np.random.default_rng(derive_seed(2, "random-drift")).normal(size=(n, tg.n_steps, 1)) ** 3
        ens = integrate_paths(drift, sample_brownian(derive_seed(2, "w"), n, tg, 1), np.zeros((n, 1)))
        assert np.shares_memory(ens.drifts, drift) and ens.drifts.flags.c_contiguous
        time_major = np.swapaxes(np.ascontiguousarray(np.swapaxes(ens.drifts, 0, 1)), 0, 1)
        a = project_drift(ens, bins=25)
        b = project_drift(dataclasses.replace(ens, drifts=time_major), bins=25)
        assert a.fallback.any() and not a.fallback.all()
        for name in ("values", "slice_means", "counts", "fallback"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

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
        # a callable's drifts are not kept; recomputed from the states at the
        # step starts, they step the same paths as the callable did
        drifts = np.clip(ens.states[:, :-1, :], -1.0, 1.0)
        assert np.array_equal(integrate_paths(drifts, bundle, np.zeros((n, 1))).states, ens.states)
        table = project_drift(dataclasses.replace(ens, drifts=drifts), bins=30)
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
        table = project_drift(ens, bins=40)
        assert table.fallback.any()
        j, b = np.argwhere(table.fallback)[0]
        assert table.values[j, b, 0] == table.slice_means[j, 0]

    def test_a_bin_of_30_averages_and_a_bin_of_29_falls_back(self):
        # one step; 29 particles start at 0 with drift 1, 30 start at 1 with
        # drift 3, so bin 0 of edges (0, 0.5, 1) holds 29 and bin 1 holds 30
        tg = TimeGrid(1.0, 1)
        init = np.repeat([0.0, 1.0], [29, 30])[:, None]
        drift = np.repeat([1.0, 3.0], [29, 30]).reshape(59, 1, 1)
        ens = integrate_paths(drift, sample_brownian(derive_seed(7, "hand"), 59, tg, 1), init)
        table = project_drift(ens, bins=2)
        assert table.counts.tolist() == [[29, 30]]
        assert table.fallback.tolist() == [[True, False]]
        assert table.values[0, :, 0].tolist() == [table.slice_means[0, 0], 3.0]
        assert table.slice_means[0, 0] == (29 * 1.0 + 30 * 3.0) / 59

    def test_edge_arrays_are_refused_by_name(self):
        ens = _coin_paths(100, TimeGrid(1.0, 20), seed=7)
        with pytest.raises(ValueError, match=r"^bins must be an int, got array\("):
            project_drift(ens, bins=np.array([-5.0, 0.0, 5.0]))

    @pytest.mark.parametrize("bins,message", [
        (True, "bins must be an int, got True"),
        (2.5, "bins must be an int, got 2.5"),
        (0, "bins must be at least 1, got 0"),
        (-3, "bins must be at least 1, got -3"),
    ])
    def test_bad_bin_counts_are_refused_by_name(self, bins, message):
        ens = _coin_paths(100, TimeGrid(1.0, 20), seed=7)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            project_drift(ens, bins=bins)

    def test_numpy_bin_count_is_accepted(self):
        ens = _coin_paths(100, TimeGrid(1.0, 20), seed=7)
        assert np.array_equal(project_drift(ens, bins=np.int64(8)).values, project_drift(ens, bins=8).values)

    def test_missing_or_misshapen_drift_samples_rejected(self):
        tg = TimeGrid(1.0, 20)
        ens = _coin_paths(100, tg, seed=8)
        bare = dataclasses.replace(ens, drifts=None)
        with pytest.raises(ValueError, match="^ensemble carries no drift samples"):
            project_drift(bare)
        misshapen = dataclasses.replace(ens, drifts=np.zeros((100, 7, 1)))
        with pytest.raises(ValueError, match=r"drift samples must be \(100, 20, 1\), got \(100, 7, 1\)"):
            project_drift(misshapen)

    def test_callable_driven_ensemble_is_refused_by_name(self):
        tg = TimeGrid(1.0, 20)
        bundle = sample_brownian(derive_seed(8, "clip"), 100, tg, 1)
        ens = integrate_paths(lambda j, x: np.clip(x, -1.0, 1.0), bundle, np.zeros((100, 1)))
        assert ens.drifts is None
        message = "ensemble carries no drift samples; project_drift needs integrate_paths with an array drift"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            project_drift(ens)

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

    def test_drift_at_matches_the_searchsorted_lookup(self):
        tg = TimeGrid(1.0, 60)
        n = 8000
        ens = _coin_paths(n, tg, seed=14)
        table = project_drift(ens, bins=40)
        fresh = sample_brownian(derive_seed(14, "mimic-w"), n, tg, 1)
        init = np.zeros((n, 1))
        lookup, looked_up = _recorder(lambda j, y: table.drift_at(j, y))
        searched, oracle_drifts = _recorder(lambda j, y: table.values[j, _searchsorted_bins(table.edges, y[:, 0]), :])
        mim = integrate_paths(lookup, fresh, init)
        oracle = integrate_paths(searched, fresh, init)
        assert np.array_equal(mim.states, oracle.states)
        assert len(looked_up) == tg.n_steps
        assert np.array_equal(np.stack(looked_up, axis=1), np.stack(oracle_drifts, axis=1))
        dist = mimic_and_compare(table, init, fresh)
        want = [wasserstein1_1d(oracle.states[:, j, 0], ens.states[:, j, 0]) for j in range(tg.n_steps + 1)]
        assert np.array_equal(dist, want)

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
