import math

import numpy as np
import pytest

from mfglab.grids import TimeGrid
from mfglab.measures import (
    DeterministicFlow,
    EmpiricalFlow,
    auto_bin_edges,
    flow_distance,
    sliced_wasserstein1,
    tv_binned,
    wasserstein1_1d,
    wasserstein_trunc,
)
from mfglab.rng import sample_brownian
from mfglab.sim import integrate_paths


class TestWasserstein1:
    def test_identical_is_zero(self):
        a = np.array([0.3, -1.2, 4.0])
        assert wasserstein1_1d(a, a.copy()) == 0.0

    def test_point_masses(self):
        assert wasserstein1_1d(np.zeros(5), np.full(5, 3.0)) == 3.0

    def test_translation_shift(self):
        gen = np.random.default_rng(0)
        a = gen.normal(size=100)
        assert np.isclose(wasserstein1_1d(a, a + 0.7), 0.7)

    def test_matches_sorted_coupling_oracle(self):
        gen = np.random.default_rng(1)
        a, b = gen.normal(size=64), gen.normal(0.5, 2.0, size=64)
        oracle = np.abs(np.sort(a) - np.sort(b)).mean()
        assert np.isclose(wasserstein1_1d(a, b), oracle)

    def test_unequal_sizes_near_quantile_integral(self):
        # contract: resample to a common size along sorted quantiles; the
        # result should track the dense inverse-CDF integral
        def dense_oracle(a, b, k=200000):
            u = (np.arange(k) + 0.5) / k
            qa = np.quantile(np.sort(a), u, method="inverted_cdf")
            qb = np.quantile(np.sort(b), u, method="inverted_cdf")
            return float(np.abs(qa - qb).mean())

        gen = np.random.default_rng(42)
        for na, nb in [(2, 1), (5, 3), (100, 37)]:
            a, b = gen.normal(size=na), gen.normal(0.3, 1.2, size=nb)
            assert abs(wasserstein1_1d(a, b) - dense_oracle(a, b)) < 0.02

    def test_same_law_clouds_are_close(self):
        gen = np.random.default_rng(7)
        a, b = gen.normal(size=10000), gen.normal(size=10000)
        assert wasserstein1_1d(a, b) <= 0.05

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            wasserstein1_1d(np.array([]), np.array([1.0]))

    def test_metric_axioms_on_random_triples(self):
        # mixed sizes matter here: each pair integrates over its own merged
        # quantile ladder, and only the exact integral keeps the triangle
        # inequality across three different ladders
        gen = np.random.default_rng(3)
        for _ in range(300):
            na, nb, nc = gen.integers(1, 12, size=3)
            a = gen.normal(scale=3.0, size=na)
            b = gen.normal(scale=3.0, size=nb)
            c = gen.normal(scale=3.0, size=nc)
            dab = wasserstein1_1d(a, b)
            dba = wasserstein1_1d(b, a)
            assert dab == dba
            assert dab >= 0.0
            assert dab <= wasserstein1_1d(a, c) + wasserstein1_1d(c, b) + 1e-12


class TestWassersteinTrunc:
    def test_trivial_values(self):
        assert wasserstein_trunc(np.zeros(4), np.zeros(4)) == 0.0
        assert wasserstein_trunc(np.zeros(4), np.full(4, 3.0)) == 1.0
        assert np.isclose(wasserstein_trunc(np.zeros(4), np.full(4, 0.25)), 0.25)

    def test_dominated_by_plain_w1_and_capped(self):
        gen = np.random.default_rng(5)
        for _ in range(50):
            a, b = gen.normal(size=20), gen.normal(gen.normal(), 2.0, size=20)
            t = wasserstein_trunc(a, b)
            assert t <= 1.0
            assert t <= wasserstein1_1d(a, b) + 1e-12


class TestTvBinned:
    def test_identical_zero_and_disjoint_one(self):
        gen = np.random.default_rng(0)
        a = gen.normal(size=1000)
        assert tv_binned(a, a.copy()) == 0.0
        assert np.isclose(tv_binned(np.zeros(100), np.full(100, 50.0)), 1.0)

    def test_gaussian_shift_oracle(self):
        # TV between N(0,1) and N(1/2,1) has closed form erf(1/(4 sqrt: 0.25/sqrt2))
        true_tv = math.erf(0.25 / math.sqrt(2.0))
        gen = np.random.default_rng(1)
        a = gen.normal(0.0, 1.0, 200000)
        b = gen.normal(0.5, 1.0, 200000)
        assert abs(tv_binned(a, b, bins=100) - true_tv) < 0.01

    def test_permutation_invariance(self):
        gen = np.random.default_rng(2)
        a, b = gen.normal(size=500), gen.normal(1.0, size=500)
        perm = gen.permutation(500)
        assert tv_binned(a, b) == tv_binned(a[perm], b[perm])

    def test_explicit_edges_count_out_of_range_mass(self):
        edges = np.linspace(-1.0, 1.0, 11)
        a = np.zeros(10)
        b = np.full(10, 5.0)  # entirely outside the edges
        assert tv_binned(a, b, bins=edges) == 1.0


class TestAutoBinEdges:
    def test_covers_union_with_padding(self):
        edges = auto_bin_edges(np.array([0.0, 1.0]), np.array([2.0, 3.0]), n_bins=10)
        assert edges[0] < 0.0
        assert edges[-1] > 3.0
        widths = np.diff(edges)
        assert np.allclose(widths, widths[0])


class TestSliced:
    def test_matches_exact_in_1d(self):
        gen = np.random.default_rng(4)
        a, b = gen.normal(size=(50, 1)), gen.normal(1.0, size=(50, 1))
        sw, ndir = sliced_wasserstein1(a, b)
        assert ndir == 32
        assert np.isclose(sw, wasserstein1_1d(a[:, 0], b[:, 0]))

    def test_translation_invariance_2d(self):
        gen = np.random.default_rng(8)
        a, b = gen.normal(size=(60, 2)), gen.normal(size=(60, 2))
        v = np.array([1.5, -0.5])
        s1, _ = sliced_wasserstein1(a, b)
        s2, _ = sliced_wasserstein1(a + v, b + v)
        assert np.isclose(s1, s2)
        assert sliced_wasserstein1(a, a)[0] == 0.0


def _flow_from_constant_drift(c, n=400, seed=0):
    tg = TimeGrid(1.0, 20)
    bundle = sample_brownian(seed, n, tg, 1)
    states = bundle.partial_sums() + c * tg.times[None, :, None]
    return EmpiricalFlow.from_states(tg, states)


class TestFlows:
    def test_mean_and_stats_paths(self):
        tg = TimeGrid(1.0, 10)
        samples = np.tile(np.linspace(0.0, 1.0, 11)[:, None, None], (1, 5, 1))
        flow = EmpiricalFlow(tg, samples)
        assert np.allclose(flow.mean_path()[:, 0], np.linspace(0.0, 1.0, 11))
        stats = flow.stats_path()
        assert np.allclose([s.var[0] for s in stats], 0.0)

    def test_flow_distance_max_over_time(self):
        tg = TimeGrid(1.0, 4)
        base = np.random.default_rng(0).normal(size=(5, 30, 1))
        a = EmpiricalFlow(tg, base.copy())
        shifted = base.copy()
        shifted[-1] += 0.4
        b = EmpiricalFlow(tg, shifted)
        assert np.isclose(flow_distance(a, b), 0.4)
        assert flow_distance(a, a) == 0.0

    def test_constant_drift_flow_distance_is_mean_shift(self):
        # same noise, drift difference c: per-time gap is c*t, max is c*T
        f0 = _flow_from_constant_drift(0.0)
        f1 = _flow_from_constant_drift(0.8)
        assert np.isclose(flow_distance(f0, f1), 0.8)

    def test_requires_shared_grid(self):
        f = _flow_from_constant_drift(0.0)
        g = EmpiricalFlow(TimeGrid(1.0, 10), np.zeros((11, 4, 1)))
        with pytest.raises(ValueError):
            flow_distance(f, g)

    def test_flows_alias_time_major_ensembles(self):
        tg = TimeGrid(1.0, 12)
        ens = integrate_paths(lambda j, x: np.sin(x) + j, sample_brownian(2, 30, tg, 2), np.zeros((30, 2)))
        flow = EmpiricalFlow.from_ensemble(ens)
        assert np.swapaxes(ens.states, 0, 1).flags.c_contiguous
        assert np.shares_memory(flow.samples, ens.states)
        assert np.array_equal(flow.samples, np.swapaxes(ens.states, 0, 1))
        # particle-major paths are copied into time-major memory
        paths = np.ascontiguousarray(ens.states)
        copied = EmpiricalFlow.from_states(tg, paths)
        assert copied.samples.flags.c_contiguous and not np.shares_memory(copied.samples, paths)
        assert np.array_equal(copied.samples, flow.samples)

    def test_deterministic_flow_stats(self):
        tg = TimeGrid(2.0, 8)
        mean = np.linspace(0.0, 2.0, 9)[:, None]
        flow = DeterministicFlow(tg, mean)
        stats = flow.stats_path()
        assert np.allclose([s.mean[0] for s in stats], mean[:, 0])
        # default dispersion follows the driftless diffusion
        assert np.allclose([s.var[0] for s in stats], tg.times)
