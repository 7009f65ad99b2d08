import numpy as np
import pytest

from mfglab.grids import TimeGrid
from mfglab.measures import (
    DeterministicFlow,
    EmpiricalFlow,
    _merged_quantiles,
    _quantile_ladder,
    flow_distance,
    sliced_directions,
    sliced_wasserstein1,
    sorted_distance,
    sorted_slices,
    wasserstein1_1d,
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


class TestSliced:
    def test_matches_exact_in_1d(self):
        gen = np.random.default_rng(4)
        a, b = gen.normal(size=(50, 1)), gen.normal(1.0, size=(50, 1))
        sw = sliced_wasserstein1(a, b)
        assert isinstance(sw, float)
        assert np.isclose(sw, wasserstein1_1d(a[:, 0], b[:, 0]))

    def test_translation_invariance_2d(self):
        gen = np.random.default_rng(8)
        a, b = gen.normal(size=(60, 2)), gen.normal(size=(60, 2))
        v = np.array([1.5, -0.5])
        s1 = sliced_wasserstein1(a, b)
        s2 = sliced_wasserstein1(a + v, b + v)
        assert np.isclose(s1, s2)
        assert sliced_wasserstein1(a, a) == 0.0


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
        assert np.allclose([s.mean[0] for s in stats], np.linspace(0.0, 1.0, 11))

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

    def test_flows_are_always_stored_time_major(self):
        tg = TimeGrid(1.0, 10)
        particle_major = np.random.default_rng(1).normal(size=(7, 11, 2))
        view = np.swapaxes(particle_major, 0, 1)  # (M+1, n, d) shape, strided memory
        flow = EmpiricalFlow(tg, view)
        assert flow.samples.flags.c_contiguous
        assert np.array_equal(flow.samples, view)
        contiguous = np.ascontiguousarray(view)
        assert EmpiricalFlow(tg, contiguous).samples is contiguous

    def test_deterministic_flow_stats(self):
        tg = TimeGrid(2.0, 8)
        mean = np.linspace(0.0, 2.0, 9)[:, None]
        flow = DeterministicFlow(tg, mean)
        stats = flow.stats_path()
        assert np.allclose([s.mean[0] for s in stats], mean[:, 0])


# the distances as they stood: the merged-quantile ladder rebuilt on every
# call, and flow_distance sorting both flows on every call
def _old_merged_quantiles(a, b):
    sa, sb = np.sort(a), np.sort(b)
    cuts = np.union1d(np.arange(1, sa.size) / sa.size, np.arange(1, sb.size) / sb.size)
    edges = np.concatenate([[0.0], cuts, [1.0]])
    mid = 0.5 * (edges[:-1] + edges[1:])
    ia = np.minimum((mid * sa.size).astype(np.intp), sa.size - 1)
    ib = np.minimum((mid * sb.size).astype(np.intp), sb.size - 1)
    return sa[ia], sb[ib], np.diff(edges)


def _old_w1(a, b):
    a, b = np.asarray(a, dtype=float).ravel(), np.asarray(b, dtype=float).ravel()
    if a.size == b.size:
        return float(np.mean(np.abs(np.sort(a) - np.sort(b))))
    qa, qb, w = _old_merged_quantiles(a, b)
    return float(np.sum(w * np.abs(qa - qb)))


def _old_flow_distance(fa, fb):
    if fa.n_particles == fb.n_particles:
        per_slice = np.abs(np.sort(fa.samples[:, :, 0], axis=1) - np.sort(fb.samples[:, :, 0], axis=1))
        return float(per_slice.mean(axis=1).max())
    return float(np.max([_old_w1(fa.cloud(j), fb.cloud(j)) for j in range(fa.grid.n_steps + 1)]))


def _spread_flow(n, seed, scale=1.0, steps=30):
    tg = TimeGrid(1.0, steps)
    gen = np.random.default_rng(seed)
    return EmpiricalFlow(tg, scale * gen.standard_normal((steps + 1, n, 1)) + gen.uniform(-1, 1, size=(steps + 1, 1, 1)))


class TestQuantileLadder:
    SIZES = [(1, 2), (2, 1), (3, 5), (7, 7), (100, 37), (64, 4096), (1024, 8192), (8192, 1024)]

    @pytest.mark.parametrize("na,nb", SIZES)
    def test_ladder_keeps_the_per_call_bits(self, na, nb):
        gen = np.random.default_rng(na * 7919 + nb)
        for _ in range(3):
            a, b = gen.normal(size=na), gen.standard_cauchy(size=nb)
            for new, old in zip(_merged_quantiles(a, b), _old_merged_quantiles(a, b)):
                assert np.array_equal(new, old)
            assert wasserstein1_1d(a, b) == _old_w1(a, b)

    def test_ladder_is_built_once_and_shared_read_only(self):
        _quantile_ladder.cache_clear()
        gen = np.random.default_rng(3)
        for _ in range(5):
            wasserstein1_1d(gen.normal(size=33), gen.normal(size=50))
        info = _quantile_ladder.cache_info()
        assert (info.misses, info.hits) == (1, 4)
        for part in _quantile_ladder(33, 50):
            assert not part.flags.writeable

    def test_sliced_distance_keeps_the_per_call_bits(self):
        gen = np.random.default_rng(5)
        a, b = gen.normal(size=(40, 2)), gen.normal(0.5, 1.0, size=(1000, 2))
        dirs = sliced_directions(2)
        assert dirs.shape == (32, 2)
        expect = float(np.mean([_old_w1(a @ u, b @ u) for u in dirs]))
        assert sliced_wasserstein1(a, b) == expect


class TestSortedSlices:
    def test_sorted_distance_keeps_flow_distance_bits(self):
        fa, fb = _spread_flow(301, 1), _spread_flow(301, 2, scale=1.7)
        expect = _old_flow_distance(fa, fb)
        assert flow_distance(fa, fb) == expect
        sa, sb = sorted_slices(fa), sorted_slices(fb)
        assert np.array_equal(sa, np.sort(fa.samples[:, :, 0], axis=1))
        keep = sa.copy()
        # symmetric bit for bit, and only the consumed stack is overwritten
        assert sorted_distance(sb, sa) == expect
        assert np.array_equal(sa, keep)
        assert sorted_distance(sa, sorted_slices(fb)) == expect

    def test_other_paths_keep_flow_distance_bits(self):
        unequal = (_spread_flow(200, 3), _spread_flow(77, 4, scale=0.5))
        equal = (_spread_flow(90, 5), _spread_flow(90, 6, scale=3.0))
        for fa, fb in (unequal, equal):
            assert flow_distance(fa, fb) == _old_flow_distance(fa, fb)

    def test_sorted_slices_need_one_dimensional_flows(self):
        flow = EmpiricalFlow(TimeGrid(1.0, 3), np.zeros((4, 5, 2)))
        with pytest.raises(ValueError, match="one-dimensional"):
            sorted_slices(flow)

    def test_sorted_distance_refuses_unequal_shapes(self):
        with pytest.raises(ValueError, match="share a shape"):
            sorted_distance(np.zeros((3, 4)), np.zeros((3, 5)))

    @pytest.mark.parametrize("n_other", [5, 8])
    def test_flow_distance_refuses_a_two_dimensional_flow(self, n_other):
        tg = TimeGrid(1.0, 3)
        flat, plane = EmpiricalFlow(tg, np.zeros((4, 5, 1))), EmpiricalFlow(tg, np.zeros((4, n_other, 2)))
        for fa, fb in ((flat, plane), (plane, flat), (plane, plane)):
            with pytest.raises(ValueError, match=r"flow_distance needs one-dimensional flows, got dimensions \d and \d") as err:
                flow_distance(fa, fb)
            assert f"{fa.dim} and {fb.dim}" in str(err.value)


class TestNonFiniteSamplesAreRefused:
    """A distance that is not finite is refused; flow distances name the
    first time slice where it is not."""

    # a flow holding an infinity, compared with itself, subtracts it from itself
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n_other", [30, 17])
    def test_flow_distance_names_the_first_bad_slice(self, bad, n_other):
        tg = TimeGrid(1.0, 6)
        gen = np.random.default_rng(3)
        samples = gen.normal(size=(7, 30, 1))
        samples[5, 2, 0] = bad
        samples[3, 11, 0] = bad
        fa, fb = EmpiricalFlow(tg, samples), EmpiricalFlow(tg, gen.normal(size=(7, n_other, 1)))
        for pair in ((fa, fb), (fb, fa), (fa, fa)):
            with pytest.raises(ValueError, match=r"^W1 distance at time slice 3 is (nan|inf): the flows must hold finite samples$"):
                flow_distance(*pair)

    def test_sorted_distance_names_the_first_bad_slice(self):
        stack = np.zeros((4, 5))
        stack[2, 4] = np.inf
        with pytest.raises(ValueError, match=r"time slice 2 is inf"):
            sorted_distance(stack, np.zeros((4, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("other", [[0.0, 1.0, 2.0], [0.0, 1.0]])
    def test_wasserstein1_1d(self, bad, other):
        for a, b in (([0.0, 1.0, bad], other), (other, [0.0, 1.0, bad])):
            with pytest.raises(ValueError, match=r"^W1 distance is (nan|inf): the clouds must hold finite samples$"):
                wasserstein1_1d(a, b)

    def test_finite_flows_keep_their_distance(self):
        tg = TimeGrid(1.0, 4)
        gen = np.random.default_rng(5)
        fa, fb = EmpiricalFlow(tg, gen.normal(size=(5, 40, 1))), EmpiricalFlow(tg, gen.normal(size=(5, 40, 1)))
        per_slice = [np.mean(np.abs(np.sort(fa.cloud(j)[:, 0]) - np.sort(fb.cloud(j)[:, 0]))) for j in range(5)]
        assert flow_distance(fa, fb) == max(per_slice)
