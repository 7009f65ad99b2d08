from pathlib import Path

import numpy as np
import pytest

import mfglab
from mfglab.games import monotone_lq, sign_drift
from mfglab.grids import TimeGrid
from mfglab.measures import sliced_directions
from mfglab.mfe import candidate_flow, check_monotonicity, picard_mfe
from mfglab.rng import _MASK63, BrownianBundle, _PhiloxStreams, derive_seed, initial_cloud, philox, sample_brownian


def _fresh_stream(seed, k):
    return np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))


class TestDeriveSeed:
    def test_deterministic_and_branch_sensitive(self):
        a = derive_seed(7, "picard", 3)
        assert a == derive_seed(7, "picard", 3)
        assert a != derive_seed(7, "picard", 4)
        assert a != derive_seed(8, "picard", 3)
        assert a != derive_seed(7, "other", 3)

    def test_fits_in_63_bits(self):
        for k in range(50):
            s = derive_seed(123456789, "x", k)
            assert 0 <= s < 2**63

    def test_pinned_values(self):
        # seeds of existing int/str call sites; changing any of them moves
        # every report derived from it
        assert derive_seed(0, "sign", 64, 1) == 4209131927993354280
        assert derive_seed(0, "sign-init", 1024, 199) == 6550253016308838899
        assert derive_seed(7, "picard", 3) == 8280536339293756252
        assert derive_seed(3, "x") == 8351595443763876939
        assert derive_seed(5, "baseline", 0, 1) == 2671867500673313391
        assert derive_seed(0, 43, "flow") == 4942455718684398590
        assert derive_seed(2**63 - 1) == 564552578927878096

    def test_numpy_ints_and_strs_give_the_same_seed(self):
        assert derive_seed(0, "sign", np.int64(64), 1) == derive_seed(0, "sign", 64, 1)
        assert derive_seed(np.uint64(7), "picard", np.int32(3)) == derive_seed(7, "picard", 3)
        for r in np.arange(3):
            assert derive_seed(0, "sign", 64, r) == derive_seed(0, "sign", 64, int(r))
        assert derive_seed(3, np.str_("x")) == derive_seed(3, "x")

    @pytest.mark.parametrize("args", [(0, 1.0), (0, "a", 2.5), (0, True), (0, None), (0, (1, 2)), (1.0, "a"), (True,)])
    def test_rejects_other_types(self, args):
        with pytest.raises(TypeError, match="must be"):
            derive_seed(*args)


class TestSampleBrownian:
    def test_shapes_and_scaling(self):
        tg = TimeGrid(1.0, 16)
        b = sample_brownian(11, 40, tg, dim=2)
        assert b.increments.shape == (40, 16, 2)
        ps = b.partial_sums()
        assert ps.shape == (40, 17, 2)
        assert np.all(ps[:, 0, :] == 0.0)
        assert np.allclose(np.diff(ps, axis=1), b.increments)

    def test_bit_determinism(self):
        tg = TimeGrid(1.0, 8)
        b1 = sample_brownian(5, 10, tg)
        b2 = sample_brownian(5, 10, tg)
        assert np.array_equal(b1.increments, b2.increments)

    def test_first_particles_invariant_under_population_growth(self):
        # stream is keyed per particle, so enlarging the population must not
        # disturb the paths already drawn
        tg = TimeGrid(1.0, 8)
        small = sample_brownian(5, 10, tg)
        big = sample_brownian(5, 200, tg)
        assert np.array_equal(big.increments[:10], small.increments)

    def test_moments(self):
        tg = TimeGrid(2.0, 10)
        b = sample_brownian(3, 20000, tg)
        w_t = b.partial_sums()[:, -1, 0]
        assert abs(w_t.mean()) < 0.05
        assert abs(w_t.var() - 2.0) < 0.1

    def test_steps_uncorrelated(self):
        tg = TimeGrid(1.0, 4)
        b = sample_brownian(9, 50000, tg)
        inc = b.increments[:, :, 0]
        corr = np.corrcoef(inc.T)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert np.abs(off_diag).max() < 0.02

    def test_averaged_is_scaled_sum(self):
        tg = TimeGrid(1.0, 6)
        b = sample_brownian(2, 9, tg)
        expect = b.increments.sum(axis=0) / np.sqrt(9)
        assert np.allclose(b.averaged(), expect)

    @pytest.mark.parametrize("seed,n,M,dim", [(0, 1, 1, 1), (5, 17, 9, 1), (2**64 - 1, 4, 30, 3), (123, 64, 200, 2)])
    def test_bits_match_a_fresh_philox_stream_per_particle(self, seed, n, M, dim):
        tg = TimeGrid(2.0, M)
        b = sample_brownian(seed, n, tg, dim)
        for k in range(n):
            expect = _fresh_stream(seed, k).standard_normal((M, dim)) * np.sqrt(tg.dt)
            assert np.array_equal(b.increments[k], expect)

    @pytest.mark.parametrize("k", [0, 2**32 - 1, 2**32, 2**40 + 3, 2**63 - 1, 2**64 - 1])
    def test_rekeyed_stream_matches_a_fresh_one(self, k):
        streams = _PhiloxStreams()
        streams.stream(9, 1).standard_normal(5)  # leave state behind to be reset
        streams.stream(9, 2).integers(0, 2**31, size=3)  # including a half-used 64-bit word
        got = streams.stream(9, k)
        fresh = _fresh_stream(9, k)
        assert np.array_equal(got.standard_normal(33), fresh.standard_normal(33))
        assert np.array_equal(got.integers(0, 10**9, size=7), fresh.integers(0, 10**9, size=7))

    def test_out_receives_the_increments(self):
        # out is time-major, (M, n, dim); the bundle reads it as (n, M, dim)
        tg = TimeGrid(1.0, 12)
        buf = np.zeros((3, 12, 5, 2))
        b = sample_brownian(4, 5, tg, 2, out=buf[1])
        assert np.shares_memory(b.increments, buf[1])
        assert np.array_equal(np.swapaxes(buf[1], 0, 1), sample_brownian(4, 5, tg, 2).increments)
        assert not buf[0].any() and not buf[2].any()

    def test_out_must_fit(self):
        tg = TimeGrid(1.0, 4)
        for bad in (np.zeros((3, 5, 1)), np.zeros((3, 4, 1), dtype=np.float32), np.zeros((3, 8, 1))[:, ::2]):
            with pytest.raises(ValueError, match="out must be"):
                sample_brownian(1, 3, tg, 1, out=bad)

    def test_rejects_bad_args(self):
        tg = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            sample_brownian(1, 0, tg)
        with pytest.raises(ValueError):
            sample_brownian(1, 4, tg, dim=0)


class TestTimeMajorNoise:
    # 256 particles of 256 steps x 2 dims fill one 1 MiB draw block, so these
    # sizes sit on both sides of the first and second block boundaries
    SIZES = [1, 255, 256, 257, 513]

    @pytest.mark.parametrize("n", SIZES)
    def test_each_particle_is_its_own_fresh_stream(self, n):
        tg = TimeGrid(1.0, 256)
        b = sample_brownian(77, n, tg, 2)
        for k in range(n):
            expect = _fresh_stream(77, k).standard_normal((256, 2)) * np.sqrt(tg.dt)
            assert np.array_equal(b.increments[k], expect)

    @pytest.mark.parametrize("n", SIZES)
    def test_growing_the_bundle_by_one_keeps_every_particle(self, n):
        tg = TimeGrid(1.0, 256)
        small, big = sample_brownian(78, n, tg, 2), sample_brownian(78, n + 1, tg, 2)
        assert np.array_equal(big.increments[:n], small.increments)

    def test_increments_view_time_major_memory(self):
        b = sample_brownian(3, 300, TimeGrid(1.0, 40), 2)
        assert b.increments.shape == (300, 40, 2)
        assert np.swapaxes(b.increments, 0, 1).flags.c_contiguous
        assert np.swapaxes(b.partial_sums(), 0, 1).flags.c_contiguous

    def test_out_must_be_a_contiguous_float64_time_major_buffer(self):
        tg = TimeGrid(1.0, 4)
        for bad in (np.zeros((3, 4, 1)), np.zeros((4, 3, 1), dtype=np.float32), np.zeros((4, 6, 1))[:, ::2],
                    np.zeros((3, 4, 1)).transpose(1, 0, 2)):
            with pytest.raises(ValueError, match=r"out must be a C-contiguous float64 \(4, 3, 1\) array"):
                sample_brownian(1, 3, tg, 1, out=bad)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_partial_sums_and_average_keep_their_bits(self, dim):
        # the particle-major reductions the time-major layout replaced; with
        # dim 1 a plain sum over the contiguous particle axis goes pairwise
        # and moves the last bits
        b = sample_brownian(5, 513, TimeGrid(1.0, 30), dim)
        inc = np.ascontiguousarray(b.increments)
        assert np.array_equal(b.partial_sums()[:, 1:], np.cumsum(inc, axis=1))
        assert np.all(b.partial_sums()[:, 0] == 0.0)
        assert np.array_equal(b.averaged(), inc.sum(axis=0) / np.sqrt(513))


class TestInitialCloud:
    def test_deterministic_and_prefix_stable(self):
        sampler = lambda gen, n: gen.normal(size=(n, 1))
        a = initial_cloud(4, 16, sampler)
        b = initial_cloud(4, 64, sampler)
        assert a.shape == (16, 1)
        assert np.array_equal(b[:16], a)

    def test_seed_sensitivity(self):
        sampler = lambda gen, n: gen.normal(size=(n, 1))
        assert not np.array_equal(initial_cloud(4, 16, sampler), initial_cloud(5, 16, sampler))

    def test_uses_the_dedicated_stream(self):
        sampler = lambda gen, n: gen.normal(size=(n, 2))
        assert np.array_equal(initial_cloud(2**64 - 1, 9, sampler), sampler(_fresh_stream(2**64 - 1, _MASK63), 9))


class TestPhiloxStreams:
    @pytest.mark.parametrize("seed,k", [(0, 0), (7, 3), (derive_seed(3, "mix", 1), 0), (2**64 - 1, 2**64 - 1)])
    def test_raw_words_match_a_fresh_philox(self, seed, k):
        fresh = np.random.Philox(key=np.array([seed, k], dtype=np.uint64))
        assert np.array_equal(philox(seed, k).bit_generator.random_raw(41), fresh.random_raw(41))

    def test_each_call_starts_the_stream_afresh(self):
        first = philox(5, 1)
        first.standard_normal(3)
        assert np.array_equal(philox(5, 1).standard_normal(4), _fresh_stream(5, 1).standard_normal(4))

    def test_sliced_directions_unchanged(self):
        # the directions were drawn from a hand-built Philox keyed (seed, dim)
        v = _fresh_stream(7, 3).standard_normal((16, 3))
        assert np.array_equal(sliced_directions(3, 16, 7), v / np.linalg.norm(v, axis=1, keepdims=True))

    def test_picard_mixer_draw_unchanged(self):
        # iteration 1 of seed 3 keeps the old particles of the second draw
        # from the (derive_seed(3, "mix", 1), 0) stream, in that order
        mixer = philox(derive_seed(3, "mix", 1), 0)
        assert mixer.choice(16, size=8, replace=False).tolist() == [6, 14, 12, 1, 7, 3, 11, 8]
        take_old = [14, 10, 2, 3, 7, 5, 1, 12]
        assert mixer.choice(16, size=8, replace=False).tolist() == take_old
        game = monotone_lq()
        tg = TimeGrid(1.0, 20)
        init = candidate_flow(game, tg, 0.5 * tg.times, 16, 3)
        res = picard_mfe(game, init, max_iter=1, tol=0.0, seed=3)
        assert np.array_equal(res.flow.samples[:, 8:], init.samples[:, take_old])

    def test_monotonicity_margin_unchanged(self):
        report = check_monotonicity(sign_drift(), trials=4, n_samples=100, seed=2)
        assert (report.worst_margin, report.violations) == (2.395155028695826, 3)

    def test_philox_is_built_only_in_rng(self):
        src = Path(mfglab.__file__).parent
        offenders = [p.name for p in sorted(src.glob("*.py")) if p.name != "rng.py" and "np.random.Philox(" in p.read_text()]
        assert offenders == [], f"build seeded generators with rng.philox, not np.random.Philox, in {offenders}"
