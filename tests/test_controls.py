import numpy as np
import pytest

from mfglab.controls import ControlField, sign_of_mean, sign_of_state
from mfglab.games import MeasureStats
from mfglab.grids import ActionGrid, SpatialGrid, TimeGrid
from mfglab.relaxed import constant_relaxed


def _tg(n=10):
    return TimeGrid(1.0, n)


class TestConstantAndAnalytic:
    def test_constant_everywhere(self):
        f = ControlField.constant(_tg(), np.array([0.7]))
        x = np.random.default_rng(0).normal(size=(6, 1))
        a = f.actions(3, 0.3, x, None)
        assert a.shape == (6, 1)
        assert np.all(a == 0.7)

    @pytest.mark.parametrize("a0", [0.7, [-0.0], [1.0, -2.5]])
    @pytest.mark.parametrize("shape", [(6, 1), (3, 6, 1), (4, 2)])
    def test_constant_has_the_bits_of_a_tile(self, a0, shape):
        # np.full replaced np.tile(a0, x.shape[:-1] + (1,))
        f = ControlField.constant(_tg(), a0)
        x = np.zeros(shape)
        a = f.actions(3, 0.3, x, None)
        tiled = np.tile(np.atleast_1d(np.asarray(a0, dtype=float)), x.shape[:-1] + (1,))
        assert a.shape == tiled.shape and a.flags.writeable
        assert np.array_equal(a.view(np.int64), tiled.view(np.int64))

    def test_analytic_receives_time_and_stats(self):
        seen = {}

        def func(t, x, stats):
            seen["t"] = t
            seen["mean"] = stats.mean[0]
            return np.zeros(x.shape[:-1] + (1,))

        f = ControlField.analytic(_tg(), func)
        f.actions(0, 0.125, np.zeros((2, 1)), MeasureStats.point(np.array([5.0])))
        assert seen["t"] == 0.125
        assert seen["mean"] == 5.0


class TestSignFeedbacks:
    def test_sign_of_mean(self):
        f = sign_of_mean(_tg(), start=0.0)
        x = np.zeros((3, 1))
        up = f.actions(1, 0.5, x, MeasureStats.point(np.array([2.0])))
        down = f.actions(1, 0.5, x, MeasureStats.point(np.array([-0.1])))
        flat = f.actions(1, 0.5, x, MeasureStats.point(np.array([0.0])))
        assert np.all(up == 1.0) and np.all(down == -1.0) and np.all(flat == 0.0)

    def test_sign_of_mean_inactive_before_start(self):
        f = sign_of_mean(_tg(), start=0.5)
        x = np.zeros((2, 1))
        a = f.actions(2, 0.5, x, MeasureStats.point(np.array([3.0])))  # t == start: still off
        assert np.all(a == 0.0)
        a = f.actions(6, 0.6, x, MeasureStats.point(np.array([3.0])))
        assert np.all(a == 1.0)

    def test_sign_of_state(self):
        f = sign_of_state(_tg(), start=0.0)
        x = np.array([[2.0], [-1.0], [0.0]])
        a = f.actions(1, 0.5, x, None)
        assert np.allclose(a[:, 0], [1.0, -1.0, 0.0])


class TestGridFields:
    def test_pure_nearest_node_lookup(self):
        tg = _tg(4)
        sg = SpatialGrid(np.array([0.0]), np.array([1.0]), 5)
        values = np.arange(4 * 5, dtype=float).reshape(4, 5, 1)
        f = ControlField.pure(tg, sg, values)
        x = np.array([[0.0], [0.26], [0.9]])  # nearest nodes 0, 1, 4
        a = f.actions(2, 0.6, x, None)
        assert np.allclose(a[:, 0], [values[2, 0, 0], values[2, 1, 0], values[2, 4, 0]])

    def test_pure_shape_validation(self):
        tg = _tg(4)
        sg = SpatialGrid(np.array([0.0]), np.array([1.0]), 5)
        with pytest.raises(ValueError):
            ControlField.pure(tg, sg, np.zeros((3, 5, 1)))

    def test_relaxed_probability_rows(self):
        tg = _tg(2)
        sg = SpatialGrid(np.array([0.0]), np.array([1.0]), 3)
        ag = ActionGrid(np.array([-1.0]), np.array([1.0]), 2)
        probs = np.full((2, 3, 2), 0.5)
        f = ControlField.relaxed(tg, sg, ag, probs)
        assert f.is_relaxed
        p = f.probabilities(1, np.array([[0.5]]))
        assert np.allclose(p, [[0.5, 0.5]])
        with pytest.raises(ValueError):
            f.actions(0, 0.0, np.zeros((1, 1)), None)

    def test_relaxed_validation(self):
        tg = _tg(2)
        sg = SpatialGrid(np.array([0.0]), np.array([1.0]), 3)
        ag = ActionGrid(np.array([-1.0]), np.array([1.0]), 2)
        bad_sum = np.full((2, 3, 2), 0.4)
        with pytest.raises(ValueError):
            ControlField.relaxed(tg, sg, ag, bad_sum)
        negative = np.array([[[1.5, -0.5]] * 3] * 2)
        with pytest.raises(ValueError):
            ControlField.relaxed(tg, sg, ag, negative)

    @pytest.mark.parametrize(
        "row,message",
        [
            ([np.nan, 0.5, 0.5], "nonnegative, and not NaN"),
            ([0.5, 0.5, np.nan], "nonnegative, and not NaN"),
            ([np.inf, 0.5, 0.5], "sum to 1"),
            ([-np.inf, 0.5, 0.5], "nonnegative"),
        ],
        ids=["nan_first", "nan_last", "inf", "minus_inf"],
    )
    def test_relaxed_rows_with_nan_or_inf_are_refused(self, row, message):
        # a NaN row that passed would make strict selection pick the lowest
        # atom for its step
        tg = _tg(4)
        ag = ActionGrid([-1.0], [1.0], 3)
        probs = np.tile([0.2, 0.3, 0.5], (4, 1))
        probs[1] = row
        with pytest.raises(ValueError, match=message):
            constant_relaxed(tg, ag, probs)
        sg = SpatialGrid(np.array([0.0]), np.array([1.0]), 3)
        with pytest.raises(ValueError, match=message):
            ControlField.relaxed(tg, sg, ag, np.broadcast_to(probs[:, None, :], (4, 3, 3)))

    def test_probabilities_rejects_pure(self):
        tg = _tg(2)
        sg = SpatialGrid(np.array([0.0]), np.array([1.0]), 3)
        f = ControlField.pure(tg, sg, np.zeros((2, 3, 1)))
        with pytest.raises(ValueError):
            f.probabilities(0, np.zeros((1, 1)))
