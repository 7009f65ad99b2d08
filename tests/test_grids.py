import warnings

import numpy as np
import pytest

from mfglab.grids import ActionGrid, SpatialGrid, TimeGrid


class TestTimeGrid:
    def test_basic_layout(self):
        tg = TimeGrid(2.0, 8)
        assert tg.dt == 0.25
        assert tg.times.shape == (9,)
        assert tg.times[0] == 0.0
        assert tg.times[-1] == 2.0
        assert np.allclose(np.diff(tg.times), tg.dt)

    def test_refine_keeps_endpoints(self):
        tg = TimeGrid(1.0, 10)
        fine = tg.refine(4)
        assert fine.n_steps == 40
        assert fine.horizon == tg.horizon
        # coarse times are a subset of the fine times
        assert np.allclose(fine.times[::4], tg.times)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)

    @pytest.mark.parametrize("bad", [2.5, True, 4.0])
    def test_refuses_non_integer_steps_by_name(self, bad):
        with pytest.raises(ValueError, match="n_steps must be an int"):
            TimeGrid(1.0, bad)

    @pytest.mark.parametrize("bad", ["1", None, True, 1j])
    def test_refuses_a_horizon_that_is_not_a_real_number_by_name(self, bad):
        with pytest.raises(ValueError, match=r"^horizon must be a real number, got "):
            TimeGrid(bad, 10)

    def test_accepts_a_numpy_horizon(self):
        assert TimeGrid(np.float64(1.0), 10) == TimeGrid(1.0, 10)

    def test_stores_an_int_step_count(self):
        tg = TimeGrid(1.0, np.int64(4))
        assert type(tg.n_steps) is int
        assert tg == TimeGrid(1.0, 4)


class TestSpatialGrid:
    def test_nodes_roundtrip_through_nearest_index(self):
        sg = SpatialGrid(np.array([-2.0, 0.0]), np.array([2.0, 1.0]), 5)
        nodes = sg.nodes()
        assert nodes.shape == (25, 2)
        idx = sg.nearest_index(nodes)
        flat = np.ravel_multi_index(idx, sg.shape)
        assert np.array_equal(flat, np.arange(25))

    def test_nodes_c_order(self):
        sg = SpatialGrid(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 3)
        nodes = sg.nodes()
        # last axis varies fastest
        assert np.allclose(nodes[0], [0.0, 0.0])
        assert np.allclose(nodes[1], [0.0, 0.5])
        assert np.allclose(nodes[3], [0.5, 0.0])

    def test_nearest_index_clips_outside_box(self):
        sg = SpatialGrid(np.array([0.0]), np.array([1.0]), 5)
        idx = sg.nearest_index(np.array([[-10.0], [10.0]]))
        assert idx[0][0] == 0
        assert idx[0][1] == 4

    def test_huge_infinite_and_nan_states_land_on_an_edge_node(self):
        # clipped as floats: a cast first sent 1e19, 1e300 and +inf to node 0
        sg = SpatialGrid(np.array([-2.0]), np.array([2.0]), 5)
        x = np.array([1e19, 1e300, np.inf, -1e19, -1e300, -np.inf, np.nan])[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (idx,) = sg.nearest_index(x)
        assert idx.tolist() == [4, 4, 4, 0, 0, 0, 4]

    @pytest.mark.parametrize("lo,hi,n_nodes", [([-2.0], [2.0], 5), ([-7.0], [7.0], 141), ([-2.0, 0.0], [2.0, 1.0], 9)])
    def test_in_range_indices_keep_the_bits_of_the_cast_then_clip(self, lo, hi, n_nodes):
        sg = SpatialGrid(np.array(lo), np.array(hi), n_nodes)
        h = sg.spacing
        k = np.arange(-3, n_nodes + 3)[:, None]
        # nodes, half-spacing ties, their neighbours one ulp away, the box
        # edges and just past them, and a spread of ordinary states
        x = np.concatenate([
            sg.lo + k * h, sg.lo + (k + 0.5) * h,
            np.nextafter(sg.lo + (k + 0.5) * h, np.inf), np.nextafter(sg.lo + (k + 0.5) * h, -np.inf),
            np.stack([sg.lo, sg.hi, np.nextafter(sg.lo, -np.inf), np.nextafter(sg.hi, np.inf)]),
            np.random.default_rng(n_nodes).uniform(sg.lo - 3 * h, sg.hi + 3 * h, size=(500, sg.dim)),
        ])
        old = np.clip(np.rint((x - sg.lo) / h).astype(np.intp), 0, n_nodes - 1)
        got = sg.nearest_index(x)
        for i in range(sg.dim):
            assert got[i].dtype == np.intp
            assert np.array_equal(got[i], old[:, i])

    def test_spacing(self):
        sg = SpatialGrid(np.array([0.0]), np.array([1.0]), 5)
        assert np.allclose(sg.spacing, 0.25)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            SpatialGrid(np.array([0.0]), np.array([0.0]), 5)
        with pytest.raises(ValueError):
            SpatialGrid(np.array([0.0]), np.array([1.0]), 2)

    @pytest.mark.parametrize("lo,hi,name", [([0.0], [np.inf], "hi"), ([-np.inf], [1.0], "lo"), ([0.0, np.nan], [1.0, 1.0], "lo")],
                             ids=["inf_hi", "minus_inf_lo", "nan_lo"])
    def test_refuses_non_finite_bounds_by_name(self, lo, hi, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SpatialGrid(lo, hi, 3)

    @pytest.mark.parametrize("bad,message", [(3.5, "n_nodes must be an int"), (True, "n_nodes must be an int"),
                                             (2, "n_nodes must be at least 3"), (0, "n_nodes must be at least 1")])
    def test_refuses_bad_node_counts_by_name(self, bad, message):
        with pytest.raises(ValueError, match=message):
            SpatialGrid([0.0], [1.0], bad)

    def test_stores_an_int_node_count(self):
        sg = SpatialGrid([0.0], [1.0], np.int64(3))
        assert type(sg.n_nodes) is int
        assert np.array_equal(sg.axes[0], [0.0, 0.5, 1.0])


class TestActionGrid:
    def test_atom_layout_1d(self):
        ag = ActionGrid(np.array([-1.0]), np.array([1.0]), 3)
        assert ag.n_atoms == 3
        assert np.allclose(ag.atoms.ravel(), [-1.0, 0.0, 1.0])

    def test_atom_zero_is_lowest_corner(self):
        ag = ActionGrid(np.array([-1.0, 0.0]), np.array([1.0, 2.0]), 2)
        assert ag.n_atoms == 4
        assert np.allclose(ag.atoms[0], [-1.0, 0.0])
        # last axis varies fastest in the atom enumeration
        assert np.allclose(ag.atoms[1], [-1.0, 2.0])

    def test_single_atom_is_midpoint(self):
        ag = ActionGrid(np.array([-1.0]), np.array([1.0]), 1)
        assert ag.n_atoms == 1
        assert np.allclose(ag.atoms, [[0.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ActionGrid(np.array([0.0]), np.array([1.0]), 0)

    @pytest.mark.parametrize("lo,hi,name", [([-1.0], [np.inf], "hi"), ([np.nan], [1.0], "lo")], ids=["inf_hi", "nan_lo"])
    def test_refuses_non_finite_bounds_by_name(self, lo, hi, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ActionGrid(lo, hi, 3)

    @pytest.mark.parametrize("bad,message", [(2.5, "n_per_axis must be an int"), (False, "n_per_axis must be an int"),
                                             (-1, "n_per_axis must be at least 1")])
    def test_refuses_bad_atom_counts_by_name(self, bad, message):
        with pytest.raises(ValueError, match=message):
            ActionGrid([-1.0], [1.0], bad)

    def test_stores_an_int_atom_count(self):
        ag = ActionGrid([-1.0], [1.0], np.int64(3))
        assert type(ag.n_per_axis) is int
        assert np.array_equal(ag.atoms[:, 0], [-1.0, 0.0, 1.0])
