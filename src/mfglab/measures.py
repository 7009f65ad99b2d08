"""Empirical measure flows and the distances used to compare them.

The scalar distances operate on sample clouds. In one dimension the
1-Wasserstein distance is computed exactly by the sorted coupling; the
truncated variant uses the same coupling and is reported as an upper bound
for the optimal truncated cost. Total variation is approximated on a shared
equal-width binning. Distances between flows take the worst time slice.
"""

from __future__ import annotations

import numpy as np

from .games import MeasureStats
from .grids import TimeGrid
from .rng import philox


class EmpiricalFlow:
    """Time-indexed particle clouds: samples[j] is the (n, d) cloud at t_j."""

    def __init__(self, grid: TimeGrid, samples: np.ndarray):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 3:
            raise ValueError(f"samples must be (M+1, n, d), got shape {samples.shape}")
        if samples.shape[0] != grid.n_steps + 1:
            raise ValueError(f"flow needs {grid.n_steps + 1} time slices, got {samples.shape[0]}")
        self.grid = grid
        self.samples = samples
        self._stats = None

    @classmethod
    def from_states(cls, grid: TimeGrid, states: np.ndarray) -> "EmpiricalFlow":
        """Build from per-particle paths shaped (n, M+1, d).

        The paths are copied only when their memory is not already
        time-major; a swapaxes view of (M+1, n, d) memory, as the simulators
        return, is wrapped as it is, so the flow and the paths share memory.
        """
        return cls(grid, np.ascontiguousarray(np.swapaxes(np.asarray(states, dtype=float), 0, 1)))

    @classmethod
    def from_ensemble(cls, ensemble) -> "EmpiricalFlow":
        """The ensemble's clouds as a flow; it aliases ensemble.states, with no copy."""
        return cls.from_states(ensemble.grid, ensemble.states)

    @property
    def n_particles(self) -> int:
        return self.samples.shape[1]

    @property
    def dim(self) -> int:
        return self.samples.shape[2]

    def cloud(self, j: int) -> np.ndarray:
        return self.samples[j]

    def stats_path(self) -> list:
        if self._stats is None:
            self._stats = [MeasureStats.from_cloud(self.samples[j]) for j in range(self.samples.shape[0])]
        return self._stats

    def mean_path(self) -> np.ndarray:
        return self.samples.mean(axis=1)


class DeterministicFlow:
    """A flow known only through exact summary statistics, no samples.

    Useful as a frozen target with a prescribed mean path; variance defaults
    to that of a standard Brownian motion started at a point.
    """

    def __init__(self, grid: TimeGrid, mean_path: np.ndarray, var_path: np.ndarray | None = None):
        mean_path = np.asarray(mean_path, dtype=float)
        if mean_path.ndim == 1:
            mean_path = mean_path[:, None]
        if mean_path.shape[0] != grid.n_steps + 1:
            raise ValueError(f"mean path needs {grid.n_steps + 1} nodes, got {mean_path.shape[0]}")
        if var_path is None:
            var_path = np.tile(grid.times[:, None], (1, mean_path.shape[1]))
        else:
            var_path = np.asarray(var_path, dtype=float)
            if var_path.ndim == 1:
                var_path = var_path[:, None]
        self.grid = grid
        self._mean = mean_path
        self._var = var_path

    @property
    def dim(self) -> int:
        return self._mean.shape[1]

    def stats_path(self) -> list:
        return [MeasureStats(mean=self._mean[j], var=self._var[j]) for j in range(self._mean.shape[0])]

    def mean_path(self) -> np.ndarray:
        return self._mean.copy()


def _as_samples_1d(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 2 and a.shape[1] == 1:
        a = a[:, 0]
    if a.ndim != 1:
        raise ValueError(f"expected one-dimensional samples, got shape {a.shape}")
    if a.size == 0:
        raise ValueError("empty sample set")
    return a


def _merged_quantiles(a: np.ndarray, b: np.ndarray):
    """Both quantile functions on the union of their breakpoints, with weights.

    Empirical quantile functions are piecewise constant with jumps at i/n, so
    on each segment of the merged ladder both are constant and the segment
    midpoint evaluates them exactly. Integrating |qa - qb| against the
    segment widths is then the exact inverse-CDF integral, which is what
    makes the distance a true metric across unequal sample sizes.
    """
    sa, sb = np.sort(a), np.sort(b)
    cuts = np.union1d(np.arange(1, sa.size) / sa.size, np.arange(1, sb.size) / sb.size)
    edges = np.concatenate([[0.0], cuts, [1.0]])
    mid = 0.5 * (edges[:-1] + edges[1:])
    ia = np.minimum((mid * sa.size).astype(np.intp), sa.size - 1)
    ib = np.minimum((mid * sb.size).astype(np.intp), sb.size - 1)
    return sa[ia], sb[ib], np.diff(edges)


def wasserstein1_1d(a, b) -> float:
    """Exact order-1 Wasserstein distance between two 1-d sample clouds.

    Equal sizes use the sorted coupling directly; unequal sizes integrate
    the quantile-function difference over the merged breakpoint ladder.
    """
    a, b = _as_samples_1d(a), _as_samples_1d(b)
    if a.size == b.size:
        return float(np.mean(np.abs(np.sort(a) - np.sort(b))))
    qa, qb, w = _merged_quantiles(a, b)
    return float(np.sum(w * np.abs(qa - qb)))


def wasserstein_trunc(a, b) -> float:
    """Sorted-coupling cost for min(1, |x - y|); upper bound on the optimum."""
    a, b = _as_samples_1d(a), _as_samples_1d(b)
    if a.size == b.size:
        return float(np.mean(np.minimum(1.0, np.abs(np.sort(a) - np.sort(b)))))
    qa, qb, w = _merged_quantiles(a, b)
    return float(np.sum(w * np.minimum(1.0, np.abs(qa - qb))))


def auto_bin_edges(a, b, n_bins: int = 100) -> np.ndarray:
    """Equal-width edges over the union range, padded by one bin width."""
    a, b = _as_samples_1d(a), _as_samples_1d(b)
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if not np.isfinite(lo) or not np.isfinite(hi):
        raise ValueError("samples contain non-finite values")
    width = (hi - lo) / n_bins if hi > lo else 1.0
    return np.linspace(lo - width, hi + width, n_bins + 1)


def tv_binned(a, b, bins=100) -> float:
    """Total variation between binned histograms: 0.5 * sum |p_a - p_b|.

    bins may be an integer count (default layout: equal-width over the padded
    union range) or an explicit edge array.
    """
    a, b = _as_samples_1d(a), _as_samples_1d(b)
    if np.isscalar(bins):
        edges = auto_bin_edges(a, b, int(bins))
    else:
        edges = np.asarray(bins, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("edge array needs at least two entries")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be strictly increasing")
    pa, _ = np.histogram(a, bins=edges)
    pb, _ = np.histogram(b, bins=edges)
    # mass outside the edges still counts toward the discrepancy
    out_a = a.size - pa.sum()
    out_b = b.size - pb.sum()
    tv = 0.5 * (np.abs(pa / a.size - pb / b.size).sum() + abs(out_a / a.size - out_b / b.size))
    return float(tv)


def sliced_directions(dim: int, n_directions: int = 32, seed: int = 0) -> np.ndarray:
    """Fixed seeded unit vectors used by the sliced distance, (n_directions, dim)."""
    v = philox(seed, dim).standard_normal((n_directions, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sliced_wasserstein1(a, b, n_directions: int = 32, seed: int = 0):
    """Average 1-d Wasserstein distance over fixed random directions.

    Returns (value, n_directions) so reports can carry the direction count.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("expected (n, d) clouds of equal dimension")
    dirs = sliced_directions(a.shape[1], n_directions, seed)
    vals = [wasserstein1_1d(a @ u, b @ u) for u in dirs]
    return float(np.mean(vals)), n_directions


_METRICS = {
    "w1": wasserstein1_1d,
    "w1_trunc": wasserstein_trunc,
    "tv": tv_binned,
}


def flow_distance(fa: EmpiricalFlow, fb: EmpiricalFlow, metric: str = "w1") -> float:
    """Worst over grid times of a per-slice distance between two flows."""
    if not isinstance(fa, EmpiricalFlow) or not isinstance(fb, EmpiricalFlow):
        raise TypeError("flow_distance needs sample-backed flows")
    if fa.grid != fb.grid:
        raise ValueError("flows must share a time grid")
    if metric == "sliced_w1":
        per_slice = [sliced_wasserstein1(fa.cloud(j), fb.cloud(j))[0] for j in range(fa.grid.n_steps + 1)]
        return float(np.max(per_slice))
    if metric not in _METRICS:
        raise KeyError(f"unknown metric {metric!r}; choose from {sorted(_METRICS) + ['sliced_w1']}")
    dist = _METRICS[metric]
    if metric in ("w1", "w1_trunc") and fa.dim == 1:
        # equal sizes reduce to mean |sorted difference|, one sort per flow
        if fa.n_particles == fb.n_particles:
            per_slice = np.abs(np.sort(fa.samples[:, :, 0], axis=1) - np.sort(fb.samples[:, :, 0], axis=1))
            if metric == "w1_trunc":
                per_slice = np.minimum(1.0, per_slice)
            return float(per_slice.mean(axis=1).max())
    per_slice = [dist(fa.cloud(j), fb.cloud(j)) for j in range(fa.grid.n_steps + 1)]
    return float(np.max(per_slice))


FLOW_FUNCTIONALS: dict = {
    "mean_T": lambda flow: float(flow.mean_path()[-1, 0]),
    "abs_mean_T": lambda flow: float(abs(flow.mean_path()[-1, 0])),
    "mean_T_sq": lambda flow: float(flow.mean_path()[-1, 0] ** 2),
    "sign_mean_T": lambda flow: float(flow.mean_path()[-1, 0] > 0),
    "sup_abs_mean": lambda flow: float(np.abs(flow.mean_path()[:, 0]).max()),
}
