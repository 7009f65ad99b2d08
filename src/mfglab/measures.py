"""Empirical measure flows and the distances used to compare them.

The scalar distances operate on sample clouds. In one dimension the
1-Wasserstein distance is computed exactly by the sorted coupling. The
distance between two 1-d flows is the worst over time slices of that exact
W1; it is the only flow distance.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .games import MeasureStats
from .grids import TimeGrid
from .rng import philox


class EmpiricalFlow:
    """Time-indexed particle clouds: samples[j] is the (n, d) cloud at t_j.

    samples is always stored C-contiguous (time-major), so each time slice is
    one contiguous block for the sorts and statistics that read it; other
    layouts are copied once on construction.
    """

    def __init__(self, grid: TimeGrid, samples: np.ndarray):
        samples = np.ascontiguousarray(samples, dtype=float)
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
        return cls(grid, np.swapaxes(states, 0, 1))

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
    """A flow known only through its mean path, no samples.

    Useful as a frozen target with a prescribed mean path.
    """

    def __init__(self, grid: TimeGrid, mean_path: np.ndarray):
        mean_path = np.asarray(mean_path, dtype=float)
        if mean_path.ndim == 1:
            mean_path = mean_path[:, None]
        if mean_path.shape[0] != grid.n_steps + 1:
            raise ValueError(f"mean path needs {grid.n_steps + 1} nodes, got {mean_path.shape[0]}")
        self.grid = grid
        self._mean = mean_path

    @property
    def dim(self) -> int:
        return self._mean.shape[1]

    def stats_path(self) -> list:
        return [MeasureStats(mean) for mean in self._mean]

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


@lru_cache(maxsize=8)
def _quantile_ladder(na: int, nb: int):
    """Merged breakpoint ladder of two sample sizes: indices into each sorted
    sample and segment widths, shared read-only by every call with these sizes.

    Empirical quantile functions are piecewise constant with jumps at i/n, so
    on each segment of the merged ladder both are constant and the segment
    midpoint evaluates them exactly.
    """
    cuts = np.union1d(np.arange(1, na) / na, np.arange(1, nb) / nb)
    edges = np.concatenate([[0.0], cuts, [1.0]])
    mid = 0.5 * (edges[:-1] + edges[1:])
    ia = np.minimum((mid * na).astype(np.intp), na - 1)
    ib = np.minimum((mid * nb).astype(np.intp), nb - 1)
    ladder = (ia, ib, np.diff(edges))
    for part in ladder:
        part.flags.writeable = False
    return ladder


def _merged_quantiles(a: np.ndarray, b: np.ndarray):
    """Both quantile functions on the union of their breakpoints, with weights.

    Integrating |qa - qb| against the segment widths of the merged ladder is
    the exact inverse-CDF integral, which is what makes the distance a true
    metric across unequal sample sizes.
    """
    ia, ib, w = _quantile_ladder(a.size, b.size)
    return np.sort(a)[ia], np.sort(b)[ib], w


def _w1(a, b) -> float:
    """wasserstein1_1d without its finiteness check."""
    a, b = _as_samples_1d(a), _as_samples_1d(b)
    # an infinity at the same rank of both subtracts to NaN, which the
    # callers refuse by name
    with np.errstate(invalid="ignore"):
        if a.size == b.size:
            return float(np.mean(np.abs(np.sort(a) - np.sort(b))))
        qa, qb, w = _merged_quantiles(a, b)
        return float(np.sum(w * np.abs(qa - qb)))


def wasserstein1_1d(a, b) -> float:
    """Exact order-1 Wasserstein distance between two 1-d sample clouds.

    Equal sizes use the sorted coupling directly; unequal sizes integrate
    the quantile-function difference over the merged breakpoint ladder. A
    distance that is not finite (a NaN or infinite sample) is refused.
    """
    d = _w1(a, b)
    if not math.isfinite(d):
        raise ValueError(f"W1 distance is {d}: the clouds must hold finite samples")
    return d


def _worst_slice(per_slice: np.ndarray) -> float:
    """The largest of the per-slice distances (M+1,); one that is not finite
    (a NaN or infinite sample) is refused, naming its time slice."""
    worst = float(per_slice.max())
    if not math.isfinite(worst):
        j = int(np.flatnonzero(~np.isfinite(per_slice))[0])
        raise ValueError(f"W1 distance at time slice {j} is {per_slice[j]}: the flows must hold finite samples")
    return worst


def sliced_directions(dim: int) -> np.ndarray:
    """The 32 fixed unit vectors of the sliced distance, (32, dim), drawn from
    the seed-0 Philox stream of dim."""
    v = philox(0, dim).standard_normal((32, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sliced_wasserstein1(a, b) -> float:
    """Average 1-d Wasserstein distance over the fixed sliced_directions."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("expected (n, d) clouds of equal dimension")
    vals = [wasserstein1_1d(a @ u, b @ u) for u in sliced_directions(a.shape[1])]
    return float(np.mean(vals))


def _one_dimensional(dim: int) -> None:
    if dim != 1:
        raise ValueError(f"sorted slices need a one-dimensional flow, got dimension {dim}")


def sorted_slices(flow: EmpiricalFlow) -> np.ndarray:
    """Every time slice of a 1-d flow, sorted: (M+1, n)."""
    _one_dimensional(flow.dim)
    return np.sort(flow.samples[:, :, 0], axis=1)


def sorted_distance(consumed: np.ndarray, other: np.ndarray) -> float:
    """flow_distance of two equal-size 1-d flows from their sorted slices.

    The reduction runs in place in consumed, which holds garbage afterwards,
    so no third (M+1, n) stack is ever live; the result is symmetric in the
    two stacks, bit for bit.
    """
    if consumed.shape != other.shape:
        raise ValueError(f"sorted stacks must share a shape, got {consumed.shape} and {other.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf is refused by _worst_slice
        diff = np.subtract(consumed, other, out=consumed)
    np.abs(diff, out=diff)
    return _worst_slice(diff.mean(axis=1))


def swap_sorted(stack: np.ndarray, flow: EmpiricalFlow) -> float:
    """Sort each slice of a 1-d flow into stack (M+1, n), one slice at a time,
    and return the flow_distance between flow and the flow whose sorted
    slices stack held before, bit for bit.

    Each slice is sorted into one row buffer and reduced against the row it
    replaces, so the only (M+1, n) array live is stack itself, and stack is
    left holding flow's sorted slices.
    """
    _one_dimensional(flow.dim)
    if stack.shape != flow.samples.shape[:2]:
        raise ValueError(f"sorted stack {stack.shape} does not fit the flow's slices {flow.samples.shape[:2]}")
    row, diff = np.empty(stack.shape[1]), np.empty(stack.shape[1])
    per_slice = np.empty(stack.shape[0])
    with np.errstate(invalid="ignore"):  # inf - inf is refused by _worst_slice
        for j, old in enumerate(stack):
            row[:] = flow.samples[j, :, 0]
            row.sort()
            np.subtract(old, row, out=diff)
            np.abs(diff, out=diff)
            per_slice[j] = diff.mean()
            old[:] = row
    return _worst_slice(per_slice)


def flow_distance(fa: EmpiricalFlow, fb: EmpiricalFlow) -> float:
    """Worst over grid times of the exact W1 distance between two 1-d flows."""
    if not isinstance(fa, EmpiricalFlow) or not isinstance(fb, EmpiricalFlow):
        raise TypeError("flow_distance needs sample-backed flows")
    if fa.grid != fb.grid:
        raise ValueError("flows must share a time grid")
    if fa.dim != 1 or fb.dim != 1:
        raise ValueError(f"flow_distance needs one-dimensional flows, got dimensions {fa.dim} and {fb.dim}")
    if fa.n_particles == fb.n_particles:
        # equal sizes reduce to mean |sorted difference|, one sort per flow
        return sorted_distance(sorted_slices(fa), sorted_slices(fb))
    return _worst_slice(np.array([_w1(fa.cloud(j), fb.cloud(j)) for j in range(fa.grid.n_steps + 1)]))

