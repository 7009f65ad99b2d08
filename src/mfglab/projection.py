"""Markovian projection: binned conditional drift and the mimicking diffusion.

Given paths X and their per-step drifts (the array drift integrate_paths
integrated them with), the projected drift at (t_j, bin) is the average
drift over particles sitting in that bin at t_j, the histogram estimate of
E[drift | X_t = x]. Integrating the projected drift with fresh noise gives a
Markov process whose time marginals track those of X; joint laws are not
preserved, which the path autocovariance gap makes visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import positive_count
from .measures import EmpiricalFlow, wasserstein1_1d
from .rng import BrownianBundle
from .sim import ParticleEnsemble, integrate_paths

_MIN_COUNT = 30  # fewest particles a bin averages; sparser bins take the slice mean


def _bin_index(edges: np.ndarray, x) -> np.ndarray:
    """Index of the bin holding each key: the largest k with edges[k] <= x,
    clipped to [0, n_bins - 1], NaN counting as above every edge.

    The even-width map from edges[0] gives a candidate bin, clipped while
    still a float so that infinities and NaN land where they belong; each
    key then moves one bin at a time against the actual edges until none
    moves. For evenly spaced edges the candidate is off by at most one, so
    one correction pass and one check settle it, with no binary search.
    """
    n_bins = edges.size - 1
    x = np.asarray(x, dtype=float)
    # one float buffer serves every step: a fresh temporary of this size
    # costs more in page faults than the arithmetic written into it
    with np.errstate(all="ignore"):  # huge keys overflow to +-inf, which the clip handles
        buf = np.subtract(x, edges[0], out=np.empty(x.shape))
        buf /= (edges[-1] - edges[0]) / n_bins
    np.floor(buf, out=buf)
    np.fmin(buf, n_bins - 1, out=buf)
    np.fmax(buf, 0, out=buf)
    idx = buf.astype(np.intp)
    # a NaN bound compares false, so bin 0 has no lower edge and the last
    # bin no upper one
    lower = np.concatenate(([np.nan], edges[1:-1]))
    upper = np.concatenate((edges[1:-1], [np.nan]))
    while True:
        # every index is in range, and mode="clip" spares take a buffered out
        down = x < np.take(lower, idx, out=buf, mode="clip")
        up = x >= np.take(upper, idx, out=buf, mode="clip")
        if not (down.any() or up.any()):
            return idx
        idx -= down
        idx += up


@dataclass
class DriftTable:
    """Piecewise-constant drift estimate on (time step) x (state bin)."""

    grid: object               # TimeGrid
    edges: np.ndarray          # (n_bins + 1,)
    values: np.ndarray         # (M, n_bins, d)
    counts: np.ndarray         # (M, n_bins)
    fallback: np.ndarray       # (M, n_bins) True where the slice mean was used
    slice_means: np.ndarray    # (M, d)
    source_flow: EmpiricalFlow

    def bin_of(self, x: np.ndarray) -> np.ndarray:
        """Bin index of each state in x, among the table's equal-width bins.

        Bins are left-closed, [edges[k], edges[k+1]); states below edges[1]
        fall in bin 0, states at or above edges[-2] in the last bin, and NaN
        in the last bin.
        """
        return _bin_index(self.edges, x)

    def drift_at(self, j: int, x: np.ndarray) -> np.ndarray:
        """Projected drift for states x (n, d) at step j."""
        return self.values[j, self.bin_of(x[:, 0]), :]


def project_drift(ensemble: ParticleEnsemble, bins=40) -> DriftTable:
    """Bin-average the ensemble's drifts into a Markovian drift table.

    The ensemble must carry its drift samples, as integrate_paths with an
    array drift returns it; the simulators record no drifts.

    bins is a positive int count of equal-width bins over the pooled state
    range. Bins holding fewer than 30 (_MIN_COUNT) particles fall back to the
    time-slice mean drift and are flagged; that keeps the table bounded by
    the data and conserves the slice totals wherever no fallback fires.
    """
    drifts = ensemble.drifts
    if drifts is None:
        raise ValueError("ensemble carries no drift samples; project_drift needs integrate_paths with an array drift")
    if ensemble.dim != 1:
        raise ValueError("drift projection is implemented for one-dimensional states")
    n, M = ensemble.n, ensemble.grid.n_steps
    if drifts.shape != (n, M, 1):
        raise ValueError(f"drift samples must be ({n}, {M}, 1), got {drifts.shape}")

    x = ensemble.states[:, :M, 0]  # states at step starts
    n_bins = positive_count(bins, "bins")
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, n_bins + 1)

    values = np.zeros((M, n_bins, 1))
    counts = np.zeros((M, n_bins), dtype=np.intp)
    fallback = np.zeros((M, n_bins), dtype=bool)
    slice_means = np.empty((M, 1))
    # each step's drifts are gathered into one contiguous buffer, so the
    # pairwise slice sum and the bin totals have the same bits whatever the
    # layout of the caller's table: particle-major (n, M, 1) memory or a
    # view of time-major (M, n, 1) memory
    col = np.empty(n)

    for j in range(M):
        np.copyto(col, drifts[:, j, 0])
        slice_means[j, 0] = np.add.reduce(col) / n
        idx = _bin_index(edges, x[:, j])
        cnt = np.bincount(idx, minlength=n_bins)
        tot = np.bincount(idx, weights=col, minlength=n_bins)
        counts[j] = cnt
        sparse = cnt < _MIN_COUNT  # empty bins too: max(cnt, 1) only keeps 0/0 out
        fallback[j] = sparse
        values[j, :, 0] = np.where(sparse, slice_means[j, 0], tot / np.maximum(cnt, 1))

    return DriftTable(
        grid=ensemble.grid, edges=edges, values=values, counts=counts,
        fallback=fallback, slice_means=slice_means,
        source_flow=EmpiricalFlow.from_ensemble(ensemble),
    )


def mimic_and_compare(table: DriftTable, init: np.ndarray, bundle: BrownianBundle) -> np.ndarray:
    """Integrate the mimicking diffusion and compare marginals per grid time.

    Returns the (M+1,) array of exact 1-d Wasserstein distances between the
    mimic cloud and the source cloud at each grid node.
    """
    ens = integrate_paths(lambda j, y: table.drift_at(j, y), bundle, init)
    M = table.grid.n_steps
    out = np.empty(M + 1)
    for j in range(M + 1):
        out[j] = wasserstein1_1d(ens.states[:, j, 0], table.source_flow.cloud(j)[:, 0])
    return out


def path_autocovariance(states: np.ndarray, j1: int, j2: int) -> float:
    """Empirical Cov(X_{t_j1}, X_{t_j2}) across particles for 1-d paths."""
    a = states[:, j1, 0]
    b = states[:, j2, 0]
    return float(np.mean((a - a.mean()) * (b - b.mean())))
