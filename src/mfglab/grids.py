"""Uniform time, space, and action lattices shared across the package."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


def positive_count(value, name: str) -> int:
    """value as a positive int; bools, non-integers and values below 1 are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return int(value)


def positive_finite(value, name: str) -> None:
    """Refuse value unless it is a positive, finite real number; bools,
    non-numbers and NaN are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _bounds(lo, hi) -> tuple:
    """lo and hi as 1-d float arrays of equal length with finite entries."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("lo and hi must be 1-d arrays of equal length")
    for name, bound in (("lo", lo), ("hi", hi)):
        if not np.all(np.isfinite(bound)):
            raise ValueError(f"{name} must be finite, got {bound}")
    return lo, hi


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_M = horizon."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        positive_finite(self.horizon, "horizon")
        object.__setattr__(self, "n_steps", positive_count(self.n_steps, "n_steps"))

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        # M+1 nodes including both endpoints
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def refine(self, factor: int) -> "TimeGrid":
        return TimeGrid(self.horizon, self.n_steps * factor)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform box lattice, at least 3 nodes per axis so one-sided differences exist.

    lo, hi are length-d arrays of per-coordinate bounds, n_nodes the per-axis
    node count (shared across axes).
    """

    lo: np.ndarray
    hi: np.ndarray
    n_nodes: int

    def __post_init__(self):
        lo, hi = _bounds(self.lo, self.hi)
        if not np.all(hi > lo):
            raise ValueError("need hi > lo on every axis")
        n_nodes = positive_count(self.n_nodes, "n_nodes")
        if n_nodes < 3:
            raise ValueError(f"n_nodes must be at least 3 per axis, got {n_nodes}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "n_nodes", n_nodes)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / (self.n_nodes - 1)

    @property
    def axes(self) -> list:
        return [np.linspace(self.lo[i], self.hi[i], self.n_nodes) for i in range(self.dim)]

    @property
    def shape(self) -> tuple:
        return (self.n_nodes,) * self.dim

    def nodes(self) -> np.ndarray:
        """All lattice nodes as an (n_nodes**d, d) array in C order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def nearest_index(self, x: np.ndarray) -> tuple:
        """Round points (..., d) to the nearest node, clipping to the box.

        Returns a tuple of d integer index arrays suitable for fancy indexing.
        A coordinate is clipped while still a float, so huge and infinite
        ones land on the edge node they lie beyond, and NaN, as in
        projection's binning, counts as above every node and lands on the
        last. Ties at half-spacing round to the even node, as np.rint does.
        """
        u = np.subtract(x, self.lo)
        np.divide(u, self.spacing, out=u)
        np.rint(u, out=u)
        np.fmin(u, self.n_nodes - 1, out=u)  # fmin sends NaN to the last node
        np.maximum(u, 0.0, out=u)
        idx = u.astype(np.intp)
        return tuple(idx[..., i] for i in range(self.dim))


@dataclass(frozen=True)
class ActionGrid:
    """Finite lattice inside the action box, always containing the corners.

    atoms has shape (n_atoms, action_dim); lattice order is C order over the
    per-axis linspaces, so atom 0 is the lowest corner.
    """

    lo: np.ndarray
    hi: np.ndarray
    n_per_axis: int
    atoms: np.ndarray = field(init=False)

    def __post_init__(self):
        lo, hi = _bounds(self.lo, self.hi)
        if not np.all(hi >= lo):
            raise ValueError("need hi >= lo on every axis")
        n_per_axis = positive_count(self.n_per_axis, "n_per_axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "n_per_axis", n_per_axis)
        if n_per_axis == 1:
            # degenerate axis: a single atom sits at the midpoint; corners
            # coincide with it only when the box is a point, which is the
            # intended use (uncontrolled games)
            axes = [np.array([0.5 * (lo[i] + hi[i])]) for i in range(lo.shape[0])]
        else:
            axes = [np.linspace(lo[i], hi[i], n_per_axis) for i in range(lo.shape[0])]
        mesh = np.meshgrid(*axes, indexing="ij")
        atoms = np.stack([m.ravel() for m in mesh], axis=-1)
        object.__setattr__(self, "atoms", atoms)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]
