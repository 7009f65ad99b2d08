"""Feedback control fields: grid-backed (pure or relaxed) and analytic.

A pure grid field stores one action per (time step, lattice node) and is
evaluated by nearest-node lookup, piecewise constant in time on [t_j, t_{j+1}).
A relaxed grid field stores a probability row over ActionGrid atoms per node.
An analytic field wraps a callable (t, x, stats) -> actions and is the hook
for closed-form feedbacks such as "follow the sign of the population mean".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import ActionGrid, SpatialGrid, TimeGrid

_ROW_SUM_TOL = 1e-12


@dataclass
class ControlField:
    tgrid: TimeGrid
    mode: str  # "pure" | "relaxed" | "analytic"
    sgrid: SpatialGrid | None = None
    agrid: ActionGrid | None = None
    # pure: (M, *space_shape, action_dim); relaxed: (M, *space_shape, n_atoms)
    values: np.ndarray | None = None
    func: Callable | None = None
    name: str = ""

    def __post_init__(self):
        if self.mode not in ("pure", "relaxed", "analytic"):
            raise ValueError(f"unknown control mode {self.mode!r}")
        M = self.tgrid.n_steps
        if self.mode == "analytic":
            if self.func is None:
                raise ValueError("analytic control needs a callable")
            return
        if self.sgrid is None or self.values is None:
            raise ValueError(f"{self.mode} control needs a spatial grid and a value array")
        expected_lead = (M,) + self.sgrid.shape
        if self.values.shape[: self.sgrid.dim + 1] != expected_lead:
            raise ValueError(f"value array must lead with {expected_lead}, got {self.values.shape}")
        if self.mode == "relaxed":
            if self.agrid is None:
                raise ValueError("relaxed control needs an action grid")
            if self.values.shape[-1] != self.agrid.n_atoms:
                raise ValueError("relaxed rows must have one entry per action atom")
            # written so that a NaN entry fails both checks
            if not np.all(self.values >= -_ROW_SUM_TOL):
                raise ValueError("relaxed probabilities must be nonnegative, and not NaN")
            row_sums = self.values.sum(axis=-1)
            worst = float(np.abs(row_sums - 1.0).max())
            if not worst <= _ROW_SUM_TOL:
                raise ValueError(f"relaxed rows must sum to 1 within {_ROW_SUM_TOL}, worst error {worst:.3e}")

    @property
    def is_relaxed(self) -> bool:
        return self.mode == "relaxed"

    def actions(self, j: int, t: float, x: np.ndarray, stats) -> np.ndarray:
        """Actions for states x (n, d) at step j; not defined for relaxed fields."""
        if self.mode == "relaxed":
            raise ValueError("relaxed control has no single action; use probabilities()")
        if self.mode == "analytic":
            a = np.asarray(self.func(t, x, stats), dtype=float)
            if a.ndim == x.ndim - 1:
                a = a[..., None]
            return a
        idx = self.sgrid.nearest_index(x)
        return self.values[(j,) + idx]

    def probabilities(self, j: int, x: np.ndarray) -> np.ndarray:
        """Atom probability rows for states x (n, d) at step j."""
        if self.mode != "relaxed":
            raise ValueError("only relaxed controls carry atom probabilities")
        idx = self.sgrid.nearest_index(x)
        return self.values[(j,) + idx]

    @classmethod
    def pure(cls, tgrid, sgrid, values, name="") -> "ControlField":
        return cls(tgrid=tgrid, mode="pure", sgrid=sgrid, values=np.asarray(values, dtype=float), name=name)

    @classmethod
    def relaxed(cls, tgrid, sgrid, agrid, probs, name="") -> "ControlField":
        return cls(tgrid=tgrid, mode="relaxed", sgrid=sgrid, agrid=agrid, values=np.asarray(probs, dtype=float), name=name)

    @classmethod
    def analytic(cls, tgrid, func, name="") -> "ControlField":
        return cls(tgrid=tgrid, mode="analytic", func=func, name=name)

    @classmethod
    def constant(cls, tgrid, a0, name="") -> "ControlField":
        a0 = np.atleast_1d(np.asarray(a0, dtype=float))
        return cls.analytic(tgrid, lambda t, x, stats: np.full(x.shape[:-1] + a0.shape, a0), name=name or f"constant[{a0.tolist()}]")


def sign_of_mean(tgrid: TimeGrid, start: float = 0.0) -> ControlField:
    """Drift with the sign of the population mean once t > start; sign(0) = 0."""

    def func(t, x, stats):
        a = np.empty(x.shape[:-1] + (1,))  # np.full's bits, without its wrapper: it runs once per Euler step
        a[...] = np.sign(stats.mean[..., 0, None]) if t > start else 0.0
        return a

    return ControlField.analytic(tgrid, func, name=f"sign_of_mean[start={start}]")

