"""Backward dynamic programming for the frozen-flow control problem.

The value function solves, backwards from V(T, x) = g(x, m_T),

    V_j = V_{j+1} + dt * ( 0.5 * lap V_{j+1} + max_a [ b . grad V_{j+1} + f ] )

on a uniform box lattice with Neumann (copied-edge) boundaries. The gradient
is upwinded against the drift sign, which makes the explicit scheme monotone
provided the step satisfies dt <= h^2 / (d + h * sup|b|). Coefficients are
evaluated at the step-start time and measure, matching the simulators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controls import ControlField
from .games import GameSpec
from .grids import ActionGrid, SpatialGrid, TimeGrid
from .relaxed import _match_drift
from .rng import BrownianBundle
from .sim import _standard_error, coefficient_table, path_payoffs, simulate_frozen_flow

_MAX_NODES = 2001  # stable_spatial_grid's cap on the nodes per axis


class CFLError(RuntimeError):
    """Raised before any time stepping when the explicit scheme would be unstable."""


def cfl_limit(sgrid: SpatialGrid, drift_bound: float) -> float:
    """Largest stable dt for the explicit upwind scheme on this grid."""
    h = float(sgrid.spacing.min())
    return h * h / (sgrid.dim + h * drift_bound)


def check_cfl(tgrid: TimeGrid, sgrid: SpatialGrid, drift_bound: float) -> None:
    limit = cfl_limit(sgrid, drift_bound)
    # written so that a NaN limit fails
    if not tgrid.dt <= limit * (1 + 1e-12):
        raise CFLError(
            f"explicit scheme unstable: dt={tgrid.dt:.6g} exceeds the stability limit "
            f"{limit:.6g} for spacing {float(sgrid.spacing.min()):.6g} and drift bound "
            f"{drift_bound:.6g}; need dt <= {limit:.6g}"
        )


def stable_spatial_grid(game: GameSpec, tgrid: TimeGrid) -> SpatialGrid:
    """Finest stable shared-count box lattice, at most _MAX_NODES per axis.

    The box is the game's declared state box, which already covers the
    initial support plus worst-case drift plus six standard deviations.
    """
    dt, d, b = tgrid.dt, game.dim, game.drift_bound
    # smallest stable spacing: positive root of h^2 - dt*b*h - dt*d = 0
    h_min = 0.5 * (dt * b + np.sqrt((dt * b) ** 2 + 4.0 * dt * d))
    span = float((game.state_hi - game.state_lo).min())
    n_nodes = int(np.floor(span / h_min)) + 1
    n_nodes = max(3, min(n_nodes, _MAX_NODES))
    if n_nodes % 2 == 0:
        # state boxes are centered on the initial support, so an odd count
        # keeps the center (the natural evaluation point) on the lattice
        n_nodes -= 1
    grid = SpatialGrid(game.state_lo, game.state_hi, n_nodes)
    check_cfl(tgrid, grid, b)
    return grid


def default_action_grid(game: GameSpec) -> ActionGrid:
    """Five atoms per axis of the game's action box, or one for a point box."""
    n_per_axis = 1 if np.allclose(game.action_lo, game.action_hi) else 5
    return ActionGrid(game.action_lo, game.action_hi, n_per_axis)


@dataclass
class ValueField:
    tgrid: TimeGrid
    sgrid: SpatialGrid
    values: np.ndarray  # (M+1, *space_shape)


@dataclass
class HJBSolution:
    value: ValueField
    control: ControlField


def solve_hjb(
    game: GameSpec,
    flow,
    sgrid: SpatialGrid,
    agrid: ActionGrid,
    *,
    tie_tol: float = 0.0,
) -> HJBSolution:
    """Dynamic programming against a frozen flow.

    The per-node maximization scans the ActionGrid atoms. With tie_tol 0,
    exact ties go to the lowest lattice index. With tie_tol > 0, atoms whose
    Hamiltonian is within tie_tol of the maximum count as tied and the
    representative is the tied atom whose drift is closest to the tied set's
    average drift (then largest running reward, then lowest index). That
    keeps statistically indistinguishable actions from collapsing onto an
    arbitrary extreme.
    """
    if not 0.0 <= tie_tol < np.inf:
        raise ValueError(f"tie_tol must be finite and non-negative, got {tie_tol!r}")
    if sgrid.dim != game.dim:
        raise ValueError("spatial grid dimension must match the game")
    tgrid = flow.grid
    check_cfl(tgrid, sgrid, game.drift_bound)

    M = tgrid.n_steps
    dt = tgrid.dt
    times = tgrid.times
    stats_path = flow.stats_path()
    nodes = sgrid.nodes()  # (P, d)
    space = sgrid.shape
    spacing = sgrid.spacing
    atoms = agrid.atoms
    nA = atoms.shape[0]
    # V lives inside a buffer padded by one copied edge node on every side
    # (Neumann ghosts); the neighbours along an axis are slices of it,
    # interior on the other axes, and only the ghosts change between steps
    inner = [slice(1, -1)] * sgrid.dim
    up = [tuple(inner[:ax] + [slice(2, None)] + inner[ax + 1 :]) for ax in range(sgrid.dim)]
    down = [tuple(inner[:ax] + [slice(None, -2)] + inner[ax + 1 :]) for ax in range(sgrid.dim)]
    ghost_copies = [
        (tuple([slice(None)] * ax + [ghost]), tuple([slice(None)] * ax + [edge]))
        for ax in range(sgrid.dim)
        for ghost, edge in ((0, 1), (-1, -2))
    ]
    Vp = np.empty(tuple(n + 2 for n in space))
    V = Vp[tuple(inner)]

    stats_T = stats_path[M]
    V[...] = np.asarray(game.terminal(nodes, stats_T), dtype=float).reshape(space)
    if not np.isfinite(V).all():
        raise FloatingPointError("terminal reward evaluated to a non-finite value on the grid")

    values = np.empty((M + 1,) + space)
    values[M] = V
    control_values = np.empty((M,) + space + (atoms.shape[1],))
    B_nodes, F_nodes = coefficient_table(game, times[:M], stats_path, nodes, atoms)
    B = B_nodes.reshape((M, nA) + space + (sgrid.dim,))
    F = F_nodes.reshape((M, nA) + space)

    for j in range(M - 1, -1, -1):
        t = times[j]
        for ghost, edge in ghost_copies:
            Vp[ghost] = Vp[edge]

        # centered Laplacian (action-independent) and upwinded convection,
        # the latter for all atoms at once
        lap = np.zeros(space)
        conv = np.zeros((nA,) + space)
        for ax in range(sgrid.dim):
            V_up, V_down = Vp[up[ax]], Vp[down[ax]]
            lap += (V_up - 2.0 * V + V_down) / spacing[ax] ** 2
            b = B[j, ..., ax]
            conv += np.maximum(b, 0.0) * ((V_up - V) / spacing[ax]) - np.maximum(-b, 0.0) * ((V - V_down) / spacing[ax])
        H = conv + F[j]

        if not np.isfinite(H).all():
            raise FloatingPointError(f"coefficients produced a non-finite Hamiltonian at t={t:.6g}")

        Hmax = H.max(axis=0)
        if tie_tol == 0.0:
            sel = H.argmax(axis=0)
        else:
            tied = (H >= Hmax - tie_tol).reshape(nA, -1)
            sel, _ = _match_drift(tied / tied.sum(axis=0), B_nodes[j], F_nodes[j], 1e-12, among=tied)
            sel = sel.reshape(space)

        control_values[j] = atoms[sel]
        V += dt * (0.5 * lap + Hmax)
        if not np.isfinite(V).all():
            raise FloatingPointError(f"value update produced a non-finite value at t={t:.6g}")
        values[j] = V

    field = ValueField(tgrid=tgrid, sgrid=sgrid, values=values)
    control = ControlField.pure(tgrid, sgrid, control_values, name=f"dp[{game.name}]")
    return HJBSolution(value=field, control=control)


def evaluate_payoff(game: GameSpec, flow, control: ControlField, bundle: BrownianBundle, init: np.ndarray):
    """Monte Carlo payoff of a control against a frozen flow.

    Returns (estimate, standard error). Relaxed controls are integrated by
    averaging drift and running reward over their atom probabilities.
    """
    ens = simulate_frozen_flow(game, control, flow, bundle, init)
    payoffs = path_payoffs(game, ens, control, stats_path=flow.stats_path())
    return float(payoffs.mean()), _standard_error(payoffs)
