"""Deviation analysis: exploitability proxies and change-of-measure weights.

The exponential weight attached to switching one player's feedback from
alpha to beta along realized paths is

    zeta_T = exp( sum_j Xi_j . dW_j - 0.5 |Xi_j|^2 dt ),
    Xi_j   = b(t_j, X_j, m_j, beta_j) - b(t_j, X_j, m_j, alpha_j),

with Xi evaluated at the step start. Each one-step factor has exact unit
conditional expectation (Xi is fixed when the Gaussian increment arrives),
so sample means of zeta_T sit near one at every discretization. Both
weights, each player's (girsanov_weights) and player 0's through the
averaged noise (averaged_deviation_weight), take Xi from one walk over the
stored paths, _drift_difference; the second runs it on player 0 alone.

The exploitability estimate steps all repetitions of one population size
together through the shared Euler loop, in chunks whose noise fits the same
cap as the scenarios' batched runs. It sums the payoff of player 0, the one
player whose payoff it uses, inside the step and keeps only the final
states, so a chunk holds its noise, its initial clouds and a few (R, n, d)
step arrays, never paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controls import ControlField
from .games import GameSpec, MeasureStats
from .grids import positive_count
from .hjb import default_action_grid, solve_hjb, stable_spatial_grid
from .sim import (
    ParticleEnsemble,
    _check_feedbacks,
    _feedback_groups,
    _standard_error,
    chunk_inputs,
    control_drift,
    euler,
    group_drift,
    rep_chunks,
    reward_at,
)


@dataclass
class GirsanovWeights:
    """Per-player weight paths zeta, shape (n, M+1), zeta[:, 0] = 1 exactly."""

    grid: object
    zeta: np.ndarray

    @property
    def terminal(self) -> np.ndarray:
        return self.zeta[:, -1]


def _drift_difference(game: GameSpec, ensemble: ParticleEnsemble, stats_path, old, new) -> np.ndarray:
    """Xi (n, M, d): drift under new minus drift under old along stored paths."""
    n, M = ensemble.n, ensemble.grid.n_steps
    times = ensemble.grid.times
    groups = _feedback_groups(old, n)
    xi = np.empty((n, M, ensemble.dim))
    for j in range(M):
        x = ensemble.states[:, j, :]
        stats = stats_path[j]
        b_new = control_drift(game, new, j, times[j], x, stats)
        for fld, idx in groups:
            xi[idx, j] = b_new[idx] - control_drift(game, fld, j, times[j], x[idx], stats)
    return xi


def _deviation_stats(ensemble: ParticleEnsemble, flow) -> list:
    """flow's stats path; refuses an ensemble without its noise and a flow on another grid."""
    if ensemble.bundle is None:
        raise ValueError("ensemble must retain its Brownian bundle to form weights")
    if flow.grid != ensemble.grid:
        raise ValueError(f"flow time grid {flow.grid} differs from the ensemble's grid {ensemble.grid}")
    return flow.stats_path()


def girsanov_weights(game: GameSpec, ensemble: ParticleEnsemble, flow, old, new) -> GirsanovWeights:
    """Weights for switching each player from old to new, one player at a time.

    flow supplies the measure statistics entering coefficients and controls;
    pass the ensemble's own empirical flow for coupled-game paths. The
    ensemble must retain its BrownianBundle, and flow must be on its grid.
    """
    xi = _drift_difference(game, ensemble, _deviation_stats(ensemble, flow), old, new)
    dt = ensemble.grid.dt
    dw = ensemble.bundle.increments
    log_inc = np.einsum("njd,njd->nj", xi, dw) - 0.5 * np.einsum("njd,njd->nj", xi, xi) * dt
    log_zeta = np.concatenate([np.zeros((ensemble.n, 1)), np.cumsum(log_inc, axis=1)], axis=1)
    return GirsanovWeights(grid=ensemble.grid, zeta=np.exp(log_zeta))


def averaged_deviation_weight(game: GameSpec, ensemble: ParticleEnsemble, flow, old, new) -> float:
    """Terminal weight of a single deviation viewed through the averaged noise.

    The change of measure that maps the population mean path onto the mean
    path with player 0 deviating is driven by the normalized average
    Brownian motion; its integrand carries a 1/sqrt(n) factor, so the
    relative entropy of the tilt shrinks like 1/n. Player 0's drift
    differences are _drift_difference's on the one-player view of the
    ensemble; the exponent is summed step by step in Python floats.
    """
    stats_path = _deviation_stats(ensemble, flow)
    n, dt = ensemble.n, ensemble.grid.dt
    player0 = ParticleEnsemble(grid=ensemble.grid, states=ensemble.states[:1])
    xi0 = _drift_difference(game, player0, stats_path, old if isinstance(old, ControlField) else old[0], new)[0]
    w_bar = ensemble.bundle.averaged()  # (M, d)
    root_n = np.sqrt(n)
    log_z = 0.0
    for xi, dw in zip(xi0, w_bar):
        log_z += float(xi @ dw) / root_n - 0.5 * float(xi @ xi) * dt / n
    return float(np.exp(log_z))


@dataclass
class ExploitabilityResult:
    n: int
    reps: int
    j_eq: float
    j_dev: float
    gap: float      # j_dev - j_eq; signed, may sit below zero within noise
    se_gap: float
    se_eq: float
    rows: list = field(default_factory=list)


def _player0_payoffs(game: GameSpec, feedbacks, noise: np.ndarray, x0: np.ndarray, tgrid, first_rep: int) -> np.ndarray:
    """Player 0's payoff in each repetition of a chunk, stepped as one batch.

    feedbacks is the profile (a shared field or a length-n family); noise is
    (R, n, M, d) and x0 (R, n, d). Player 0's running reward is summed from
    the states and statistics each step already has, and its terminal reward
    is read from the final states, so no path is stored.
    """
    n = x0.shape[-2]
    _check_feedbacks(game, feedbacks, x0, MeasureStats.from_cloud(x0), tgrid)
    groups = _feedback_groups(feedbacks, n)
    own = feedbacks if isinstance(feedbacks, ControlField) else feedbacks[0]
    times = tgrid.times
    total = np.zeros(x0.shape[:-2])

    def drift(j, x, out):
        stats = MeasureStats.from_cloud(x)
        group_drift(game, groups, j, times[j], x, stats, out)
        total[...] += reward_at(game, own, j, times[j], x[..., :1, :], stats, tgrid)[..., 0]

    x_T = euler(drift, noise, x0, tgrid, record="last", first_rep=first_rep)
    M = tgrid.n_steps
    g = reward_at(game, own, M, times[M], x_T, MeasureStats.from_cloud(x_T), tgrid, first_rep)
    return total + g[..., 0]


def exploitability_estimate(
    game: GameSpec,
    mfe_flow,
    mfe_control: ControlField,
    *,
    n: int,
    reps: int,
    seed: int = 0,
    br_control: ControlField | None = None,
) -> ExploitabilityResult:
    """Gap between deviating against the frozen flow and conforming.

    The equilibrium run has all n players use mfe_control; the deviation run
    replaces player 0's feedback with br_control, by default the
    dynamic-programming best response to mfe_flow on the game's
    stable_spatial_grid and default_action_grid (computed once). Both runs
    of a repetition share the same Brownian bundle and initial cloud, so the
    gap estimate cancels most of the common noise. The frozen-flow best response is a proxy for the true
    n-player best response, accurate up to the flow fluctuation scale.

    Repetition r draws its noise and initial cloud from the seeds derived
    from (seed, "xp", n, r) and (seed, "xp-init", n, r). Repetitions are
    stepped in the chunks of sim.rep_chunks, whose noise, n * M * d doubles
    per repetition, fits the batched runs' 16 MiB cap (at least one
    repetition per chunk); each chunk is stepped twice, once per profile,
    through the shared Euler loop, and only player 0's payoff is kept.
    Memory is thus bounded by one chunk's noise plus a few (R, n, d) arrays,
    whatever reps is, and the rows are those of running the repetitions one
    at a time. Both profiles are refused, as in simulate_nplayer, when a
    feedback does not fit the game.
    """
    reps, n = positive_count(reps, "reps"), positive_count(n, "n")
    tgrid = mfe_flow.grid
    for name, control in (("mfe_control", mfe_control), ("br_control", br_control)):
        if control is not None and control.tgrid != tgrid:
            raise ValueError(f"{name} time grid {control.tgrid} differs from mfe_flow's grid {tgrid}")
    if br_control is None:
        br_control = solve_hjb(game, mfe_flow, stable_spatial_grid(game, tgrid), default_action_grid(game)).control

    family = [br_control] + [mfe_control] * (n - 1)
    eqs = np.empty(reps)
    devs = np.empty(reps)
    for chunk in rep_chunks(reps, n, tgrid.n_steps, game.dim):
        noise, x0 = chunk_inputs(game, chunk, n, tgrid, seed, ("xp", "xp-init"))
        eqs[chunk.start:chunk.stop] = _player0_payoffs(game, mfe_control, noise, x0, tgrid, chunk.start)
        devs[chunk.start:chunk.stop] = _player0_payoffs(game, family, noise, x0, tgrid, chunk.start)
    gaps = devs - eqs
    rows = [{"n": n, "rep": r, "j_eq": float(eqs[r]), "j_dev": float(devs[r])} for r in range(reps)]
    return ExploitabilityResult(
        n=n, reps=reps, j_eq=float(eqs.mean()), j_dev=float(devs.mean()),
        gap=float(gaps.mean()), se_gap=_standard_error(gaps), se_eq=_standard_error(eqs), rows=rows,
    )
