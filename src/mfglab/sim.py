"""Euler integration of the coupled n-player system and of frozen-flow copies.

Conventions shared by every simulator here:
  * uniform grid, unit diffusion, increments supplied by a BrownianBundle
    (or, batched, by bundles stacked along a leading repetition axis);
  * coefficients are evaluated with the measure statistics at the step start;
  * realized per-step drifts are recorded so change-of-measure weights and
    drift projections can be formed after the fact.

All of them step through one loop, euler(), over states shaped (..., n, d):
the public simulators pass a single system (no leading axis), and batched
callers pass R independent repetitions at once, shaped (R, n, d), so the
per-step Python work is paid once per batch instead of once per repetition.
Batched callers split their repetitions into chunks with rep_chunks() and
draw each chunk's noise and initial clouds with chunk_inputs().

Noise, states and drifts live in time-major memory, (M, ..., n, d) per
repetition, so each Euler step reads and writes one contiguous slab; the
documented particle-major shapes, (n, M, d) and (n, M+1, d), are swapaxes
views of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controls import ControlField
from .games import GameSpec, MeasureStats
from .grids import TimeGrid
from .rng import BrownianBundle, derive_seed, initial_cloud, sample_brownian

# Noise held by one chunk of repetitions. A chunk takes as many repetitions as
# fit under it (at least one); it bounds the memory of a batched run and does
# not depend on the thread count, so chunk contents, and hence results, do not
# either.
_CHUNK_NOISE_BYTES = 16 << 20


@dataclass
class ParticleEnsemble:
    """Simulated paths: states (n, M+1, d) on a shared TimeGrid.

    The simulators here return states and drifts as views of time-major
    (M+1, n, d) and (M, n, d) memory.
    """

    grid: TimeGrid
    states: np.ndarray
    bundle: BrownianBundle | None = None
    drifts: np.ndarray | None = None  # (n, M, d) realized drift per step
    seed: int | None = None

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def cloud(self, j: int) -> np.ndarray:
        return self.states[:, j, :]


def _check_finite(values: np.ndarray, what: str, t: float, x: np.ndarray, first_rep: int = 0) -> None:
    """Raise on the first non-finite entry of values (..., n, ...) aligned with states x (..., n, d).

    With a leading repetition axis the message names the repetition, counted
    from first_rep.
    """
    if not np.isfinite(values).all():
        bad = ~np.isfinite(values)
        lead = x.shape[:-1]
        where = tuple(int(i) for i in np.argwhere(bad.reshape(lead + (-1,)).any(axis=-1))[0])
        rep = f"repetition {first_rep + where[0]}, " if len(where) > 1 else ""
        raise FloatingPointError(
            f"{what} evaluated to a non-finite value at t={t:.6g}, {rep}particle {where[-1]}, state {x[where].tolist()}"
        )


def atom_values(coef, t: float, x: np.ndarray, stats: MeasureStats, atoms: np.ndarray) -> np.ndarray:
    """A game coefficient (game.drift or game.running) at every action atom.

    coef is called once per atom, with the atom broadcast against the states
    x (..., d), so coefficients that broadcast only against x work too; the
    results are stacked on a leading atom axis, shaped (n_atoms, ...).
    """
    n_atoms, k = atoms.shape
    per_atom = np.broadcast_to(atoms.reshape((n_atoms,) + (1,) * (x.ndim - 1) + (k,)), (n_atoms,) + x.shape[:-1] + (k,))
    return np.array([coef(t, x, stats, a) for a in per_atom], dtype=float)


def _controlled(coef, control: ControlField, j: int, t: float, x: np.ndarray, stats: MeasureStats) -> np.ndarray:
    """coef under one control at one step; relaxed controls average it over their atoms."""
    if not control.is_relaxed:
        return coef(t, x, stats, control.actions(j, t, x, stats))
    values = atom_values(coef, t, x, stats, control.agrid.atoms)
    weights = np.moveaxis(control.probabilities(j, x), -1, 0)
    weights = weights.reshape(weights.shape + (1,) * (values.ndim - weights.ndim))
    # Python's sum adds the atoms one by one, in order; np.add.reduce sums
    # them pairwise when x holds a single state, which changes the last bits
    return sum(weights * values)


def control_drift(game: GameSpec, control: ControlField, j: int, t: float, x: np.ndarray, stats: MeasureStats) -> np.ndarray:
    """Realized drift (n, d) of one control at one step.

    Relaxed controls contribute the probability-weighted average of the drift
    over their action atoms.
    """
    return _controlled(game.drift, control, j, t, x, stats)


def control_running(game: GameSpec, control: ControlField, j: int, t: float, x: np.ndarray, stats: MeasureStats) -> np.ndarray:
    """Realized running reward (n,) of one control at one step."""
    return _controlled(game.running, control, j, t, x, stats)


def reward_at(game: GameSpec, control: ControlField, j: int, t: float, x: np.ndarray, stats: MeasureStats, grid: TimeGrid, first_rep: int = 0) -> np.ndarray:
    """What states x (..., n, d) earn at node j of grid, whose time is t:
    f(t, x, m, a) dt under control for j < M, the terminal reward g(x, m)
    at j = M.

    Terminal rewards are checked finite; with a leading repetition axis the
    error names the repetition, counted from first_rep.
    """
    if j < grid.n_steps:
        return control_running(game, control, j, t, x, stats) * grid.dt
    g = np.asarray(game.terminal(x, stats), dtype=float)
    _check_finite(g[..., None], "terminal reward", t, x, first_rep)
    return g


def _feedback_groups(feedbacks, n: int):
    """Normalize a shared field or a length-n family into (field, indices) groups."""
    if isinstance(feedbacks, ControlField):
        return [(feedbacks, slice(None))]
    fields = list(feedbacks)
    if len(fields) != n:
        raise ValueError(f"need one feedback per player: got {len(fields)} for n={n}")
    groups = []
    seen: dict = {}
    for k, f in enumerate(fields):
        seen.setdefault(id(f), (f, []))[1].append(k)
    for f, idx in seen.values():
        groups.append((f, np.asarray(idx, dtype=np.intp)))
    return groups


def _prep_init(init: np.ndarray, n: int, dim: int) -> np.ndarray:
    init = np.asarray(init, dtype=float)
    if init.ndim == 1:
        init = init[:, None]
    if init.shape != (n, dim):
        raise ValueError(f"initial cloud must be ({n}, {dim}), got {init.shape}")
    return init


def rep_chunks(reps: int, n: int, n_steps: int, dim: int) -> list:
    """Consecutive repetition ranges whose noise, n * n_steps * dim doubles each, fits the cap."""
    size = max(1, _CHUNK_NOISE_BYTES // (n * n_steps * dim * 8))
    return [range(lo, min(lo + size, reps)) for lo in range(0, reps, size)]


def chunk_inputs(game: GameSpec, chunk: range, n: int, grid: TimeGrid, seed: int, labels) -> tuple:
    """Noise (R, n, M, d) and initial clouds (R, n, d) of the repetitions in chunk.

    Repetition r draws its noise and initial cloud from the seeds derived
    from (seed, label, n, r) for the noise and initial-cloud labels; its
    noise goes straight into its slot of the chunk buffer, which is laid out
    (R, M, n, d) and returned as its (R, n, M, d) view.
    """
    noise_label, init_label = labels
    noise = np.empty((len(chunk), grid.n_steps, n, game.dim))
    x0 = np.empty((len(chunk), n, game.dim))
    sampler = game.initial.sampler()
    for i, r in enumerate(chunk):
        sample_brownian(derive_seed(seed, noise_label, n, r), n, grid, game.dim, out=noise[i])
        x0[i] = initial_cloud(derive_seed(seed, init_label, n, r), n, sampler)
    return np.swapaxes(noise, 1, 2), x0


def euler(drift, noise: np.ndarray, init: np.ndarray, grid: TimeGrid, record: str = "full", first_rep: int = 0):
    """The Euler loop: x_{j+1} = x_j + b_j dt + dW_j over states shaped (..., n, d).

    noise holds the increments, shaped (..., n, M, d), and init the starting
    states (..., n, d); the leading axes, if any, index independent
    repetitions. Each step reads noise[..., :, j, :], which is one contiguous
    slab when noise is a view of time-major (..., M, n, d) memory, as
    sample_brownian and chunk_inputs draw it. drift(j, x, out) writes the
    drift at step j for states x into out, shaped like x; every step is
    checked for non-finite drifts.

    record="full" returns (states (..., n, M+1, d), drifts (..., n, M, d)),
    views of time-major (..., M+1, n, d) and (..., M, n, d) memory;
    record="mean" returns only the particle-mean path (..., M+1, d) and
    record="last" only the final states (..., n, d), so a batch needs no
    more memory than its noise. first_rep is the number of the batch's
    first repetition, used to name a repetition in errors.
    """
    M = grid.n_steps
    if noise.shape[-2] != M or noise.shape[:-2] != init.shape[:-1] or noise.shape[-1] != init.shape[-1]:
        raise ValueError(f"noise {noise.shape} does not fit initial states {init.shape} on {M} steps")
    dt, times = grid.dt, grid.times
    dw = np.swapaxes(noise, -3, -2)  # (..., M, n, d)
    if record == "full":
        states = np.empty(init.shape[:-2] + (M + 1,) + init.shape[-2:])
        drifts = np.empty(dw.shape)
        states[..., 0, :, :] = init
        x = states[..., 0, :, :]
    elif record in ("mean", "last"):
        if record == "mean":
            means = np.empty(init.shape[:-2] + (M + 1,) + init.shape[-1:])
        step = np.empty(init.shape)
        pair = np.empty((2,) + init.shape)  # the next states alternate between these
        x = init
    else:
        raise ValueError(f"record must be 'full', 'mean' or 'last', got {record!r}")
    for j in range(M):
        if record == "full":
            step, nxt = drifts[..., j, :, :], states[..., j + 1, :, :]
        else:
            nxt = pair[j % 2]
            if record == "mean":
                means[..., j, :] = np.add.reduce(x, axis=-2)
        drift(j, x, step)
        _check_finite(step, "drift", times[j], x, first_rep)
        # x + step * dt + dW, in that order, written straight into the next states
        np.multiply(step, dt, out=nxt)
        np.add(x, nxt, out=nxt)
        np.add(nxt, dw[..., j, :, :], out=nxt)
        x = nxt
    if record == "full":
        return np.swapaxes(states, -3, -2), np.swapaxes(drifts, -3, -2)
    if record == "last":
        return x
    means[..., M, :] = np.add.reduce(x, axis=-2)
    means /= init.shape[-2]  # sums to means, the division np.mean makes
    return means


def nplayer_drift(game: GameSpec, feedbacks, grid: TimeGrid, n: int):
    """Drift of the coupled system for euler(): each player's feedback sees its
    own state and the statistics of its repetition's current cloud.

    feedbacks is a single ControlField shared by all players or a length-n
    family (one entry per player, duplicates allowed and grouped).
    """
    groups = _feedback_groups(feedbacks, n)
    times = grid.times

    def drift(j, x, out):
        group_drift(game, groups, j, times[j], x, MeasureStats.from_cloud(x), out)

    return drift


def group_drift(game: GameSpec, groups, j: int, t: float, x: np.ndarray, stats: MeasureStats, out: np.ndarray) -> None:
    """Write each feedback group's drift at step j for states x (..., n, d) into out."""
    for field, idx in groups:
        out[..., idx, :] = control_drift(game, field, j, t, x[..., idx, :], stats)


def _check_bundle(game: GameSpec, bundle: BrownianBundle) -> None:
    if bundle.dim != game.dim:
        raise ValueError(f"bundle dimension {bundle.dim} does not match game dimension {game.dim}")


def simulate_nplayer(game: GameSpec, feedbacks, bundle: BrownianBundle, init: np.ndarray) -> ParticleEnsemble:
    """Integrate the coupled system: every player feeds back on its own state
    and on the statistics of the current empirical measure.

    feedbacks is a single ControlField shared by all players or a length-n
    family (one entry per player, duplicates allowed and grouped).
    """
    _check_bundle(game, bundle)
    init = _prep_init(init, bundle.n, bundle.dim)
    drift = nplayer_drift(game, feedbacks, bundle.grid, bundle.n)
    states, drifts = euler(drift, bundle.increments, init, bundle.grid)
    return ParticleEnsemble(grid=bundle.grid, states=states, bundle=bundle, drifts=drifts, seed=bundle.seed)


def simulate_frozen_flow(game: GameSpec, control: ControlField, flow, bundle: BrownianBundle, init: np.ndarray) -> ParticleEnsemble:
    """Integrate i.i.d. copies against a frozen measure flow.

    flow only needs a stats_path() method; particles never see each other, so
    the cloud is a plain Monte Carlo sample of the controlled one-player law.
    """
    _check_bundle(game, bundle)
    init = _prep_init(init, bundle.n, bundle.dim)
    stats_path = flow.stats_path()
    if len(stats_path) != bundle.grid.n_steps + 1:
        raise ValueError("flow and bundle must share the time grid")
    times = bundle.grid.times

    def drift(j, x, out):
        out[...] = control_drift(game, control, j, times[j], x, stats_path[j])

    states, drifts = euler(drift, bundle.increments, init, bundle.grid)
    return ParticleEnsemble(grid=bundle.grid, states=states, bundle=bundle, drifts=drifts, seed=bundle.seed)


def integrate_paths(drift, bundle: BrownianBundle, init: np.ndarray) -> ParticleEnsemble:
    """Integrate exogenous drifts: an (n, M, d) array or a callable (j, x) -> (n, d).

    Used for processes whose drift is not a feedback, such as a random drift
    attached to each particle.
    """
    n, M, d = bundle.n, bundle.grid.n_steps, bundle.dim
    init = _prep_init(init, n, d)
    if not callable(drift):
        table = np.asarray(drift, dtype=float)
        if table.shape != (n, M, d):
            raise ValueError(f"drift array must be ({n}, {M}, {d}), got {table.shape}")
        table = np.ascontiguousarray(np.swapaxes(table, 0, 1))  # (M, n, d): one slab per step
        drift = lambda j, x: table[j]

    def fill(j, x, out):
        out[...] = drift(j, x)

    states, drifts = euler(fill, bundle.increments, init, bundle.grid)
    return ParticleEnsemble(grid=bundle.grid, states=states, bundle=bundle, drifts=drifts, seed=bundle.seed)


def path_payoffs(game: GameSpec, ensemble: ParticleEnsemble, feedbacks, stats_path=None) -> np.ndarray:
    """Per-particle payoff sum_j f(t_j, X_j, m_j, a_j) dt + g(X_T, m_T).

    stats_path is the per-time list of MeasureStats the coefficients should
    see; by default it is recomputed from the ensemble's own clouds (the
    coupled-game convention). Pass a frozen flow's stats for one-player runs.
    """
    n, grid, M = ensemble.n, ensemble.grid, ensemble.grid.n_steps
    groups = _feedback_groups(feedbacks, n)
    times = grid.times
    own_stats = stats_path is None
    total = np.zeros(n)
    for j in range(M):
        x = ensemble.states[:, j, :]
        stats = MeasureStats.from_cloud(x) if own_stats else stats_path[j]
        for field, idx in groups:
            total[idx] += reward_at(game, field, j, times[j], x[idx], stats, grid)
    x_T = ensemble.states[:, M, :]
    stats_T = MeasureStats.from_cloud(x_T) if own_stats else stats_path[M]
    return total + reward_at(game, None, M, times[M], x_T, stats_T, grid)
