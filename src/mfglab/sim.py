"""Euler integration of the coupled n-player system and of frozen-flow copies.

Conventions shared by every simulator here:
  * uniform grid, unit diffusion, increments supplied by a BrownianBundle
    (or, batched, by bundles stacked along a leading repetition axis);
  * coefficients are evaluated with the measure statistics at the step start;
  * only the states are kept: each step's drift is written into one reused
    buffer, and no simulator records the drifts it computed.

All of them step through one loop, euler(), over states shaped (..., n, d):
the public simulators pass a single system (no leading axis), and batched
callers pass R independent repetitions at once, shaped (R, n, d), so the
per-step Python work is paid once per batch instead of once per repetition.
Batched callers split their repetitions into chunks with rep_chunks() and
draw each chunk's noise and initial clouds with chunk_inputs(). A family of
feedbacks is grouped by field; a group of consecutive players reads its
states as a slice view, and one pure or analytic field shared by every
player is called directly, without the group machinery.

Noise and states live in time-major memory, (M, ..., n, d) per repetition,
so each Euler step reads and writes one contiguous slab; the documented
particle-major shapes, (n, M, d) and (n, M+1, d), are swapaxes views of it.
An ensemble carries drifts only when integrate_paths was given an array
drift: they are a read-only view of the caller's array, which is not copied.
"""

from __future__ import annotations

import math
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

    The simulators here return states as a view of time-major (M+1, n, d)
    memory. drifts is set only by integrate_paths with an array drift, and
    is then the caller's own (n, M, d) array, read-only; every other
    ensemble has drifts None.
    """

    grid: TimeGrid
    states: np.ndarray
    bundle: BrownianBundle | None = None
    drifts: np.ndarray | None = None  # (n, M, d) array drift integrate_paths was given

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]


def _check_finite(values: np.ndarray, what: str, t: float, x: np.ndarray, first_rep: int = 0) -> None:
    """Raise on the first non-finite entry of values (..., n, ...) aligned with states x (..., n, d).

    With a leading repetition axis the message names the repetition, counted
    from first_rep.
    """
    # a cheap screen, run once per Euler step: a sum of squares is finite
    # only if every entry is; when it is not, an entry is non-finite or the
    # sum overflowed, and the entries themselves decide
    if math.isfinite(np.vdot(values, values)):
        return
    bad = ~np.isfinite(values)
    if bad.any():
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


def coefficient_table(game: GameSpec, times: np.ndarray, stats_path, nodes: np.ndarray, atoms: np.ndarray):
    """Drift and running reward at every step, atom and node.

    Returns B shaped (M, n_atoms, P, d) and F shaped (M, n_atoms, P) for the
    M times, the first M entries of stats_path, the nodes (P, d) and the
    atoms (n_atoms, k). A game that declares coefficients_batch_time gets one
    call per coefficient, and the tables may then be read-only broadcast
    views; other games get one atom_values call per step and coefficient.
    Entries have the bits of the per-step call either way.
    """
    M = len(times)
    (P, d), (nA, k) = nodes.shape, atoms.shape
    if game.coefficients_batch_time:
        t = np.asarray(times, dtype=float).reshape(M, 1, 1)
        stats = MeasureStats(np.stack([s.mean for s in stats_path[:M]]).reshape(M, 1, 1, -1))
        x, a = nodes.reshape(1, 1, P, d), atoms.reshape(1, nA, 1, k)
        B = np.broadcast_to(np.asarray(game.drift(t, x, stats, a), dtype=float), (M, nA, P, d))
        F = np.broadcast_to(np.asarray(game.running(t, x, stats, a), dtype=float), (M, nA, P))
        return B, F
    B = np.empty((M, nA, P, d))
    F = np.empty((M, nA, P))
    for j in range(M):
        B[j] = atom_values(game.drift, times[j], nodes, stats_path[j], atoms).reshape(nA, P, d)
        F[j] = atom_values(game.running, times[j], nodes, stats_path[j], atoms).reshape(nA, P)
    return B, F


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
    """Normalize a shared field or a length-n family into (field, indices) groups.

    A family is grouped by field, in order of first appearance. A group whose
    players form one contiguous run is indexed by a slice, so its states are
    read as a view rather than gathered; other groups get an index array.
    """
    if isinstance(feedbacks, ControlField):
        return [(feedbacks, slice(None))]
    fields = list(feedbacks)
    if len(fields) != n:
        raise ValueError(f"need one feedback per player: got {len(fields)} for n={n}")
    seen: dict = {}
    for k, f in enumerate(fields):
        seen.setdefault(id(f), (f, []))[1].append(k)
    groups = []
    for f, idx in seen.values():
        contiguous = idx[-1] - idx[0] == len(idx) - 1
        groups.append((f, slice(idx[0], idx[-1] + 1) if contiguous else np.asarray(idx, dtype=np.intp)))
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


def euler(drift, noise: np.ndarray, init: np.ndarray, grid: TimeGrid, record: str = "paths", first_rep: int = 0):
    """The Euler loop: x_{j+1} = x_j + b_j dt + dW_j over states shaped (..., n, d).

    noise holds the increments, shaped (..., n, M, d), and init the starting
    states (..., n, d); the leading axes, if any, index independent
    repetitions. Each step reads noise[..., :, j, :], which is one contiguous
    slab when noise is a view of time-major (..., M, n, d) memory, as
    sample_brownian and chunk_inputs draw it. drift(j, x, out) writes the
    drift at step j for states x into out, one buffer shaped like x that
    every step reuses, so no drift outlives its step; the initial states
    and every step's drifts are checked for non-finite values. Under "mean"
    and "last" the states are one copy of init, stepped in place, so the
    states x a drift is handed are overwritten by the next step; init itself
    is never written.

    record="paths" returns the states (..., n, M+1, d), a view of time-major
    (..., M+1, n, d) memory; record="mean" returns only the particle-mean
    path (..., M+1, d) and record="last" only the final states (..., n, d),
    so a batch needs no more memory than its noise. first_rep is the number
    of the batch's first repetition, used to name a repetition in errors.
    """
    if record not in ("paths", "mean", "last"):
        raise ValueError(f"record must be 'paths', 'mean' or 'last', got {record!r}")
    M = grid.n_steps
    if noise.shape[-2] != M or noise.shape[:-2] != init.shape[:-1] or noise.shape[-1] != init.shape[-1]:
        raise ValueError(f"noise {noise.shape} does not fit initial states {init.shape} on {M} steps")
    dt, times = grid.dt, grid.times
    _check_finite(init, "initial state", times[0], init, first_rep)
    dw = np.swapaxes(noise, -3, -2)  # (..., M, n, d)
    if record == "paths":
        states = np.empty(init.shape[:-2] + (M + 1,) + init.shape[-2:])
        states[..., 0, :, :] = init
        x = states[..., 0, :, :]
    else:
        if record == "mean":
            means = np.empty(init.shape[:-2] + (M + 1,) + init.shape[-1:])
        x = nxt = init.copy()  # the one state buffer
    step = np.empty(init.shape)  # the one drift buffer
    for j in range(M):
        if record == "paths":
            nxt = states[..., j + 1, :, :]
        elif record == "mean":
            np.add.reduce(x, axis=-2, out=means[..., j, :])
        drift(j, x, step)
        _check_finite(step, "drift", times[j], x, first_rep)
        # x + step * dt + dW, in that order, written straight into the next states
        step *= dt
        np.add(x, step, out=nxt)
        nxt += dw[..., j, :, :]
        x = nxt
    if record == "paths":
        return np.swapaxes(states, -3, -2)
    if record == "last":
        return x
    np.add.reduce(x, axis=-2, out=means[..., M, :])
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
    if len(groups) == 1 and not groups[0][0].is_relaxed:
        # one pure or analytic field for every player: its drift, with no group hops
        coef, actions = game.drift, groups[0][0].actions

        def drift(j, x, out):
            t, stats = times[j], MeasureStats.from_cloud(x)
            out[...] = coef(t, x, stats, actions(j, t, x, stats))

        return drift

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
    return ParticleEnsemble(grid=bundle.grid, states=euler(drift, bundle.increments, init, bundle.grid), bundle=bundle)


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

    return ParticleEnsemble(grid=bundle.grid, states=euler(drift, bundle.increments, init, bundle.grid), bundle=bundle)


def integrate_paths(drift, bundle: BrownianBundle, init: np.ndarray) -> ParticleEnsemble:
    """Integrate exogenous drifts: an (n, M, d) array or a callable (j, x) -> (n, d).

    Used for processes whose drift is not a feedback, such as a random drift
    attached to each particle. An array drift is read in place, one step's
    column at a time, and the ensemble's drifts are a read-only view of it
    (of the float64 copy np.asarray makes of any other input), so the
    caller must not write into it while the ensemble is in use. A callable's
    drifts are not recorded: its ensemble has drifts None.
    """
    n, M, d = bundle.n, bundle.grid.n_steps, bundle.dim
    init = _prep_init(init, n, d)
    drifts = None
    if callable(drift):
        def fill(j, x, out):
            out[...] = drift(j, x)
    else:
        table = np.asarray(drift, dtype=float)
        if table.shape != (n, M, d):
            raise ValueError(f"drift array must be ({n}, {M}, {d}), got {table.shape}")

        def fill(j, x, out):
            out[...] = table[:, j]

        drifts = table.view()
        drifts.flags.writeable = False
    states = euler(fill, bundle.increments, init, bundle.grid)
    return ParticleEnsemble(grid=bundle.grid, states=states, bundle=bundle, drifts=drifts)


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


def _standard_error(samples: np.ndarray) -> float:
    """Monte Carlo standard error of the mean of samples (n,); inf for one sample."""
    n = samples.shape[0]
    return float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
