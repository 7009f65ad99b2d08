"""Fixed-point machinery for mean field equilibria of the frozen-flow map.

One Picard sweep maps a candidate flow to the cloud of best-response paths
against it; damping mixes a fraction of fresh paths into the previous cloud,
which tames the period-two oscillation that undamped best response exhibits
on crowd-averse games. Convergence is an empirical matter and is reported,
never assumed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .controls import ControlField
from .games import GameSpec, MeasureStats
from .grids import TimeGrid, positive_count
from .hjb import default_action_grid, solve_hjb, stable_spatial_grid
from .measures import EmpiricalFlow, sorted_distance, sorted_slices, swap_sorted
from .rng import derive_seed, initial_cloud, philox, sample_brownian
from .sim import simulate_frozen_flow

log = logging.getLogger(__name__)

_BASELINE_REPS = 3  # same-law pairs averaged by same_law_baseline


def candidate_flow(game: GameSpec, tgrid: TimeGrid, mean_path, n_particles: int, seed: int) -> EmpiricalFlow:
    """Sample cloud for the law of (mean_path(t) + W_t) started from the game's
    initial law; the standard shape for equilibrium candidates of unit-noise games."""
    mean_path = np.asarray(mean_path, dtype=float)
    if mean_path.ndim == 1:
        mean_path = mean_path[:, None]
    if mean_path.shape != (tgrid.n_steps + 1, game.dim):
        raise ValueError(f"mean path must be ({tgrid.n_steps + 1}, {game.dim}), got {mean_path.shape}")
    bundle = sample_brownian(derive_seed(seed, "candidate"), n_particles, tgrid, game.dim)
    x0 = initial_cloud(derive_seed(seed, "candidate-init"), n_particles, game.initial.sampler())
    paths = bundle.partial_sums()  # (n, M+1, d) view of time-major memory
    paths += x0[:, None, :]  # in place: x0 + W, then + the mean shift
    paths += (mean_path - mean_path[0])[None, :, :]
    return EmpiricalFlow.from_states(tgrid, paths)


@dataclass
class PicardResult:
    flow: EmpiricalFlow
    control: ControlField
    residuals: list
    converged: bool
    iterations: int
    mean_endpoints: list = field(default_factory=list)


def picard_mfe(
    game: GameSpec,
    init_flow: EmpiricalFlow,
    *,
    damping: float = 0.5,
    tol: float = 0.02,
    max_iter: int = 25,
    seed: int = 0,
    indifference: float = 0.0,
) -> PicardResult:
    """Damped best-response iteration on sample flows.

    Each iteration solves the dynamic program against the current flow (on
    the game's stable_spatial_grid and default_action_grid), plays the
    resulting feedback with fresh noise, and replaces a damping fraction of
    the particle paths with fresh ones (path-coherent subsampling, so time
    slices stay coupled); only the round(damping * n) fresh paths that are
    kept get simulated. The residual is the worst-time W1 distance between
    consecutive flows; iteration stops at tol or reports non-convergence.
    The flow must be one-dimensional, and every flow keeps init_flow's
    particle count.

    indifference > 0 treats actions whose dynamic-programming advantage is
    below the threshold as tied and lets the tied set's mean drift pick the
    representative. Without it, best response always collapses onto an
    extreme action and unstable interior equilibria are unreachable.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be an int >= 0, got {max_iter!r}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    if init_flow.dim != 1:
        raise ValueError(f"picard_mfe needs a one-dimensional flow, got dimension {init_flow.dim}")
    tgrid, n = init_flow.grid, init_flow.n_particles
    n_new = int(round(damping * n))
    if n_new == 0:
        # the mixed flow would only reshuffle the old paths, and a residual
        # of 0.0 would report convergence without any iteration
        raise ValueError(f"damping {damping} keeps no fresh particle of the flow's {n}: round(damping * {n}) is 0")
    sgrid, agrid = stable_spatial_grid(game, tgrid), default_action_grid(game)

    flow = init_flow
    # the sorted slices of the current flow ride along to the next residual,
    # re-sorted in place one slice at a time, so each flow is sorted once and
    # one sorted stack is live
    flow_sorted = sorted_slices(flow) if max_iter >= 1 else None
    control = None
    residuals: list = []
    endpoints: list = []
    converged = False
    k = 0
    for k in range(1, max_iter + 1):
        control = solve_hjb(game, flow, sgrid, agrid, tie_tol=indifference).control
        mixer = philox(derive_seed(seed, "mix", k), 0)
        take_new = mixer.choice(n, size=n_new, replace=False)
        take_old = mixer.choice(n, size=n - n_new, replace=False)

        # fresh particle i is particle take_new[i] of a full fresh cloud: same
        # noise stream, same initial state, and frozen-flow particles never
        # interact, so only the kept ones are simulated, against the old flow.
        # The mix puts them first. The first mix needs a buffer of its own,
        # as init_flow stays the caller's; it is taken before the fresh
        # cloud, which then sits above it in the heap and leaves no hole
        # when freed. Later mixes are built in the old flow's buffer, one
        # slice at a time.
        samples = np.empty(flow.samples.shape) if flow is init_flow else flow.samples
        fresh = _fresh_cloud(game, flow, control, seed, "picard", k, particles=take_new)
        kept = np.empty((n - n_new, 1))
        for j in range(tgrid.n_steps + 1):
            np.take(flow.samples[j], take_old, axis=0, out=kept, mode="clip")
            samples[j, n_new:] = kept
            samples[j, :n_new] = fresh[j]
        del fresh
        flow = EmpiricalFlow(tgrid, samples)  # a new flow: the old one's cached stats are stale

        residuals.append(swap_sorted(flow_sorted, flow))
        endpoints.append(float(flow.samples[-1].mean(axis=0)[0]))  # mean_path()[-1, 0], read off the last slice
        log.info("picard iteration %d: residual %.6g, mean endpoint %.6g", k, residuals[-1], endpoints[-1])
        if residuals[-1] <= tol:
            converged = True
            break

    flow_sorted = None  # not needed by the last solve; free its stack first
    # refresh the feedback against the flow actually returned
    control = solve_hjb(game, flow, sgrid, agrid, tie_tol=indifference).control
    return PicardResult(flow=flow, control=control, residuals=residuals, converged=converged, iterations=k, mean_endpoints=endpoints)


def _fresh_cloud(game: GameSpec, flow: EmpiricalFlow, control: ControlField, seed: int, label: str, *key, particles=None) -> np.ndarray:
    """Time-major states (M+1, m, d) of fresh particles played under control
    against flow, drawn from the seeds of (seed, label, *key) and
    (seed, label-init, *key). Particle i is particle particles[i] of a fresh
    cloud of the flow's size, all n of them by default.

    The noise is drawn into the states array, at the rows the Euler step
    overwrites, so noise and paths are never held at once: the cloud costs
    one (M+1, m, d) array.
    """
    tgrid, n = flow.grid, flow.n_particles
    m = n if particles is None else len(particles)
    states = np.empty((tgrid.n_steps + 1, m, game.dim))
    bundle = sample_brownian(derive_seed(seed, label, *key), m, tgrid, game.dim, out=states[1:], particles=particles)
    x0 = initial_cloud(derive_seed(seed, f"{label}-init", *key), n, game.initial.sampler())
    simulate_frozen_flow(game, control, flow, bundle, x0 if particles is None else x0[particles], out=states)
    return states


def _sorted_fresh_cloud(game: GameSpec, flow: EmpiricalFlow, control: ControlField, seed: int, label: str, *key) -> np.ndarray:
    """Sorted slices (M+1, n) of a fresh cloud of the flow's size under control,
    drawn as _fresh_cloud draws it. The slices are sorted in place, in the
    array that held the noise and then the paths, so the call allocates one
    (M+1, n) stack, and that is what it returns."""
    if game.dim != 1:
        raise ValueError(f"sorted slices need a one-dimensional flow, got dimension {game.dim}")
    slices = _fresh_cloud(game, flow, control, seed, label, *key)[:, :, 0]
    slices.sort(axis=1)
    return slices


def consistency_residual(
    game: GameSpec,
    flow: EmpiricalFlow,
    control: ControlField,
    *,
    seed: int = 0,
) -> float:
    """Distance between a flow and a fresh cloud of its size played under its
    own control.

    Zero residual (up to sampling noise) is the fixed-point property; compare
    against same_law_baseline to judge what the noise floor is.
    """
    fresh = _sorted_fresh_cloud(game, flow, control, seed, "consistency")
    # flow_distance(flow, fresh), with flow sorted one slice at a time
    return swap_sorted(fresh, flow)


def same_law_baseline(
    game: GameSpec,
    flow: EmpiricalFlow,
    control: ControlField,
    *,
    seed: int = 0,
) -> float:
    """Average distance between independent same-law clouds of the flow's size
    under a control, over 3 (_BASELINE_REPS) pairs.

    This is the Monte Carlo resolution limit: a consistency residual cannot
    be expected to fall below it.
    """

    def sorted_side(r: int, side: int) -> np.ndarray:
        return _sorted_fresh_cloud(game, flow, control, seed, "baseline", r, side)

    # flow_distance of the two sides, as sorted_distance of their stacks
    vals = [sorted_distance(sorted_side(r, 0), sorted_side(r, 1)) for r in range(_BASELINE_REPS)]
    return float(np.mean(vals))


@dataclass
class MonotonicityReport:
    trials: int
    violations: int
    # most positive (estimate - 3 se) over the rows that depend on the
    # measure; <= 0 means clean, and 0.0 if no row does
    worst_margin: float
    rows: list


def _sample_measure_family(gen: np.random.Generator, dim: int):
    """Random test measure: Gaussian, uniform, or point cloud in one draw."""
    kind = gen.integers(0, 3)
    loc = gen.uniform(-1.0, 1.0, size=dim)
    if kind == 0:
        scale = gen.uniform(0.3, 1.5, size=dim)
        return lambda n: loc + scale * gen.standard_normal((n, dim))
    if kind == 1:
        scale = gen.uniform(0.2, 1.5, size=dim)
        return lambda n: gen.uniform(loc - scale, loc + scale, size=(n, dim))
    return lambda n: np.tile(loc, (n, 1))


def check_monotonicity(game: GameSpec, *, trials: int = 200, n_samples: int = 4000, seed: int = 0) -> MonotonicityReport:
    """Sample-average test of the crowd-aversion inequalities.

    For random measure pairs (m1, m2) and random times, estimates

        I_f = int (f1(t, ., m1) - f1(t, ., m2)) d(m1 - m2)
        I_g = int (g(., m1) - g(., m2)) d(m1 - m2)

    and counts strict violations (estimate exceeding three standard errors).
    Requires the game to declare a separable running reward.

    A row whose two sides agree exactly on both clouds (a part that does not
    depend on the measure, such as a zero f1) has estimate and standard error
    0 and says nothing about crowd aversion; it is skipped, so that its zero
    margin cannot mask the other part's. worst_margin is the largest margin
    over the rows kept, and 0.0 when every row is skipped.
    """
    trials, n_samples = positive_count(trials, "trials"), positive_count(n_samples, "n_samples")
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    if game.running_split is None:
        raise ValueError("monotonicity check needs a game with a separable running reward")
    f1, _ = game.running_split

    gen = philox(derive_seed(seed, "monotone"), 0)
    violations = 0
    margins = []
    rows = []
    for trial in range(trials):
        t = float(gen.uniform(0.0, game.horizon))
        x1 = _sample_measure_family(gen, game.dim)(n_samples)
        x2 = _sample_measure_family(gen, game.dim)(n_samples)
        s1 = MeasureStats.from_cloud(x1)
        s2 = MeasureStats.from_cloud(x2)

        for label, side in (
            ("f", lambda x, s: np.asarray(f1(t, x, s), dtype=float)),
            ("g", lambda x, s: np.asarray(game.terminal(x, s), dtype=float)),
        ):
            a1, b1 = side(x1, s1), side(x1, s2)
            a2, b2 = side(x2, s1), side(x2, s2)
            if np.array_equal(a1, b1) and np.array_equal(a2, b2):
                continue
            d1, d2 = a1 - b1, a2 - b2
            est = float(d1.mean() - d2.mean())
            se = float(np.sqrt(d1.var(ddof=1) / d1.size + d2.var(ddof=1) / d2.size))
            margin = est - 3.0 * se
            margins.append(margin)
            if margin > 0.0:
                violations += 1
                rows.append({"trial": trial, "part": label, "estimate": est, "se": se})
    return MonotonicityReport(trials=trials, violations=violations, worst_margin=float(max(margins, default=0.0)), rows=rows)
