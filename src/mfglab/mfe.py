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
from .games import GameSpec
from .grids import ActionGrid, SpatialGrid, TimeGrid
from .hjb import default_action_grid, solve_hjb, stable_spatial_grid
from .measures import EmpiricalFlow, flow_distance
from .rng import derive_seed, initial_cloud, philox, sample_brownian
from .sim import simulate_frozen_flow

log = logging.getLogger(__name__)


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
    n_particles: int | None = None,
    damping: float = 0.5,
    tol: float = 0.02,
    max_iter: int = 25,
    seed: int = 0,
    sgrid: SpatialGrid | None = None,
    agrid: ActionGrid | None = None,
    metric: str = "w1",
    indifference: float = 0.0,
) -> PicardResult:
    """Damped best-response iteration on sample flows.

    Each iteration solves the dynamic program against the current flow, plays
    the resulting feedback with fresh noise, and replaces a damping fraction
    of the particle paths with fresh ones (path-coherent subsampling, so time
    slices stay coupled). The residual is the worst-time distance between
    consecutive flows; iteration stops at tol or reports non-convergence.

    indifference > 0 treats actions whose dynamic-programming advantage is
    below the threshold as tied and lets the tied set's mean drift pick the
    representative. Without it, best response always collapses onto an
    extreme action and unstable interior equilibria are unreachable.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping}")
    tgrid = init_flow.grid
    if n_particles is None:
        n_particles = init_flow.n_particles
    if init_flow.n_particles != n_particles:
        raise ValueError("init flow particle count must match n_particles")
    if sgrid is None:
        sgrid = stable_spatial_grid(game, tgrid)
    if agrid is None:
        agrid = default_action_grid(game)
    tie_break = "mean_drift" if indifference > 0.0 else "lowest"

    flow = init_flow
    control = None
    residuals: list = []
    endpoints: list = []
    converged = False
    k = 0
    for k in range(1, max_iter + 1):
        control = solve_hjb(game, flow, sgrid, agrid, tie_tol=indifference, tie_break=tie_break).control
        bundle = sample_brownian(derive_seed(seed, "picard", k), n_particles, tgrid, game.dim)
        x0 = initial_cloud(derive_seed(seed, "picard-init", k), n_particles, game.initial.sampler())
        fresh = EmpiricalFlow.from_ensemble(simulate_frozen_flow(game, control, flow, bundle, x0))

        n_new = int(round(damping * n_particles))
        mixer = philox(derive_seed(seed, "mix", k), 0)
        take_new = mixer.choice(n_particles, size=n_new, replace=False)
        take_old = mixer.choice(n_particles, size=n_particles - n_new, replace=False)
        mixed = EmpiricalFlow(tgrid, np.concatenate([fresh.samples[:, take_new, :], flow.samples[:, take_old, :]], axis=1))

        residuals.append(flow_distance(mixed, flow, metric))
        endpoints.append(float(mixed.mean_path()[-1, 0]))
        log.info("picard iteration %d: residual %.6g, mean endpoint %.6g", k, residuals[-1], endpoints[-1])
        flow = mixed
        if residuals[-1] <= tol:
            converged = True
            break

    # refresh the feedback against the flow actually returned
    control = solve_hjb(game, flow, sgrid, agrid, tie_tol=indifference, tie_break=tie_break).control
    return PicardResult(flow=flow, control=control, residuals=residuals, converged=converged, iterations=k, mean_endpoints=endpoints)


def consistency_residual(
    game: GameSpec,
    flow: EmpiricalFlow,
    control: ControlField,
    *,
    seed: int = 0,
    n_particles: int | None = None,
    metric: str = "w1",
) -> float:
    """Distance between a flow and a fresh cloud played under its own control.

    Zero residual (up to sampling noise) is the fixed-point property; compare
    against same_law_baseline to judge what the noise floor is.
    """
    tgrid = flow.grid
    n = n_particles or flow.n_particles
    bundle = sample_brownian(derive_seed(seed, "consistency"), n, tgrid, game.dim)
    x0 = initial_cloud(derive_seed(seed, "consistency-init"), n, game.initial.sampler())
    fresh = EmpiricalFlow.from_ensemble(simulate_frozen_flow(game, control, flow, bundle, x0))
    return flow_distance(flow, fresh, metric)


def same_law_baseline(
    game: GameSpec,
    flow: EmpiricalFlow,
    control: ControlField,
    *,
    seed: int = 0,
    n_particles: int | None = None,
    reps: int = 3,
    metric: str = "w1",
) -> float:
    """Average distance between independent same-law clouds under a control.

    This is the Monte Carlo resolution limit: a consistency residual cannot
    be expected to fall below it.
    """
    tgrid = flow.grid
    n = n_particles or flow.n_particles
    vals = []
    for r in range(reps):
        ens = []
        for side in (0, 1):
            bundle = sample_brownian(derive_seed(seed, "baseline", r, side), n, tgrid, game.dim)
            x0 = initial_cloud(derive_seed(seed, "baseline-init", r, side), n, game.initial.sampler())
            ens.append(EmpiricalFlow.from_ensemble(simulate_frozen_flow(game, control, flow, bundle, x0)))
        vals.append(flow_distance(ens[0], ens[1], metric))
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
    if game.running_split is None:
        raise ValueError("monotonicity check needs a game with a separable running reward")
    f1, _ = game.running_split
    from .games import MeasureStats

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
