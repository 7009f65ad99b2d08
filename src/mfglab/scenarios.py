"""Reproducible experiment drivers with margin-aware pass/fail checks.

Each scenario runs a fixed-seed batch of simulations, aggregates statistics,
evaluates its named checks, and returns a ScenarioReport that can be written
as CSV tables, a text summary, and optional SVG plots. Repetitions are
independent, keyed by derived seeds, and stepped together in fixed chunks
through one batched Euler loop, in repetition order. The runners still take
a thread count, but run serially whatever it is (a thread pool over chunks
was slower on two cores), so results are identical for any thread count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import games
from .controls import sign_of_mean
from .measures import EmpiricalFlow, flow_distance, sorted_distance, sorted_slices
from .mfe import candidate_flow, check_monotonicity, consistency_residual, picard_mfe, same_law_baseline
from .reporting import config_hash, fmt, svg_line_plot, write_csv
from .rng import derive_seed, initial_cloud, sample_brownian
from .grids import TimeGrid, positive_count
from .sim import chunk_inputs, euler, nplayer_drift, rep_chunks, simulate_nplayer


@dataclass
class ScenarioReport:
    scenario: str
    config: dict
    seed: int
    rows: list = field(default_factory=list)
    summary: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    curves: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def add_check(self, name: str, value: float, lo: float, hi: float) -> None:
        self.checks.append({
            "name": name, "value": float(value), "lo": float(lo), "hi": float(hi),
            "passed": bool(lo <= value <= hi),
        })

    def summary_text(self) -> str:
        lines = [
            f"scenario: {self.scenario}",
            f"config_hash: {self.config_hash}",
            f"seed: {self.seed}",
            "",
        ]
        for row in self.summary:
            lines.append("  ".join(f"{k}={fmt(v)}" for k, v in row.items()))
        lines.append("")
        for c in self.checks:
            status = "PASS" if c["passed"] else "FAIL"
            lines.append(f"[{status}] {c['name']}: value={fmt(c['value'])} allowed=[{fmt(c['lo'])}, {fmt(c['hi'])}]")
        lines.append("")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def write(self, out_dir, svg: bool = False) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if self.rows:
            write_csv(out / "rows.csv", list(self.rows[0].keys()), self.rows)
        if self.summary:
            write_csv(out / "summary.csv", list(self.summary[0].keys()), self.summary)
        write_csv(out / "checks.csv", ["name", "value", "lo", "hi", "passed"], self.checks)
        (out / "summary.txt").write_text(self.summary_text())
        (out / "report.json").write_text(json.dumps({
            "scenario": self.scenario, "config": self.config, "config_hash": self.config_hash,
            "seed": self.seed, "passed": self.passed, "checks": self.checks,
        }, indent=2, sort_keys=True) + "\n")
        if svg and self.curves:
            (out / "curves.svg").write_text(svg_line_plot(self.curves, title=self.scenario))


def _population_sizes(n_values) -> tuple:
    """n_values as a nonempty tuple of positive ints, each refused by name."""
    if len(n_values) == 0:
        raise ValueError("n_values must hold at least one population size, got none")
    return tuple(positive_count(v, f"n_values[{i}]") for i, v in enumerate(n_values))


def _nplayer_mean_paths(game, feedback, tgrid: TimeGrid, n: int, reps: int, seed: int, labels) -> np.ndarray:
    """Particle-mean paths (reps, M+1) of independent 1-d n-player runs.

    Repetition r draws its noise and initial cloud from the seeds derived
    from (seed, label, n, r) for the noise and initial-cloud labels. Each
    chunk of repetitions is stepped as a batch, one chunk after another.
    """
    reps = positive_count(reps, "reps")
    drift = nplayer_drift(game, feedback, tgrid, n)

    def run_chunk(chunk):
        noise, x0 = chunk_inputs(game, chunk, n, tgrid, seed, labels)
        return euler(drift, noise, x0, tgrid, record="mean", first_rep=chunk.start)[..., 0]

    return np.concatenate([run_chunk(chunk) for chunk in rep_chunks(reps, n, tgrid.n_steps, game.dim)])


def run_sign_drift(
    *,
    t0: float = 0.0,
    n_values=(64, 256, 1024),
    reps: int = 200,
    seed: int = 0,
    horizon: float = 1.0,
    n_steps: int = 1000,
    threads: int = 1,
) -> ScenarioReport:
    """Population that drifts with the sign of its own mean, active after t0.

    The mean path follows the two ramps +-max(t - t0, 0) with a fair basin
    split; the asymptotic bands are asserted at the largest population when
    t0 is 0 (both ramps live) or the horizon (feedback never activates).
    """
    n_values = _population_sizes(n_values)
    config = {"scenario": "sign_drift", "t0": t0, "n_values": list(n_values), "reps": reps,
              "seed": seed, "horizon": horizon, "n_steps": n_steps}
    report = ScenarioReport(scenario="sign_drift", config=config, seed=seed)

    game = games.sign_drift(horizon=horizon)
    tgrid = TimeGrid(horizon, n_steps)
    times = tgrid.times
    feedback = sign_of_mean(tgrid, start=t0)
    ramp = np.maximum(times - t0, 0.0)
    near_tol = 0.2 * horizon

    for n in n_values:
        paths = _nplayer_mean_paths(game, feedback, tgrid, n, reps, seed, ("sign", "sign-init"))
        ramp_dist = np.minimum(np.abs(paths - ramp).max(axis=1), np.abs(paths + ramp).max(axis=1))
        rows = [{
            "n": n, "rep": r,
            "mean_T": float(mp[-1]),
            "abs_mean_T": float(abs(mp[-1])),
            "sq_mean_T": float(mp[-1] ** 2),
            "near_ramp": int(dist <= near_tol),
            "ramp_dist": float(dist),
        } for r, (mp, dist) in enumerate(zip(paths, ramp_dist))]
        report.rows.extend(rows)
        mean_T = np.array([row["mean_T"] for row in rows])
        report.summary.append({
            "n": n, "reps": reps,
            "p_positive": float(np.mean(mean_T > 0)),
            "mean_abs_T": float(np.mean(np.abs(mean_T))),
            "mean_sq_T": float(np.mean(mean_T**2)),
            "frac_near_ramp": float(np.mean([row["near_ramp"] for row in rows])),
        })
        if n == max(n_values):
            for r in range(min(8, reps)):
                report.curves[f"mean path rep {r}"] = (times, paths[r])
            report.curves["ramp +"] = (times, ramp)
            report.curves["ramp -"] = (times, -ramp)

    top = report.summary[[s["n"] for s in report.summary].index(max(n_values))]
    if t0 == 0.0:
        report.add_check("basin_split", top["p_positive"], 0.42, 0.58)
        report.add_check("mean_abs_terminal", top["mean_abs_T"], 0.9 * horizon, 1.1 * horizon)
        report.add_check("mean_sq_terminal", top["mean_sq_T"], 0.9 * horizon**2, 1.1 * horizon**2)
        report.add_check("frac_near_ramp", top["frac_near_ramp"], 0.85, 1.0)
    elif t0 == horizon:
        # feedback never activates: the mean is averaged noise of size sqrt(T/n)
        bound = 3.0 * np.sqrt(horizon / max(n_values))
        report.add_check("late_start_mean_abs", top["mean_abs_T"], 0.0, bound)
    return report


def _ode_oracle(game, tgrid: TimeGrid) -> np.ndarray:
    """Explicit integration of dx = B(x) dt from the initial mean, 32 substeps per step."""
    refine = 32
    rhs = games.mean_drift_ode_rhs(game)
    fine = tgrid.refine(refine)
    x = float(game.initial.mean[0])
    path = np.empty(fine.n_steps + 1)
    path[0] = x
    for j in range(fine.n_steps):
        x = x + rhs(x) * fine.dt
        path[j + 1] = x
    return path[::refine].copy()


def run_mean_drift(
    *,
    profile: str = "linear",
    n_values=(64, 256, 1024),
    reps: int = 200,
    seed: int = 0,
    horizon: float = 1.0,
    n_steps: int = 1000,
    threads: int = 1,
) -> ScenarioReport:
    """Uncontrolled interaction through the mean: the empirical mean follows
    the ODE driven by B up to averaged noise of size 1/sqrt(n).

    Checks by profile: "linear" asserts the sup-error decays like a root in
    n (log-log slope near -1/2); "sign" asserts the fair basin split of the
    two ODE branches; "zero" asserts the reflection bound on the noise sup.
    """
    n_values = _population_sizes(n_values)
    config = {"scenario": "mean_drift", "profile": profile, "n_values": list(n_values),
              "reps": reps, "seed": seed, "horizon": horizon, "n_steps": n_steps}
    report = ScenarioReport(scenario="mean_drift", config=config, seed=seed)

    x0 = 1.0 if profile == "linear" else 0.0
    game = games.mean_drift(profile=profile, x0=x0, horizon=horizon)
    tgrid = TimeGrid(horizon, n_steps)
    times = tgrid.times
    feedback = sign_of_mean(tgrid, start=2 * horizon)  # never active; uncontrolled game

    if profile in ("linear", "zero"):
        oracle = _ode_oracle(game, tgrid)
    else:
        oracle = np.maximum(times, 0.0)  # the two ODE branches +-t for sign-type B
    report.curves["ode oracle"] = (times, oracle.copy())

    sup_errs = {}
    for n in n_values:
        paths = _nplayer_mean_paths(game, feedback, tgrid, n, reps, seed, ("mdrift", "mdrift-init"))
        sup_err = np.abs(paths - oracle).max(axis=1)
        if profile not in ("linear", "zero"):
            sup_err = np.minimum(sup_err, np.abs(paths + oracle).max(axis=1))
        rows = [{
            "n": n, "rep": r,
            "mean_T": float(mp[-1]),
            "sup_err": float(err),
            "sup_abs_mean": float(np.abs(mp).max()),
        } for r, (mp, err) in enumerate(zip(paths, sup_err))]
        report.rows.extend(rows)
        errs = np.array([row["sup_err"] for row in rows])
        summary = {
            "n": n, "reps": reps,
            "mean_sup_err": float(errs.mean()),
            "p_positive": float(np.mean([row["mean_T"] > 0 for row in rows])),
        }
        if profile == "zero":
            bound = 4.0 * np.sqrt(horizon / n)
            summary["frac_within_noise_bound"] = float(np.mean([row["sup_abs_mean"] <= bound for row in rows]))
        report.summary.append(summary)
        sup_errs[n] = float(errs.mean())
        if n == max(n_values):
            for r in range(min(5, reps)):
                report.curves[f"mean path rep {r}"] = (times, paths[r])

    if profile == "linear" and len(n_values) >= 2:
        lx = np.log(np.array(n_values, dtype=float))
        ly = np.log(np.array([sup_errs[n] for n in n_values]))
        slope = float(np.polyfit(lx, ly, 1)[0])
        report.add_check("sup_err_slope", slope, -0.7, -0.3)
    if profile == "sign":
        top = report.summary[[s["n"] for s in report.summary].index(max(n_values))]
        report.add_check("basin_split", top["p_positive"], 0.42, 0.58)
    if profile == "zero":
        for s in report.summary:
            report.add_check(f"noise_bound_n{s['n']}", s["frac_within_noise_bound"], 0.95, 1.0)
    return report


def _pairwise_w1(flows: list) -> list:
    """flow_distance(flows[i], flows[k]) for every i < k, in that order, for
    equal-size 1-d flows.

    Flow i is sorted once for all its pairs with later flows, and each later
    flow's sorted stack is consumed by the distance, so at most two (M+1, n)
    sorted stacks are live at a time; holding one per flow would take 66 MB
    per flow at 1001 x 8192.
    """
    pairwise = []
    for i in range(len(flows) - 1):
        left = sorted_slices(flows[i])
        for k in range(i + 1, len(flows)):
            pairwise.append(sorted_distance(sorted_slices(flows[k]), left))
    return pairwise


def run_monotone_uniqueness(
    *,
    seed: int = 0,
    horizon: float = 1.0,
    n_steps: int = 1000,
    n_player: int = 1024,
    picard_particles: int = 8192,
    picard_inits=(-1.0, -0.5, 0.0, 0.5, 1.0),
    monotonicity_trials: int = 200,
    threads: int = 1,
) -> ScenarioReport:
    """Crowd-averse game with a unique equilibrium: nobody moves.

    Verifies the crowd-aversion inequalities on random measure pairs, runs
    the damped fixed-point iteration from several ramp initializations, and
    checks that all of them land on the same flow, that the flow is
    consistent at Monte Carlo resolution, and that the coupled n-player
    system tracks it.
    """
    n_player = positive_count(n_player, "n_player")
    picard_particles = positive_count(picard_particles, "picard_particles")
    monotonicity_trials = positive_count(monotonicity_trials, "monotonicity_trials")
    if len(picard_inits) < 2:
        raise ValueError(f"picard_inits must hold at least two starts for the pairwise check, got {list(picard_inits)}")
    config = {"scenario": "monotone_uniqueness", "seed": seed, "horizon": horizon,
              "n_steps": n_steps, "n_player": n_player, "picard_particles": picard_particles,
              "picard_inits": list(picard_inits), "monotonicity_trials": monotonicity_trials}
    report = ScenarioReport(scenario="monotone_uniqueness", config=config, seed=seed)

    game = games.monotone_lq(horizon=horizon)
    tgrid = TimeGrid(horizon, n_steps)
    times = tgrid.times

    mono = check_monotonicity(game, trials=monotonicity_trials, seed=derive_seed(seed, "mono"))
    report.add_check("monotonicity_violations", mono.violations, 0, 0)

    def solve_from(item):
        k, c = item
        init = candidate_flow(game, tgrid, c * times, picard_particles, derive_seed(seed, "pic-init", k))
        return picard_mfe(game, init, seed=derive_seed(seed, "picard", k))

    solutions = [solve_from(item) for item in enumerate(picard_inits)]
    for (k, c), res in zip(enumerate(picard_inits), solutions):
        report.rows.append({
            "init_ramp": c,
            "converged": int(res.converged),
            "iterations": res.iterations,
            "final_residual": res.residuals[-1] if res.residuals else float("nan"),
            "terminal_mean": float(res.flow.mean_path()[-1, 0]),
        })
        report.curves[f"residuals init {c}"] = (np.arange(1, len(res.residuals) + 1), np.array(res.residuals))

    pairwise = _pairwise_w1([res.flow for res in solutions])
    report.add_check("picard_pairwise_w1", max(pairwise), 0.0, 0.05)
    report.add_check("picard_all_converged", float(all(r.converged for r in solutions)), 1.0, 1.0)

    anchor = solutions[0]
    residual = consistency_residual(game, anchor.flow, anchor.control, seed=derive_seed(seed, "cons"))
    baseline = same_law_baseline(game, anchor.flow, anchor.control, seed=derive_seed(seed, "base"))
    report.add_check("consistency_vs_baseline", residual, 0.0, 2.0 * baseline)

    bundle = sample_brownian(derive_seed(seed, "np"), n_player, tgrid, 1)
    x0 = initial_cloud(derive_seed(seed, "np-init"), n_player, game.initial.sampler())
    ens = simulate_nplayer(game, anchor.control, bundle, x0)
    np_dist = flow_distance(EmpiricalFlow.from_ensemble(ens), anchor.flow)
    report.add_check("nplayer_tracks_fixed_point", np_dist, 0.0, 0.1)

    report.summary.append({
        "monotonicity_violations": mono.violations,
        "worst_margin": mono.worst_margin,
        "max_pairwise_w1": max(pairwise),
        "consistency_residual": residual,
        "mc_baseline": baseline,
        "nplayer_flow_dist": np_dist,
    })
    return report


SCENARIOS: dict = {
    "sign_drift": run_sign_drift,
    "mean_drift": run_mean_drift,
    "monotone_uniqueness": run_monotone_uniqueness,
}
