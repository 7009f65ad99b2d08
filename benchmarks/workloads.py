"""The four benchmark workloads: inputs built from a seed, one timed run, checks.

Each workload has a ``build(seed, size, scratch)`` that makes every generated
input before timing starts, and a ``run(inputs)`` that calls the library once
and returns ``(checks, particle_steps)``. ``checks`` is a list of
``Check`` records against the bands of the acceptance claim the workload
stands for; ``particle_steps`` is the sum of n * M over every simulation the
run performed. Library entry points are looked up as module attributes at
call time, so the tracer's wrappers see every call.

Sizes: ``full`` is what the benchmark measures; ``tiny`` only exercises the
code paths (for the self-test) and its bands are not expected to hold.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import io
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mfglab import cli, controls, games, grids, hjb, measures, mfe, nash, projection, relaxed, rng, sim


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    lo: float
    hi: float

    @property
    def passed(self) -> bool:
        return bool(self.lo <= self.value <= self.hi)


def _check(name, value, lo=-np.inf, hi=np.inf) -> Check:
    return Check(name, float(value), float(lo), float(hi))


# ---------------------------------------------------------------- two_ramp

TWO_RAMP_SIZES = {
    "full": {"n": 1024, "n_steps": 1000, "reps": 20},
    "tiny": {"n": 64, "n_steps": 100, "reps": 4},
}


def build_two_ramp(seed: int, size: str, scratch: Path) -> dict:
    p = TWO_RAMP_SIZES[size]
    argv = [
        "run", "sign_drift", "--seed", str(seed), "--threads", "1",
        "--set", "params.t0=0.0",
        "--set", f"params.n_values=[{p['n']}]",
        "--set", f"params.reps={p['reps']}",
        "--set", f"params.n_steps={p['n_steps']}",
    ]
    return {"argv": argv, "scratch": scratch, **p}


def run_two_ramp(inputs: dict):
    """One CLI run of the two-ramp scenario; reports go to a scratch directory.

    The scenario's basin-split band [0.42, 0.58] was calibrated at 200
    repetitions, so at the benchmark's repetition count the split is checked
    against a binomial band of four standard deviations instead. The other
    three scenario checks are repetition averages and keep their own bands.
    """
    out = Path(tempfile.mkdtemp(prefix="two_ramp-", dir=inputs["scratch"]))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(inputs["argv"] + ["--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        with open(out / "rows.csv", newline="") as fh:
            n_rows = sum(1 for _ in csv.DictReader(fh))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    by_name = {c["name"]: c for c in report["checks"]}
    reps = inputs["reps"]
    half_width = 4.0 * 0.5 / np.sqrt(reps)
    checks = [
        _check("exit_code_0_or_2", float(code in (0, 2)), 1.0, 1.0),
        _check("rows_per_rep", n_rows, reps, reps),
        _check("basin_split_binomial", by_name["basin_split"]["value"], 0.5 - half_width, 0.5 + half_width),
    ]
    for name in ("mean_abs_terminal", "mean_sq_terminal", "frac_near_ramp"):
        c = by_name[name]
        checks.append(_check(name, c["value"], c["lo"], c["hi"]))
    return checks, reps * inputs["n"] * inputs["n_steps"]


# ------------------------------------------------------- picard_crowd_averse

DEFAULT_PICARD_TOL = inspect.signature(mfe.picard_mfe).parameters["tol"].default

PICARD_SIZES = {
    "full": {"n_steps": 500, "particles": 8192, "iterations": 6},
    "tiny": {"n_steps": 50, "particles": 512, "iterations": 2},
}


def build_picard(seed: int, size: str, scratch: Path) -> dict:
    p = PICARD_SIZES[size]
    game = games.monotone_lq()
    tgrid = grids.TimeGrid(1.0, p["n_steps"])
    init = mfe.candidate_flow(game, tgrid, 0.5 * tgrid.times, p["particles"], rng.derive_seed(seed, "pic-init"))
    return {
        "game": game, "init": init, "particles": p["particles"], "n_steps": p["n_steps"], "iterations": p["iterations"],
        "seeds": {k: rng.derive_seed(seed, k) for k in ("picard", "cons", "base")},
    }


def run_picard(inputs: dict):
    """Damped best response from the c = 0.5 ramp, then its certificate.

    The iteration count of the default stopping rule depends on the seed (4
    or 5 at this size), which would make run time a function of the seed.
    So every run takes the same fixed number of iterations (tol = 0), and
    convergence is checked as picard_mfe's default tolerance being reached
    at some iteration within that budget.
    """
    game, seeds = inputs["game"], inputs["seeds"]
    res = mfe.picard_mfe(game, inputs["init"], seed=seeds["picard"], tol=0.0, max_iter=inputs["iterations"])
    residual = mfe.consistency_residual(game, res.flow, res.control, seed=seeds["cons"])
    baseline = mfe.same_law_baseline(game, res.flow, res.control, seed=seeds["base"])
    checks = [
        _check("converged_within_budget", min(res.residuals), 0.0, DEFAULT_PICARD_TOL),
        _check("residual_over_2x_baseline", residual / (2.0 * baseline), 0.0, 1.0),
    ]
    # frozen-flow simulations: one per iteration, one for the residual, two
    # per baseline repetition (same_law_baseline's default of three)
    sims = res.iterations + 1 + 2 * 3
    return checks, sims * inputs["particles"] * inputs["n_steps"]


# ---------------------------------------------------------- coin_projection

COIN_SIZES = {
    "full": {"particles": 40_000, "n_steps": 200},
    "tiny": {"particles": 2_000, "n_steps": 20},
}


def build_coin(seed: int, size: str, scratch: Path) -> dict:
    p = COIN_SIZES[size]
    n, tgrid = p["particles"], grids.TimeGrid(1.0, p["n_steps"])
    gen = np.random.default_rng(rng.derive_seed(seed, "coin"))
    gamma = gen.choice([-1.0, 1.0], size=n)
    drift = np.broadcast_to(gamma[:, None, None], (n, tgrid.n_steps, 1)).copy()
    return {
        "n": n, "tgrid": tgrid, "drift": drift, "init": np.zeros((n, 1)),
        "seeds": {k: rng.derive_seed(seed, k) for k in ("coin-w", "coin-mimic")},
    }


def run_coin(inputs: dict):
    """Claim 6: drift table, fresh-noise mimic, shared-noise autocovariance gap."""
    n, tgrid, init, seeds = inputs["n"], inputs["tgrid"], inputs["init"], inputs["seeds"]
    M = tgrid.n_steps
    bundle = rng.sample_brownian(seeds["coin-w"], n, tgrid, 1)
    ens = sim.integrate_paths(inputs["drift"], bundle, init)
    table = projection.project_drift(ens, bins=40)

    j = M // 2
    centers = 0.5 * (table.edges[:-1] + table.edges[1:])
    populated = table.counts[j] >= 100
    err = np.abs(table.values[j, populated, 0] - np.tanh(centers[populated]))

    fresh = rng.sample_brownian(seeds["coin-mimic"], n, tgrid, 1)
    dist = projection.mimic_and_compare(table, init, fresh)

    mim = sim.integrate_paths(lambda k, x: table.drift_at(k, x), ens.bundle, init)
    c_src = projection.path_autocovariance(ens.states, M // 2, M)
    c_mim = projection.path_autocovariance(mim.states, M // 2, M)
    checks = [
        _check("populated_bins", populated.sum(), 10),
        _check("tanh_error", err.max() if err.size else np.inf, 0.0, 0.15),
        _check("marginal_w1_max", dist.max(), 0.0, 0.05),
        _check("c_src_minus_1", abs(c_src - 1.0), 0.0, 0.1),
        _check("c_src_minus_c_mim_positive", float(c_src - c_mim > 0.0), 1.0, 1.0),
    ]
    # source paths, fresh-noise mimic, shared-noise mimic
    return checks, 3 * n * M


# ------------------------------------------------------------- certificates

CERT_SIZES = {
    "full": {"xp_steps": 100, "flow_particles": 4096, "n_small": 64, "n_large": 1024, "reps": 10,
             "n_bad": 256, "reps_bad": 10, "levels": (4, 8, 16, 32), "rows": 8, "pay_particles": 512},
    "tiny": {"xp_steps": 20, "flow_particles": 256, "n_small": 8, "n_large": 32, "reps": 3,
             "n_bad": 16, "reps_bad": 3, "levels": (4, 8), "rows": 2, "pay_particles": 32},
}


def build_certificates(seed: int, size: str, scratch: Path) -> dict:
    p = CERT_SIZES[size]
    tg = grids.TimeGrid(1.0, p["xp_steps"])
    equilibria = []
    for game, mean_path, a_eq, label in (
        (games.sign_drift(), tg.times, 1.0, 41),
        (games.monotone_lq(), np.zeros(tg.n_steps + 1), 0.0, 42),
    ):
        flow = mfe.candidate_flow(game, tg, mean_path, p["flow_particles"], rng.derive_seed(seed, label, "flow"))
        equilibria.append((game, flow, controls.ControlField.constant(tg, [a_eq]), rng.derive_seed(seed, label)))
    bad_game = games.monotone_lq()
    bad = (bad_game, mfe.candidate_flow(bad_game, tg, tg.times, p["flow_particles"], rng.derive_seed(seed, 43, "flow")),
           controls.ControlField.constant(tg, [1.0]), rng.derive_seed(seed, 43))

    # claim 9: chattering rows and the symmetric selection rows
    ag = grids.ActionGrid(np.array([-1.0]), np.array([1.0]), 3)
    tg_rows = grids.TimeGrid(1.0, 20)
    row_fields = []
    for k in range(p["rows"]):
        gen = np.random.default_rng(rng.derive_seed(seed, "rows", k))
        row_fields.append(relaxed.constant_relaxed(tg_rows, ag, gen.dirichlet(np.ones(3), size=tg_rows.n_steps)))
    tg_sel = grids.TimeGrid(1.0, 40)
    gen = np.random.default_rng(rng.derive_seed(seed, 7, "rows"))
    q = gen.uniform(0.0, 0.5, size=tg_sel.n_steps)
    sel_rows = relaxed.constant_relaxed(tg_sel, ag, np.column_stack([q, 1.0 - 2.0 * q, q]))
    m = p["pay_particles"]
    return {
        "p": p, "equilibria": equilibria, "bad": bad, "row_fields": row_fields, "sel_rows": sel_rows,
        "sel_flow": measures.DeterministicFlow(tg_sel, np.zeros(tg_sel.n_steps + 1)),
        "sel_games": [games.sign_drift(), games.monotone_lq(), games.tracking_lq()],
        "square_game": games.action_square(reward_sign=1.0),
        "pay_bundle": rng.sample_brownian(rng.derive_seed(seed, 7, "pay"), m, tg_sel, 1),
        "pay_init": np.zeros((m, 1)),
    }


def run_certificates(inputs: dict):
    """Claims 4 and 9: exploitability gaps, chattering rate, strict selection."""
    p = inputs["p"]
    M = p["xp_steps"]
    checks = []
    steps = 0
    for game, flow, ctrl, seed in inputs["equilibria"]:
        small = nash.exploitability_estimate(game, flow, ctrl, n=p["n_small"], reps=p["reps"], seed=seed)
        large = nash.exploitability_estimate(game, flow, ctrl, n=p["n_large"], reps=p["reps"], seed=seed)
        slack = small.gap + 3 * (small.se_gap + large.se_gap) + 1e-12
        checks += [
            _check(f"{game.name}.gap_large_zero", abs(large.gap), 0.0, 1e-12),
            _check(f"{game.name}.gap_large_le_small", large.gap - slack, hi=0.0),
            _check(f"{game.name}.gap_large_small", abs(large.gap), 0.0, 0.1 * game.payoff_scale),
        ]
        steps += 2 * p["reps"] * (p["n_small"] + p["n_large"]) * M
    game, flow, ctrl, seed = inputs["bad"]
    r_bad = nash.exploitability_estimate(game, flow, ctrl, n=p["n_bad"], reps=p["reps_bad"], seed=seed)
    checks += [
        _check("bad.gap", r_bad.gap, 1.5),
        _check("bad.gap_over_10se", r_bad.gap - 10 * r_bad.se_gap, lo=0.0),
    ]
    steps += 2 * p["reps_bad"] * p["n_bad"] * M

    levels = p["levels"]
    per_level = []
    for N in levels:
        vals = [relaxed.occupation_w1(relaxed.chattering_approximation(rel, N), rel) for rel in inputs["row_fields"]]
        per_level.append(np.mean(vals))
    slope = np.polyfit(np.log(levels), np.log(per_level), 1)[0]
    checks.append(_check("chattering_slope", slope, -1.3, -0.7))

    rel, flow = inputs["sel_rows"], inputs["sel_flow"]
    bundle, init = inputs["pay_bundle"], inputs["pay_init"]
    for game in inputs["sel_games"]:
        res = relaxed.strict_selection(game, rel, flow)
        j_sel, _ = hjb.evaluate_payoff(game, flow, res.control, bundle, init)
        j_rel, _ = hjb.evaluate_payoff(game, flow, rel, bundle, init)
        checks += [
            _check(f"{game.name}.reward_violations", res.reward_violations, 0, 0),
            _check(f"{game.name}.selected_ge_relaxed", j_sel - j_rel, lo=-1e-9),
        ]
        steps += 2 * bundle.n * rel.tgrid.n_steps
    square = relaxed.strict_selection(inputs["square_game"], rel, flow)
    checks.append(_check("square.flags_every_node", square.reward_violations - square.n_nodes, 0, 0))
    return checks, steps


@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    run: object
    n_checks: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("two_ramp", build_two_ramp, run_two_ramp, 6),
        Workload("picard_crowd_averse", build_picard, run_picard, 2),
        Workload("coin_projection", build_coin, run_coin, 5),
        Workload("certificates", build_certificates, run_certificates, 16),
    )
}
