"""Simulation lab for n-player games coupled through the empirical measure.

The package provides particle simulation of symmetric drift games, a grid
solver for the best-response value function against a frozen measure flow,
damped fixed-point search for consistent flows, change-of-measure tools for
single-player deviations, drift projection onto marginals, and relaxed
control approximation, plus reproducible scenario drivers and a CLI.
"""

from .controls import ControlField, sign_of_mean, sign_of_state
from .games import (
    GAME_CATALOG,
    GameSpec,
    InitialLaw,
    MeasureStats,
    make_game,
    mean_drift,
    monotone_lq,
    sign_drift,
)
from .grids import ActionGrid, SpatialGrid, TimeGrid
from .hjb import CFLError, ValueField, cfl_limit, default_action_grid, evaluate_payoff, solve_hjb, stable_spatial_grid
from .measures import DeterministicFlow, EmpiricalFlow, flow_distance, sliced_wasserstein1, wasserstein1_1d
from .mfe import PicardResult, candidate_flow, check_monotonicity, consistency_residual, picard_mfe, same_law_baseline
from .nash import (
    ExploitabilityResult,
    GirsanovWeights,
    averaged_deviation_weight,
    exploitability_estimate,
    girsanov_weights,
    reweighted_statistic,
)
from .projection import DriftTable, mimic_and_compare, path_autocovariance, project_drift
from .relaxed import (
    chattering_approximation,
    constant_relaxed,
    occupation_w1,
    strict_selection,
)
from .rng import BrownianBundle, derive_seed, initial_cloud, sample_brownian
from .scenarios import SCENARIOS, ScenarioReport, run_mean_drift, run_monotone_uniqueness, run_sign_drift
from .sim import ParticleEnsemble, integrate_paths, path_payoffs, simulate_frozen_flow, simulate_nplayer

__version__ = "0.1.0"

__all__ = [
    "ActionGrid", "BrownianBundle", "CFLError", "ControlField", "DeterministicFlow",
    "DriftTable", "EmpiricalFlow", "ExploitabilityResult", "GAME_CATALOG",
    "GameSpec", "GirsanovWeights", "InitialLaw", "MeasureStats",
    "ParticleEnsemble", "PicardResult", "SCENARIOS", "ScenarioReport", "SpatialGrid",
    "TimeGrid", "ValueField", "averaged_deviation_weight", "candidate_flow",
    "cfl_limit", "chattering_approximation", "check_monotonicity", "constant_relaxed",
    "consistency_residual", "default_action_grid", "derive_seed",
    "evaluate_payoff", "exploitability_estimate", "flow_distance",
    "girsanov_weights", "initial_cloud", "integrate_paths", "make_game",
    "mean_drift", "mimic_and_compare", "monotone_lq", "occupation_w1",
    "path_autocovariance", "path_payoffs", "picard_mfe", "project_drift",
    "reweighted_statistic", "run_mean_drift", "run_monotone_uniqueness",
    "run_sign_drift", "same_law_baseline",
    "sample_brownian", "sign_drift", "sign_of_mean", "sign_of_state",
    "simulate_frozen_flow", "simulate_nplayer", "sliced_wasserstein1",
    "solve_hjb", "stable_spatial_grid", "strict_selection", "wasserstein1_1d",
]
