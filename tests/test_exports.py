import inspect

import pytest

import mfglab
from mfglab import hjb, mfe, projection, relaxed


def test_every_export_resolves():
    assert [name for name in mfglab.__all__ if not hasattr(mfglab, name)] == []


def test_exports_are_unique():
    assert len(set(mfglab.__all__)) == len(mfglab.__all__)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from mfglab import *", namespace)
    assert {name: namespace[name] for name in mfglab.__all__} == {name: getattr(mfglab, name) for name in mfglab.__all__}


def test_retired_registries_are_not_exported():
    assert {"FEEDBACK_CATALOG", "register_game"}.isdisjoint(mfglab.__all__)
    assert not hasattr(mfglab, "FEEDBACK_CATALOG") and not hasattr(mfglab, "register_game")


# Every exported function's parameters that have defaults, with the defaults:
# the settings a caller can change. Adding or bringing back a setting is an
# edit to this table.
SETTINGS = {
    "averaged_deviation_weight": {},
    "candidate_flow": {},
    "cfl_limit": {},
    "chattering_approximation": {},
    "check_monotonicity": {"trials": 200, "n_samples": 4000, "seed": 0},
    "constant_relaxed": {"name": ""},
    "consistency_residual": {"seed": 0},
    "default_action_grid": {},
    "derive_seed": {},
    "evaluate_payoff": {},
    "exploitability_estimate": {"seed": 0, "br_control": None},
    "flow_distance": {},
    "girsanov_weights": {},
    "initial_cloud": {},
    "integrate_paths": {},
    "make_game": {},
    "mean_drift": {"profile": "linear", "scale": 1.0, "x0": 1.0, "horizon": 1.0},
    "mimic_and_compare": {},
    "monotone_lq": {"horizon": 1.0, "action_cost": 0.5},
    "occupation_w1": {},
    "path_autocovariance": {},
    "path_payoffs": {"stats_path": None},
    "picard_mfe": {"damping": 0.5, "tol": 0.02, "max_iter": 25, "seed": 0, "indifference": 0.0},
    "project_drift": {"bins": 40},
    "reweighted_statistic": {},
    "run_mean_drift": {"profile": "linear", "n_values": (64, 256, 1024), "reps": 200, "seed": 0, "horizon": 1.0, "n_steps": 1000, "threads": 1},
    "run_monotone_uniqueness": {"seed": 0, "horizon": 1.0, "n_steps": 1000, "n_player": 1024, "picard_particles": 8192, "picard_inits": (-1.0, -0.5, 0.0, 0.5, 1.0), "monotonicity_trials": 200, "threads": 1},
    "run_sign_drift": {"t0": 0.0, "n_values": (64, 256, 1024), "reps": 200, "seed": 0, "horizon": 1.0, "n_steps": 1000, "threads": 1},
    "same_law_baseline": {"seed": 0},
    "sample_brownian": {"dim": 1, "out": None, "particles": None},
    "sign_drift": {"horizon": 1.0},
    "sign_of_mean": {"start": 0.0},
    "sign_of_state": {"start": 0.0},
    "simulate_frozen_flow": {"out": None},
    "simulate_nplayer": {},
    "sliced_wasserstein1": {},
    "solve_hjb": {"tie_tol": 0.0},
    "stable_spatial_grid": {},
    "strict_selection": {},
    "wasserstein1_1d": {},
}


def test_settings_inventory():
    functions = [name for name in mfglab.__all__ if inspect.isfunction(getattr(mfglab, name))]
    got = {
        name: {p.name: p.default for p in inspect.signature(getattr(mfglab, name)).parameters.values() if p.default is not p.empty}
        for name in functions
    }
    assert got == SETTINGS


@pytest.mark.parametrize("function,keyword", [
    (hjb.stable_spatial_grid, "max_nodes"),
    (projection.project_drift, "min_count"),
    (relaxed.occupation_w1, "target_level"),
    (relaxed.occupation_w1, "x"),
    (relaxed.occupation_samples, "x"),
    (relaxed.strict_selection, "allow_approximate"),
    (mfe.same_law_baseline, "reps"),
])
def test_retired_settings_are_refused(function, keyword):
    with pytest.raises(TypeError):
        inspect.signature(function).bind_partial(**{keyword: None})


def test_retired_settings_keep_their_values_as_constants():
    assert (hjb._MAX_NODES, projection._MIN_COUNT, relaxed._REFERENCE_LEVEL, mfe._BASELINE_REPS) == (2001, 30, 256, 3)
    assert not hasattr(hjb.ValueField, "at")
