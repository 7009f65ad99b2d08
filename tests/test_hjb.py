import dataclasses
import re

import numpy as np
import pytest

from mfglab import hjb, sim
from mfglab.controls import ControlField, sign_of_mean
from mfglab.games import (
    GAME_CATALOG,
    GameSpec,
    InitialLaw,
    action_square,
    driftless,
    make_game,
    mean_drift,
    monotone_lq,
    sign_drift,
    tracking_lq,
)
from mfglab.grids import ActionGrid, SpatialGrid, TimeGrid
from mfglab.hjb import (
    CFLError,
    cfl_limit,
    check_cfl,
    default_action_grid,
    evaluate_payoff,
    solve_hjb,
    stable_spatial_grid,
)
from mfglab.measures import DeterministicFlow
from mfglab.mfe import candidate_flow
from mfglab.rng import derive_seed, initial_cloud, sample_brownian
from mfglab.sim import atom_values, coefficient_table


def _ramp_flow(tg):
    return DeterministicFlow(tg, tg.times.reshape(-1, 1))


def _zero_flow(tg):
    return DeterministicFlow(tg, np.zeros((tg.n_steps + 1, 1)))


def dp_oracle(game, flow, sgrid, agrid, tg):
    """Tabular dynamic program over the lattice, written as a Markov chain.

    The explicit upwind scheme moves mass up/down one node with
    probabilities built from the diffusion and the signed drift; this
    re-derivation through transition matrices is the reference for the
    PDE-style sweep.
    """
    h = sgrid.spacing[0]
    dt = tg.dt
    xs = sgrid.nodes()
    stats = flow.stats_path()
    atoms = agrid.atoms
    V = np.asarray(game.terminal(xs, stats[-1]), dtype=float)
    policy = np.zeros((tg.n_steps, xs.shape[0]))
    for j in range(tg.n_steps - 1, -1, -1):
        t = tg.times[j]
        v_up = np.concatenate([V[1:], V[-1:]])     # Neumann: copy edge
        v_dn = np.concatenate([V[:1], V[:-1]])
        best = None
        best_a = None
        for i in range(atoms.shape[0]):
            a = np.broadcast_to(atoms[i], (xs.shape[0], atoms.shape[1]))
            b = np.asarray(game.drift(t, xs, stats[j], a), dtype=float)[:, 0]
            f = np.asarray(game.running(t, xs, stats[j], a), dtype=float)
            p_up = dt * (0.5 / h**2 + np.maximum(b, 0.0) / h)
            p_dn = dt * (0.5 / h**2 + np.maximum(-b, 0.0) / h)
            p_stay = 1.0 - p_up - p_dn
            assert np.all(p_stay >= -1e-12), "CFL must hold for the chain view"
            q = p_up * v_up + p_stay * V + p_dn * v_dn + dt * f
            if best is None:
                best, best_a = q, np.full(xs.shape[0], i)
            else:
                take = q > best + 1e-15
                best = np.where(take, q, best)
                best_a = np.where(take, i, best_a)
        V = best
        policy[j] = best_a
    return V, policy


class TestSolveHjb:
    def test_terminal_condition_exact(self):
        game = sign_drift()
        tg = TimeGrid(1.0, 100)
        sg = stable_spatial_grid(game, tg)
        sol = solve_hjb(game, _ramp_flow(tg), sg, default_action_grid(game))
        expect = np.asarray(game.terminal(sg.nodes(), _ramp_flow(tg).stats_path()[-1]))
        assert np.array_equal(sol.value.values[-1], expect.reshape(sol.value.values[-1].shape))

    def test_ramp_flow_value_and_feedback(self):
        # mean path t makes the terminal reward x * T; pushing up at full
        # speed is optimal, and V(0,0) = T * T
        game = sign_drift()
        tg = TimeGrid(1.0, 400)
        sg = stable_spatial_grid(game, tg)
        sol = solve_hjb(game, _ramp_flow(tg), sg, default_action_grid(game))
        v00 = float(sol.value.values[(0,) + sg.nearest_index(np.zeros((1, 1)))][0])
        assert abs(v00 - 1.0) < 0.05
        # feedback +1 on interior nodes at a mid-horizon slice
        interior = sg.nodes()[5:-5]
        acts = sol.control.actions(200, 0.5, interior, None)
        assert np.all(acts == 1.0)

    def test_refinement_stability(self):
        # doubling the resolution moves the value at the initial mean by
        # less than the working tolerance on a curved terminal reward
        game = tracking_lq(target=1.0)
        vals = []
        for M in (400, 1600):
            tg = TimeGrid(1.0, M)
            sg = stable_spatial_grid(game, tg)
            sol = solve_hjb(game, _zero_flow(tg), sg, default_action_grid(game))
            vals.append(float(sol.value.values[(0,) + sg.nearest_index(np.zeros((1, 1)))][0]))
        assert abs(vals[1] - vals[0]) < 0.05

    def test_zero_flow_all_actions_tie_lowest_wins(self):
        # terminal reward x * 0 == 0 and f == 0: the objective is flat, so
        # the argmax must return the lowest atom everywhere
        game = sign_drift()
        tg = TimeGrid(1.0, 100)
        sg = stable_spatial_grid(game, tg)
        ag = default_action_grid(game)
        sol = solve_hjb(game, _zero_flow(tg), sg, ag)
        assert np.all(sol.value.values == 0.0)
        assert np.all(sol.control.values == ag.atoms[0, 0])

    @pytest.mark.parametrize("tie_tol", [-0.05, float("nan"), float("inf")])
    def test_negative_or_non_finite_tie_tol_is_refused(self, tie_tol):
        game = sign_drift()
        tg = TimeGrid(1.0, 20)
        sg = SpatialGrid(game.state_lo, game.state_hi, 21)
        with pytest.raises(ValueError, match="tie_tol must be finite and non-negative"):
            solve_hjb(game, _zero_flow(tg), sg, default_action_grid(game), tie_tol=tie_tol)

    def test_matches_tabular_dp_oracle(self):
        # coarse lattice: 20 states, 20 steps, 5 actions
        game = tracking_lq(target=1.0)
        tg = TimeGrid(1.0, 20)
        sg = SpatialGrid(np.array([-4.0]), np.array([4.0]), 20)
        ag = ActionGrid(np.array([-1.0]), np.array([1.0]), 5)
        flow = _zero_flow(tg)
        v_ref, pol_ref = dp_oracle(game, flow, sg, ag, tg)
        sol = solve_hjb(game, flow, sg, ag)
        assert np.allclose(sol.value.values[0], v_ref, atol=1e-10)
        # feedback +1 strictly left of the target near the horizon
        xs = sg.nodes()[:, 0]
        left = xs < 0.6  # one node short of the target to dodge boundary/tie zones
        acts = sol.control.values[-1, :, 0]
        assert np.all(acts[left] == 1.0)
        oracle_acts = ag.atoms[pol_ref[-1].astype(int), 0]
        assert np.array_equal(acts, oracle_acts)

    def test_value_monotone_in_terminal_reward(self):
        game = sign_drift()
        lifted = dataclasses.replace(
            game,
            terminal=lambda x, m, _g=game.terminal: np.asarray(_g(x, m)) + 0.5,
            terminal_bound=game.terminal_bound + 0.5,
        )
        tg = TimeGrid(1.0, 100)
        sg = stable_spatial_grid(game, tg)
        ag = default_action_grid(game)
        base = solve_hjb(game, _ramp_flow(tg), sg, ag)
        up = solve_hjb(lifted, _ramp_flow(tg), sg, ag)
        assert np.allclose(up.value.values, base.value.values + 0.5, atol=1e-9)

    def test_value_bound(self):
        game = sign_drift()
        tg = TimeGrid(1.0, 200)
        sg = stable_spatial_grid(game, tg)
        sol = solve_hjb(game, _ramp_flow(tg), sg, default_action_grid(game))
        bound = game.horizon * game.running_bound + game.terminal_bound * (1.0 + sg.hi[0])
        # terminal bound scales with the state box here; check the raw form
        assert np.abs(sol.value.values).max() <= game.horizon * game.running_bound + np.abs(
            np.asarray(game.terminal(sg.nodes(), _ramp_flow(tg).stats_path()[-1]))).max() + 1e-9

    def test_widening_the_box_barely_moves_the_value(self):
        game = sign_drift()
        tg = TimeGrid(1.0, 400)
        sg = stable_spatial_grid(game, tg)
        extra = int(np.ceil(6.0 / sg.spacing[0]))
        extra += extra % 2  # keep the node count odd so the center stays on-grid
        wide = SpatialGrid(sg.lo - 3.0, sg.hi + 3.0, sg.n_nodes + extra)
        ag = default_action_grid(game)
        v1 = float(solve_hjb(game, _ramp_flow(tg), sg, ag).value.values[(0,) + sg.nearest_index(np.zeros((1, 1)))][0])
        v2 = float(solve_hjb(game, _ramp_flow(tg), wide, ag).value.values[(0,) + wide.nearest_index(np.zeros((1, 1)))][0])
        assert abs(v1 - v2) < 0.01


class TestCfl:
    def test_limit_formula(self):
        sg = SpatialGrid(np.array([0.0]), np.array([1.0]), 11)  # h = 0.1
        assert np.isclose(cfl_limit(sg, 2.0), 0.1**2 / (1 + 0.1 * 2.0))

    def test_violation_rejected_before_stepping(self):
        game = sign_drift()
        tg = TimeGrid(1.0, 10)  # dt = 0.1, far too big for a fine grid
        sg = SpatialGrid(np.array([-8.0]), np.array([8.0]), 400)
        with pytest.raises(CFLError) as err:
            solve_hjb(game, _ramp_flow(tg), sg, default_action_grid(game))
        assert "dt" in str(err.value)

    def test_nan_limit_is_refused(self):
        # a NaN drift bound gives a NaN limit (an infinite box would too, but
        # SpatialGrid refuses one by name)
        sg = SpatialGrid(np.array([-8.0]), np.array([8.0]), 40)
        assert np.isnan(cfl_limit(sg, float("nan")))
        with pytest.raises(CFLError, match="stability limit nan"):
            check_cfl(TimeGrid(1.0, 2000), sg, float("nan"))

    def test_check_cfl_passes_when_stable(self):
        sg = SpatialGrid(np.array([-8.0]), np.array([8.0]), 40)
        check_cfl(TimeGrid(1.0, 2000), sg, 1.0)

    def test_stable_grid_respects_cfl(self):
        game = sign_drift()
        for M in (100, 500, 2000):
            tg = TimeGrid(1.0, M)
            sg = stable_spatial_grid(game, tg)
            assert tg.dt <= cfl_limit(sg, game.drift_bound) * (1 + 1e-9)

    def test_stable_grid_stops_at_2001_nodes(self):
        # the CFL-stable count on this grid is far above the cap; the capped
        # count is odd, so the box center stays a node
        game = sign_drift()
        sg = stable_spatial_grid(game, TimeGrid(1.0, 40000))
        assert hjb._MAX_NODES == sg.n_nodes == 2001
        assert np.array_equal(sg.nodes()[1000], 0.5 * (game.state_lo + game.state_hi))


class TestEvaluatePayoff:
    def test_constant_terminal_reward_exact(self):
        law = InitialLaw("point", [0.0], [0.0])
        game = GameSpec(
            name="unit_g", action_lo=[0.0], action_hi=[0.0],
            horizon=1.0, initial=law,
            drift=lambda t, x, m, a: np.zeros_like(x),
            running=lambda t, x, m, a: np.zeros(x.shape[0]),
            terminal=lambda x, m: np.ones(x.shape[0]),
            drift_bound=0.0, running_bound=0.0, terminal_bound=1.0,
            state_lo=[-8.0], state_hi=[8.0],
        )
        tg = TimeGrid(1.0, 20)
        bundle = sample_brownian(1, 64, tg, 1)
        x0 = initial_cloud(2, 64, law.sampler())
        mean, se = evaluate_payoff(game, _zero_flow(tg), ControlField.constant(tg, 0.0), bundle, x0)
        assert mean == 1.0
        assert se == 0.0

    def test_constant_running_reward_exact(self):
        from mfglab.games import action_square

        game = action_square(reward_sign=1.0)
        tg = TimeGrid(1.0, 30)
        bundle = sample_brownian(3, 64, tg, 1)
        x0 = initial_cloud(4, 64, game.initial.sampler())
        mean, se = evaluate_payoff(game, _zero_flow(tg), ControlField.constant(tg, 1.0), bundle, x0)
        assert np.isclose(mean, 1.0, atol=1e-12)
        assert se <= 1e-12

    def test_ramp_flow_payoff_hits_squared_horizon(self):
        game = sign_drift()
        tg = TimeGrid(1.0, 200)
        bundle = sample_brownian(5, 4096, tg, 1)
        x0 = initial_cloud(6, 4096, game.initial.sampler())
        mean, se = evaluate_payoff(game, _ramp_flow(tg), ControlField.constant(tg, 1.0), bundle, x0)
        assert abs(mean - 1.0) <= 3 * se

    def test_solved_feedback_beats_catalog_feedbacks(self):
        game = sign_drift()
        tg = TimeGrid(1.0, 200)
        sg = stable_spatial_grid(game, tg)
        sol = solve_hjb(game, _ramp_flow(tg), sg, default_action_grid(game))
        bundle = sample_brownian(derive_seed(7, "opt"), 2048, tg, 1)
        x0 = initial_cloud(derive_seed(7, "opt0"), 2048, game.initial.sampler())
        best, se_b = evaluate_payoff(game, _ramp_flow(tg), sol.control, bundle, x0)
        for rival in (ControlField.constant(tg, -1.0), ControlField.constant(tg, 0.0), sign_of_mean(tg)):
            val, se_r = evaluate_payoff(game, _ramp_flow(tg), rival, bundle, x0)
            assert best >= val - 3 * (se_b + se_r) - 0.05


# solve_hjb as it stood with a per-atom Hamiltonian loop and a shifted copy
# of V per axis and direction; the atom-table and padded-stencil version must
# reproduce it bit for bit.

def _shifted(V, axis, step):
    lead = [slice(None)] * V.ndim
    if step == +1:
        lead[axis] = slice(1, None)
        body = V[tuple(lead)]
        lead[axis] = slice(-1, None)
        return np.concatenate([body, V[tuple(lead)]], axis=axis)
    lead[axis] = slice(None, -1)
    body = V[tuple(lead)]
    lead[axis] = slice(None, 1)
    return np.concatenate([V[tuple(lead)], body], axis=axis)


def _oracle_solve_hjb(game, flow, sgrid, agrid, tie_tol=0.0, tie_break="lowest"):
    tgrid = flow.grid
    M, dt, times = tgrid.n_steps, tgrid.dt, tgrid.times
    stats_path = flow.stats_path()
    nodes, space, spacing = sgrid.nodes(), sgrid.shape, sgrid.spacing
    atoms = agrid.atoms
    nA = atoms.shape[0]
    V = np.asarray(game.terminal(nodes, stats_path[M]), dtype=float).reshape(space)
    values = np.empty((M + 1,) + space)
    values[M] = V
    control_values = np.empty((M,) + space + (atoms.shape[1],))
    for j in range(M - 1, -1, -1):
        t, stats = times[j], stats_path[j]
        lap = np.zeros(space)
        for ax in range(sgrid.dim):
            lap += (_shifted(V, ax, +1) - 2.0 * V + _shifted(V, ax, -1)) / spacing[ax] ** 2
        dplus = [(_shifted(V, ax, +1) - V) / spacing[ax] for ax in range(sgrid.dim)]
        dminus = [(V - _shifted(V, ax, -1)) / spacing[ax] for ax in range(sgrid.dim)]
        H = np.empty((nA,) + space)
        B = np.empty((nA,) + space + (sgrid.dim,))
        F = np.empty((nA,) + space)
        for i in range(nA):
            a = np.broadcast_to(atoms[i], nodes.shape[:-1] + (atoms.shape[1],))
            b = np.asarray(game.drift(t, nodes, stats, a), dtype=float).reshape(space + (sgrid.dim,))
            f = np.asarray(game.running(t, nodes, stats, a), dtype=float).reshape(space)
            conv = np.zeros(space)
            for ax in range(sgrid.dim):
                bax = b[..., ax]
                conv += np.maximum(bax, 0.0) * dplus[ax] - np.maximum(-bax, 0.0) * dminus[ax]
            H[i] = conv + f
            B[i] = b
            F[i] = f
        Hmax = H.max(axis=0)
        if tie_break == "lowest" or tie_tol == 0.0:
            sel = np.argmax(H >= Hmax - tie_tol, axis=0) if tie_tol > 0.0 else H.argmax(axis=0)
        else:
            tied = H >= Hmax - tie_tol
            target = np.einsum("i...,i...k->...k", tied / tied.sum(axis=0), B)
            mismatch = np.where(tied, np.abs(B - target).max(axis=-1), np.inf)
            candidate = tied & (mismatch <= mismatch.min(axis=0) + 1e-12)
            sel = np.where(candidate, F, -np.inf).argmax(axis=0)
        control_values[j] = atoms[sel]
        V = V + dt * (0.5 * lap + Hmax)
        values[j] = V
    return values, control_values


def _planar_game():
    """Two-dimensional state and action with axis-dependent coefficients, so
    each stencil axis sees its own spacing, drift and curvature."""
    def drift(t, x, m, a):
        return a * (1.0 + 0.2 * np.sin(x + t))

    def running(t, x, m, a):
        return -0.5 * np.sum(a * a, axis=-1) + 0.3 * x[..., 1] * m.mean[..., 0] - 0.1 * a[..., 0] * x[..., 0]

    def terminal(x, m):
        return x[..., 0] * m.mean[..., 1] + 0.3 * x[..., 0] * x[..., 1] - 0.05 * x[..., 1] ** 2

    return GameSpec(
        name="planar", action_lo=[-1.0, -1.0], action_hi=[1.0, 1.0], horizon=0.5,
        initial=InitialLaw("point", [0.0, 0.0], [0.0, 0.0]), drift=drift, running=running, terminal=terminal,
        drift_bound=1.2, running_bound=5.0, terminal_bound=10.0, state_lo=[-2.0, -3.0], state_hi=[2.0, 3.0],
    )


class TestMatchesPerAtomLoop:
    CASES = [("lowest", 0.0), ("mean_drift", 0.02)]

    @pytest.mark.parametrize("tie_break,tie_tol", CASES)
    @pytest.mark.parametrize("name", ["sign_drift", "monotone_lq", "tracking_lq", "action_square"])
    def test_catalog_games(self, name, tie_break, tie_tol):
        game = make_game(name)
        tg = TimeGrid(1.0, 60)
        flow = candidate_flow(game, tg, 0.4 * tg.times, 300, derive_seed(1, name))
        sg = SpatialGrid(game.state_lo, game.state_hi, 41)
        ag = default_action_grid(game)
        sol = solve_hjb(game, flow, sg, ag, tie_tol=tie_tol)
        values, controls = _oracle_solve_hjb(game, flow, sg, ag, tie_tol, tie_break)
        assert np.array_equal(sol.value.values, values)
        assert np.array_equal(sol.control.values, controls)

    def test_planar_dimensions_come_from_the_initial_law_and_action_box(self):
        game = _planar_game()
        assert (game.dim, game.action_dim) == (2, 2)

    @pytest.mark.parametrize("tie_break,tie_tol", CASES)
    def test_two_dimensional_game(self, tie_break, tie_tol):
        game = _planar_game()
        tg = TimeGrid(game.horizon, 100)
        sg = SpatialGrid(game.state_lo, game.state_hi, 15)  # spacings 0.29 and 0.43
        ag = ActionGrid(game.action_lo, game.action_hi, 3)
        mean = np.column_stack([0.5 * tg.times, -tg.times])
        flow = DeterministicFlow(tg, mean)
        sol = solve_hjb(game, flow, sg, ag, tie_tol=tie_tol)
        values, controls = _oracle_solve_hjb(game, flow, sg, ag, tie_tol, tie_break)
        assert sol.value.values.shape == (tg.n_steps + 1, 15, 15)
        assert np.array_equal(sol.value.values, values)
        assert np.array_equal(sol.control.values, controls)
        # the value is not constant along either axis, so both stencils matter
        assert np.ptp(values[0], axis=0).min() > 0 and np.ptp(values[0], axis=1).min() > 0


# solve_hjb as it stood with one atom_values pair per step and np.pad ghosts;
# the whole-horizon coefficient table and padded buffer must keep its bits
def _per_step_solve_hjb(game, flow, sgrid, agrid, tie_tol=0.0, tie_break="lowest"):
    tgrid = flow.grid
    M, dt, times = tgrid.n_steps, tgrid.dt, tgrid.times
    stats_path = flow.stats_path()
    nodes, space, spacing = sgrid.nodes(), sgrid.shape, sgrid.spacing
    atoms = agrid.atoms
    nA = atoms.shape[0]
    inner = [slice(1, -1)] * sgrid.dim
    up = [tuple(inner[:ax] + [slice(2, None)] + inner[ax + 1 :]) for ax in range(sgrid.dim)]
    down = [tuple(inner[:ax] + [slice(None, -2)] + inner[ax + 1 :]) for ax in range(sgrid.dim)]
    V = np.asarray(game.terminal(nodes, stats_path[M]), dtype=float).reshape(space)
    values = np.empty((M + 1,) + space)
    values[M] = V
    control_values = np.empty((M,) + space + (atoms.shape[1],))
    for j in range(M - 1, -1, -1):
        t, stats = times[j], stats_path[j]
        B = atom_values(game.drift, t, nodes, stats, atoms).reshape((nA,) + space + (sgrid.dim,))
        F = atom_values(game.running, t, nodes, stats, atoms).reshape((nA,) + space)
        Vp = np.pad(V, 1, mode="edge")
        lap = np.zeros(space)
        conv = np.zeros((nA,) + space)
        for ax in range(sgrid.dim):
            V_up, V_down = Vp[up[ax]], Vp[down[ax]]
            lap += (V_up - 2.0 * V + V_down) / spacing[ax] ** 2
            b = B[..., ax]
            conv += np.maximum(b, 0.0) * ((V_up - V) / spacing[ax]) - np.maximum(-b, 0.0) * ((V - V_down) / spacing[ax])
        H = conv + F
        if not np.isfinite(H).all():
            raise FloatingPointError(f"coefficients produced a non-finite Hamiltonian at t={t:.6g}")
        Hmax = H.max(axis=0)
        if tie_break == "lowest" or tie_tol == 0.0:
            sel = np.argmax(H >= Hmax - tie_tol, axis=0) if tie_tol > 0.0 else H.argmax(axis=0)
        else:
            tied = H >= Hmax - tie_tol
            target = np.einsum("i...,i...k->...k", tied / tied.sum(axis=0), B)
            mismatch = np.where(tied, np.abs(B - target).max(axis=-1), np.inf)
            candidate = tied & (mismatch <= mismatch.min(axis=0) + 1e-12)
            sel = np.where(candidate, F, -np.inf).argmax(axis=0)
        control_values[j] = atoms[sel]
        V = V + dt * (0.5 * lap + Hmax)
        values[j] = V
    return values, control_values


CATALOG_GAMES = {
    "sign_drift": sign_drift,
    "monotone_lq": monotone_lq,
    "tracking_lq": lambda: tracking_lq(target=1.0, action_cost=0.3),
    "action_square": lambda: action_square(reward_sign=1.0),
    "driftless": driftless,
    **{f"mean_drift_{p}": (lambda p=p: mean_drift(p, scale=1.5)) for p in ("linear", "sign", "sqrt", "zero")},
}
TIE_CASES = [("lowest", 0.0), ("mean_drift", 0.0), ("mean_drift", 0.05)]


def _catalog_flows(game, tg):
    """A sample flow and a prescribed-mean flow whose means cross zero."""
    return [
        candidate_flow(game, tg, 0.6 * tg.times - 0.3, 400, derive_seed(2, game.name)),
        DeterministicFlow(tg, np.sin(3.0 * tg.times) - 0.2),
    ]


class TestCoefficientTable:
    def test_every_catalog_game_declares_batched_coefficients(self):
        assert set(GAME_CATALOG) == {"sign_drift", "monotone_lq", "mean_drift", "driftless", "tracking_lq", "action_square"}
        for name in GAME_CATALOG:
            assert make_game(name).coefficients_batch_time
        assert not _planar_game().coefficients_batch_time

    @pytest.mark.parametrize("name", sorted(CATALOG_GAMES))
    def test_batched_table_equals_the_per_step_table(self, name):
        game = CATALOG_GAMES[name]()
        tg = TimeGrid(1.0, 40)
        sg = SpatialGrid(game.state_lo, game.state_hi, 31)
        ag = ActionGrid(game.action_lo, game.action_hi, 5 if game.action_lo[0] < game.action_hi[0] else 1)
        per_step = dataclasses.replace(game, coefficients_batch_time=False)
        for flow in _catalog_flows(game, tg):
            args = (tg.times[:-1], flow.stats_path(), sg.nodes(), ag.atoms)
            B, F = coefficient_table(game, *args)
            B_ref, F_ref = coefficient_table(per_step, *args)
            assert B.shape == B_ref.shape == (tg.n_steps, ag.n_atoms, sg.n_nodes, 1)
            assert F.shape == F_ref.shape == (tg.n_steps, ag.n_atoms, sg.n_nodes)
            assert np.array_equal(B, B_ref) and np.array_equal(F, F_ref)

    @pytest.mark.parametrize("tie_break,tie_tol", TIE_CASES)
    @pytest.mark.parametrize("name", sorted(CATALOG_GAMES))
    def test_catalog_solutions_keep_the_per_step_bits(self, name, tie_break, tie_tol):
        game = CATALOG_GAMES[name]()
        tg = TimeGrid(1.0, 80)
        sg = SpatialGrid(game.state_lo, game.state_hi, 41)
        ag = default_action_grid(game)
        for flow in _catalog_flows(game, tg):
            sol = solve_hjb(game, flow, sg, ag, tie_tol=tie_tol)
            values, controls = _per_step_solve_hjb(game, flow, sg, ag, tie_tol, tie_break)
            assert np.array_equal(sol.value.values, values)
            assert np.array_equal(sol.control.values, controls)

    def test_batched_game_calls_each_coefficient_once(self):
        calls = {"drift": 0, "running": 0}
        base = monotone_lq()

        def counted(name):
            def coef(*args):
                calls[name] += 1
                return getattr(base, name)(*args)
            return coef

        game = dataclasses.replace(base, drift=counted("drift"), running=counted("running"))
        tg = TimeGrid(1.0, 50)
        sg = SpatialGrid(game.state_lo, game.state_hi, 31)
        sol = solve_hjb(game, _ramp_flow(tg), sg, default_action_grid(game))
        assert calls == {"drift": 1, "running": 1}
        values, controls = _per_step_solve_hjb(base, _ramp_flow(tg), sg, default_action_grid(game))
        assert np.array_equal(sol.value.values, values) and np.array_equal(sol.control.values, controls)

    @pytest.mark.parametrize("tie_break,tie_tol", TIE_CASES)
    def test_undeclared_game_takes_the_per_step_path(self, tie_break, tie_tol, monkeypatch):
        # the planar game reads t through sin(x + t), which a stacked time
        # axis would not broadcast against; it must get one atom_values pair
        # per step and the bits of the per-step solver
        game = _planar_game()
        tg = TimeGrid(game.horizon, 60)
        sg = SpatialGrid(game.state_lo, game.state_hi, 15)
        ag = ActionGrid(game.action_lo, game.action_hi, 3)
        flow = DeterministicFlow(tg, np.column_stack([0.5 * tg.times, -tg.times]))
        values, controls = _per_step_solve_hjb(game, flow, sg, ag, tie_tol, tie_break)
        calls = []

        def counting(coef, t, *args):
            calls.append(t)
            return atom_values(coef, t, *args)

        monkeypatch.setattr(sim, "atom_values", counting)
        sol = solve_hjb(game, flow, sg, ag, tie_tol=tie_tol)
        assert calls == [t for t in tg.times[:-1] for _ in range(2)]
        assert np.array_equal(sol.value.values, values)
        assert np.array_equal(sol.control.values, controls)

    @pytest.mark.parametrize("declared", [True, False])
    def test_non_finite_hamiltonian_names_the_first_offending_time(self, declared):
        # running turns NaN on t in [0.3, 0.55]; the backward sweep meets
        # the latest such step first, and both paths must name it
        base = monotone_lq()
        game = dataclasses.replace(
            base,
            running=lambda t, x, m, a: base.running(t, x, m, a) + np.where((t >= 0.3) & (t <= 0.55), np.nan, 0.0),
            coefficients_batch_time=declared,
        )
        tg = TimeGrid(1.0, 40)
        sg = SpatialGrid(game.state_lo, game.state_hi, 31)
        ag = default_action_grid(game)
        with pytest.raises(FloatingPointError) as expected:
            _per_step_solve_hjb(game, _ramp_flow(tg), sg, ag)
        assert "t=0.55" in str(expected.value)
        with pytest.raises(FloatingPointError, match=re.escape(str(expected.value))):
            solve_hjb(game, _ramp_flow(tg), sg, ag)

    def test_cfl_error_comes_before_the_table(self, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("the CFL check must run before any coefficient table is built")

        monkeypatch.setattr(hjb, "coefficient_table", no_table)
        game = sign_drift()
        tg = TimeGrid(1.0, 100)
        flow = DeterministicFlow(tg, np.zeros(tg.n_steps + 1))
        with pytest.raises(CFLError):
            solve_hjb(game, flow, SpatialGrid([-7.0], [7.0], 2001), default_action_grid(game))
