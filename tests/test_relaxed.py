import dataclasses
import warnings

import numpy as np
import pytest

from mfglab.controls import ControlField
from mfglab.games import make_game, monotone_lq, sign_drift
from mfglab.grids import ActionGrid, SpatialGrid, TimeGrid
from mfglab.hjb import evaluate_payoff
from mfglab.measures import DeterministicFlow
from mfglab.mfe import candidate_flow
from mfglab.relaxed import (
    chattering_approximation,
    constant_relaxed,
    largest_remainder,
    occupation_samples,
    occupation_w1,
    strict_selection,
)
from mfglab.rng import derive_seed, sample_brownian


def _three_atoms():
    return ActionGrid(np.array([-1.0]), np.array([1.0]), 3)  # atoms -1, 0, 1


def _flat_flow(tg):
    return DeterministicFlow(tg, np.zeros(tg.n_steps + 1))


class TestLargestRemainder:
    def test_exact_split(self):
        assert largest_remainder(np.array([0.5, 0.5]), 10).tolist() == [5, 5]
        assert largest_remainder(np.array([0.7, 0.2, 0.1]), 10).tolist() == [7, 2, 1]

    def test_remainder_ties_resolve_by_index(self):
        assert largest_remainder(np.array([1 / 3, 1 / 3, 1 / 3]), 10).tolist() == [4, 3, 3]

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            counts = largest_remainder(p, 17)
            assert counts.sum() == 17
            assert np.all(np.abs(counts - p * 17) < 1.0)

    def test_zero_total(self):
        assert largest_remainder(np.array([0.25, 0.75]), 0).tolist() == [0, 0]

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            largest_remainder(np.array([0.5, 0.6]), 4)
        with pytest.raises(ValueError):
            largest_remainder(np.array([-0.1, 1.1]), 4)
        with pytest.raises(ValueError):
            largest_remainder(np.array([]), 4)


class TestChattering:
    def test_point_mass_replays_the_atom(self):
        tg = TimeGrid(1.0, 5)
        ag = _three_atoms()
        rows = np.tile([0.0, 0.0, 1.0], (tg.n_steps, 1))
        chat = chattering_approximation(constant_relaxed(tg, ag, rows), 8)
        assert chat.tgrid.n_steps == 40
        assert chat.tgrid.horizon == tg.horizon
        assert np.array_equal(chat.values, np.ones_like(chat.values))

    def test_even_split_alternates_atoms(self):
        tg = TimeGrid(1.0, 3)
        ag = ActionGrid(np.array([-1.0]), np.array([1.0]), 2)  # atoms -1, 1
        rows = np.tile([0.5, 0.5], (tg.n_steps, 1))
        chat = chattering_approximation(constant_relaxed(tg, ag, rows), 10)
        within = chat.values[:10, 0, 0]
        assert within.tolist() == [-1.0, 1.0] * 5
        assert np.array_equal(chat.values[10:20], chat.values[:10])

    def test_starvation_warns(self):
        tg = TimeGrid(1.0, 4)
        ag = _three_atoms()
        rows = np.tile([0.4, 0.4, 0.2], (tg.n_steps, 1))
        rel = constant_relaxed(tg, ag, rows)
        with pytest.warns(RuntimeWarning):
            chattering_approximation(rel, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chattering_approximation(rel, 5)

    def test_input_validation(self):
        tg = TimeGrid(1.0, 4)
        ag = _three_atoms()
        rel = constant_relaxed(tg, ag, np.tile([0.2, 0.3, 0.5], (4, 1)))
        with pytest.raises(ValueError):
            chattering_approximation(chattering_approximation(rel, 4), 4)
        with pytest.raises(ValueError):
            chattering_approximation(rel, 0)

    def test_mean_drift_preserved_up_to_rounding(self):
        # with drift equal to the action, the substep average drift per step
        # can miss the row mean by at most one substep per atom
        tg = TimeGrid(1.0, 12)
        ag = _three_atoms()
        rng = np.random.default_rng(derive_seed(3, "rows"))
        rows = rng.dirichlet(np.ones(3), size=tg.n_steps)
        rel = constant_relaxed(tg, ag, rows)
        for N in (4, 8, 16):
            chat = chattering_approximation(rel, N)
            per_step = chat.values[:, 0, 0].reshape(tg.n_steps, N).mean(axis=1)
            target = rows @ ag.atoms[:, 0]
            bound = ag.n_atoms / N * (ag.atoms[:, 0].max() - ag.atoms[:, 0].min())
            assert np.abs(per_step - target).max() <= bound + 1e-12


class TestOccupationDistances:
    def test_reference_level_has_zero_distance_to_itself(self):
        tg = TimeGrid(1.0, 6)
        ag = _three_atoms()
        rng = np.random.default_rng(derive_seed(4, "rows"))
        rel = constant_relaxed(tg, ag, rng.dirichlet(np.ones(3), size=tg.n_steps))
        chat = chattering_approximation(rel, 256)
        assert occupation_w1(chat, rel, target_level=256) == 0.0

    def test_distance_shrinks_with_level(self):
        tg = TimeGrid(1.0, 10)
        ag = _three_atoms()
        rng = np.random.default_rng(derive_seed(5, "rows"))
        rel = constant_relaxed(tg, ag, rng.dirichlet(np.ones(3), size=tg.n_steps))
        assert occupation_w1(chattering_approximation(rel, 32), rel) < occupation_w1(
            chattering_approximation(rel, 4), rel
        )

    def test_sample_distance_halves_as_level_doubles(self):
        # averaged over independent probability draws to tame the
        # row-to-row variation of the rounding error
        tg = TimeGrid(1.0, 20)
        ag = _three_atoms()
        levels = (4, 8, 16, 32)
        per_level = []
        for N in levels:
            vals = []
            for k in range(8):
                rng = np.random.default_rng(derive_seed(0, "rows", k))
                rel = constant_relaxed(tg, ag, rng.dirichlet(np.ones(3), size=tg.n_steps))
                vals.append(occupation_w1(chattering_approximation(rel, N), rel))
            per_level.append(np.mean(vals))
        slope = np.polyfit(np.log(levels), np.log(per_level), 1)[0]
        assert -1.3 <= slope <= -0.7

    def test_argument_validation(self):
        tg = TimeGrid(1.0, 4)
        ag = _three_atoms()
        rel = constant_relaxed(tg, ag, np.tile([0.2, 0.3, 0.5], (4, 1)))
        chat = chattering_approximation(rel, 4)
        with pytest.raises(ValueError):
            occupation_w1(rel, rel)
        with pytest.raises(ValueError):
            occupation_w1(chat, chat)

    def test_occupation_samples_match_the_per_step_loop(self):
        def per_step(field, x=None):
            # the per-step gather occupation_samples replaced
            if x is None:
                idx = (0,) * field.sgrid.dim
            else:
                idx = field.sgrid.nearest_index(np.atleast_1d(np.asarray(x, dtype=float)))
            a = np.stack([field.values[(j,) + idx] for j in range(field.tgrid.n_steps)])
            ts = (np.arange(field.tgrid.n_steps) + 0.5) * field.tgrid.dt
            return np.column_stack([ts, a])

        tg = TimeGrid(1.0, 7)
        ag = _three_atoms()
        rng = np.random.default_rng(derive_seed(6, "rows"))
        flat = constant_relaxed(tg, ag, rng.dirichlet(np.ones(3), size=tg.n_steps))
        sg = SpatialGrid(np.array([-1.0]), np.array([1.0]), 5)
        varying = ControlField.relaxed(tg, sg, ag, rng.dirichlet(np.ones(3), size=(tg.n_steps, 5)))
        for N in (1, 4, 9):
            chat = chattering_approximation(flat, N)
            assert np.array_equal(occupation_samples(chat), per_step(chat))
            chat = chattering_approximation(varying, N)
            for x in (-1.0, -0.3, 0.2, 0.99, 5.0):
                assert np.array_equal(occupation_samples(chat, x), per_step(chat, x))

    def test_spatially_varying_field_needs_a_state(self):
        tg = TimeGrid(1.0, 4)
        ag = _three_atoms()
        sg = SpatialGrid(np.array([-1.0]), np.array([1.0]), 3)
        probs = np.zeros((4, 3, 3))
        probs[:, :, 0] = np.array([0.1, 0.5, 0.9])
        probs[:, :, 2] = 1.0 - probs[:, :, 0]
        rel = ControlField.relaxed(tg, sg, ag, probs)
        chat = chattering_approximation(rel, 4)
        with pytest.raises(ValueError, match="varies over space"):
            occupation_w1(chat, rel)
        assert occupation_w1(chat, rel, x=0.0) >= 0.0


class TestStrictSelection:
    def test_point_mass_selects_the_atom(self):
        tg = TimeGrid(1.0, 8)
        ag = _three_atoms()
        rows = np.tile([0.0, 0.0, 1.0], (tg.n_steps, 1))
        rel = constant_relaxed(tg, ag, rows)
        res = strict_selection(sign_drift(), rel, _flat_flow(tg))
        assert np.array_equal(res.control.values, np.ones_like(res.control.values))
        assert res.drift_mismatch == 0.0
        assert res.reward_violations == 0

    def test_even_mixture_selects_the_mean_drift_atom(self):
        # drift equals the action and the running reward is concave in it, so
        # the zero atom matches the mean drift and cannot lose reward
        tg = TimeGrid(1.0, 8)
        ag = _three_atoms()
        rows = np.tile([0.5, 0.0, 0.5], (tg.n_steps, 1))
        rel = constant_relaxed(tg, ag, rows)
        game = monotone_lq()
        res = strict_selection(game, rel, _flat_flow(tg))
        assert np.array_equal(res.control.values, np.zeros_like(res.control.values))
        assert res.drift_mismatch == 0.0
        assert res.reward_violations == 0
        assert res.worst_reward_loss == 0.0

    def test_convex_reward_flags_violations(self):
        tg = TimeGrid(1.0, 8)
        ag = _three_atoms()
        rows = np.tile([0.5, 0.0, 0.5], (tg.n_steps, 1))
        rel = constant_relaxed(tg, ag, rows)
        game = make_game("action_square", reward_sign=1.0)
        res = strict_selection(game, rel, _flat_flow(tg))
        assert res.reward_violations == res.n_nodes
        assert res.worst_reward_loss == pytest.approx(1.0, abs=1e-12)

    def test_needs_affine_drift_flag(self):
        tg = TimeGrid(1.0, 8)
        ag = _three_atoms()
        rel = constant_relaxed(tg, ag, np.tile([0.5, 0.0, 0.5], (tg.n_steps, 1)))
        game = dataclasses.replace(sign_drift(), drift_affine_in_action=False)
        with pytest.raises(ValueError):
            strict_selection(game, rel, _flat_flow(tg))
        res = strict_selection(game, rel, _flat_flow(tg), allow_approximate=True)
        assert res.drift_mismatch == 0.0

    def test_flow_grid_must_match(self):
        tg = TimeGrid(1.0, 8)
        ag = _three_atoms()
        rel = constant_relaxed(tg, ag, np.tile([0.5, 0.0, 0.5], (tg.n_steps, 1)))
        with pytest.raises(ValueError):
            strict_selection(sign_drift(), rel, _flat_flow(TimeGrid(1.0, 9)))

    def test_selection_is_deterministic(self):
        tg = TimeGrid(1.0, 10)
        ag = _three_atoms()
        rng = np.random.default_rng(derive_seed(6, "rows"))
        rel = constant_relaxed(tg, ag, rng.dirichlet(np.ones(3), size=tg.n_steps))
        game = monotone_lq()
        first = strict_selection(game, rel, _flat_flow(tg))
        second = strict_selection(game, rel, _flat_flow(tg))
        assert np.array_equal(first.control.values, second.control.values)

    def test_selection_does_not_lose_payoff_without_violations(self):
        # symmetric rows keep the mean drift on the zero atom, so the two
        # simulations are identical path by path and the payoff comparison
        # isolates the running-reward substitution
        tg = TimeGrid(1.0, 40)
        ag = _three_atoms()
        rng = np.random.default_rng(derive_seed(7, "rows"))
        q = rng.uniform(0.0, 0.5, size=tg.n_steps)
        rel = constant_relaxed(tg, ag, np.column_stack([q, 1.0 - 2.0 * q, q]))
        game = monotone_lq()
        flow = _flat_flow(tg)
        res = strict_selection(game, rel, flow)
        assert res.reward_violations == 0
        bundle = sample_brownian(derive_seed(7, "pay"), 512, tg, 1)
        init = np.zeros((512, 1))
        j_sel, _ = evaluate_payoff(game, flow, res.control, bundle, init)
        j_rel, _ = evaluate_payoff(game, flow, rel, bundle, init)
        assert j_sel >= j_rel - 1e-9


def _oracle_strict_selection(game, relaxed, flow, match_tol=1e-9):
    """strict_selection as it stood with its own per-atom coefficient loop."""
    tgrid = relaxed.tgrid
    stats_path = flow.stats_path()
    atoms = relaxed.agrid.atoms
    nA = atoms.shape[0]
    nodes = relaxed.sgrid.nodes()
    P = nodes.shape[0]
    M, times = tgrid.n_steps, tgrid.times
    selected = np.empty((M, P, atoms.shape[1]))
    worst_mismatch, violations, worst_loss = 0.0, 0, 0.0
    for j in range(M):
        stats = stats_path[j]
        b = np.empty((nA, P, game.dim))
        f = np.empty((nA, P))
        for i in range(nA):
            a = np.broadcast_to(atoms[i], (P, atoms.shape[1]))
            b[i] = np.asarray(game.drift(times[j], nodes, stats, a), dtype=float).reshape(P, game.dim)
            f[i] = np.asarray(game.running(times[j], nodes, stats, a), dtype=float).reshape(P)
        probs = relaxed.values[j].reshape(P, nA)
        target_b = np.einsum("pi,ipd->pd", probs, b)
        target_f = np.einsum("pi,ip->p", probs, f)
        mismatch = np.abs(b - target_b[None]).max(axis=-1)
        candidate = mismatch <= mismatch.min(axis=0) + match_tol
        sel = np.where(candidate, f, -np.inf).argmax(axis=0)
        selected[j] = atoms[sel]
        worst_mismatch = max(worst_mismatch, float(mismatch[sel, np.arange(P)].max()))
        loss = target_f - f[sel, np.arange(P)]
        violations += int(np.sum(loss > 1e-9))
        worst_loss = max(worst_loss, float(loss.max()))
    return selected.reshape(relaxed.values.shape[:-1] + (atoms.shape[1],)), worst_mismatch, violations, max(worst_loss, 0.0)


def _tilted_game():
    """monotone_lq with state-dependent drift and a reward that is not even in the action."""
    return dataclasses.replace(
        monotone_lq(),
        name="tilted",
        drift=lambda t, x, m, a: a * (1.0 + 0.2 * np.sin(x + t)),
        running=lambda t, x, m, a: (a[..., 0] - 0.5 * a[..., 0] ** 2) * (1.0 + x[..., 0] * m.mean[..., 0]),
    )


class TestSelectionMatchesPerAtomLoop:
    @pytest.mark.parametrize("name", ["sign_drift", "monotone_lq", "tracking_lq", "action_square", "tilted"])
    def test_spatially_varying_rows(self, name):
        game = _tilted_game() if name == "tilted" else make_game(name)
        tg = TimeGrid(1.0, 30)
        sg = SpatialGrid(np.array([-3.0]), np.array([3.0]), 25)
        ag = ActionGrid(np.array([-1.0]), np.array([1.0]), 5)
        rng = np.random.default_rng(derive_seed(8, name))
        rel = ControlField.relaxed(tg, sg, ag, rng.dirichlet(np.ones(5), size=(tg.n_steps, 25)))
        flow = candidate_flow(game, tg, 0.3 * tg.times, 200, derive_seed(8, "flow"))
        res = strict_selection(game, rel, flow, allow_approximate=True)
        selected, mismatch, violations, loss = _oracle_strict_selection(game, rel, flow)
        assert np.array_equal(res.control.values, selected)
        assert (res.drift_mismatch, res.reward_violations, res.worst_reward_loss) == (mismatch, violations, loss)
