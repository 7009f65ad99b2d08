import dataclasses
import warnings

import numpy as np
import pytest

from mfglab.controls import ControlField
from mfglab.games import GAME_CATALOG, action_square, monotone_lq, sign_drift
from mfglab.grids import ActionGrid, SpatialGrid, TimeGrid
from mfglab.hjb import evaluate_payoff
from mfglab.measures import DeterministicFlow, sliced_wasserstein1
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


def _oracle_largest_remainder(probs, total):
    """largest_remainder as it stood for one row."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("probs must be a nonempty vector")
    if np.any(probs < -1e-12) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("probs must be a probability vector")
    raw = probs * total
    counts = np.floor(raw).astype(np.intp)
    short = total - int(counts.sum())
    if short > 0:
        # stable sort keeps atom order among equal remainders
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def _oracle_roundrobin_schedule(counts: tuple) -> tuple:
    """Atom index sequence: repeated passes over atoms with remaining budget.

    The library memoized this per counts tuple; the memo never changed a result.
    """
    remaining = list(counts)
    seq = []
    while any(r > 0 for r in remaining):
        for i, r in enumerate(remaining):
            if r > 0:
                seq.append(i)
                remaining[i] -= 1
    return tuple(seq)


def _oracle_chattering(relaxed, substeps):
    """chattering_approximation as it stood, one (step, node) row at a time."""
    if not relaxed.is_relaxed:
        raise ValueError("chattering starts from a relaxed control field")
    if substeps < 1:
        raise ValueError("need at least one substep")
    tgrid = relaxed.tgrid
    fine = tgrid.refine(substeps)
    M = tgrid.n_steps
    atoms = relaxed.agrid.atoms
    nA = atoms.shape[0]
    space = relaxed.sgrid.shape
    probs = relaxed.values.reshape(M, -1, nA)  # (M, P, nA)
    P = probs.shape[1]

    starved = False
    out = np.empty((M * substeps, P, atoms.shape[1]))
    for j in range(M):
        for p in range(P):
            counts = _oracle_largest_remainder(probs[j, p], substeps)
            if not starved and np.any((counts == 0) & (probs[j, p] >= 0.5 / nA)):
                starved = True
            seq = _oracle_roundrobin_schedule(tuple(int(c) for c in counts))
            out[j * substeps : (j + 1) * substeps, p] = atoms[list(seq)]
    if starved:
        warnings.warn(
            "chattering with so few substeps that an atom of probability >= 1/(2*n_atoms) got none",
            RuntimeWarning,
        )
    values = out.reshape((M * substeps,) + space + (atoms.shape[1],))
    return ControlField.pure(fine, relaxed.sgrid, values, name=f"chatter[{relaxed.name or 'relaxed'}x{substeps}]")


def _claim9_rows(seed):
    """The eight relaxed row fields claim 9 measures the chattering rate on."""
    tg = TimeGrid(1.0, 20)
    return [
        constant_relaxed(tg, _three_atoms(), np.random.default_rng(derive_seed(seed, "rows", k)).dirichlet(np.ones(3), size=tg.n_steps))
        for k in range(8)
    ]


def _oracle_fields():
    fields = _claim9_rows(11)
    rng = np.random.default_rng(derive_seed(9, "oracle"))
    tg = TimeGrid(1.0, 6)
    sg = SpatialGrid(np.array([-1.0]), np.array([1.0]), 7)
    fields.append(ControlField.relaxed(tg, sg, _three_atoms(), rng.dirichlet(np.ones(3), size=(6, 7)), name="varying"))
    sg2 = SpatialGrid(np.array([-1.0, 0.0]), np.array([1.0, 2.0]), 5)
    ag2 = ActionGrid(np.array([-1.0, 0.0]), np.array([1.0, 0.5]), 3)  # 9 atoms in 2-d
    fields.append(ControlField.relaxed(tg, sg2, ag2, rng.dirichlet(0.5 * np.ones(9), size=(6, 5, 5)), name="plane"))
    ties = np.array([[1 / 3, 1 / 3, 1 / 3], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0], [0.25, 0.25, 0.5], [0.1, 0.45, 0.45], [0.0, 1.0, 0.0]])
    fields.append(constant_relaxed(tg, _three_atoms(), ties, name="ties"))
    return fields


LEVELS = (1, 2, 3, 4, 7, 8, 16, 17, 100, 256)


def _warned(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, sum(issubclass(w.category, RuntimeWarning) for w in caught)


class TestChatteringMatchesRowLoop:
    @pytest.mark.parametrize("k", range(11))
    def test_fields_and_levels(self, k):
        rel = _oracle_fields()[k]
        for N in LEVELS:
            chat, warned = _warned(chattering_approximation, rel, N)
            want, want_warned = _warned(_oracle_chattering, rel, N)
            assert np.array_equal(chat.values, want.values), (k, N)
            assert chat.values.shape == want.values.shape
            assert (chat.tgrid, chat.name, chat.sgrid) == (want.tgrid, want.name, want.sgrid)
            assert warned == want_warned <= 1, (k, N)

    def test_some_levels_starve(self):
        counts = [_warned(chattering_approximation, rel, N)[1] for rel in _oracle_fields() for N in LEVELS]
        assert 0 < sum(counts) < len(counts)

    def test_stacked_rounding_equals_rows(self):
        rows = np.random.default_rng(derive_seed(10, "rows")).dirichlet(np.ones(5), size=200)
        for total in (0, 1, 3, 17, 256):
            stacked = largest_remainder(rows, total)
            by_row = np.stack([largest_remainder(r, total) for r in rows])
            assert np.array_equal(stacked, by_row)
            assert np.array_equal(by_row, np.stack([_oracle_largest_remainder(r, total) for r in rows]))
            assert np.array_equal(largest_remainder(rows.reshape(10, 20, 5), total), stacked.reshape(10, 20, 5))
            assert np.all(stacked.sum(axis=-1) == total)
        # remainder ties in rows longer than the sort's small-array cutoff
        wide = np.random.default_rng(derive_seed(10, "wide")).choice([0.0, 1 / 80, 2 / 80, 3 / 80], size=(50, 40))
        wide[:, 0] += 1.0 - wide.sum(axis=1)
        for total in (17, 100):
            assert np.array_equal(largest_remainder(wide, total), np.stack([_oracle_largest_remainder(r, total) for r in wide]))

    def test_row_edited_after_construction_is_refused(self):
        rel = constant_relaxed(TimeGrid(1.0, 4), _three_atoms(), np.tile([0.2, 0.3, 0.5], (4, 1)))
        rel.values[2, 1] = [0.3, 0.3, 0.5]  # sums to 1.1
        with pytest.raises(ValueError, match="probability vector"):
            chattering_approximation(rel, 4)

    def test_nan_row_is_refused(self):
        # the field refuses a NaN row on construction; chattering checks the
        # rows again, so one written in afterwards is refused too
        rel = constant_relaxed(TimeGrid(1.0, 2), _three_atoms(), np.tile([0.2, 0.3, 0.5], (2, 1)))
        rel.values[1, 1] = [np.nan, 0.5, 0.5]
        with pytest.raises(ValueError, match="probability vector"):
            chattering_approximation(rel, 4)
        with pytest.raises(ValueError, match="probability vector"):
            largest_remainder(np.array([np.nan, 1.0]), 4)

    def test_claim9_occupation_distances(self):
        for rel in _claim9_rows(0):
            reference = _oracle_chattering(rel, 256)
            for N in (4, 8, 16, 32):
                pure = chattering_approximation(rel, N)
                want = sliced_wasserstein1(occupation_samples(_oracle_chattering(rel, N)), occupation_samples(reference))
                assert occupation_w1(pure, rel) == want


class TestCountArguments:
    def _rel(self):
        return constant_relaxed(TimeGrid(1.0, 4), _three_atoms(), np.tile([0.2, 0.3, 0.5], (4, 1)))

    @pytest.mark.parametrize("bad", [2.5, True, 0, -1])
    def test_substeps(self, bad):
        with pytest.raises(ValueError, match="substeps"):
            chattering_approximation(self._rel(), bad)

    @pytest.mark.parametrize("bad", [-3, True, 2.5])
    def test_total(self, bad):
        with pytest.raises(ValueError, match="total"):
            largest_remainder(np.array([0.25, 0.75]), bad)

    def test_numpy_counts_are_accepted(self):
        rel = self._rel()
        assert np.array_equal(chattering_approximation(rel, np.int64(5)).values, chattering_approximation(rel, 5).values)
        assert largest_remainder(np.array([0.25, 0.75]), np.int32(4)).tolist() == [1, 3]


class TestOccupationDistances:
    def test_reference_level_has_zero_distance_to_itself(self):
        tg = TimeGrid(1.0, 6)
        ag = _three_atoms()
        rng = np.random.default_rng(derive_seed(4, "rows"))
        rel = constant_relaxed(tg, ag, rng.dirichlet(np.ones(3), size=tg.n_steps))
        chat = chattering_approximation(rel, 256)
        assert occupation_w1(chat, rel) == 0.0

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
        def per_step(field):
            # the per-step gather occupation_samples replaced, at node 0
            a = np.stack([field.values[(j,) + (0,) * field.sgrid.dim] for j in range(field.tgrid.n_steps)])
            ts = (np.arange(field.tgrid.n_steps) + 0.5) * field.tgrid.dt
            return np.column_stack([ts, a])

        tg = TimeGrid(1.0, 7)
        rng = np.random.default_rng(derive_seed(6, "rows"))
        flat = constant_relaxed(tg, _three_atoms(), rng.dirichlet(np.ones(3), size=tg.n_steps))
        for N in (1, 4, 9):
            chat = chattering_approximation(flat, N)
            assert np.array_equal(occupation_samples(chat), per_step(chat))

    def test_spatially_varying_field_is_refused_by_name(self):
        tg = TimeGrid(1.0, 4)
        ag = _three_atoms()
        sg = SpatialGrid(np.array([-1.0]), np.array([1.0]), 3)
        probs = np.zeros((4, 3, 3))
        probs[:, :, 0] = np.array([0.1, 0.5, 0.9])
        probs[:, :, 2] = 1.0 - probs[:, :, 0]
        varying = ControlField.relaxed(tg, sg, ag, probs, name="varying")
        flat = constant_relaxed(tg, ag, np.tile([0.2, 0.3, 0.5], (4, 1)), name="flat")
        # the relaxed field is refused through its reference chattering
        with pytest.raises(ValueError, match=r"^field 'chatter\[varyingx256\]' varies over space"):
            occupation_w1(chattering_approximation(flat, 4), varying)
        with pytest.raises(ValueError, match=r"^field 'chatter\[varyingx4\]' varies over space"):
            occupation_w1(chattering_approximation(varying, 4), flat)


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
        game = action_square(reward_sign=1.0)
        res = strict_selection(game, rel, _flat_flow(tg))
        assert res.reward_violations == res.n_nodes
        assert res.worst_reward_loss == pytest.approx(1.0, abs=1e-12)

    def test_needs_affine_drift_flag(self):
        tg = TimeGrid(1.0, 8)
        ag = _three_atoms()
        rel = constant_relaxed(tg, ag, np.tile([0.5, 0.0, 0.5], (tg.n_steps, 1)))
        game = dataclasses.replace(sign_drift(), drift_affine_in_action=False)
        with pytest.raises(ValueError, match="^game 'sign_drift' does not declare drift affine in the action$"):
            strict_selection(game, rel, _flat_flow(tg))

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


def _oracle_strict_selection(game, relaxed, flow):
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
        candidate = mismatch <= mismatch.min(axis=0) + 1e-9
        sel = np.where(candidate, f, -np.inf).argmax(axis=0)
        selected[j] = atoms[sel]
        worst_mismatch = max(worst_mismatch, float(mismatch[sel, np.arange(P)].max()))
        loss = target_f - f[sel, np.arange(P)]
        violations += int(np.sum(loss > 1e-9))
        worst_loss = max(worst_loss, float(loss.max()))
    return selected.reshape(relaxed.values.shape[:-1] + (atoms.shape[1],)), worst_mismatch, violations, max(worst_loss, 0.0)


def _tilted_game():
    """monotone_lq with state-dependent drift and a reward that is not even in the action.

    The drift adds t to x (..., d), which a time axis shaped (M, 1, 1) does not
    broadcast against, so the game withdraws monotone_lq's batch declaration.
    """
    return dataclasses.replace(
        monotone_lq(),
        name="tilted",
        drift=lambda t, x, m, a: a * (1.0 + 0.2 * np.sin(x + t)),
        running=lambda t, x, m, a: (a[..., 0] - 0.5 * a[..., 0] ** 2) * (1.0 + x[..., 0] * m.mean[..., 0]),
        coefficients_batch_time=False,
    )


class TestSelectionMatchesPerAtomLoop:
    @pytest.mark.parametrize("name", ["sign_drift", "monotone_lq", "tracking_lq", "action_square", "tilted"])
    def test_spatially_varying_rows(self, name):
        game = _tilted_game() if name == "tilted" else GAME_CATALOG[name]()
        tg = TimeGrid(1.0, 30)
        sg = SpatialGrid(np.array([-3.0]), np.array([3.0]), 25)
        ag = ActionGrid(np.array([-1.0]), np.array([1.0]), 5)
        rng = np.random.default_rng(derive_seed(8, name))
        rel = ControlField.relaxed(tg, sg, ag, rng.dirichlet(np.ones(5), size=(tg.n_steps, 25)))
        flow = candidate_flow(game, tg, 0.3 * tg.times, 200, derive_seed(8, "flow"))
        res = strict_selection(game, rel, flow)
        selected, mismatch, violations, loss = _oracle_strict_selection(game, rel, flow)
        assert np.array_equal(res.control.values, selected)
        assert (res.drift_mismatch, res.reward_violations, res.worst_reward_loss) == (mismatch, violations, loss)

    @pytest.mark.parametrize("seed", [3, 58])
    @pytest.mark.parametrize("name", ["sign_drift", "monotone_lq", "tracking_lq", "action_square"])
    def test_certificate_rows(self, name, seed):
        # the symmetric rows and flat flow the selection certificate runs on
        game = GAME_CATALOG[name]()
        tg = TimeGrid(1.0, 40)
        q = np.random.default_rng(derive_seed(seed, 7, "rows")).uniform(0.0, 0.5, size=tg.n_steps)
        rel = constant_relaxed(tg, _three_atoms(), np.column_stack([q, 1.0 - 2.0 * q, q]))
        res = strict_selection(game, rel, _flat_flow(tg))
        selected, mismatch, violations, loss = _oracle_strict_selection(game, rel, _flat_flow(tg))
        assert np.array_equal(res.control.values, selected)
        assert (res.drift_mismatch, res.reward_violations, res.worst_reward_loss) == (mismatch, violations, loss)
        assert (violations == tg.n_steps * 3) == (name == "action_square")

    @pytest.mark.parametrize("declared", [True, False])
    def test_steps_with_nan_rewards_are_skipped_like_the_loop(self, declared):
        # Python's running max never takes a NaN step maximum, and that step's
        # finite losses do not count either
        base = action_square(reward_sign=1.0)
        game = dataclasses.replace(
            base,
            running=lambda t, x, m, a: base.running(t, x, m, a) + np.where((t > 0.2) & (t < 0.5) & (x[..., 0] > 0.0), np.nan, 0.0),
            coefficients_batch_time=declared,
        )
        tg = TimeGrid(1.0, 30)
        sg = SpatialGrid(np.array([-3.0]), np.array([3.0]), 25)
        ag = ActionGrid(np.array([-1.0]), np.array([1.0]), 5)
        rel = ControlField.relaxed(tg, sg, ag, np.random.default_rng(5).dirichlet(np.ones(5), size=(tg.n_steps, 25)))
        flow = _flat_flow(tg)
        res = strict_selection(game, rel, flow)
        selected, mismatch, violations, loss = _oracle_strict_selection(game, rel, flow)
        assert np.array_equal(res.control.values, selected)
        assert (res.drift_mismatch, res.reward_violations, res.worst_reward_loss) == (mismatch, violations, loss)
        assert loss > 0.0
