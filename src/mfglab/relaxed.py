"""Relaxed (measure-valued) controls: chattering and drift-matching selection.

A relaxed field assigns each (step, node) a probability row over action
atoms. Chattering replays those rows as an ordinary control on a refined
grid by giving each atom a share of the substeps; interleaving the atoms
keeps the occupation measure close at first order in the substep width.
Drift-matching selection replaces a relaxed row by a single atom whose drift
matches the row's mean drift, preferring larger running reward among the
matching candidates; with drift affine in the action and concave rewards the
selection never loses running reward.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .controls import ControlField
from .games import GameSpec
from .grids import ActionGrid, SpatialGrid, TimeGrid
from .measures import sliced_wasserstein1
from .sim import atom_values


def constant_relaxed(tgrid: TimeGrid, agrid: ActionGrid, probs, name: str = "") -> ControlField:
    """Spatially constant relaxed field from per-step probability rows (M, n_atoms)."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (tgrid.n_steps, agrid.n_atoms):
        raise ValueError(f"probs must have shape {(tgrid.n_steps, agrid.n_atoms)}, got {probs.shape}")
    sgrid = SpatialGrid(np.array([-1.0]), np.array([1.0]), 3)
    values = np.broadcast_to(probs[:, None, :], (tgrid.n_steps,) + sgrid.shape + (agrid.n_atoms,)).copy()
    return ControlField.relaxed(tgrid, sgrid, agrid, values, name=name)


def largest_remainder(probs: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to total, proportional to probs.

    Floors first, then hands the leftover units to the largest fractional
    remainders; remainder ties resolve by atom index, so the rounding is
    deterministic.
    """
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


@lru_cache(maxsize=4096)
def _roundrobin_schedule(counts: tuple) -> tuple:
    """Atom index sequence: repeated passes over atoms with remaining budget."""
    remaining = list(counts)
    seq = []
    while any(r > 0 for r in remaining):
        for i, r in enumerate(remaining):
            if r > 0:
                seq.append(i)
                remaining[i] -= 1
    return tuple(seq)


def chattering_approximation(relaxed: ControlField, substeps: int) -> ControlField:
    """Ordinary control on a substeps-times finer grid replaying a relaxed field.

    Within each original step the atoms appear interleaved, with substep
    counts given by largest-remainder rounding of the row probabilities.
    Warns when an atom carrying at least 1/(2 * n_atoms) probability receives
    no substeps, since the replay then misses a non-negligible atom entirely.
    """
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
            counts = largest_remainder(probs[j, p], substeps)
            if not starved and np.any((counts == 0) & (probs[j, p] >= 0.5 / nA)):
                starved = True
            seq = _roundrobin_schedule(tuple(int(c) for c in counts))
            out[j * substeps : (j + 1) * substeps, p] = atoms[list(seq)]
    if starved:
        warnings.warn(
            "chattering with so few substeps that an atom of probability >= 1/(2*n_atoms) got none",
            RuntimeWarning,
        )
    values = out.reshape((M * substeps,) + space + (atoms.shape[1],))
    return ControlField.pure(fine, relaxed.sgrid, values, name=f"chatter[{relaxed.name or 'relaxed'}x{substeps}]")


def _node_index_for(field: ControlField, x=None):
    if x is None:
        # default to the spatially constant case: any node represents the field
        if field.sgrid is None:
            raise ValueError("grid field expected")
        flat = field.values.reshape(field.values.shape[0], -1, field.values.shape[-1])
        if not np.allclose(flat, flat[:, :1, :]):
            raise ValueError("field varies over space; pass the state x to evaluate at")
        return (0,) * field.sgrid.dim
    return field.sgrid.nearest_index(np.atleast_1d(np.asarray(x, dtype=float)))


def occupation_samples(field: ControlField, x=None) -> np.ndarray:
    """Flattened (t, a) sample cloud of a pure field's occupation measure.

    One sample per step at the step midpoint, each carrying equal weight
    horizon / n_steps.
    """
    if field.is_relaxed:
        raise ValueError("occupation samples are defined for pure fields; chatter first")
    idx = _node_index_for(field, x)
    a = field.values[(slice(None),) + idx]  # (M, ka)
    ts = (np.arange(field.tgrid.n_steps) + 0.5) * field.tgrid.dt
    return np.column_stack([ts, a])


def occupation_w1(pure: ControlField, relaxed: ControlField, x=None, *, target_level: int = 256, n_directions: int = 32, seed: int = 0) -> float:
    """Sliced W1 between a pure field's (t, a) samples and the relaxed target.

    The relaxed occupation measure dt Lambda_t(da) is represented by a
    chattering expansion at a level far finer than any level under study, so
    the reference error is below the quantities being compared.
    """
    if not relaxed.is_relaxed or pure.is_relaxed:
        raise ValueError("expected (pure, relaxed) in that order")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reference = chattering_approximation(relaxed, target_level)
    sample_p = occupation_samples(pure, x)
    sample_r = occupation_samples(reference, x)
    value, _ = sliced_wasserstein1(sample_p, sample_r, n_directions=n_directions, seed=seed)
    return value


@dataclass
class SelectionResult:
    control: ControlField
    drift_mismatch: float      # worst |b(selected) - mean drift| over nodes
    reward_violations: int     # nodes where the selection loses running reward
    worst_reward_loss: float
    n_nodes: int


def strict_selection(game: GameSpec, relaxed: ControlField, flow, *, allow_approximate: bool = False, match_tol: float = 1e-9) -> SelectionResult:
    """Collapse a relaxed field to single atoms matching the row-mean drift.

    Per (step, node): the candidate atoms minimize |b(t, x, m, a) - mean
    drift of the row| within match_tol of the attainable minimum; among
    candidates the one with the largest running reward wins, lowest index on
    ties. Counts the nodes where the selected atom's running reward falls
    short of the row's average reward, which cannot happen when the drift is
    affine in the action, the reward concave, and the atom lattice contains
    the matching action.

    Games that do not declare drift affine in the action are rejected unless
    allow_approximate is set, because drift matching inside the atom lattice
    is then not guaranteed to exist.
    """
    if not relaxed.is_relaxed:
        raise ValueError("strict selection starts from a relaxed control field")
    if not game.drift_affine_in_action and not allow_approximate:
        raise ValueError("game does not declare drift affine in the action; pass allow_approximate=True to proceed")
    tgrid = relaxed.tgrid
    stats_path = flow.stats_path()
    if len(stats_path) != tgrid.n_steps + 1:
        raise ValueError("flow and control must share the time grid")
    atoms = relaxed.agrid.atoms
    nA = atoms.shape[0]
    nodes = relaxed.sgrid.nodes()  # (P, d)
    P = nodes.shape[0]
    space = relaxed.sgrid.shape
    M = tgrid.n_steps
    times = tgrid.times

    selected = np.empty((M, P, atoms.shape[1]))
    worst_mismatch = 0.0
    violations = 0
    worst_loss = 0.0
    for j in range(M):
        stats = stats_path[j]
        b = atom_values(game.drift, times[j], nodes, stats, atoms).reshape(nA, P, game.dim)
        f = atom_values(game.running, times[j], nodes, stats, atoms).reshape(nA, P)
        probs = relaxed.values[j].reshape(P, nA)
        target_b = np.einsum("pi,ipd->pd", probs, b)
        target_f = np.einsum("pi,ip->p", probs, f)

        mismatch = np.abs(b - target_b[None]).max(axis=-1)  # (nA, P)
        best = mismatch.min(axis=0)
        candidate = mismatch <= best + match_tol
        sel = np.where(candidate, f, -np.inf).argmax(axis=0)  # first max = lowest index

        selected[j] = atoms[sel]
        worst_mismatch = max(worst_mismatch, float(mismatch[sel, np.arange(P)].max()))
        loss = target_f - f[sel, np.arange(P)]
        violations += int(np.sum(loss > 1e-9))
        worst_loss = max(worst_loss, float(loss.max()))

    control = ControlField.pure(tgrid, relaxed.sgrid, selected.reshape((M,) + space + (atoms.shape[1],)), name=f"selected[{relaxed.name or 'relaxed'}]")
    return SelectionResult(
        control=control,
        drift_mismatch=worst_mismatch,
        reward_violations=violations,
        worst_reward_loss=max(worst_loss, 0.0),
        n_nodes=M * P,
    )
