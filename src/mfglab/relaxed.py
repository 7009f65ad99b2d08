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

import numpy as np

from .controls import ControlField
from .games import GameSpec
from .grids import ActionGrid, SpatialGrid, TimeGrid, positive_count
from .measures import sliced_wasserstein1
from .sim import coefficient_table

_MATCH_TOL = 1e-9  # strict selection's drift-matching tolerance
_REFERENCE_LEVEL = 256  # occupation_w1's chattering level for the relaxed target


def constant_relaxed(tgrid: TimeGrid, agrid: ActionGrid, probs, name: str = "") -> ControlField:
    """Spatially constant relaxed field from per-step probability rows (M, n_atoms)."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (tgrid.n_steps, agrid.n_atoms):
        raise ValueError(f"probs must have shape {(tgrid.n_steps, agrid.n_atoms)}, got {probs.shape}")
    sgrid = SpatialGrid(np.array([-1.0]), np.array([1.0]), 3)
    values = np.broadcast_to(probs[:, None, :], (tgrid.n_steps,) + sgrid.shape + (agrid.n_atoms,)).copy()
    return ControlField.relaxed(tgrid, sgrid, agrid, values, name=name)


def largest_remainder(probs: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to total, proportional to probs, for each row (..., n_atoms).

    Floors first, then hands the leftover units to the largest fractional
    remainders; remainder ties resolve by atom index, so the rounding is
    deterministic.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim == 0 or probs.size == 0:
        raise ValueError("probs must be a nonempty vector")
    # written so that a NaN entry fails too
    if not (np.all(probs >= -1e-12) and np.all(np.abs(probs.sum(axis=-1) - 1.0) <= 1e-9)):
        raise ValueError("probs must be a probability vector")
    if isinstance(total, bool) or not isinstance(total, (int, np.integer)):
        raise ValueError(f"total must be an int, got {total!r}")
    if total < 0:
        raise ValueError(f"total must be at least 0, got {total}")
    raw = probs * total
    counts = np.floor(raw).astype(np.intp)
    short = total - counts.sum(axis=-1, keepdims=True)
    # stable sort keeps atom order among equal remainders
    order = np.argsort(-(raw - counts), axis=-1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(probs.shape[-1]), axis=-1)
    counts += rank < short
    return counts


def chattering_approximation(relaxed: ControlField, substeps: int) -> ControlField:
    """Ordinary control on a substeps-times finer grid replaying a relaxed field.

    Within each original step the atoms appear interleaved, with substep
    counts given by largest-remainder rounding of the row probabilities:
    repeated passes over the atoms in index order, each pass taking the
    atoms that have substeps left.
    Warns when an atom carrying at least 1/(2 * n_atoms) probability receives
    no substeps, since the replay then misses a non-negligible atom entirely.
    """
    if not relaxed.is_relaxed:
        raise ValueError("chattering starts from a relaxed control field")
    substeps = positive_count(substeps, "substeps")
    tgrid = relaxed.tgrid
    fine = tgrid.refine(substeps)
    M = tgrid.n_steps
    atoms = relaxed.agrid.atoms
    nA = atoms.shape[0]
    space = relaxed.sgrid.shape
    probs = relaxed.values.reshape(M, -1, nA)  # (M, P, nA)
    counts = largest_remainder(probs, substeps)
    if np.any((counts == 0) & (probs >= 0.5 / nA)):
        warnings.warn(
            "chattering with so few substeps that an atom of probability >= 1/(2*n_atoms) got none",
            RuntimeWarning,
        )
    # (M, P, pass, atom) in C order lists each row's substep atoms in replay order
    takes = np.arange(substeps)[:, None] < counts[:, :, None, :]
    seq = (np.flatnonzero(takes) % nA).reshape(M, -1, substeps).swapaxes(1, 2)  # (M, substeps, P)
    values = atoms[seq].reshape((M * substeps,) + space + (atoms.shape[1],))
    return ControlField.pure(fine, relaxed.sgrid, values, name=f"chatter[{relaxed.name or 'relaxed'}x{substeps}]")


def occupation_samples(field: ControlField) -> np.ndarray:
    """Flattened (t, a) sample cloud of a spatially constant pure field's
    occupation measure: one sample per step at the step midpoint, each
    carrying equal weight horizon / n_steps. A field that varies over space
    is refused by name.
    """
    if field.mode != "pure":
        raise ValueError("occupation samples are defined for pure grid fields; chatter a relaxed one first")
    flat = field.values.reshape(field.values.shape[0], -1, field.values.shape[-1])
    if not np.allclose(flat, flat[:, :1, :]):
        raise ValueError(f"field {field.name!r} varies over space; occupation measures need a spatially constant field")
    ts = (np.arange(field.tgrid.n_steps) + 0.5) * field.tgrid.dt
    return np.column_stack([ts, flat[:, 0, :]])


def occupation_w1(pure: ControlField, relaxed: ControlField) -> float:
    """Sliced W1 (measures.sliced_wasserstein1) between a pure field's (t, a)
    samples and the relaxed target, both spatially constant.

    The relaxed occupation measure dt Lambda_t(da) is represented by a
    chattering expansion at a level (_REFERENCE_LEVEL) far finer than any
    level under study, so the reference error is below the quantities being
    compared.
    """
    if not relaxed.is_relaxed or pure.is_relaxed:
        raise ValueError("expected (pure, relaxed) in that order")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reference = chattering_approximation(relaxed, _REFERENCE_LEVEL)
    return sliced_wasserstein1(occupation_samples(pure), occupation_samples(reference))


def _running_max(step_max: np.ndarray) -> float:
    """Python's max(0.0, m_0, m_1, ...) over per-step maxima: a step whose
    maximum is NaN never replaces the running value, so it counts for nothing."""
    return float(step_max[step_max > 0.0].max(initial=0.0))


def _match_drift(weights, b, f, tol, among=None):
    """Per node, the atom whose drift best matches the weighted mean drift.

    weights (..., n_atoms, P), drifts b (..., n_atoms, P, d) and running
    rewards f (..., n_atoms, P). The candidates are the atoms (of the boolean
    mask among, when given) whose worst-coordinate distance to the mean drift
    is within tol of the smallest; the largest running reward wins, then the
    lowest index. Returns the selected atoms (..., P) and the distances
    (..., n_atoms, P), inf outside among.
    """
    # einsum chooses its loops from its operands' strides; the drift table
    # (possibly a broadcast view) gets the layout of stacked per-step atom
    # values, and with it the per-step summation order
    b = np.ascontiguousarray(b)
    target = np.einsum("...ip,...ipd->...pd", weights, b)
    mismatch = np.abs(b - target[..., None, :, :]).max(axis=-1)
    if among is not None:
        mismatch = np.where(among, mismatch, np.inf)
    candidate = mismatch <= mismatch.min(axis=-2, keepdims=True) + tol
    return np.where(candidate, f, -np.inf).argmax(axis=-2), mismatch


@dataclass
class SelectionResult:
    control: ControlField
    drift_mismatch: float      # worst |b(selected) - mean drift| over nodes
    reward_violations: int     # nodes where the selection loses running reward
    worst_reward_loss: float
    n_nodes: int


def strict_selection(game: GameSpec, relaxed: ControlField, flow) -> SelectionResult:
    """Collapse a relaxed field to single atoms matching the row-mean drift.

    Per (step, node): the candidate atoms minimize |b(t, x, m, a) - mean
    drift of the row| within 1e-9 (_MATCH_TOL) of the attainable minimum; among
    candidates the one with the largest running reward wins, lowest index on
    ties. Counts the nodes where the selected atom's running reward falls
    short of the row's average reward, which cannot happen when the drift is
    affine in the action, the reward concave, and the atom lattice contains
    the matching action.

    Games that do not declare drift affine in the action are refused,
    because drift matching inside the atom lattice is then not guaranteed to
    exist.
    """
    if not relaxed.is_relaxed:
        raise ValueError("strict selection starts from a relaxed control field")
    if not game.drift_affine_in_action:
        raise ValueError(f"game {game.name!r} does not declare drift affine in the action")
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

    b, f = coefficient_table(game, tgrid.times[:M], stats_path, nodes, atoms)
    # contiguous for the per-step summation order, as in _match_drift
    f = np.ascontiguousarray(f)
    probs = relaxed.values.reshape(M, P, nA)
    target_f = np.einsum("mpi,mip->mp", probs, f)
    sel, mismatch = _match_drift(probs.transpose(0, 2, 1), b, f, _MATCH_TOL)  # (M, P), (M, nA, P)

    selected = atoms[sel]
    picked = sel[:, None]
    loss = target_f - np.take_along_axis(f, picked, axis=1)[:, 0]
    violations = int(np.sum(loss > 1e-9))
    worst_mismatch = _running_max(np.take_along_axis(mismatch, picked, axis=1)[:, 0].max(axis=1))
    worst_loss = _running_max(loss.max(axis=1))

    control = ControlField.pure(tgrid, relaxed.sgrid, selected.reshape((M,) + space + (atoms.shape[1],)), name=f"selected[{relaxed.name or 'relaxed'}]")
    return SelectionResult(
        control=control,
        drift_mismatch=worst_mismatch,
        reward_violations=violations,
        worst_reward_loss=worst_loss,
        n_nodes=M * P,
    )
