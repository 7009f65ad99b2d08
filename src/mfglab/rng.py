"""Counter-based Gaussian increment generation.

Every particle owns a Philox stream keyed by (seed, particle index), so the
increments assigned to particle k are a fixed function of (seed, k, step):
they do not depend on how many particles are in the bundle, on the order in
which anything is evaluated, or on worker thread counts.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass

import numpy as np

from .grids import TimeGrid, positive_count

_MASK63 = (1 << 63) - 1

# Per-particle streams are drawn into a particle-major block of at most this
# many bytes, scaled there and copied transposed into the time-major
# increments: numpy refuses a strided out=, and one particle at a time would
# transpose at a cache miss per value.
_NOISE_BLOCK_BYTES = 1 << 20


def _seed_int(value, what: str) -> int:
    """value as a Python int; numpy integers map to the same int, bools and the rest are refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what}, got {type(value).__name__} {value!r}")


def derive_seed(root: int, *branch) -> int:
    """Stable 63-bit child seed for a labelled branch of a root seed.

    Branch components may be ints or short strings; the mapping is a pure
    function of their values (no process state, and no dependence on whether
    an int arrives as a Python or a numpy integer), so derived experiments are
    reproducible across runs and platforms.
    """
    key = (_seed_int(root, "the root seed must be an int"),) + tuple(
        str(p) if isinstance(p, str) else _seed_int(p, "seed branch components must be ints or strings")
        for p in branch
    )
    h = hashlib.blake2b(repr(key).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little") & _MASK63


@dataclass(frozen=True)
class BrownianBundle:
    """Increments dW for n particles on a uniform grid, shape (n, M, dim).

    increments[k, j] is Normal(0, dt I) and belongs to step t_j -> t_{j+1}.
    Bundles drawn by sample_brownian hold it as a view of time-major
    (M, n, dim) memory, so each step's increments are one contiguous slab.
    """

    seed: int
    grid: TimeGrid
    n: int
    dim: int
    increments: np.ndarray

    def partial_sums(self) -> np.ndarray:
        """Brownian path values W_{t_j} at the grid nodes, shape (n, M+1, dim).

        The result is a view of time-major (M+1, n, dim) memory. It is summed
        step by step, which gives the bits of a cumulative sum along time.
        """
        dw = np.swapaxes(self.increments, 0, 1)
        w = np.empty((self.grid.n_steps + 1, self.n, self.dim))
        w[0] = 0.0
        for j in range(self.grid.n_steps):
            np.add(w[j], dw[j], out=w[j + 1])
        return np.swapaxes(w, 0, 1)

    def averaged(self) -> np.ndarray:
        """Increments of the normalized average n^{-1/2} sum_k W^k, shape (M, dim)."""
        # summed over a particle-major copy: numpy sums a contiguous axis
        # pairwise, which would move the last bits
        return np.ascontiguousarray(self.increments).sum(axis=0) / np.sqrt(self.n)


class _PhiloxStreams:
    """One Philox generator re-keyed to (seed, k) on demand.

    Re-keying sets the key and zeroes the counter and buffers, which is the
    state a freshly constructed np.random.Philox(key=[seed, k]) starts in, at
    a fraction of the construction cost. The state is one dict of Python ints
    and lists, laid out as numpy's own Philox state, built once; a stream
    swaps in only its key list, so numpy's setter reads plain ints instead
    of numpy scalars and nothing else is built per stream.
    """

    def __init__(self):
        self._bitgen = np.random.Philox(0)
        self._gen = np.random.Generator(self._bitgen)
        # counter zero and buffers empty: the state of a generator before its first draw
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._keyed = self._state["state"]

    def stream(self, seed: int, k: int) -> np.random.Generator:
        self._keyed["key"] = [seed, k]
        self._bitgen.state = self._state
        return self._gen


def _stream_indices(particles, n: int) -> list:
    """particles as a list of n Python ints, each a valid Philox stream index."""
    ids = np.asarray(particles)
    if ids.ndim != 1 or ids.shape[0] != n:
        raise ValueError(f"particles must be a 1-d sequence of {n} stream indices, got shape {ids.shape}")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"particles must hold integers, got dtype {ids.dtype}")
    if ids.min() < 0:
        raise ValueError(f"particles must be non-negative stream indices, got {ids.min()}")
    return ids.tolist()


def check_out(out, shape: tuple) -> None:
    """Refuse out, by name, unless it is a C-contiguous float64 array of the given shape."""
    if not isinstance(out, np.ndarray) or out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        got = f"{out.dtype} {out.shape}" if isinstance(out, np.ndarray) else type(out).__name__
        raise ValueError(f"out must be a C-contiguous float64 {shape} array, got {got}")


def sample_brownian(
    seed: int, n: int, grid: TimeGrid, dim: int = 1, *, out: np.ndarray | None = None, particles=None
) -> BrownianBundle:
    """Draw a BrownianBundle; same (seed, n, M, dim, dt) gives identical bits.

    seed is an int in [0, 2**64); a numpy integer draws the bits of the
    Python int of its value, and any other type is refused.

    The increments are stored time-major: out, if given, is a C-contiguous
    float64 (M, n, dim) array that receives them and backs the bundle, so
    batched simulations can draw each repetition straight into its slot of a
    chunk buffer. bundle.increments is its (n, M, dim) view.

    particles, if given, is a sequence of n stream indices, and row i of the
    bundle is drawn from stream particles[i]: the bundle then equals rows
    particles of a bundle drawn over all streams, without drawing the rest.
    The default is range(n).
    """
    seed = _seed_int(seed, "seed must be an int")
    n, dim = positive_count(n, "n"), positive_count(dim, "dim")
    if not 0 <= seed <= np.iinfo(np.uint64).max:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    particles = range(n) if particles is None else _stream_indices(particles, n)
    M = grid.n_steps
    shape = (M, n, dim)
    if out is None:
        out = np.empty(shape)
    else:
        check_out(out, shape)
    stream = _PhiloxStreams().stream
    scale = np.sqrt(grid.dt)
    block = np.empty((min(n, max(1, _NOISE_BLOCK_BYTES // (M * dim * 8))), M, dim))
    rows = list(block)  # one view per row, built once
    for k0 in range(0, n, len(rows)):
        k1 = min(k0 + len(rows), n)
        for row, k in zip(rows, particles[k0:k1]):
            stream(seed, k).standard_normal(out=row)
        # scaled in place while contiguous, then transposed by a plain copy:
        # the bits of a transposing multiply, at about two thirds of its cost
        drawn = block[: k1 - k0]
        drawn *= scale
        out[:, k0:k1] = np.swapaxes(drawn, 0, 1)
    return BrownianBundle(seed=seed, grid=grid, n=n, dim=dim, increments=np.swapaxes(out, 0, 1))


def philox(seed: int, k: int) -> np.random.Generator:
    """A generator on the Philox stream keyed by (seed, k).

    It draws the bits of a freshly constructed np.random.Philox(key=[seed, k]);
    every seeded generator in the package comes from here.
    """
    seed, k = _seed_int(seed, "seed must be an int"), _seed_int(k, "k must be an int")
    return _PhiloxStreams().stream(seed, k)


def initial_cloud(seed: int, n: int, sampler) -> np.ndarray:
    """Draw n initial states from a sampler(generator, n) using a dedicated stream."""
    return sampler(philox(seed, _MASK63), n)
