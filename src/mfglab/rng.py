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

from .grids import TimeGrid

_MASK63 = (1 << 63) - 1

# Per-particle streams are drawn into a particle-major block of at most this
# many bytes and transposed into the time-major increments: numpy refuses a
# strided out=, and one particle at a time would transpose at a cache miss
# per value.
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
    a fraction of the construction cost.
    """

    def __init__(self):
        self._bitgen = np.random.Philox(0)
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state  # taken before any draw: buffers empty
        self._key = np.zeros(2, dtype=np.uint64)

    def stream(self, seed: int, k: int) -> np.random.Generator:
        self._key[0], self._key[1] = seed, k
        self._state["state"] = {"counter": np.zeros(4, dtype=np.uint64), "key": self._key}
        self._bitgen.state = self._state
        return self._gen


def sample_brownian(seed: int, n: int, grid: TimeGrid, dim: int = 1, *, out: np.ndarray | None = None) -> BrownianBundle:
    """Draw a BrownianBundle; same (seed, n, M, dim, dt) gives identical bits.

    The increments are stored time-major: out, if given, is a C-contiguous
    float64 (M, n, dim) array that receives them and backs the bundle, so
    batched simulations can draw each repetition straight into its slot of a
    chunk buffer. bundle.increments is its (n, M, dim) view.
    """
    if n < 1:
        raise ValueError(f"need at least one particle, got {n}")
    if dim < 1:
        raise ValueError(f"need dim >= 1, got {dim}")
    if not 0 <= seed <= np.iinfo(np.uint64).max:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    M = grid.n_steps
    shape = (M, n, dim)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 {shape} array, got {out.dtype} {out.shape}")
    streams = _PhiloxStreams()
    scale = np.sqrt(grid.dt)
    block = np.empty((min(n, max(1, _NOISE_BLOCK_BYTES // (M * dim * 8))), M, dim))
    for k0 in range(0, n, block.shape[0]):
        k1 = min(k0 + block.shape[0], n)
        for k in range(k0, k1):
            streams.stream(seed, k).standard_normal(out=block[k - k0])
        np.multiply(np.swapaxes(block[: k1 - k0], 0, 1), scale, out=out[:, k0:k1])
    return BrownianBundle(seed=seed, grid=grid, n=n, dim=dim, increments=np.swapaxes(out, 0, 1))


def philox(seed: int, k: int) -> np.random.Generator:
    """A generator on the Philox stream keyed by (seed, k).

    It draws the bits of a freshly constructed np.random.Philox(key=[seed, k]);
    every seeded generator in the package comes from here.
    """
    return _PhiloxStreams().stream(seed, k)


def initial_cloud(seed: int, n: int, sampler) -> np.ndarray:
    """Draw n initial states from a sampler(generator, n) using a dedicated stream."""
    return sampler(philox(seed, _MASK63), n)
