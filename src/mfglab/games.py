"""Game catalog: state dynamics, rewards, and initial laws.

A game couples n particles only through summary statistics of the empirical
measure (mean, variance), so coefficient callables receive a MeasureStats
value rather than a raw particle cloud. All catalog coefficients are bounded
on the declared state box, keeping explicit schemes and Girsanov exponents
well behaved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class MeasureStats:
    """Summary statistics of a probability measure on R^d, or of a batch of them.

    One measure has mean and var shaped (d,). A batch of R measures, as built
    from clouds shaped (R, n, d), has them shaped (R, 1, d), so they broadcast
    against per-particle arrays (R, n, ...); coefficients read the first
    coordinate as mean[..., 0] and work either way.

    MeasureStats(mean=, var=) holds the values it is given. from_cloud
    computes the mean at once and the variance only when var is first read,
    from the cloud it was given, which must therefore not be written in
    between; no catalog coefficient reads the variance, so a simulation step
    pays for the mean alone. The values are those of np.mean and np.var
    either way. Instances are immutable.
    """

    __slots__ = ("mean", "_var", "_cloud")

    def __init__(self, mean: np.ndarray, var: np.ndarray):
        object.__setattr__(self, "mean", mean)  # (d,) or (R, 1, d)
        object.__setattr__(self, "_var", var)  # per-coordinate variance, shaped like mean
        object.__setattr__(self, "_cloud", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"MeasureStats is immutable: cannot set {name!r}")

    def __repr__(self) -> str:
        return f"MeasureStats(mean={self.mean!r}, var={self.var!r})"

    def __reduce__(self):  # copies and pickles are rebuilt from the values
        return (MeasureStats, (self.mean, self.var))

    @property
    def var(self) -> np.ndarray:
        if self._var is None:
            cloud = self._cloud
            dev = cloud - self.mean
            var = np.add.reduce(np.square(dev, out=dev), axis=-2, keepdims=cloud.ndim == 3) / cloud.shape[-2]
            object.__setattr__(self, "_var", var)
            object.__setattr__(self, "_cloud", None)
        return self._var

    @classmethod
    def from_cloud(cls, cloud: np.ndarray) -> "MeasureStats":
        cloud = np.asarray(cloud, dtype=float)
        if cloud.ndim not in (2, 3):
            raise ValueError(f"cloud must be (n, d) or (R, n, d), got shape {cloud.shape}")
        # the ufunc calls np.mean and np.var make, spelled out: same bits,
        # without their per-call overhead, which matters once per Euler step
        mean = np.add.reduce(cloud, axis=-2, keepdims=cloud.ndim == 3) / cloud.shape[-2]
        stats = cls(mean, None)
        object.__setattr__(stats, "_cloud", cloud)
        return stats

    @classmethod
    def point(cls, x) -> "MeasureStats":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return cls(mean=x, var=np.zeros_like(x))


@dataclass(frozen=True)
class InitialLaw:
    """Initial state distribution: point mass, Gaussian, or uniform box."""

    kind: str
    loc: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "loc", np.atleast_1d(np.asarray(self.loc, dtype=float)))
        object.__setattr__(self, "scale", np.atleast_1d(np.asarray(self.scale, dtype=float)))
        if self.kind not in ("point", "gaussian", "uniform"):
            raise ValueError(f"unknown initial law kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.loc.shape[0]

    @property
    def mean(self) -> np.ndarray:
        return self.loc.copy()

    def support_radius(self) -> np.ndarray:
        # effective per-coordinate half-width used for box sizing; Gaussian
        # tails are cut at four standard deviations
        if self.kind == "point":
            return np.zeros(self.dim)
        if self.kind == "gaussian":
            return 4.0 * self.scale
        return self.scale.copy()

    def sampler(self) -> Callable:
        loc, scale, d = self.loc, self.scale, self.dim
        if self.kind == "point":
            return lambda gen, n: np.tile(loc, (n, 1))
        if self.kind == "gaussian":
            return lambda gen, n: loc + scale * gen.standard_normal((n, d))
        return lambda gen, n: gen.uniform(loc - scale, loc + scale, size=(n, d))


@dataclass(frozen=True)
class GameSpec:
    """One symmetric drift-control game with unit diffusion.

    drift(t, x, m, a) -> (..., dim), running(t, x, m, a) -> (...), and
    terminal(x, m) -> (...) must broadcast over leading axes of x (..., dim)
    and a (..., action_dim); m is a MeasureStats. Bounds are sups over the
    declared state box, the action box, and measures supported there.

    coefficients_batch_time=True promises more: drift and running also
    broadcast over a leading time axis shared by t, x, a and m, with t shaped
    (M, 1, 1), x (1, 1, P, dim), a (1, n_atoms, 1, action_dim) and m stacked
    over time (mean and var shaped (M, 1, 1, dim)), and give at each index the
    bits of the call at that one time. The dynamic-programming table then
    takes one call per coefficient for the whole horizon instead of one per
    step and atom. dataclasses.replace keeps the declaration, so a game built
    by swapping in a drift or running that does not keep it must clear it.
    """

    name: str
    action_lo: np.ndarray
    action_hi: np.ndarray
    horizon: float
    initial: InitialLaw
    drift: Callable
    running: Callable
    terminal: Callable
    drift_bound: float
    running_bound: float
    terminal_bound: float
    state_lo: np.ndarray
    state_hi: np.ndarray
    drift_affine_in_action: bool = False
    # (f1(t, x, m), f2(t, x, a)) when the running reward separates into a
    # measure part and an action part; required by the monotonicity checker
    running_split: tuple | None = None
    coefficients_batch_time: bool = False
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("action_lo", "action_hi", "state_lo", "state_hi"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        if self.action_lo.ndim != 1 or self.action_hi.shape != self.action_lo.shape:
            raise ValueError(f"action_lo and action_hi must be vectors of one shape, got {self.action_lo.shape} and {self.action_hi.shape}")
        for name in ("state_lo", "state_hi"):
            if getattr(self, name).shape != (self.dim,):
                raise ValueError(f"{name} must have the initial law's shape {(self.dim,)}, got {getattr(self, name).shape}")

    @property
    def dim(self) -> int:
        """State dimension, that of the initial law."""
        return self.initial.dim

    @property
    def action_dim(self) -> int:
        """Action dimension, that of the action box."""
        return self.action_lo.shape[0]

    @property
    def payoff_scale(self) -> float:
        """Crude bound on attainable payoffs: sup|f| * T + sup|g|."""
        return self.running_bound * self.horizon + self.terminal_bound


def _zero_running(t, x, m, a):
    return np.zeros(np.broadcast_shapes(x.shape[:-1], a.shape[:-1]))


def _zero_terminal(x, m):
    return np.zeros(x.shape[:-1])


def _action_reward(c: float) -> Callable:
    """Running reward c * a^2 of the first action coordinate."""

    def running(t, x, m, a):
        shape = np.broadcast_shapes(x.shape[:-1], a.shape[:-1])
        return np.broadcast_to(c * a[..., 0] ** 2, shape).copy()

    return running


def _default_state_box(initial: InitialLaw, drift_bound: float, horizon: float):
    # wide enough that simulated paths essentially never leave the box:
    # initial support plus worst-case drift plus six standard deviations
    pad = drift_bound * horizon + 6.0 * np.sqrt(horizon)
    lo = initial.loc - initial.support_radius() - pad
    hi = initial.loc + initial.support_radius() + pad
    return lo, hi


def _unit_control(name, horizon, params, *, running, terminal, running_bound, terminal_bound, split=False) -> GameSpec:
    """One-dimensional game whose drift is the action, from [-1, 1], started at 0.

    The state box is [-r, r], and terminal_bound maps its half-width r to the
    bound on |terminal|. split declares the running reward separable, with a
    zero measure part.
    """
    initial = InitialLaw("point", [0.0], [0.0])
    lo, hi = _default_state_box(initial, 1.0, horizon)
    return GameSpec(
        name=name,
        action_lo=[-1.0],
        action_hi=[1.0],
        horizon=horizon,
        initial=initial,
        drift=lambda t, x, m, a: a,
        running=running,
        terminal=terminal,
        drift_bound=1.0,
        running_bound=running_bound,
        terminal_bound=terminal_bound(float(hi[0])),
        state_lo=lo,
        state_hi=hi,
        drift_affine_in_action=True,
        running_split=(lambda t, x, m: np.zeros(x.shape[:-1]), lambda t, x, a: running(t, x, None, a)) if split else None,
        coefficients_batch_time=True,
        params=params,
    )


def sign_drift(horizon: float = 1.0) -> GameSpec:
    """Fully controlled drift, terminal reward x times the population mean.

    The terminal coupling rewards moving with the crowd, so the population
    can coordinate on drifting up, drifting down, or not at all.
    """
    return _unit_control(
        "sign_drift", horizon, {"horizon": horizon},
        running=_zero_running, terminal=lambda x, m: x[..., 0] * m.mean[..., 0],
        running_bound=0.0, terminal_bound=lambda r: r * (1.0 + horizon), split=True,
    )


def monotone_lq(horizon: float = 1.0, action_cost: float = 0.5) -> GameSpec:
    """Quadratic action cost and a crowd-averse terminal reward -x * mean.

    The terminal coupling penalizes moving with the crowd, which makes the
    standard monotonicity inequality hold with a strict sign and pins down a
    single equilibrium: nobody moves.
    """
    return _unit_control(
        "monotone_lq", horizon, {"horizon": horizon, "action_cost": action_cost},
        running=_action_reward(-action_cost), terminal=lambda x, m: -x[..., 0] * m.mean[..., 0],
        running_bound=action_cost, terminal_bound=lambda r: r * (1.0 + horizon), split=True,
    )


def _clip8(m):
    """m clipped to [-8, 8], NaN kept: the bits of np.clip without its wrapper."""
    return np.minimum(np.maximum(m, -8.0), 8.0)


_MEAN_DRIFT_PROFILES = {
    # bounded interaction drifts B(mean); "linear" is clipped far outside the
    # region any mean path can reach, so it is Lipschitz and bounded at once
    "linear": (lambda m, s: -_clip8(m) * s, 8.0),
    "sign": (lambda m, s: np.sign(m) * s, 1.0),
    "sqrt": (lambda m, s: np.sign(m) * np.sqrt(np.abs(_clip8(m))) * s, np.sqrt(8.0)),
    "zero": (lambda m, s: np.zeros_like(m), 0.0),
}


def mean_drift(profile: str = "linear", scale: float = 1.0, x0: float = 1.0, horizon: float = 1.0) -> GameSpec:
    """Uncontrolled dynamics: every particle drifts with B(population mean).

    The action box is a single point so the control machinery degenerates;
    all the structure is in how the mean path follows the ODE driven by B.
    """
    if profile not in _MEAN_DRIFT_PROFILES:
        raise ValueError(f"unknown mean_drift profile {profile!r}; choose from {sorted(_MEAN_DRIFT_PROFILES)}")
    B, unit_bound = _MEAN_DRIFT_PROFILES[profile]
    bound = abs(scale) * unit_bound if profile != "zero" else 0.0
    initial = InitialLaw("point", [x0], [0.0])
    lo, hi = _default_state_box(initial, max(bound, 1.0), horizon)

    def drift(t, x, m, a):
        shape = np.broadcast_shapes(x.shape[:-1], a.shape[:-1], m.mean.shape[:-1]) + (1,)
        return np.broadcast_to(B(m.mean[..., 0], scale)[..., None], shape).copy()

    return GameSpec(
        name="mean_drift",
        action_lo=[0.0],
        action_hi=[0.0],
        horizon=horizon,
        initial=initial,
        drift=drift,
        running=_zero_running,
        terminal=_zero_terminal,
        drift_bound=max(bound, 1e-12),
        running_bound=0.0,
        terminal_bound=0.0,
        state_lo=lo,
        state_hi=hi,
        coefficients_batch_time=True,
        params={"profile": profile, "scale": scale, "x0": x0, "horizon": horizon},
    )


def mean_drift_ode_rhs(game: GameSpec):
    """The B driving a mean_drift game, as a scalar function of the mean."""
    if game.name != "mean_drift":
        raise ValueError("only mean_drift games carry an interaction ODE")
    B, _ = _MEAN_DRIFT_PROFILES[game.params["profile"]]
    scale = game.params["scale"]
    return lambda m: float(B(np.asarray(m, dtype=float), scale))


def driftless(horizon: float = 1.0, x0: float = 0.0) -> GameSpec:
    """No drift, no rewards: pure Brownian motion, used for baselines."""
    initial = InitialLaw("point", [x0], [0.0])
    lo, hi = _default_state_box(initial, 0.0, horizon)
    return GameSpec(
        name="driftless",
        action_lo=[0.0],
        action_hi=[0.0],
        horizon=horizon,
        initial=initial,
        drift=lambda t, x, m, a: np.zeros_like(x),
        running=_zero_running,
        terminal=_zero_terminal,
        drift_bound=1e-12,
        running_bound=0.0,
        terminal_bound=0.0,
        state_lo=lo,
        state_hi=hi,
        coefficients_batch_time=True,
        params={"horizon": horizon, "x0": x0},
    )


def tracking_lq(horizon: float = 1.0, target: float = 1.0, action_cost: float = 0.0) -> GameSpec:
    """Steer toward a fixed target: g = -(x - target)^2, optional -c*a^2 cost.

    No measure coupling at all, so the frozen-flow problem is a plain control
    problem with a known qualitative solution (drive at full speed toward
    the target until the cost of overshooting bites).
    """
    return _unit_control(
        "tracking_lq", horizon, {"horizon": horizon, "target": target, "action_cost": action_cost},
        running=_action_reward(-action_cost), terminal=lambda x, m: -((x[..., 0] - target) ** 2),
        running_bound=action_cost, terminal_bound=lambda r: (r + abs(target)) ** 2,
    )


def action_square(horizon: float = 1.0, reward_sign: float = 1.0) -> GameSpec:
    """Running reward +-a^2 with drift a; the + sign rewards extreme actions.

    With reward_sign=+1 the running reward is convex in the action, which
    breaks the convexity assumption behind drift-matching selection and is
    used as its counterexample.
    """
    return _unit_control(
        "action_square", horizon, {"horizon": horizon, "reward_sign": reward_sign},
        running=_action_reward(reward_sign), terminal=_zero_terminal,
        running_bound=1.0, terminal_bound=lambda r: 0.0,
    )


GAME_CATALOG: dict = {
    "sign_drift": sign_drift,
    "monotone_lq": monotone_lq,
    "mean_drift": mean_drift,
    "driftless": driftless,
    "tracking_lq": tracking_lq,
    "action_square": action_square,
}


def make_game(name: str, **params) -> GameSpec:
    if name not in GAME_CATALOG:
        raise KeyError(f"unknown game {name!r}; catalog has {sorted(GAME_CATALOG)}")
    return GAME_CATALOG[name](**params)
