"""Span tracing of mfglab's layers from outside the library.

``Tracer.install()`` replaces the public functions and methods listed in
``FUNCTIONS`` and ``METHODS`` with wrappers that record one span per call
(name, start, end, parent span) into in-memory columns. A function is
replaced wherever a module of the package or a module-level dict holds it,
because callers reach it through ``from .x import f`` copies and registries
such as ``SCENARIOS`` or the metric table of ``measures``. The game factories
are wrapped so that the drift, running and terminal callables of every game
they build are traced too. ``uninstall()`` puts every original back.

Counts that the layers do not report themselves are derived from arguments
and results (array shapes, iteration counts) by per-function hooks; byte
and element counts computed that way are labelled as computed.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("grids", "rng", "games", "controls", "measures", "sim", "hjb", "mfe", "nash",
           "projection", "relaxed", "scenarios", "reporting", "cli")

# (module, attribute, span name)
FUNCTIONS = (
    ("rng", "sample_brownian", "rng.sample_brownian"),
    ("sim", "simulate_nplayer", "sim.simulate_nplayer"),
    ("sim", "simulate_frozen_flow", "sim.simulate_frozen_flow"),
    ("sim", "integrate_paths", "sim.integrate_paths"),
    ("sim", "path_payoffs", "sim.path_payoffs"),
    ("hjb", "solve_hjb", "hjb.solve_hjb"),
    ("hjb", "evaluate_payoff", "hjb.evaluate_payoff"),
    ("measures", "flow_distance", "measures.flow_distance"),
    ("measures", "wasserstein1_1d", "measures.wasserstein1_1d"),
    ("mfe", "picard_mfe", "mfe.picard_mfe"),
    ("mfe", "consistency_residual", "mfe.consistency_residual"),
    ("mfe", "same_law_baseline", "mfe.same_law_baseline"),
    ("nash", "exploitability_estimate", "nash.exploitability_estimate"),
    ("projection", "project_drift", "projection.project_drift"),
    ("projection", "mimic_and_compare", "projection.mimic_and_compare"),
    ("relaxed", "chattering_approximation", "relaxed.chattering_approximation"),
    ("relaxed", "occupation_w1", "relaxed.occupation_w1"),
    ("relaxed", "strict_selection", "relaxed.strict_selection"),
    ("scenarios", "run_sign_drift", "scenarios.run_sign_drift"),
    ("cli", "main", "cli.main"),
)

# (module, class, attribute, span name); classmethods keep their kind
METHODS = (
    ("games", "MeasureStats", "from_cloud", "games.MeasureStats.from_cloud"),
    ("controls", "ControlField", "actions", "controls.actions"),
    ("controls", "ControlField", "probabilities", "controls.probabilities"),
    ("grids", "SpatialGrid", "nearest_index", "grids.nearest_index"),
    ("measures", "EmpiricalFlow", "stats_path", "measures.stats_path"),
    ("measures", "DeterministicFlow", "stats_path", "measures.stats_path"),
    ("measures", "EmpiricalFlow", "from_states", "measures.from_states"),
    ("projection", "DriftTable", "drift_at", "projection.drift_at"),
    ("scenarios", "ScenarioReport", "write", "reporting.write"),
)

GAME_CALLBACKS = ("drift", "running", "terminal")


def schedule_cache():
    """relaxed's memoized chattering schedule, or None if the library has no such cache."""
    cached = getattr(importlib.import_module("mfglab.relaxed"), "_roundrobin_schedule", None)
    return cached if hasattr(cached, "cache_clear") else None


def _bound(fn, args, kwargs) -> dict:
    """Arguments of a call by parameter name, defaults filled in."""
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# Hooks run after the wrapped call: hook(counters, fn, args, kwargs, result).

def _hook_brownian(c, fn, args, kwargs, res):
    c["rng.normals"] += res.increments.size
    c["rng.increments_bytes"] += res.increments.nbytes


def _hook_stepping(c, fn, args, kwargs, res):
    n, m1 = res.states.shape[:2]
    c["sim.particle_steps"] += n * (m1 - 1)
    c["sim.python_steps"] += m1 - 1


def _hook_hjb(c, fn, args, kwargs, res):
    a = _bound(fn, args, kwargs)
    c["hjb.node_atom_steps"] += a["sgrid"].n_nodes ** a["sgrid"].dim * a["agrid"].n_atoms * a["flow"].grid.n_steps


def _hook_from_states(c, fn, args, kwargs, res):
    c["measures.from_states_bytes"] += res.samples.nbytes


def _hook_picard(c, fn, args, kwargs, res):
    # converged at picard_mfe's default tolerance, whatever tol the call used
    default_tol = inspect.signature(fn).parameters["tol"].default
    c["mfe.picard_iterations"] += res.iterations
    c["mfe.converged"] += int(bool(res.residuals) and min(res.residuals) <= default_tol)


def _hook_exploitability(c, fn, args, kwargs, res):
    c["nash.reps"] += res.reps


def _hook_project(c, fn, args, kwargs, res):
    c["projection.fallback_cells"] += int(res.fallback.sum())
    c["projection.cells"] += res.fallback.size


def _hook_write(c, fn, args, kwargs, res):
    out = Path(_bound(fn, args, kwargs)["out_dir"])
    c["reporting.bytes_written"] += sum(p.stat().st_size for p in out.iterdir() if p.is_file())


HOOKS = {
    "rng.sample_brownian": _hook_brownian,
    "sim.simulate_nplayer": _hook_stepping,
    "sim.simulate_frozen_flow": _hook_stepping,
    "sim.integrate_paths": _hook_stepping,
    "hjb.solve_hjb": _hook_hjb,
    "measures.from_states": _hook_from_states,
    "mfe.picard_mfe": _hook_picard,
    "nash.exploitability_estimate": _hook_exploitability,
    "projection.project_drift": _hook_project,
    "reporting.write": _hook_write,
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self._restore = []
        self.reset()

    def reset(self) -> None:
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name: list = []
        self.parent: list = []
        self.start: list = []
        self.end: list = []
        self._stack = [-1]
        self.counters = defaultdict(int)
        self._cache_info = self._schedule_cache_info()

    # -------------------------------------------------------------- recording

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.span_name.append(self._name_id(name))
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(perf())
            try:
                res = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf()
                self._stack.pop()
            if hook is not None:
                hook(self.counters, fn, args, kwargs, res)
            return res

        return traced

    def _count_sort(self, fn):
        def counted_sort(a, *args, **kwargs):
            self.counters["measures.sorted_values"] += np.size(a)
            return fn(a, *args, **kwargs)

        return counted_sort

    def _wrap_factory(self, factory):
        def traced_factory(*args, **kwargs):
            game = factory(*args, **kwargs)
            return dataclasses.replace(game, **{
                cb: self.wrap(getattr(game, cb), f"games.{cb}") for cb in GAME_CALLBACKS
            })

        return traced_factory

    # ---------------------------------------------------------- installation

    def _replace_everywhere(self, modules, old, new) -> None:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is old:
                    self._restore.append((setattr, mod, attr, old))
                    setattr(mod, attr, new)
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if item is old:
                            self._restore.append((dict.__setitem__, val, key, old))
                            val[key] = new

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("mfglab")
        mods = {m: importlib.import_module(f"mfglab.{m}") for m in MODULES}
        everywhere = [pkg] + list(mods.values())
        for mod, attr, name in FUNCTIONS:
            fn = getattr(mods[mod], attr)
            self._replace_everywhere(everywhere, fn, self.wrap(fn, name))
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(mods[mod], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name))
            else:
                new = self.wrap(raw, name)
            self._restore.append((setattr, cls, attr, raw))
            setattr(cls, attr, new)
        for factory in set(mods["games"].GAME_CATALOG.values()):
            self._replace_everywhere(everywhere, factory, self._wrap_factory(factory))
        self._restore.append((setattr, np, "sort", np.sort))
        np.sort = self._count_sort(np.sort)

    def uninstall(self) -> None:
        while self._restore:
            setter, owner, key, old = self._restore.pop()
            setter(owner, key, old)

    # ------------------------------------------------------------- summaries

    @staticmethod
    def _schedule_cache_info():
        cached = schedule_cache()
        return cached.cache_info() if cached else None

    def self_times(self) -> dict:
        """Per span name: (calls, summed self time, summed inclusive time), times in seconds."""
        if not self.start:
            return {}
        names = np.asarray(self.span_name)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        totals = np.bincount(names, weights=self_t, minlength=len(self.names))
        inclusive = np.bincount(names, weights=dur, minlength=len(self.names))
        return {n: (int(calls[i]), float(totals[i]), float(inclusive[i])) for i, n in enumerate(self.names)}

    def cache_delta(self):
        """(hits, misses) of relaxed's schedule cache since the last reset."""
        now = self._schedule_cache_info()
        if now is None or self._cache_info is None:
            return 0, 0
        return now.hits - self._cache_info.hits, now.misses - self._cache_info.misses

    def write(self, path: Path, meta: dict) -> None:
        """Write the recorded spans as columns (times in seconds from the first span)."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            **meta,
            "names": self.names,
            "columns": ["name", "parent", "start_s", "end_s"],
            "spans": [[n, p, round(s - t0, 9), round(e - t0, 9)]
                      for n, p, s, e in zip(self.span_name, self.parent, self.start, self.end)],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
