"""Per-layer metrics from the spans and counters of traced runs.

A metric named ``<span>.calls`` or ``<span>.self_s`` reads the span of that
name; the rest are counters kept by the tracer's hooks or ratios of them.
Times are the median over the traced runs; counts and ratios are taken from
the first traced run, and ``counts_only`` lets the caller confirm they repeat.
"""

from __future__ import annotations

import statistics

COUNTERS = (
    "rng.normals", "rng.increments_bytes", "sim.particle_steps", "sim.python_steps",
    "hjb.node_atom_steps", "measures.from_states_bytes", "measures.sorted_values",
    "mfe.picard_iterations", "nash.reps", "reporting.bytes_written",
)


def summarize(tracer) -> dict:
    """Everything one traced run recorded, reduced to plain numbers."""
    hits, misses = tracer.cache_delta()
    return {
        "spans": tracer.self_times(),
        "counters": dict(tracer.counters),
        "cache": (hits, misses),
        "spans_recorded": len(tracer.start),
    }


def _calls(s, span):
    return s["spans"].get(span, (0, 0.0, 0.0))[0]


def _self_s(s, span):
    return s["spans"].get(span, (0, 0.0, 0.0))[1]


def _ratio(num, den):
    return num / den if den else 0.0


DERIVED = {
    "games.callback_self_s": lambda s: sum(_self_s(s, f"games.{cb}") for cb in ("drift", "running", "terminal")),
    # wall time of the fixed-point search per Picard iteration, final HJB refresh included
    "mfe.iteration_s": lambda s: _ratio(s["spans"].get("mfe.picard_mfe", (0, 0.0, 0.0))[2],
                                        s["counters"].get("mfe.picard_iterations", 0)),
    "mfe.converged_share": lambda s: _ratio(s["counters"].get("mfe.converged", 0), _calls(s, "mfe.picard_mfe")),
    "projection.fallback_share": lambda s: _ratio(s["counters"].get("projection.fallback_cells", 0),
                                                  s["counters"].get("projection.cells", 0)),
    "relaxed.schedule_cache_hit_share": lambda s: _ratio(s["cache"][0], sum(s["cache"])),
}


def value(name: str, s: dict):
    if name in DERIVED:
        return DERIVED[name](s)
    if name in COUNTERS:
        return s["counters"].get(name, 0)
    if name.endswith(".calls"):
        return _calls(s, name[: -len(".calls")])
    if name.endswith(".self_s"):
        return _self_s(s, name[: -len(".self_s")])
    raise KeyError(f"no rule computes per-layer metric {name!r}")


def is_time(name: str) -> bool:
    return name.endswith("_s")


def counts_only(s: dict) -> dict:
    """The exact (non-time) part of a run's summary."""
    return {
        "calls": {n: v[0] for n, v in s["spans"].items()},
        "counters": s["counters"],
        "cache": s["cache"],
    }


def metric_values(names, per_run: list, extra: dict) -> dict:
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
        elif is_time(name):
            out[name] = statistics.median(value(name, s) for s in per_run)
        else:
            out[name] = value(name, per_run[0])
    return out
