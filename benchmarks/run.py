"""mfglab benchmark: time one workload end to end, or trace its layers.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload two_ramp --seed 0 --seconds 20 --trace 0

The workload runs in a closed loop in this one process: each run starts when
the previous one ends, until ``--seconds`` have passed. Every run checks its
outputs against the bands of the acceptance claim it stands for. With
``--trace 0`` the result carries the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the window is split between untraced runs and runs traced
by ``tracing.Tracer``, and the result carries the per-layer metrics. The last
line of standard output is the result object; the lines before it give the
machine facts, the run-time quartiles, sample counts and any failed check.

Set-up time is measured in fresh child processes (``--setup-only``), each of
which imports mfglab and builds the workload's generated inputs once.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SCRATCH = ROOT / ".bench_out"
SETUP_REPEATS = 5
UNTRACED_SHARE = 0.4  # share of a traced run's window spent on untraced runs
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class HarnessError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny only exercises the code paths (self-test)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_threads() -> None:
    """One BLAS thread and one library thread, before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["MFGLAB_THREADS"] = "1"


def import_library():
    """Import mfglab from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "mfglab" / "__init__.py").is_file():
        raise HarnessError(f"no mfglab sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import mfglab

    if Path(mfglab.__file__).resolve().parent != (src / "mfglab").resolve():
        raise HarnessError(f"mfglab was imported from {mfglab.__file__}, not from {src}")
    return mfglab


def load_spec() -> dict:
    if not SPEC_PATH.is_file():
        raise HarnessError(f"missing {SPEC_PATH.name}")
    return json.loads(SPEC_PATH.read_text())


def machine_facts() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "library_threads": int(os.environ["MFGLAB_THREADS"]),
    }


def setup_once(args) -> float:
    """Import mfglab and build the workload's inputs; the child's whole job."""
    t0 = time.perf_counter()
    import_library()
    from workloads import WORKLOADS

    WORKLOADS[args.workload].build(args.seed, args.size, SCRATCH)
    return time.perf_counter() - t0


def measure_setup(args) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--size", args.size, "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise HarnessError(f"set-up child failed: {done.stderr.strip()[-500:]}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def clear_library_caches() -> None:
    """Each run starts as a fresh process would: relaxed's schedule cache empty."""
    from tracing import schedule_cache

    cached = schedule_cache()
    if cached:
        cached.cache_clear()


class Loop:
    """Closed-loop runs with output checks; failures are counted, never dropped."""

    def __init__(self, workload):
        self.workload = workload
        self.samples: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.particle_steps: list = []

    def run_once(self, inputs, before=None) -> None:
        fresh = copy.deepcopy(inputs)  # caches filled inside inputs by an earlier run stay there
        clear_library_caches()
        gc.collect()  # garbage of the previous run is not collected inside this one
        if before:
            before()
        t0 = time.perf_counter()
        try:
            checks, steps = self.workload.run(fresh)
        except Exception:
            self.samples.append(time.perf_counter() - t0)
            self.attempted += self.workload.n_checks
            self.failed += self.workload.n_checks
            self.failures.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
            return
        self.samples.append(time.perf_counter() - t0)
        self.particle_steps.append(steps)
        self.attempted += len(checks)
        for c in checks:
            if not c.passed:
                self.failed += 1
                self.failures.append(f"{c.name}={c.value!r} outside [{c.lo!r}, {c.hi!r}]")

    def run_until(self, inputs, deadline: float, before_each=None, after_each=None) -> None:
        while True:
            self.run_once(inputs, before_each)
            if after_each:
                after_each()
            if time.perf_counter() >= deadline:
                return


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def end_to_end(args, spec, facts) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup = measure_setup(args)
    inputs = workload.build(args.seed, args.size, SCRATCH)
    loop = Loop(workload)
    loop.run_until(inputs, time.perf_counter() + args.seconds)
    p25, med, p75 = quartiles(loop.samples)
    steps = statistics.median(loop.particle_steps) if loop.particle_steps else 0
    values = {
        "run_s": med,
        "particle_steps_per_s": steps / med,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "run_s": {"p25": p25, "median": med, "p75": p75, "n": len(loop.samples), "samples": loop.samples},
        "setup_s_samples": setup,
        "particle_steps_per_run": steps,
        "check_fail_share": loop.failed / max(loop.attempted, 1),
    }
    return finish(args, spec, facts, loop, "end_to_end", values, detail)


def traced(args, spec, facts) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS

    import layers

    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    inputs = workload.build(args.seed, args.size, SCRATCH)
    plain = Loop(workload)
    plain.run_until(inputs, start + UNTRACED_SHARE * args.seconds)

    tracer = Tracer()
    tracer.install()
    try:
        # rebuilt under the tracer so the games' callbacks are wrapped too
        inputs = workload.build(args.seed, args.size, SCRATCH)
        per_run = []
        loop = Loop(workload)
        loop.run_until(inputs, start + args.seconds, before_each=tracer.reset,
                       after_each=lambda: per_run.append(layers.summarize(tracer)))
    finally:
        tracer.uninstall()
    tracer.write(SCRATCH / f"spans-{args.workload}-seed{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed, "run": len(per_run) - 1})

    counts = [layers.counts_only(s) for s in per_run]
    untraced_s = statistics.median(plain.samples)
    traced_s = statistics.median(loop.samples)
    extra = {
        "trace.run_s": traced_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": per_run[0]["spans_recorded"],
    }
    names = [m["name"] for m in spec["per_layer"]]
    values = layers.metric_values(names, per_run, extra)
    detail = {
        "untraced_runs": len(plain.samples),
        "traced_runs": len(loop.samples),
        "counts_repeat": all(c == counts[0] for c in counts),
        "particle_steps_per_run": statistics.median(loop.particle_steps) if loop.particle_steps else 0,
        "overhead_share": (traced_s - untraced_s) / untraced_s,
        "spans_file": str((SCRATCH / f"spans-{args.workload}-seed{args.seed}.json").relative_to(ROOT)),
    }
    plain.attempted += loop.attempted
    plain.failed += loop.failed
    plain.failures += loop.failures
    return finish(args, spec, facts, plain, "per_layer", values, detail)


def finish(args, spec, facts, loop, section, values, detail) -> dict:
    units = {m["name"]: m["unit"] for m in spec[section]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise HarnessError(f"no value for {section} metrics {missing}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print(f"{args.workload:>20}  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
                      "machine": facts, "attempted": loop.attempted, "failed": loop.failed,
                      "failures": loop.failures[:20], **detail}))
    return {"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_once(args)}))
            return 0
        spec = load_spec()
        import_library()
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise HarnessError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        if args.seconds <= 0 or args.seed < 0:
            raise HarnessError("--seconds must be positive and --seed non-negative")
        SCRATCH.mkdir(exist_ok=True)
        facts = machine_facts()
        result = (traced if args.trace else end_to_end)(args, spec, facts)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
