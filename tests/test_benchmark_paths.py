"""The benchmark's workloads still run against the library.

benchmarks/workloads.py calls library entry points by name, and
benchmarks/tracing.py wraps them by name and binds their arguments. Each
workload is built and run once at its self-test size, untraced and traced,
in a child process (the tracer patches module globals, and the child writes
no bytecode into the benchmark directory). A renamed function or a changed
signature fails here instead of in a benchmark run. Each traced run also
goes through the per-layer rules of benchmarks/layers.py for every
per-layer metric BENCHMARK.json lists, except the ``trace.*`` ones run.py
computes itself, and every value must be a finite number.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import copy, json, math, sys
from pathlib import Path

root, scratch = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
import layers
from tracing import Tracer
from workloads import WORKLOADS

spec = json.loads((root / "BENCHMARK.json").read_text())
names = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")]

for name, workload in WORKLOADS.items():
    for traced in (False, True):
        tracer = Tracer()
        if traced:
            tracer.install()
        try:
            checks, steps = workload.run(copy.deepcopy(workload.build(1, "tiny", scratch)))
        finally:
            tracer.uninstall()
        assert len(checks) == workload.n_checks, (name, len(checks))
        assert steps > 0, name
        if traced:
            assert tracer.start, name
            values = layers.metric_values(names, [layers.summarize(tracer)], {})
            for metric, v in values.items():
                assert isinstance(v, (int, float)) and math.isfinite(v), (name, metric, v)
        print(name, "traced" if traced else "untraced", "ran")
"""


def test_every_workload_runs_untraced_and_traced(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", MFGLAB_THREADS="1")
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert len(done.stdout.splitlines()) == 8, done.stdout
