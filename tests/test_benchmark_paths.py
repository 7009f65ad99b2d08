"""The benchmark's workloads still run against the library.

benchmarks/workloads.py calls library entry points by name, and
benchmarks/tracing.py wraps them by name and binds their arguments. Each
workload is built and run once at its self-test size, untraced and traced,
in a child process (the tracer patches module globals, and the child writes
no bytecode into the benchmark directory). A renamed function or a changed
signature fails here instead of in a benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import copy, sys
from pathlib import Path

root, scratch = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
from tracing import Tracer
from workloads import WORKLOADS

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
        print(name, "traced" if traced else "untraced", "ran")
"""


def test_every_workload_runs_untraced_and_traced(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", MFGLAB_THREADS="1")
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert len(done.stdout.splitlines()) == 8, done.stdout
