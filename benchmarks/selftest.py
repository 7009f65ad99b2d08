"""Self-test of the benchmark at tiny sizes.

    python3 benchmarks/selftest.py

Runs every workload untraced and traced with ``--size tiny`` and checks that
the result line has the contract's shape, that every metric of
BENCHMARK.json appears with its unit, that the traced particle-step count
matches the workload's own accounting, that each layer predicted to move a
workload's run time was seen in its trace, and that the benchmark refuses to
run in a directory holding only BENCHMARK.json and the benchmark itself.
Tiny sizes only exercise the code paths: their output checks may fail.
Exits 0 when every self-test check passes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], capture_output=True, text=True,
                          cwd=cwd, timeout=300)


def check_spec(spec, problems):
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for n in names:
        if not NAME.match(n):
            problems.append(f"bad name {n!r}")
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"bad unit or direction on {m['name']}")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"bound of {m['name']} outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s missing or not seconds/lower")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s does not have the largest bound")
    for w in spec["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"why of {w['name']} is not one line of at most 200 characters")
    predicted = {m for layer in json.loads((BENCH_DIR / "predictions.json").read_text())["layers"] for m in layer["metrics"]}
    listed = {m["name"] for m in spec["per_layer"]}
    if predicted != listed:
        problems.append(f"predictions.json and per_layer differ: {sorted(predicted ^ listed)}")


def check_result(label, done, section, spec, problems):
    if done.returncode != 0:
        problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()[-400:]}")
        return None, None
    lines = done.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]):
        problems.append(f"{label}: attempted/failed {result['attempted']}/{result['failed']}")
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metric/unit mismatch {sorted(set(got.items()) ^ set(want.items()))}")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            problems.append(f"{label}: {k} is not a finite number")
    return result, detail


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    layers = json.loads((BENCH_DIR / "predictions.json").read_text())["layers"]
    problems: list = []
    check_spec(spec, problems)
    if sorted(WORKLOADS) != sorted(w["name"] for w in spec["workloads"]):
        problems.append("workloads.py and BENCHMARK.json list different workloads")

    for name, workload in WORKLOADS.items():
        base = ["--workload", name, "--seed", "1", "--seconds", "1", "--size", "tiny"]
        result, detail = check_result(f"{name} untraced", run(base + ["--trace", "0"]), "end_to_end", spec, problems)
        if result and result["attempted"] % workload.n_checks:
            problems.append(f"{name}: {result['attempted']} checks is not a multiple of {workload.n_checks}")
        result, detail = check_result(f"{name} traced", run(base + ["--trace", "1"]), "per_layer", spec, problems)
        if not result:
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if values["sim.particle_steps"] != detail["particle_steps_per_run"]:
            problems.append(f"{name}: traced sim.particle_steps {values['sim.particle_steps']} "
                            f"!= workload's {detail['particle_steps_per_run']}")
        if not detail["counts_repeat"]:
            problems.append(f"{name}: traced counts differ between runs")
        for layer in layers:
            if {"metric": "run_s", "workload": name} in layer["moves"] and not any(values[m] for m in layer["metrics"]):
                problems.append(f"{name}: layer {layer['layer']} predicted to move run_s but absent from the trace")
        print(f"{name}: ok so far ({len(problems)} problems)", flush=True)

    # a directory with only BENCHMARK.json and the benchmark must be refused
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
        done = run(["--workload", "two_ramp", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=bare)
        last = done.stdout.strip().splitlines()[-1:] or [""]
        if done.returncode == 0 or last[0].startswith("{"):
            problems.append("benchmark ran without the library sources")

    for p in problems:
        print("PROBLEM:", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
