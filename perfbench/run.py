#!/usr/bin/env python3
"""spinloop benchmark: one workload per invocation, result as the last line.

    python3 perfbench/run.py --workload {oracle,sweep,scan} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src. The
parent measures set-up time with cold interpreters, then runs the workload
in a fresh worker process (perfbench/worker.py) and prints its metrics.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("oracle", "sweep", "scan")
SETUP_STARTS = 11
RUN_LIMIT_S = 170.0
# Pinned on both sides of every comparison: one BLAS/OpenMP thread, so the
# single closed-loop client never holds more threads than the 2-core box has.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# What every CLI call pays before its command runs.
SETUP_CODE = """
from spinloop import config
cfg = config.load_config()
config.build_params(cfg)
config.build_units(cfg)
config.build_kinetic_scale(cfg)
"""


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))


def measure_setup(env: dict) -> list[float]:
    """Wall times of cold interpreters importing spinloop and deriving the
    preset's params, units and kappa. One untimed start first writes the
    bytecode cache, which users pay once, not per call."""
    times = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "spinloop" / "__init__.py").is_file():
        print("perfbench: no spinloop sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "src_lines": src_lines(src),
        "threads": THREAD_ENV,
    }
    started = time.perf_counter()
    setup_samples = measure_setup(env)
    record["setup_samples_s"] = [round(t, 4) for t in setup_samples]

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    result_path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result_path)]
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_LIMIT_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("perfbench: worker exceeded the time limit", file=sys.stderr)
        return 3
    if proc.returncode != 0 or not result_path.is_file():
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 3
    worker = json.loads(result_path.read_text())
    record.update(worker["record"])
    for problem in worker["problems"]:
        print(f"PROBLEM {problem}")
    print("record " + json.dumps(record, sort_keys=True))

    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    values = dict(worker["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setup_samples)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in sorted(values.items())}
    print(json.dumps({
        "correct": worker["correct"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
