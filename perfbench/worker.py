"""Runs one workload in a fresh interpreter: builds its inputs, times passes,
traces if asked, then checks every op's outputs. Started by run.py, which
sets the thread environment and PYTHONPATH; the result goes to ``--result``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spinloop

import check
import spans
import workloads


def _source_hash(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"


class Runner:
    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.work_dir = work_dir
        self.ops = workloads.build(workload, seed, work_dir)
        self.scan = workloads.ScanRunner() if workload == "scan" else None

    def run_op(self, op: workloads.Op) -> tuple[float, dict]:
        if self.scan is not None:
            return self.scan.run(op)
        out_dir = self.work_dir / f"out{op.index:03d}"
        try:
            return workloads.run_cli(op, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def run_pass(self, tracer: spans.Tracer | None, pass_id: str) -> dict:
        times, results = [], []
        for op in self.ops:
            if tracer is not None:
                tracer.op_id = f"{pass_id}/{op.index}"
            elapsed, result = self.run_op(op)
            times.append(elapsed)
            results.append(result)
        return {"id": pass_id, "traced": tracer is not None, "times": times, "results": results}


def warm_up(workload: str, runner: Runner) -> None:
    """Finish lazy set-up (numpy submodules, quadrature tables, first-touch
    allocations) with small untimed calls of the same code paths."""
    if workload == "oracle":
        op = workloads.Op(0, "scan", {"variant": "full", "points": 16, "edge_ramp_cells": 2.0,
                                       "width": 0.03, "kick": 0.0, "spin": ["up", "up"],
                                       "steps": 4})
        workloads.ScanRunner().run(op)
    else:
        for op in runner.ops[:3]:
            runner.run_op(op)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    src = (args.root / "src").resolve()
    if src not in Path(spinloop.__file__).resolve().parents:
        print(f"perfbench: spinloop imported from {spinloop.__file__}, not {src}", file=sys.stderr)
        return 2
    out_dir = args.root / ".perfbench_out"
    work_dir = args.root / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, work_dir)
        warm_up(args.workload, runner)
        tracer = spans.Tracer() if args.trace else None

        # Closed loop: passes run back to back until another one of the same
        # length would end past --seconds. A traced run alternates untraced
        # and traced passes.
        passes: list[dict] = []
        start = time.perf_counter()
        while True:
            pass_id = f"p{len(passes)}"
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install()
            pass_start = time.perf_counter()
            try:
                record = runner.run_pass(tracer if traced else None, pass_id)
            finally:
                if traced:
                    tracer.uninstall()
            if passes:  # keep only outputs that differ from the first pass
                record["results"] = [None if r == first else r for r, first
                                     in zip(record["results"], passes[0]["results"])]
            passes.append(record)
            now = time.perf_counter()
            if len(passes) >= (2 if tracer else 1) and 2 * now - pass_start - start > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        verdicts = check_passes(runner.ops, passes)
        untraced = [p for p in passes if not p["traced"]]
        traced_passes = [p for p in passes if p["traced"]]
        pass_s = statistics.median(sum(p["times"]) for p in untraced)
        # Each op's median over the passes, as pass_s is a median over
        # passes: a pass slowed by the host moves neither.
        op_times = [statistics.median(ts) for ts in zip(*(p["times"] for p in untraced))]
        attempted = sum(len(p["results"]) for p in passes)
        ok = sum(v.ok for p in verdicts for v in p)
        failed = sum(v.unexpected for p in verdicts for v in p)
        report_failures(runner.ops, verdicts)
        problems = []

        if tracer is None:
            metrics = {
                "pass_s": pass_s,
                "ok_frac": ok / attempted,
                "peak_rss_mb": peak_rss_mb,
                "op_p50_s": float(np.percentile(op_times, 50)),
                "op_p90_s": float(np.percentile(op_times, 90)),
            }
            samples = {"passes": len(untraced), "ops_timed": len(op_times) * len(untraced)}
        else:
            metrics, count_problems = traced_metrics(tracer, traced_passes, pass_s)
            problems += count_problems
            if failed == 0 and not problems:
                problems += compare_counts(out_dir, args, _source_hash(src), metrics)
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
            samples = {"passes": len(untraced), "traced_passes": len(traced_passes),
                       "spans": len(tracer.spans)}

        record = {
            "pass_times_s": [round(sum(p["times"]), 4) for p in passes],
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas(),
            "src_hash": _source_hash(src),
            **samples,
        }
        result = {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "record": record,
            "problems": problems,
        }
        args.result.write_text(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def check_passes(ops, passes) -> list[list[check.Verdict]]:
    """Check the first pass against references; later passes must repeat it
    (their identical outputs were replaced by None)."""
    checker = check.Checker()
    first = [checker.check(op, result) for op, result in zip(ops, passes[0]["results"])]
    verdicts = [first]
    for p in passes[1:]:
        row = []
        for op, result, v0 in zip(ops, p["results"], first):
            if result is None:
                row.append(v0)
            else:
                v = checker.check(op, result)
                v.fail("output differs from the first pass")
                row.append(v)
        verdicts.append(row)
    return verdicts


def report_failures(ops, verdicts) -> None:
    """Print every failing op once, with its input and reason."""
    for i, op in enumerate(ops):
        failing = [row[i] for row in verdicts if not row[i].ok]
        if not failing:
            continue
        v = failing[0]
        tag = "known" if not v.unexpected else "UNEXPECTED"
        print(f"FAIL [{tag}] op {op.index} {op.kind} in {len(failing)}/{len(verdicts)} passes; "
              f"input {json.dumps(op.inputs, sort_keys=True)}; " + "; ".join(v.reasons))


def traced_metrics(tracer, traced_passes, pass_s) -> tuple[dict, list[str]]:
    problems = []
    per_pass = [spans.pass_counts(tracer.spans, p["id"]) for p in traced_passes]
    if any(c != per_pass[0] for c in per_pass[1:]):
        problems.append(f"op counts differ between traced passes: {per_pass}")
    metrics = spans.layer_metrics(tracer.spans, len(traced_passes))
    traced_s = statistics.median(sum(p["times"]) for p in traced_passes)
    metrics["trace.overhead_frac"] = (traced_s - pass_s) / pass_s
    return metrics, problems


def compare_counts(out_dir: Path, args, src_hash: str, metrics: dict) -> list[str]:
    """Counts must repeat exactly across runs of the same code, workload and seed."""
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"counts-{args.workload}-seed{args.seed}-{src_hash}.json"
    counts = {k: metrics[k] for k in spans.COUNTED}
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            return [f"op counts {counts} differ from an earlier run's {before}"]
    else:
        path.write_text(json.dumps(counts, sort_keys=True))
    return []


if __name__ == "__main__":
    sys.exit(main())
