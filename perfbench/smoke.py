#!/usr/bin/env python3
"""Smoke check of the benchmark itself: ``python3 perfbench/smoke.py`` from the repository root.

Runs every workload for one second, untraced once and traced twice with the
same seed, and checks that each run
  - exits 0 and ends with the result line, with no failed op;
  - reports exactly the metrics BENCHMARK.json names for its mode;
  - (traced) has per-layer self times that add up to the traced op time,
    and count metrics that repeat exactly between the two traced runs.
Exits 1 and lists the problems if any check fails. Takes about 90 seconds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SELF_TIMES = ("linalg", "grouped", "sketch", "sampling", "lra", "css", "regression", "experiments", "cli", "bench")


def _is_count(name: str) -> bool:
    return name.endswith("_calls") or name in (
        "sketch.gaussians", "lra.gemm_flops", "grouped.stack_bytes", "regression.steps", "regression.probes")


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [(0, _run(workload, 0)), (1, _run(workload, 1)), (1, _run(workload, 1))]
        for trace, res in runs:
            where = f"{workload} trace {trace}"
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{where}: {res['failed']} of {res['attempted']} ops failed")
            if set(res["metrics"]) != names[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(res['metrics']) ^ names[trace])}")
        traced = [{k: v["value"] for k, v in res["metrics"].items()} for t, res in runs if t == 1]
        for m in traced:
            parts = sum(m[f"{layer}.self_ms"] for layer in SELF_TIMES)
            if not math.isclose(parts, m["trace.op_mean_ms"], rel_tol=1e-9):
                problems.append(f"{workload}: self times sum to {parts} ms, op mean is {m['trace.op_mean_ms']} ms")
        for name in filter(_is_count, traced[0]):
            if traced[0][name] != traced[1][name]:
                problems.append(f"{workload}: count {name} differs between runs: {traced[0][name]} vs {traced[1][name]}")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
