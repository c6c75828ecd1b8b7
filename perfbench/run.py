#!/usr/bin/env python3
"""fairsketch benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload lra-tall --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each workload runs as a closed loop with one client in one process: the next
op starts when the previous one returns, and its output is then checked
untimed. The loop repeats a fixed pass of ops and stops at the first pass
boundary after ``--seconds``. The cost ratios are averaged over a fixed
number of ops from the start of the loop, so they depend on the seed alone;
``peak_rss_mb`` is the high-water mark once those ops have run, so it too
covers a fixed amount of work. Set-up (input generation, CSV writing and a
warm-up on tiny inputs) runs nine times; ``setup_s`` is the median.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the loop for
half the time untraced and half traced, prints the per-layer metrics and
writes the spans to ``perfbench/out/``. ``--workload all`` runs every
workload in a fresh process, so ``peak_rss_mb`` is per workload. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = 1
SETUP_REPEATS = 9
OP_SEED_STRIDE = 1_000_003
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many samples beyond it,
TAIL_MAX = 0.90  # capped at p90: beyond it, long runs measure only the host's rare stalls
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _import_library():
    """Import fairsketch from this checkout's ``src``, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fairsketch
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fairsketch from {src}: {exc}")
    origin = Path(fairsketch.__file__).resolve()
    if src.resolve() not in origin.parents:
        sys.exit(f"perfbench: fairsketch imported from {origin}, not from {src}")
    return fairsketch


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _env_stamp(fairsketch, numpy, sizes: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "fairsketch": fairsketch.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "sizes": sizes,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_phase(workload, seed: int, seconds: float, min_ops: int, tracer=None) -> dict:
    """Closed loop over whole passes of ``workload.ops``, for at least ``seconds`` and ``min_ops`` ops.

    Op i gets solver seed ``seed * OP_SEED_STRIDE + i``; the cost ratios of
    the first ``workload.quality_ops`` ops are kept, and the peak RSS is read
    after them.
    """
    ops = workload.ops
    latencies, quality, failures = [], [], []
    peak_rss_mb = None
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or i % len(ops) or time.perf_counter() < deadline:
        if i == workload.quality_ops:
            peak_rss_mb = _peak_rss_mb()
        op = ops[i % len(ops)]
        op_seed = (seed * OP_SEED_STRIDE + i) % 2**31
        keep_quality = i < workload.quality_ops
        i += 1
        try:
            start = time.perf_counter_ns()
            with tracer.op_span() if tracer else nullcontext():
                out = op.run(op_seed)
            elapsed = time.perf_counter_ns() - start
            with tracer.paused() if tracer else nullcontext():
                q = op.check(out)
        except Exception as exc:  # a failing op is counted, reported and the loop goes on
            failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(elapsed)
        if keep_quality:
            quality.append(q)
    return {"attempted": i, "latencies": latencies, "quality": quality, "failures": failures,
            "peak_rss_mb": peak_rss_mb or _peak_rss_mb()}


def _geomean(values: list) -> float:
    values = [v for v in values if v is not None]
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def _latency_metrics(phase: dict) -> dict:
    lat = sorted(phase["latencies"])
    n = len(lat)
    if not n:
        return {"op_p50_ms": 0.0, "op_tail_ms": 0.0, "ops_per_s": 0.0, "tail_percentile": 0.0, "samples": 0}
    tail = max(min(n - TAIL_BEYOND - 1, math.ceil(TAIL_MAX * n) - 1), 0)
    return {
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_tail_ms": lat[tail] / 1e6,
        "ops_per_s": n / (sum(lat) / 1e9),
        "tail_percentile": 100.0 * (tail + 1) / n,
        "samples": n,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import fairsketch
    import numpy

    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            workload = None
            start = time.perf_counter()
            workload = workloads.WORKLOADS[name](seed, str(workdir))
            workload.warm_up()
            setup_times.append(time.perf_counter() - start)

        if trace:
            plain = _run_phase(workload, seed, seconds / 2, len(workload.ops))
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = _run_phase(workload, seed, seconds / 2, len(workload.ops), tracer)
            finally:
                tracer.uninstall()
            phases = [plain, traced]
        else:
            phases = [_run_phase(workload, seed, seconds, workload.quality_ops)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    timing = _latency_metrics(phases[0])
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": _env_stamp(fairsketch, numpy, workload.sizes),
        "setup_runs_s": setup_times,
        "op_tail_percentile": timing["tail_percentile"], "op_samples": timing["samples"],
        "fail_ratio": len(failures) / attempted, "failures": failures[:20],
    }
    if trace:
        traced_timing = _latency_metrics(traced)
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = (traced_timing["op_p50_ms"] / timing["op_p50_ms"]
                                           if timing["op_p50_ms"] else 0.0)
        span_file = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(str(span_file))
        detail["spans_file"] = str(span_file.relative_to(ROOT))
        detail["traced_op_samples"] = traced_timing["samples"]
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_ms": timing["op_p50_ms"],
            "op_tail_ms": timing["op_tail_ms"],
            "ops_per_s": timing["ops_per_s"],
            "cost_ratio_svd": _geomean([q.ratio_svd for q in phases[0]["quality"]]),
            "cost_ratio_lb": _geomean([q.ratio_lb for q in phases[0]["quality"]]),
            "peak_rss_mb": phases[0]["peak_rss_mb"],
        }
    return {"detail": detail, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def _units(trace: bool) -> dict:
    """Units of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _print_result(result: dict, trace: bool) -> None:
    detail, units = result["detail"], _units(trace)
    print(f"# workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}")
    print("# env " + json.dumps(detail["env"], sort_keys=True))
    for key, value in result["metrics"].items():
        note = ""
        if key == "op_tail_ms":
            note = f"  (p{detail['op_tail_percentile']:.1f} of {detail['op_samples']} ops)"
        print(f"{key:32s} {value:16.6g} {units.get(key, '')}{note}")
    print(f"{'fail_ratio':32s} {detail['fail_ratio']:16.6g} ({result['failed']}/{result['attempted']} ops)")
    for failure in detail["failures"]:
        print(f"# failed: {failure}")
    (OUT / f"result-{detail['workload']}-seed{detail['seed']}-trace{detail['trace']}.json").write_text(
        json.dumps(result, indent=2) + "\n")


def _final_line(result: dict, trace: bool) -> str:
    units = _units(trace)
    if set(units) != set(result["metrics"]):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(result['metrics']))}")
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    })


def run_all(args) -> int:
    """Every workload in its own process; the last line maps workload names to results."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    for var in BLAS_ENV:  # before numpy loads BLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(HERE))
    _import_library()
    import workloads

    parser = argparse.ArgumentParser(description="fairsketch benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_result(result, bool(args.trace))
    print(_final_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
