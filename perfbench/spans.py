"""Benchmark-side tracing of fairsketch.

``Tracer.install`` replaces each function listed in ``TRACED`` by a wrapper
at every name a fairsketch module binds it to (``fairsketch.lra.dvoretzky_gaussian``
as well as ``fairsketch.sketch.dvoretzky_gaussian``), and methods on their
class. A wrapper records a span (id, parent id, name, start, end) in memory
and, for a few functions, a count taken from the call's arguments or result.
``uninstall`` restores the originals; untraced runs never install anything.

``layer_metrics`` derives the per-layer metrics from the spans of a run. A
span's self time is its duration minus that of its direct children. Every
op is itself a ``bench.op`` span, so the self times of all spans add up to
the traced op time exactly; ``bench.self_ms`` is the benchmark's own share.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("linalg", "grouped", "sketch", "sampling", "lra", "css", "regression", "experiments", "cli")

# Public functions wrapped per module; "Class.method" names a method.
TRACED = {
    "linalg": ("svd", "pseudoinverse", "best_rank_k", "orthonormal_rows", "least_squares_left",
               "numerical_rank", "norm_entrywise", "norm_columns_p2"),
    "grouped": ("GroupedMatrix.stacked", "GroupedLabels.stacked", "fair_lra_group_costs", "fair_lra_cost",
                "fair_css_cost", "fair_regression_group_costs", "fair_regression_cost", "split_by_group",
                "group_indices"),
    "sketch": ("dvoretzky_gaussian", "dvoretzky_right_embedding", "affine_embedding"),
    "sampling": ("leverage_scores", "leverage_sampling_matrix", "lewis_weights", "lewis_sampling_matrix"),
    "lra": ("svd_baseline", "bicriteria_fair_lra", "bicriteria_fair_lra_timed", "alternating_feasibility",
            "binary_search_fair_lra", "eckart_young_lower_bound"),
    "css": ("bicriteria_fair_css", "brute_force_css"),
    "regression": ("stacked_least_squares", "fair_regression_subgradient", "default_box_radius",
                   "minmax_subgradient", "binary_search_fair_regression", "export_l1_feasibility",
                   "export_l2_feasibility"),
    "experiments": ("ingest_csv", "run_dataset_lra", "run_synthetic_lra", "run_proof_of_concept",
                    "run_credit_lra", "emit_report", "parse_report_json", "parse_report_csv"),
    "cli": ("main",),
}

OP_SPAN = "bench.op"


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_gaussians(tracer, fn, args, kwargs, result) -> None:
    a = _bound(fn, args, kwargs)
    tracer.counts["sketch.gaussians"] += a["rows"] * a["cols"]


def _count_pipeline(tracer, fn, args, kwargs, result) -> None:
    a = _bound(fn, args, kwargs)
    data, cfg, sol = a["data"], a["cfg"], result[0]
    if sol.t_rows:  # all-zero data skips the sketch
        g, n, d, h = cfg.g_rows, data.total_rows, data.d, cfg.h_cols
        tracer.counts["lra.gemm_flops"] += cfg.repeats * (2 * g * n * d + 2 * g * d * h)
        tracer.samples["lra.rank_used_ratio"].append(sol.t / cfg.sample_count())


def _count_lewis(tracer, fn, args, kwargs, result) -> None:
    tracer.samples["sampling.lewis_residual"].append(result.residual)


def _count_stack(tracer, fn, args, kwargs, result) -> None:
    tracer.counts["grouped.stack_bytes"] += result.nbytes


def _count_steps(tracer, fn, args, kwargs, result) -> None:
    tracer.counts["regression.steps"] += result.iterations


def _count_ingest(tracer, fn, args, kwargs, result) -> None:
    tracer.counts["experiments.ingest_rows"] += result[0].total_rows


HOOKS = {
    "sketch.dvoretzky_gaussian": _count_gaussians,
    "lra.bicriteria_fair_lra_timed": _count_pipeline,
    "sampling.lewis_weights": _count_lewis,
    "grouped.GroupedMatrix.stacked": _count_stack,
    "regression.minmax_subgradient": _count_steps,
    "experiments.ingest_csv": _count_ingest,
}


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans = []  # (span id, parent id, name, start ns, end ns)
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.active = True
        self._ids = itertools.count(1)
        self._stack = [0]
        self._restore = []

    def _wrap(self, name: str, fn):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter_ns
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        package = [m for n, m in sys.modules.items() if n == "fairsketch" or n.startswith("fairsketch.")]
        for layer, attrs in TRACED.items():
            module = importlib.import_module(f"fairsketch.{layer}")
            for attr in attrs:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    @contextlib.contextmanager
    def op_span(self):
        sid = next(self._ids)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, 0, OP_SPAN, start, end))

    @contextlib.contextmanager
    def paused(self):
        """Call the library untraced, as the benchmark's output checks do."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-op layer metrics from a traced run (ms, counts, ratios)."""
    spans = tracer.spans
    name_of = {sid: name for sid, _, name, _, _ in spans}
    child_ns = Counter()
    for _, parent, _, start, end in spans:
        child_ns[parent] += end - start
    self_ns, calls = Counter(), Counter()
    for sid, _, name, start, end in spans:
        self_ns[name] += end - start - child_ns[sid]
        calls[name] += 1
    ops = calls[OP_SPAN]
    op_ns = sum(end - start for _, _, name, start, end in spans if name == OP_SPAN)
    if sum(self_ns.values()) != op_ns:
        raise RuntimeError("span self times do not add up to the op time")

    def inclusive_ms(*names: str) -> float:
        """Time in any of ``names``, counting nested calls among them once."""
        picked = set(names)
        ns = sum(end - start for _, parent, name, start, end in spans
                 if name in picked and name_of.get(parent) not in picked)
        return ns / ops / 1e6

    def self_ms(*names: str) -> float:
        return sum(self_ns[n] for n in names) / ops / 1e6

    def per_op(count: float) -> float:
        return count / ops

    steps = tracer.counts["regression.steps"]
    reg_calls = calls["grouped.fair_regression_group_costs"]
    ingest_s = inclusive_ms("experiments.ingest_csv") * ops / 1e3
    probes = sum(1 for _, parent, name, _, _ in spans
                 if name == "regression.minmax_subgradient"
                 and name_of.get(parent) == "regression.binary_search_fair_regression")
    residuals = tracer.samples["sampling.lewis_residual"]
    ranks = tracer.samples["lra.rank_used_ratio"]
    pipeline = ("lra.bicriteria_fair_lra", "lra.bicriteria_fair_lra_timed")
    sweeps = tuple(f"experiments.{f}" for f in TRACED["experiments"] if f.startswith("run_"))

    m = {
        "sketch.draw_ms": inclusive_ms("sketch.dvoretzky_gaussian", "sketch.dvoretzky_right_embedding"),
        "sketch.gaussians": per_op(tracer.counts["sketch.gaussians"]),
        "lra.pipeline_ms": inclusive_ms(*pipeline),
        "lra.pipeline_self_ms": self_ms(*pipeline),
        "lra.gemm_flops": per_op(tracer.counts["lra.gemm_flops"]),
        "lra.baseline_ms": inclusive_ms("lra.svd_baseline"),
        "lra.lower_bound_ms": inclusive_ms("lra.eckart_young_lower_bound"),
        "lra.rank_used_ratio": statistics.fmean(ranks) if ranks else 0.0,
        "sampling.lewis_ms": inclusive_ms("sampling.lewis_weights"),
        "sampling.lewis_calls": per_op(calls["sampling.lewis_weights"]),
        "sampling.sample_ms": inclusive_ms("sampling.lewis_sampling_matrix"),
        "sampling.lewis_residual": statistics.median(residuals) if residuals else 0.0,
        "linalg.svd_ms": inclusive_ms("linalg.svd"),
        "linalg.svd_calls": per_op(calls["linalg.svd"]),
        "linalg.pinv_ms": inclusive_ms("linalg.pseudoinverse"),
        "linalg.pinv_calls": per_op(calls["linalg.pseudoinverse"]),
        "linalg.orth_ms": inclusive_ms("linalg.orthonormal_rows"),
        "linalg.best_rank_k_ms": inclusive_ms("linalg.best_rank_k"),
        "grouped.stack_ms": inclusive_ms("grouped.GroupedMatrix.stacked"),
        "grouped.stack_calls": per_op(calls["grouped.GroupedMatrix.stacked"]),
        "grouped.stack_bytes": per_op(tracer.counts["grouped.stack_bytes"]),
        "grouped.lra_cost_ms": inclusive_ms("grouped.fair_lra_cost", "grouped.fair_lra_group_costs"),
        "grouped.lra_cost_calls": per_op(calls["grouped.fair_lra_group_costs"]),
        "grouped.reg_cost_ms": inclusive_ms("grouped.fair_regression_cost", "grouped.fair_regression_group_costs"),
        "grouped.reg_cost_calls": per_op(reg_calls),
        "regression.solve_self_ms": self_ms("regression.minmax_subgradient"),
        "regression.steps": per_op(steps),
        "regression.evals_per_step": reg_calls / steps if steps else 0.0,
        "regression.box_radius_ms": inclusive_ms("regression.default_box_radius"),
        "regression.stacked_ms": inclusive_ms("regression.stacked_least_squares"),
        "regression.probes": per_op(probes),
        "css.select_self_ms": self_ms("css.bicriteria_fair_css"),
        "experiments.ingest_ms": inclusive_ms("experiments.ingest_csv"),
        "experiments.ingest_rows_per_s": tracer.counts["experiments.ingest_rows"] / ingest_s if ingest_s else 0.0,
        "experiments.sweep_self_ms": self_ms(*sweeps),
        "experiments.emit_ms": inclusive_ms("experiments.emit_report"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = self_ms(*(f"{layer}.{attr}" for attr in TRACED[layer]))
    m["bench.self_ms"] = self_ms(OP_SPAN)
    m["trace.op_mean_ms"] = op_ns / ops / 1e6
    return m
