"""The benchmark's four workloads.

``WORKLOADS[name](seed, workdir)`` builds the seeded inputs and returns a
``Workload``: one fixed pass of ops, repeated by the closed loop in
``run.py``. An op's ``run(seed)`` holds only the library calls that are
timed; the loop gives every op its own solver seed, so repeated passes draw
fresh sketches. Its ``check`` validates the outputs against independent
numpy recomputations, raises ``CheckFailed`` on a wrong result and returns
the op's cost ratios. ``quality_ops`` is how many ops, from the start of the
loop, the cost ratios are averaged over: enough to make them steady across
seeds, and fixed, so they do not depend on how fast the ops run.

Library functions are always reached through their module (``lra.svd_baseline``),
never through names bound here, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import inputs
from fairsketch import cli, css, experiments, grouped, lra, regression

REL_TOL = 1e-6
PRINT_TOL = 1e-5  # the CLI prints six significant digits


class CheckFailed(Exception):
    """An op returned an output that fails a correctness check."""


@dataclass(frozen=True)
class Quality:
    """Cost ratios of one op: against the group-blind reference and a certified lower bound."""

    ratio_svd: Optional[float] = None
    ratio_lb: Optional[float] = None


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[int], Any]
    check: Callable[[Any], Quality]


@dataclass
class Workload:
    ops: list
    quality_ops: int
    sizes: dict
    warm_up: Callable[[], None]


def _run_all(ops: list) -> Callable[[], None]:
    return lambda: [op.check(op.run(1)) for op in ops]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(got: float, want: float, what: str, tol: float = REL_TOL, scale: float = 0.0) -> None:
    _require(abs(got - want) <= tol * max(abs(want), scale), f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------- LRA


def tail_energies(groups: list) -> np.ndarray:
    """tails[i, t]: squared Frobenius energy of group i beyond its best rank-t fit.

    Computed from the eigenvalues of each Gram matrix, independently of the
    library's SVD-based ``eckart_young_lower_bound``.
    """
    d = groups[0].shape[1]
    tails = np.zeros((len(groups), d + 1))
    for i, g in enumerate(groups):
        ev = np.clip(np.linalg.eigvalsh(g.T @ g)[::-1], 0.0, None)
        tails[i, :d] = np.cumsum(ev[::-1])[::-1]
    return tails


def _check_factor(groups: list, tails: np.ndarray, V: np.ndarray, rank: int, budget: int, cost: float) -> None:
    t = V.shape[0]
    cost_sq = cost * cost
    _require(rank == t and 1 <= t <= budget, f"factor rank {rank} ({t} rows) outside 1..{budget}")
    _require(np.allclose(V @ V.T, np.eye(t), atol=1e-8), "factor rows are not orthonormal")
    energy = tails[:, 0]
    residual = [float(e - np.sum((g @ V.T) ** 2)) for e, g in zip(energy, groups)]
    scale = float(energy.max())
    _close(cost_sq, max(residual), "worst-group projection residual", tol=1e-8, scale=scale)
    bound = float(tails[:, t].max())
    _require(cost_sq >= bound - 1e-9 * scale, f"cost {cost_sq!r} below the rank-{t} Eckart-Young bound {bound!r}")


def _lra_op(kind: str, groups: list, **config) -> Op:
    """bicriteria_fair_lra, svd_baseline, both costs and the Eckart-Young bound at rank k."""
    data = grouped.GroupedMatrix.from_arrays(groups)
    tails = tail_energies(groups)
    k, budget = config["k"], config["lewis_samples"]

    def run(seed: int):
        cfg = lra.BicriteriaConfig(seed=seed, **config)
        sol = lra.bicriteria_fair_lra(data, cfg)
        base = lra.svd_baseline(data, k)
        return (
            sol,
            base,
            grouped.fair_lra_cost(data, sol.v_tilde),
            grouped.fair_lra_cost(data, base),
            lra.eckart_young_lower_bound(data, k),
        )

    def check(out) -> Quality:
        sol, base, cost, base_cost, bound = out
        _check_factor(groups, tails, sol.v_tilde, sol.t, budget, cost)
        _check_factor(groups, tails, base, base.shape[0], k, base_cost)
        _close(bound ** 2, float(tails[:, k].max()), "Eckart-Young bound", scale=1e-9 * float(tails[:, 0].max()))
        return Quality(cost / base_cost, cost / bound)

    return Op(kind, run, check)


def _lra_warm_up(rng: np.random.Generator) -> Callable[[], None]:
    tiny = inputs.credit_groups(rng, sizes=(60, 40))
    return _run_all([_lra_op("warm-up", tiny, k=2, lewis_samples=4),
                     _lra_op("warm-up", inputs.unequal_split(tiny, 4, rng, min_rows=5), k=2, lewis_samples=4)])


def setup_lra_tall(seed: int, workdir: str) -> Workload:
    """Full solves on 30000x23: the credit split and a 32-group split, k in {2, 4, 8}, budget 2k."""
    rng = np.random.default_rng(seed)
    pool = []
    for pop in range(2):
        credit = inputs.credit_groups(rng, pop=pop)
        pool.append(("credit", credit))
        pool.append(("ell32", inputs.unequal_split(credit, 32, rng)))
    ops = [_lra_op(f"{name}-k{k}", groups, k=k, lewis_samples=2 * k)
           for k in (2, 4, 8) for name, groups in pool]
    sizes = {"rows": sum(inputs.CREDIT_GROUP_ROWS), "features": inputs.CREDIT_FEATURES,
             "group_rows": list(inputs.CREDIT_GROUP_ROWS), "ell": [2, 32], "k": [2, 4, 8],
             "lewis_budget": "2k", "instances": len(pool), "ops_per_pass": len(ops)}
    return Workload(ops, 20 * len(ops), sizes, _lra_warm_up(rng))


S_GRID = tuple(range(2, 22))
K_GRID = tuple(range(1, 9))
K_SWEEP_ROWS = 1000


def setup_lra_sweep(seed: int, workdir: str) -> Workload:
    """Trials of the paper's credit experiment on subsamples, plus the imbalanced family (b)."""
    rng = np.random.default_rng(seed)
    credit = inputs.credit_groups(rng)
    per_kind = math.lcm(len(S_GRID), len(K_GRID))
    ops = []
    for j in range(per_kind):
        s = S_GRID[j % len(S_GRID)]
        k = K_GRID[j % len(K_GRID)]
        ops.append(_lra_op(f"s-sweep-s{s}", inputs.subsample_groups(credit, s, rng), k=1, p=1.0, lewis_samples=1))
        ops.append(_lra_op(f"k-sweep-k{k}", inputs.subsample_groups(credit, K_SWEEP_ROWS, rng),
                           k=k, p=1.0, lewis_samples=2 * k))
        ops.append(_lra_op("family-b", inputs.imbalanced_subspaces(rng), k=3, lewis_samples=3))
    sizes = {"s_sweep": {"rows_per_group": [S_GRID[0], S_GRID[-1]], "k": 1, "p": 1, "lewis_budget": 1},
             "k_sweep": {"rows_per_group": K_SWEEP_ROWS, "k": [K_GRID[0], K_GRID[-1]], "p": 1, "lewis_budget": "2k"},
             "family_b": {"group_rows": [400, 40], "features": 12, "k": 3, "lewis_budget": 3},
             "features": inputs.CREDIT_FEATURES, "ops_per_pass": len(ops)}
    return Workload(ops, 5 * len(ops), sizes, _lra_warm_up(rng))


# ---------------------------------------------------------- regression

REGRESSION_GROUP_ROWS = (3600, 2400)
REGRESSION_EPS = 0.05  # the CLI default
REGRESSION_INSTANCES = 2


def _group_costs(groups: list, targets: list, x: np.ndarray, norm: str) -> np.ndarray:
    r = [g @ x - b for g, b in zip(groups, targets)]
    return np.array([np.abs(v).sum() if norm == "l1" else np.sqrt(v @ v) for v in r])


def least_squares_bound(groups: list, targets: list) -> float:
    """max_i min_x ||A_i x - b_i||_2, a lower bound on the L2 and the L1 min-max optimum."""
    res = [np.linalg.lstsq(g, b, rcond=None)[0] for g, b in zip(groups, targets)]
    return float(max(np.linalg.norm(g @ x - b) for g, b, x in zip(groups, targets, res)))


def stacked_costs(groups: list, targets: list) -> dict:
    """Worst-group costs of the stacked least-squares solution, by norm."""
    x = np.linalg.lstsq(np.vstack(groups), np.concatenate(targets), rcond=None)[0]
    return {norm: float(_group_costs(groups, targets, x, norm).max()) for norm in ("l1", "l2")}


def _regression_op(kind: str, groups: list, targets: list, norm: str, solve: Callable) -> Op:
    data = grouped.GroupedMatrix.from_arrays(groups)
    labels = grouped.GroupedLabels.from_arrays(targets)
    bound = least_squares_bound(groups, targets)
    ref_costs = stacked_costs(groups, targets)

    def run(seed: int):
        sol = solve(data, labels)
        ref = regression.stacked_least_squares(data, labels)
        return sol, grouped.fair_regression_cost(data, labels, ref.x, norm)

    def check(out) -> Quality:
        sol, ref_cost = out
        _require(sol.norm == norm, f"solution norm {sol.norm!r}, expected {norm!r}")
        _close(sol.max_cost, float(_group_costs(groups, targets, sol.x, norm).max()), "solution max cost")
        _close(ref_cost, ref_costs[norm], "stacked least-squares max cost")
        _require(sol.max_cost >= bound * (1.0 - REL_TOL), f"max cost {sol.max_cost!r} below the bound {bound!r}")
        if sol.method == "binary-search":
            _require(sol.max_cost <= ref_cost * (1.0 + REL_TOL),
                     f"binary search cost {sol.max_cost!r} above its stacked seed {ref_cost!r}")
        return Quality(sol.max_cost / ref_cost, sol.max_cost / bound)

    return Op(kind, run, check)


def setup_regress_minmax(seed: int, workdir: str) -> Workload:
    """Min-max regression on 6000x23 planted instances; three solves each."""
    rng = np.random.default_rng(seed)
    eps = REGRESSION_EPS
    ops = []
    for i in range(REGRESSION_INSTANCES):
        groups = inputs.credit_groups(rng, sizes=REGRESSION_GROUP_ROWS, pop=i)
        targets = inputs.planted_targets(rng, groups, pop=i)
        ops += [
            _regression_op(f"subgradient-l2-{i}", groups, targets, "l2",
                           lambda d, t: regression.minmax_subgradient(d, t, norm="l2", eps=eps)),
            _regression_op(f"subgradient-l1-{i}", groups, targets, "l1",
                           lambda d, t: regression.minmax_subgradient(d, t, norm="l1", eps=eps)),
            _regression_op(f"binary-search-l2-{i}", groups, targets, "l2",
                           lambda d, t: regression.binary_search_fair_regression(d, t, norm="l2", eps=eps)),
        ]
    # the warm-up only needs every code path once, not converged solves
    tiny = inputs.credit_groups(rng, sizes=(30, 20), d=4)
    tiny_targets = inputs.planted_targets(rng, tiny)
    warm = [_regression_op(f"warm-up-{norm}", tiny, tiny_targets, norm,
                           lambda d, t, norm=norm: regression.minmax_subgradient(d, t, norm=norm, max_iters=100))
            for norm in ("l1", "l2")]
    sizes = {"rows": sum(REGRESSION_GROUP_ROWS), "features": inputs.CREDIT_FEATURES,
             "group_rows": list(REGRESSION_GROUP_ROWS), "eps": eps, "instances": REGRESSION_INSTANCES,
             "ops_per_pass": len(ops)}
    return Workload(ops, len(ops), sizes, _run_all(warm))


# ----------------------------------------------------------------- CLI

CLI_K = 4
CLI_LRA_TRIALS = 8
EXPERIMENT_S_GRID = "2,11,21"
EXPERIMENT_K_GRID = "1,4,8"
EXPERIMENT_TRIALS = 6
_FLOAT = r"([-+0-9.eE]+|inf|nan)"


def _parse(pattern: str, text: str) -> tuple:
    m = re.search(pattern, text)
    if m is None:
        raise CheckFailed(f"output has no line matching {pattern!r}: {text!r}")
    return m.groups()


def _cli_op(kind: str, argv: list, check_stdout: Callable[[str], Quality], seeded: bool = True) -> Op:
    def run(seed: int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--seed", str(seed)] if seeded else argv)
        return code, out.getvalue(), err.getvalue()

    def check(result) -> Quality:
        code, out, err = result
        _require(code == 0, f"exit code {code}: {err.strip()}")
        return check_stdout(out)

    return Op(kind, run, check)


def _parsed_report(path: str, trials: int) -> list:
    """Records of a JSON report, after checking it round-trips and its aggregates recompute."""
    report = experiments.parse_report_json(path)
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)["aggregates"]
    _require(len(report.records) == trials, f"{len(report.records)} report rows, expected {trials}")
    ratios = np.array([r.ratio for r in report.records])
    for r in report.records:
        _close(r.ratio, r.bicrit_cost / r.baseline_cost, f"trial {r.trial} ratio", tol=1e-12)
    recomputed = {"trials": trials, "mean_ratio": float(ratios.mean()),
                  "min_ratio": float(ratios.min()), "max_ratio": float(ratios.max())}
    for key, want in recomputed.items():
        _close(stored[key], want, f"stored aggregate {key}", tol=1e-12)
        _close(report.aggregates()[key], want, f"parsed aggregate {key}", tol=1e-12)
    return report.records


def _geomean_root(values) -> float:
    """Geometric mean of the square roots: reports hold squared costs, the benchmark's ratios are of costs."""
    return float(np.exp(np.mean(np.log(np.asarray(values, dtype=float))) / 2.0))


def _svd_baseline_costs(groups: list, k: int) -> np.ndarray:
    """Squared group costs of the stacked top-k factor, from an eigendecomposition of the stacked Gram."""
    _, vecs = np.linalg.eigh(sum(g.T @ g for g in groups))
    V = vecs[:, ::-1][:, :k].T
    return np.array([float(np.sum(g * g) - np.sum((g @ V.T) ** 2)) for g in groups])


def _cli_ops(csv_path: str, workdir: str, groups: list, targets: list) -> list:
    d = groups[0].shape[1]
    common = [csv_path, "--group-col", "SEX", "--features", ",".join(f"X{j + 1}" for j in range(d))]
    tails = tail_energies(groups)
    ey = lambda t: float(tails[:, t].max())  # squared
    scale = 1e-9 * float(tails[:, 0].max())
    base_cost = float(_svd_baseline_costs(groups, CLI_K).max())
    ref_cost = stacked_costs(groups, targets)["l2"]
    lra_report = os.path.join(workdir, "lra.json")
    experiment_report = os.path.join(workdir, "experiment.json")
    grid_trials = (len(EXPERIMENT_S_GRID.split(",")) + len(EXPERIMENT_K_GRID.split(","))) * EXPERIMENT_TRIALS

    def check_lra(out: str) -> Quality:
        records = _parsed_report(lra_report, CLI_LRA_TRIALS)
        for r in records:
            _close(r.baseline_cost, base_cost, f"trial {r.trial} baseline cost", scale=scale)
            _require(r.bicrit_cost >= ey(2 * CLI_K) - scale,
                     f"trial {r.trial} cost {r.bicrit_cost!r} below the rank-{2 * CLI_K} bound")
        return Quality(_geomean_root([r.ratio for r in records]),
                       _geomean_root([r.bicrit_cost / ey(CLI_K) for r in records]))

    def check_css(out: str) -> Quality:
        (cols,) = _parse(r"selected columns: \[([0-9, ]*)\]", out)
        (cost,) = _parse(rf"fair reconstruction cost: {_FLOAT}", out)
        count = len([c for c in cols.split(",") if c.strip()])
        _require(1 <= count <= css.css_budget(CLI_K), f"{count} columns selected")
        _require(float(cost) >= ey(count) * (1 - PRINT_TOL), f"css cost {cost} below the rank-{count} bound")
        return Quality()

    def check_regress(out: str) -> Quality:
        (cost,) = _parse(rf"max cost: {_FLOAT}", out)
        _close(float(cost), ref_cost, "stacked max cost", tol=PRINT_TOL)
        return Quality()

    def check_experiment(out: str) -> Quality:
        return Quality(_geomean_root([r.ratio for r in _parsed_report(experiment_report, grid_trials)]))

    return [
        _cli_op("lra", ["lra", *common, "--k", str(CLI_K), "--lewis-samples", str(2 * CLI_K),
                        "--trials", str(CLI_LRA_TRIALS), "--out", lra_report, "--format", "json"], check_lra),
        _cli_op("css", ["css", *common, "--k", str(CLI_K), "--refit", "--squared"], check_css),
        _cli_op("regress", ["regress", *common, "--label-col", "Y", "--method", "stacked"], check_regress,
                seeded=False),
        _cli_op("experiment", ["experiment", "credit", *common, "--s-grid", EXPERIMENT_S_GRID,
                               "--k-grid", EXPERIMENT_K_GRID, "--trials", str(EXPERIMENT_TRIALS),
                               "--out", experiment_report, "--format", "json"], check_experiment),
    ]


def setup_cli_credit(seed: int, workdir: str) -> Workload:
    """In-process CLI runs on a 30000-row credit-shaped CSV written here."""
    rng = np.random.default_rng(seed)
    groups = inputs.credit_groups(rng)
    targets = inputs.planted_targets(rng, groups)
    csv_path = os.path.join(workdir, "credit.csv")
    inputs.write_credit_csv(csv_path, groups, targets, rng)
    ops = _cli_ops(csv_path, workdir, groups, targets)

    tiny = inputs.credit_groups(rng, sizes=(60, 40))
    tiny_targets = inputs.planted_targets(rng, tiny)
    tiny_dir = os.path.join(workdir, "tiny")
    os.makedirs(tiny_dir, exist_ok=True)
    tiny_csv = os.path.join(tiny_dir, "credit.csv")
    inputs.write_credit_csv(tiny_csv, tiny, tiny_targets, rng)
    warm = _cli_ops(tiny_csv, tiny_dir, tiny, tiny_targets)[:3]
    warm.append(_cli_op("poc", ["experiment", "poc", "--out", os.path.join(tiny_dir, "poc.json"),
                                "--format", "json"], lambda out: Quality(), seeded=False))

    sizes = {"csv_rows": sum(inputs.CREDIT_GROUP_ROWS), "features": inputs.CREDIT_FEATURES,
             "group_rows": list(inputs.CREDIT_GROUP_ROWS), "csv_bytes": os.path.getsize(csv_path),
             "k": CLI_K, "lra_trials": CLI_LRA_TRIALS, "experiment": {"s_grid": EXPERIMENT_S_GRID, "k_grid": EXPERIMENT_K_GRID,
                                        "trials": EXPERIMENT_TRIALS}, "ops_per_pass": len(ops)}
    return Workload(ops, 4 * len(ops), sizes, _run_all(warm))


WORKLOADS = {
    "lra-tall": setup_lra_tall,
    "lra-sweep": setup_lra_sweep,
    "regress-minmax": setup_regress_minmax,
    "cli-credit": setup_cli_credit,
}
