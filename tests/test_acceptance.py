"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).
Tolerances are pinned here and nowhere else."""

import functools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fairsketch.css import bicriteria_fair_css, brute_force_css
from fairsketch.experiments import (
    IngestSpec,
    run_credit_lra,
    run_proof_of_concept,
    run_synthetic_lra,
    synthetic_pair,
)
from fairsketch.grouped import GroupedLabels, GroupedMatrix, fair_lra_cost
from fairsketch.lra import BicriteriaConfig, bicriteria_fair_lra_timed, svd_baseline
from fairsketch.regression import (
    binary_search_fair_regression,
    minmax_subgradient,
    stacked_least_squares,
)
from fairsketch.sampling import leverage_scores, lewis_weights
from fairsketch.sketch import dvoretzky_gaussian, dvoretzky_rows_needed, affine_embedding
from oracles import (
    exhaustive_css,
    grid_minmax_regression,
    grid_minmax_regression_nd,
    random_grouped,
    random_matrix,
)


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"[criterion {number:>2}] SKIP - {description}")
                raise
            except BaseException:
                print(f"[criterion {number:>2}] FAIL - {description}")
                raise
            print(f"[criterion {number:>2}] PASS - {description}")
        return run
    return wrap


@criterion(1, "synthetic pair golden numbers: fair 4, baseline 7.9202, ratio ~0.505")
def test_criterion_1_golden_numbers():
    start = time.perf_counter()
    data = synthetic_pair()
    v_fair = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
    fair = fair_lra_cost(data, v_fair, squared=True)
    base = fair_lra_cost(data, svd_baseline(data, 2), squared=True)
    assert abs(fair - 4.0) <= 1e-9
    assert abs(base - 7.9202) <= 1e-9
    assert abs(fair / base - 0.505) <= 5e-4
    assert time.perf_counter() - start < 1.0


@criterion(2, "bicriteria stats: mean ratio < 0.9 for every p in 1..10, min <= 0.85")
def test_criterion_2_bicriteria_statistics():
    start = time.perf_counter()
    report = run_synthetic_lra(trials=100, sketch_dims=(3,), ps=tuple(range(1, 11)), k=2, seed=2024)
    ratios = np.array([r.ratio for r in report.records]).reshape(10, 100)
    for row, p in zip(ratios, range(1, 11)):
        assert row.mean() < 0.9, f"mean ratio {row.mean():.3f} at p={p}"
    assert ratios.min() <= 0.85
    assert time.perf_counter() - start < 30.0


@criterion(3, "four-group proof of concept: fair/standard ratio 0.5 +- 1e-9")
def test_criterion_3_proof_of_concept():
    start = time.perf_counter()
    report = run_proof_of_concept()
    assert abs(report.records[0].ratio - 0.5) <= 1e-9
    assert time.perf_counter() - start < 1.0


@criterion(4, "leverage scores sum to numerical rank on 200 random matrices")
def test_criterion_4_leverage_sum():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 51))
        d = int(rng.integers(1, 11))
        r = int(rng.integers(1, min(n, d) + 1)) if rng.random() < 0.5 else None
        M = random_matrix(rng, n, d, rank=r)
        ls = leverage_scores(M)
        assert abs(ls.scores.sum() - ls.rank) <= 1e-6


@criterion(5, "Lewis weights: p=2 equals leverage; p=4 residual <= 1e-6; sum within 5% of d")
def test_criterion_5_lewis_suite():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, d = int(rng.integers(6, 25)), int(rng.integers(2, 6))
        M = rng.standard_normal((n, d))
        lw2 = lewis_weights(M, 2.0, iters=1)
        assert np.max(np.abs(lw2.weights - leverage_scores(M).scores)) <= 1e-8
        lw4 = lewis_weights(M, 4.0, iters=100)
        assert lw4.residual <= 1e-6
        assert abs(lw4.weights.sum() - d) <= 0.05 * d


@criterion(6, "L2-to-Lp embedding distortion: >=90% of unit vectors within (1 +- 0.6)")
def test_criterion_6_dvoretzky_distortion():
    rng = np.random.default_rng(6)
    for p in (1.0, 2.0, 4.0):
        m = max(50, dvoretzky_rows_needed(10, p, 0.5))
        emb = dvoretzky_gaussian(m, 10, p, seed=60 + int(p))
        hits = 0
        for _ in range(200):
            y = rng.standard_normal(10)
            y /= np.linalg.norm(y)
            val = float(np.sum(np.abs(emb @ y) ** p) ** (1.0 / p))
            hits += 0.4 <= val <= 1.6
        assert hits >= 0.9 * 200, f"p={p}: {hits}/200 within range"


@criterion(7, "affine embedding preserves regression cost within (1 +- 1) for >=90% of seeds")
def test_criterion_7_affine_embedding():
    rng = np.random.default_rng(7)
    hits = 0
    for seed in range(100):
        V = rng.standard_normal((2, 30))
        A = rng.standard_normal((5, 30))
        X = A @ np.linalg.pinv(V)
        base = float(np.linalg.norm(X @ V - A, "fro") ** 2)
        emb = affine_embedding(30, 2, 0.3, 0.1, seed=seed)
        sketched = float(np.linalg.norm((X @ V - A) @ emb, "fro") ** 2)
        hits += abs(sketched / base - 1.0) <= 1.0
    assert hits >= 90


@criterion(8, "stacked least squares is an ell-approximation on 50 grid-certified instances")
def test_criterion_8_ell_approximation():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        ell = int(rng.integers(1, 5))
        groups = [rng.standard_normal((int(rng.integers(1, 4)), d)) for _ in range(ell)]
        targets = [rng.standard_normal(g.shape[0]) for g in groups]
        data = GroupedMatrix.from_arrays(tuple(groups))
        labels = GroupedLabels.from_arrays(tuple(targets))
        sol = stacked_least_squares(data, labels)
        radius = 2.0 * (1.0 + float(np.max(np.abs(sol.x))))
        opt, _ = grid_minmax_regression_nd(groups, targets, center=sol.x, radius=radius)
        # absolute 1e-9 floor for exactly-solvable instances where both sides are float noise
        assert sol.max_cost <= ell * opt * (1 + 1e-6) + 1e-9


@criterion(9, "min-max solver within 1e-3 of grid; binary search within (1+eps) at bounded iterations")
def test_criterion_9_minmax_solver():
    rng = np.random.default_rng(9)
    for i in range(20):
        groups, targets = random_grouped(rng, int(rng.integers(2, 4)), 2)
        data = GroupedMatrix.from_arrays(tuple(groups))
        labels = GroupedLabels.from_arrays(tuple(targets))
        sol = minmax_subgradient(data, labels, eps=1e-6, box_delta=4.0)
        opt, _ = grid_minmax_regression(groups, targets, radius=4.0)
        assert abs(sol.max_cost - opt) <= 1e-3, f"instance {i}: gap {sol.max_cost - opt:.2e}"
    eps = 0.05
    for i in range(10):
        groups, targets = random_grouped(rng, 2, 2)
        data = GroupedMatrix.from_arrays(tuple(groups))
        labels = GroupedLabels.from_arrays(tuple(targets))
        sol = binary_search_fair_regression(data, labels, eps=eps)
        opt, _ = grid_minmax_regression(groups, targets, radius=4.0)
        assert sol.max_cost <= (1 + eps) * opt + 1e-3
        assert sol.iterations <= math.ceil(math.log(2) / math.log1p(eps)) + 2


@criterion(10, "CSS: brute force matches exhaustive oracle; bicriteria <= 50x optimum in >=80%")
def test_criterion_10_css():
    rng = np.random.default_rng(10)
    wins = 0
    for seed in range(30):
        A = rng.standard_normal((6, 6))
        data = GroupedMatrix.from_arrays((A,))
        mine = brute_force_css(data, 2)
        cost, subset = exhaustive_css([A], 2)
        assert mine.indices == subset
        assert abs(mine.cost - cost) <= 1e-9 * max(cost, 1.0)
        cfg = BicriteriaConfig(k=2, g_rows=6, h_cols=6, seed=seed)
        sol = bicriteria_fair_css(data, cfg)
        wins += sol.cost <= 50.0 * mine.cost
    assert wins >= 0.8 * 30


@criterion(11, "timing split: extraction < total on every trial; extraction beats SVD in the median")
def test_criterion_11_timing_split():
    report = run_synthetic_lra(trials=20, sketch_dims=(3,), ps=(1.0,), seed=11)
    for rec in report.records:
        assert 0.0 < rec.time_bicrit_extract < rec.time_bicrit_total
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((1000, 17)) * np.linspace(1.0, 3.0, 17)
    data = GroupedMatrix.from_arrays((rows[:480], rows[480:]))
    extract_times, svd_times = [], []
    for seed in range(20):
        cfg = BicriteriaConfig(k=1, p=1.0, g_rows=30, h_cols=30, lewis_samples=2, seed=seed)
        _, times = bicriteria_fair_lra_timed(data, cfg)
        extract_times.append(times["time_extract"])
        t0 = time.perf_counter()
        svd_baseline(data, 1)
        svd_times.append(time.perf_counter() - t0)
    assert float(np.median(extract_times)) < float(np.median(svd_times))


def _find_credit_csv():
    candidates = [os.environ.get("FAIRSKETCH_CREDIT_CSV", "")]
    candidates += ["data/credit.csv", "credit.csv", "data/default_credit.csv"]
    for c in candidates:
        if c and Path(c).exists():
            return c
    return None


@criterion(12, "credit dataset s-sweep mean ratio <= 1.0 (skipped without the UCI file)")
def test_criterion_12_credit_sweep_if_available():
    path = _find_credit_csv()
    if path is None:
        pytest.skip("credit dataset not present; fetch it from the UCI repository to enable")
    spec = IngestSpec(path=path, group_col="SEX")
    report = run_credit_lra(spec, s_grid=tuple(range(2, 22)), k_grid=(), trials=30, seed=12)
    agg = report.aggregates()
    assert agg["mean_ratio"] <= 1.0
