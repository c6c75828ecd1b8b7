import math

import numpy as np
import pytest

from fairsketch.experiments import synthetic_pair
from fairsketch.grouped import GroupedMatrix, fair_lra_cost
from fairsketch.linalg import norm_entrywise
from fairsketch.lra import (
    BicriteriaConfig,
    alternating_feasibility,
    bicriteria_fair_lra,
    binary_search_fair_lra,
    eckart_young_lower_bound,
    svd_baseline,
)


class TestSvdBaseline:
    def test_golden_pair(self):
        data = synthetic_pair()
        V = svd_baseline(data, 2)
        assert fair_lra_cost(data, V, squared=True) == pytest.approx(7.9202, abs=1e-9)

    def test_single_group_is_eckart_young(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 4))
        data = GroupedMatrix.from_arrays((A,))
        s = np.linalg.svd(A, compute_uv=False)
        cost = fair_lra_cost(data, svd_baseline(data, 2), squared=True)
        assert cost == pytest.approx(float(np.sum(s[2:] ** 2)), rel=1e-9)

    def test_low_rank_data_recovered(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 6))
        data = GroupedMatrix.from_arrays((B[:3], B[3:]))
        assert fair_lra_cost(data, svd_baseline(data, 2)) <= 1e-8

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            svd_baseline(synthetic_pair(), 5)


class TestBicriteria:
    def test_mean_ratio_beats_baseline(self):
        data = synthetic_pair()
        base = fair_lra_cost(data, svd_baseline(data, 2), squared=True)
        ratios = []
        for seed in range(100):
            cfg = BicriteriaConfig(k=2, p=1.0, g_rows=3, h_cols=3, lewis_samples=2, seed=seed)
            sol = bicriteria_fair_lra(data, cfg)
            ratios.append(fair_lra_cost(data, sol.v_tilde, squared=True) / base)
        assert np.mean(ratios) < 0.9
        assert np.mean(ratios) < 1.0

    def test_rank_one_group_recovered(self):
        rng = np.random.default_rng(2)
        A = np.outer(rng.standard_normal(6), rng.standard_normal(5))
        data = GroupedMatrix.from_arrays((A,))
        cfg = BicriteriaConfig(k=1, g_rows=4, h_cols=4, seed=3)
        sol = bicriteria_fair_lra(data, cfg)
        assert sol.cost <= 1e-6 * norm_entrywise(A, 2)

    def test_zero_data(self):
        data = GroupedMatrix.from_arrays((np.zeros((2, 3)), np.zeros((1, 3))))
        sol = bicriteria_fair_lra(data, BicriteriaConfig(k=1, seed=0))
        assert sol.cost == 0.0
        assert sol.t == 0

    def test_output_rank_bound(self):
        rng = np.random.default_rng(4)
        data = GroupedMatrix.from_arrays((rng.standard_normal((8, 6)), rng.standard_normal((5, 6))))
        for samples in (1, 2, 3):
            cfg = BicriteriaConfig(k=2, g_rows=5, h_cols=5, lewis_samples=samples, seed=7)
            sol = bicriteria_fair_lra(data, cfg)
            assert sol.t <= min(sol.t_rows, cfg.h_cols)
            assert sol.t <= samples
            assert sol.cost == pytest.approx(fair_lra_cost(data, sol.v_tilde), abs=1e-9)
            # orthogonal projection never inflates a group's energy
            assert sol.cost <= norm_entrywise(data.stacked(), 2) + 1e-9

    def test_determinism_and_repeats(self):
        data = synthetic_pair()
        cfg = BicriteriaConfig(k=2, g_rows=3, h_cols=3, seed=11)
        a = bicriteria_fair_lra(data, cfg)
        b = bicriteria_fair_lra(data, cfg)
        assert np.array_equal(a.v_tilde, b.v_tilde)
        boosted = BicriteriaConfig(k=2, g_rows=3, h_cols=3, seed=11, repeats=8)
        best = bicriteria_fair_lra(data, boosted)
        assert best.cost <= a.cost + 1e-12


class TestAlternatingFeasibility:
    def test_baseline_threshold_always_feasible(self):
        rng = np.random.default_rng(6)
        data = GroupedMatrix.from_arrays((rng.standard_normal((4, 5)), rng.standard_normal((3, 5))))
        alpha = fair_lra_cost(data, svd_baseline(data, 2))
        V = alternating_feasibility(data, 2, alpha, iters=10, seed=0)
        assert V is not None
        assert fair_lra_cost(data, V) <= alpha + 1e-9

    def test_below_lower_bound_infeasible(self):
        rng = np.random.default_rng(7)
        data = GroupedMatrix.from_arrays((rng.standard_normal((4, 5)), rng.standard_normal((4, 5))))
        bound = eckart_young_lower_bound(data, 2)
        assert alternating_feasibility(data, 2, 0.9 * bound, iters=60, seed=0) is None

    def test_reaches_mixed_optimum_on_golden_pair(self):
        data = synthetic_pair()
        V = alternating_feasibility(data, 2, math.sqrt(4.5), iters=200, seed=0)
        assert V is not None
        assert fair_lra_cost(data, V, squared=True) <= 4.5


class TestBinarySearch:
    def test_single_group_reaches_optimum(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((6, 5))
        data = GroupedMatrix.from_arrays((A,))
        eps = 0.1
        sol = binary_search_fair_lra(data, 2, eps, seed=1)
        opt = eckart_young_lower_bound(data, 2)
        assert sol.cost <= (1 + eps) * opt + 1e-6

    def test_zero_data(self):
        data = GroupedMatrix.from_arrays((np.zeros((3, 4)),))
        sol = binary_search_fair_lra(data, 1, 0.25)
        assert sol.cost == 0.0

    def test_golden_pair_beats_baseline(self):
        data = synthetic_pair()
        sol = binary_search_fair_lra(data, 2, 0.1, seed=2)
        base = fair_lra_cost(data, svd_baseline(data, 2))
        assert sol.cost <= base + 1e-12

    def test_recorded_costs_monotone(self):
        data = synthetic_pair()
        seen = []

        def oracle(alpha):
            V = alternating_feasibility(data, 2, alpha, iters=120, seed=5)
            if V is not None:
                seen.append(fair_lra_cost(data, V))
            return V

        binary_search_fair_lra(data, 2, 0.15, oracle=oracle)
        best_so_far = np.minimum.accumulate(seen)
        assert len(seen) >= 1
        assert np.all(np.diff(best_so_far) <= 1e-12)

    def test_failing_oracle_falls_back_to_baseline(self):
        data = synthetic_pair()
        sol = binary_search_fair_lra(data, 2, 0.2, oracle=lambda alpha: None)
        assert np.array_equal(sol.v_tilde, svd_baseline(data, 2))
        assert sol.cost == pytest.approx(fair_lra_cost(data, svd_baseline(data, 2)))

    def test_lower_bound_certificate(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            data = GroupedMatrix.from_arrays(
                (rng.standard_normal((4, 4)), rng.standard_normal((3, 4)))
            )
            sol = binary_search_fair_lra(data, 2, 0.2, seed=seed)
            assert eckart_young_lower_bound(data, 2) <= sol.cost + 1e-9

