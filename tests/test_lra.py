import math
from collections import Counter

import numpy as np
import pytest

from fairsketch import lra
from fairsketch.css import bicriteria_fair_css, brute_force_css
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


class TestRFactorReduction:
    """Every LRA and CSS path reads a group only through its cached R factor."""

    def test_one_qr_per_group_and_no_stacking(self, monkeypatch):
        rng = np.random.default_rng(12)
        data = GroupedMatrix.from_arrays([rng.standard_normal((n, 5)) for n in (40, 3, 25)])
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
        monkeypatch.setattr(GroupedMatrix, "stacked", counted("stacked", GroupedMatrix.stacked))
        for seed in (1, 2):
            bicriteria_fair_lra(data, BicriteriaConfig(k=2, seed=seed))
        svd_baseline(data, 2)
        eckart_young_lower_bound(data, 2)
        # one QR per group, plus one for the stacked R factors
        assert calls == {"qr": data.ell + 1}

        bicriteria_fair_css(data, BicriteriaConfig(k=2, seed=3), refit=True)
        brute_force_css(data, 2)
        binary_search_fair_lra(data, 2, 0.5, seed=4)
        assert calls == {"qr": data.ell + 1}

    def test_one_batched_svd_per_grouped_matrix(self, monkeypatch):
        rng = np.random.default_rng(14)
        shapes, svd = [], np.linalg.svd

        def recorded(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        for sizes in ((40, 3, 25), (2, 9)):
            data = GroupedMatrix.from_arrays([rng.standard_normal((n, 5)) for n in sizes])
            for k in range(1, data.d + 1):
                eckart_young_lower_bound(data, k)
        assert shapes == [(3, 5, 5), (2, 5, 5)]

    def test_sketch_is_as_wide_as_the_features(self, monkeypatch):
        rng = np.random.default_rng(13)
        data = GroupedMatrix.from_arrays([rng.standard_normal((n, 7)) for n in (3000, 2000)])
        widths, draw = [], lra.dvoretzky_gaussian

        def recorded(rows, cols, p, seed):
            widths.append(cols)
            return draw(rows, cols, p, seed)

        monkeypatch.setattr(lra, "dvoretzky_gaussian", recorded)
        bicriteria_fair_lra(data, BicriteriaConfig(k=3, repeats=2, seed=5))
        assert widths and max(widths) <= data.d


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

    @pytest.mark.parametrize("eps, calls", [(0.05, 425), (0.1, 218), (0.3, 79), (0.5, 52), (0.9, 33)])
    def test_always_feasible_runs_until_the_threshold_shrinks_1e9_fold(self, monkeypatch, eps, calls):
        thresholds = []

        def always_feasible(data, k, alpha, seed=0):
            thresholds.append(alpha)
            return svd_baseline(data, k)

        monkeypatch.setattr(lra, "alternating_feasibility", always_feasible)
        binary_search_fair_lra(synthetic_pair(), 2, eps)
        assert len(thresholds) == calls == math.ceil(math.log(1e9) / math.log1p(eps))
        assert thresholds[-1] >= 1e-9 * thresholds[0] > thresholds[-1] / (1 + eps)

    def test_golden_pair_beats_baseline(self):
        data = synthetic_pair()
        sol = binary_search_fair_lra(data, 2, 0.1, seed=2)
        base = fair_lra_cost(data, svd_baseline(data, 2))
        assert sol.cost <= base + 1e-12

    def test_lower_bound_certificate(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            data = GroupedMatrix.from_arrays(
                (rng.standard_normal((4, 4)), rng.standard_normal((3, 4)))
            )
            sol = binary_search_fair_lra(data, 2, 0.2, seed=seed)
            assert eckart_young_lower_bound(data, 2) <= sol.cost + 1e-9

