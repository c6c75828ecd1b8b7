import numpy as np
import pytest

from fairsketch.sampling import (
    LewisWeights,
    leverage_sampling_matrix,
    leverage_scores,
    lewis_sampling_matrix,
    lewis_weights,
)
from oracles import random_matrix


class TestLeverageScores:
    def test_identity(self):
        ls = leverage_scores(np.eye(4))
        assert np.allclose(ls.scores, 1.0)
        assert ls.rank == 4

    def test_hand_computed(self):
        # columns (1,1,0) and (0,0,1) are orthogonal; the left factor rows
        # are (1/sqrt2, 0), (1/sqrt2, 0), (0, 1)
        ls = leverage_scores(np.array([[1.0, 0], [1.0, 0], [0, 1.0]]))
        assert np.allclose(ls.scores, [0.5, 0.5, 1.0], atol=1e-12)

    def test_sum_is_rank_full(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((7, 3))
        ls = leverage_scores(M)
        assert ls.scores.sum() == pytest.approx(3.0, abs=1e-6)

    def test_sum_is_rank_deficient(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n, d = int(rng.integers(2, 20)), int(rng.integers(1, 8))
            r = int(rng.integers(1, min(n, d) + 1))
            ls = leverage_scores(random_matrix(rng, n, d, rank=r))
            assert ls.rank == r
            assert ls.scores.sum() == pytest.approx(r, abs=1e-6)
            assert np.all(ls.scores <= 1.0 + 1e-8)
            assert np.all(ls.scores >= -1e-12)


class TestLeverageSampling:
    def test_full_leverage_keeps_everything(self):
        ls = leverage_scores(np.eye(5))
        sm = leverage_sampling_matrix(ls, seed=0)
        assert np.array_equal(sm.indices, np.arange(5))
        assert np.allclose(sm.scales, 1.0)

    def test_zero_rows_never_kept(self):
        M = np.vstack([np.eye(3), np.zeros((4, 3))])
        ls = leverage_scores(M)
        for seed in range(50):
            sm = leverage_sampling_matrix(ls, seed=seed)
            assert np.all(sm.indices < 3)

    def test_unbiased_squared_norm(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((50, 3))
        ls = leverage_scores(M)
        v = rng.standard_normal(50)
        target = float(v @ v)
        means = []
        for seed in range(2000):
            sm = leverage_sampling_matrix(ls, seed=seed)
            means.append(float(np.sum(sm.apply(v[:, None]) ** 2)))
        assert abs(np.mean(means) - target) <= 0.05 * target

    def test_determinism(self):
        ls = leverage_scores(np.random.default_rng(3).standard_normal((20, 4)))
        a = leverage_sampling_matrix(ls, seed=5)
        b = leverage_sampling_matrix(ls, seed=5)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.scales, b.scales)


class TestLewisWeights:
    def test_p2_equals_leverage_scores(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            M = rng.standard_normal((8, 3))
            lw = lewis_weights(M, 2.0, iters=1)
            ls = leverage_scores(M)
            assert np.allclose(lw.weights, ls.scores, atol=1e-8)
            assert lw.residual <= 1e-8

    def test_identity_uniform_for_any_p(self):
        for p in (1.0, 2.0, 3.0, 4.0):
            lw = lewis_weights(np.eye(4), p, iters=5)
            assert np.allclose(lw.weights, 1.0, atol=1e-10)

    def test_fixed_point_three_rows_p4(self):
        lw = lewis_weights(np.array([[1.0, 0], [1.0, 1.0], [0, 1.0]]), 4.0, iters=100)
        assert lw.residual <= 1e-6
        assert abs(lw.weights.sum() - 2.0) <= 0.04

    def test_weight_sum_near_dimension(self):
        rng = np.random.default_rng(5)
        for p in (1.0, 4.0):
            for _ in range(10):
                M = rng.standard_normal((20, 4))
                lw = lewis_weights(M, p, iters=30)
                assert abs(lw.weights.sum() - 4.0) <= 0.05 * 4.0

    def test_more_iterations_do_not_hurt_residual(self):
        rng = np.random.default_rng(6)
        passed = total = 0
        for p in (1.0, 2.0, 4.0):
            for _ in range(8):
                M = rng.standard_normal((15, 3))
                r1 = lewis_weights(M, p, iters=10).residual
                r2 = lewis_weights(M, p, iters=20).residual
                total += 1
                passed += r2 <= r1 + 1e-12
        assert passed >= 0.9 * total

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            lewis_weights(np.eye(2), 0.5)
        with pytest.raises(ValueError):
            lewis_weights(np.eye(2), 2.0, iters=0)


class TestLewisSampling:
    def test_single_nonzero_weight(self):
        lw = LewisWeights(weights=np.array([0.0, 3.0, 0.0]), p=2.0, residual=0.0)
        sm = lewis_sampling_matrix(lw, 7, seed=0)
        assert np.all(sm.indices == 1)
        assert sm.sample_count == 7

    def test_all_zero_rejected(self):
        lw = LewisWeights(weights=np.zeros(3), p=2.0, residual=0.0)
        with pytest.raises(ValueError):
            lewis_sampling_matrix(lw, 2, seed=0)

    def test_uniform_weights_draw_uniformly(self):
        n, draws = 8, 10000
        lw = LewisWeights(weights=np.ones(n), p=1.0, residual=0.0)
        sm = lewis_sampling_matrix(lw, draws, seed=1)
        counts = np.bincount(sm.indices, minlength=n)
        expected = draws / n
        sigma = np.sqrt(draws * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_p2_subspace_embedding_monte_carlo(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((100, 3))
        lw = lewis_weights(A, 2.0, iters=10)
        xs = rng.standard_normal((50, 3))
        good_seeds = 0
        for seed in range(40):
            sm = lewis_sampling_matrix(lw, 60, seed=seed)
            SA = sm.apply(A)
            ok = True
            for x in xs:
                ratio = np.linalg.norm(SA @ x) / np.linalg.norm(A @ x)
                ok = ok and 0.5 <= ratio <= 1.5
            good_seeds += ok
        assert good_seeds >= 0.9 * 40

    def test_determinism(self):
        lw = LewisWeights(weights=np.arange(1.0, 6.0), p=3.0, residual=0.0)
        a = lewis_sampling_matrix(lw, 9, seed=13)
        b = lewis_sampling_matrix(lw, 9, seed=13)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.scales, b.scales)


def test_lewis_weights_with_zero_rows():
    import warnings

    M = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    for p in (1.0, 2.0, 4.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lw = lewis_weights(M, p, iters=60)
        assert lw.weights[1] == 0.0
        assert lw.residual <= 1e-8
        assert abs(lw.weights.sum() - 2.0) <= 0.1
