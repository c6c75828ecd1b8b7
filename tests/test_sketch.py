import math

import numpy as np
import pytest

from fairsketch.sketch import (
    affine_embedding,
    affine_embedding_cols,
    dvoretzky_gaussian,
    dvoretzky_right_embedding,
    dvoretzky_rows_needed,
    gaussian_abs_moment,
)


def test_gaussian_abs_moment_known_values():
    assert gaussian_abs_moment(2) == pytest.approx(1.0)
    assert gaussian_abs_moment(1) == pytest.approx(math.sqrt(2 / math.pi))
    assert gaussian_abs_moment(4) == pytest.approx(3.0)


class TestDvoretzkyGaussian:
    def test_zero_vector(self):
        emb = dvoretzky_gaussian(20, 5, 3, seed=0)
        out = emb @ np.zeros((5, 1))
        assert float(np.sum(np.abs(out) ** 3) ** (1 / 3)) == 0.0

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            dvoretzky_gaussian(4, 4, 0.5, seed=0)

    def test_second_moment_calibration(self):
        # mean of ||G e1||_2^2 over many seeds concentrates at 1
        vals = []
        for seed in range(1000):
            G = dvoretzky_gaussian(8, 5, 2, seed=seed)
            vals.append(float(np.sum(G[:, 0] ** 2)))
        assert 0.9 <= np.mean(vals) <= 1.1

    def test_p4_distortion_monte_carlo(self):
        emb = dvoretzky_gaussian(200, 10, 4, seed=42)
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(200):
            y = rng.standard_normal(10)
            y /= np.linalg.norm(y)
            val = np.sum(np.abs(emb @ y) ** 4) ** 0.25
            hits += 0.5 <= val <= 1.5
        assert hits >= 0.95 * 200

    def test_determinism(self):
        a = dvoretzky_gaussian(6, 4, 2.5, seed=11)
        b = dvoretzky_gaussian(6, 4, 2.5, seed=11)
        assert np.array_equal(a, b)
        c = dvoretzky_gaussian(6, 4, 2.5, seed=12)
        assert not np.array_equal(a, c)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        G = dvoretzky_gaussian(7, 5, 3, seed=5)
        A, B = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        assert np.allclose(G @ (A + B), G @ A + G @ B, atol=1e-12)
        assert np.allclose(G @ (2.5 * A), 2.5 * (G @ A), atol=1e-12)


class TestRowsNeeded:
    def test_third_regime_formula(self):
        # 1/p < eps < 1 regime, evaluated directly
        n, p, eps = 10, 4.0, 0.5
        expected = math.ceil(
            n ** (p / 2) / (p ** (p / 2) * eps ** (p / 2)) * math.log(1 / eps) ** (p / 2)
        )
        assert dvoretzky_rows_needed(n, p, eps) == expected

    def test_p1_small_eps_regime(self):
        for n, eps in [(10, 0.1), (50, 0.43), (3, 0.9)]:
            assert dvoretzky_rows_needed(n, 1.0, eps) == math.ceil(n / eps ** 2)

    def test_middle_regime_formula(self):
        # needs the small-eps cutoff below 1/p, which requires a large n
        n, p = 300_000, 4.0
        cutoff = p ** (p / 2) * n ** (-(p - 2) / (2 * (p - 1)))
        assert cutoff < 1 / p
        eps = 0.245
        assert cutoff < eps <= 1 / p
        assert dvoretzky_rows_needed(n, p, eps) == math.ceil((n * p) ** (p / 2) / eps)

    def test_monotone_in_eps(self):
        for n in (5, 10, 50):
            for p in (1.0, 2.0, 3.0, 4.0):
                values = [dvoretzky_rows_needed(n, p, e) for e in np.linspace(0.02, 0.98, 49)]
                assert all(a >= b for a, b in zip(values, values[1:]))

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            dvoretzky_rows_needed(10, 2.0, 0.0)
        with pytest.raises(ValueError):
            dvoretzky_rows_needed(10, 2.0, 1.0)


class TestAffineEmbedding:
    def test_width_formula(self):
        assert affine_embedding_cols(2, 0.5, 0.1) == math.ceil(16 * math.log(10))
        emb = affine_embedding(30, 2, 0.5, 0.1, seed=0)
        assert emb.shape == (30, math.ceil(16 * math.log(10)))

    def test_zero_maps_to_zero(self):
        emb = affine_embedding(10, 2, 0.5, 0.1, seed=1)
        assert np.linalg.norm(np.zeros((3, 10)) @ emb) == 0.0

    def test_determinism(self):
        a = affine_embedding(12, 2, 0.4, 0.2, seed=9)
        b = affine_embedding(12, 2, 0.4, 0.2, seed=9)
        assert np.array_equal(a, b)

    def test_regression_cost_preserved_monte_carlo(self):
        rng = np.random.default_rng(0)
        hits = 0
        for seed in range(100):
            V = rng.standard_normal((2, 30))
            A = rng.standard_normal((5, 30))
            X = A @ np.linalg.pinv(V)
            base = np.linalg.norm(X @ V - A, "fro") ** 2
            emb = affine_embedding(30, 2, 0.3, 0.1, seed=seed)
            sketched = np.linalg.norm(X @ V @ emb - A @ emb, "fro") ** 2
            hits += abs(sketched / base - 1.0) <= 1.0
        assert hits >= 90


def test_two_sided_application_distortion():
    rng = np.random.default_rng(123)
    for p in (1.0, 2.0, 4.0):
        hits = 0
        seeds = range(30)
        for seed in seeds:
            M = rng.standard_normal((10, 8))
            G = dvoretzky_gaussian(200, 10, p, seed=3 * seed)
            H = dvoretzky_right_embedding(8, 200, p, seed=3 * seed + 1)
            val = np.sum(np.abs(G @ M @ H) ** p) ** (1.0 / p)
            ratio = val / np.linalg.norm(M, "fro")
            hits += 0.4 <= ratio <= 1.6
        assert hits >= 0.9 * len(seeds)
