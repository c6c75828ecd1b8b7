import numpy as np
import pytest

from fairsketch.linalg import (
    as_matrix,
    best_rank_k,
    least_squares_left,
    norm_columns_p2,
    norm_entrywise,
    orthonormal_rows,
    pseudoinverse,
    svd,
)
from oracles import random_matrix


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0]])


class TestSvd:
    def test_identity(self):
        f = svd(np.eye(2))
        assert np.allclose(f.sigma, [1.0, 1.0])
        assert f.rank == 2
        assert np.allclose((f.U * f.sigma) @ f.V, np.eye(2))

    def test_diagonal_rank_deficient(self):
        f = svd(np.diag([3.0, 0.0]))
        assert f.rank == 1
        assert np.allclose(f.sigma, [3.0])

    def test_two_by_four(self):
        f = svd(np.array([[2.0, 0, 0, 0], [0, 2.0, 0, 0]]))
        assert np.allclose(f.sigma, [2.0, 2.0])

    def test_factor_invariants(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            M = random_matrix(rng, n, d, rank=int(rng.integers(1, min(n, d) + 1)))
            f = svd(M)
            r = f.rank
            assert np.allclose(f.U.T @ f.U, np.eye(r), atol=1e-8)
            assert np.allclose(f.V @ f.V.T, np.eye(r), atol=1e-8)
            assert np.all(np.diff(f.sigma) <= 1e-12)
            assert np.all(f.sigma >= 0)
            scale = max(np.linalg.norm(M, "fro"), 1e-30)
            assert np.linalg.norm((f.U * f.sigma) @ f.V - M, "fro") / scale < 1e-8


class TestPseudoinverse:
    def test_identity(self):
        assert np.allclose(pseudoinverse(np.eye(3)), np.eye(3))

    def test_zero(self):
        for M, shape in ((np.zeros((2, 3)), (3, 2)), (np.zeros(3), (3, 1))):
            W = pseudoinverse(M)
            assert W.shape == shape
            assert np.all(W == 0.0)

    def test_rectangular_diagonal(self):
        W = pseudoinverse(np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]))
        assert np.allclose(W, np.array([[1.0, 0, 0], [0, 0.5, 0]]))

    def test_penrose_identities_all_aspect_ratios(self):
        rng = np.random.default_rng(1)
        shapes = [(5, 3), (3, 5), (4, 4), (6, 2), (1, 7), (7, 1)]
        for n, d in shapes:
            for rank in (None, max(1, min(n, d) - 1)):
                M = random_matrix(rng, n, d, rank)
                W = pseudoinverse(M)
                assert np.allclose(M @ W @ M, M, atol=1e-8)
                assert np.allclose(W @ M @ W, W, atol=1e-8)
                assert np.allclose((M @ W).T, M @ W, atol=1e-8)
                assert np.allclose((W @ M).T, W @ M, atol=1e-8)


class TestNorms:
    def test_pythagorean(self):
        assert norm_entrywise([[3.0, 4.0]], 2) == pytest.approx(5.0)

    def test_ones_l1(self):
        assert norm_entrywise(np.ones((2, 2)), 1) == pytest.approx(4.0)

    def test_p4_against_direct_summation(self):
        # direct oracle: (1 + 16 + 16 + 1) ** (1/4)
        assert norm_entrywise([[1.0, 2.0], [2.0, 1.0]], 4) == pytest.approx(34.0 ** 0.25, rel=1e-12)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            norm_entrywise([[1.0]], 0.5)
        with pytest.raises(ValueError):
            norm_columns_p2([[1.0]], 0.99)

    def test_frobenius_matches_direct_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            M = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 8))))
            direct = float(np.sqrt(np.sum(M * M)))
            assert norm_entrywise(M, 2) == pytest.approx(direct, rel=1e-12)

    def test_column_norms(self):
        assert norm_columns_p2(np.eye(2), 1) == pytest.approx(2.0)
        for p in (1, 2, 3.5, 7):
            assert norm_columns_p2([[3.0], [4.0]], p) == pytest.approx(5.0)
        expected = (2.0 ** 1.5 + 8.0) ** (1.0 / 3.0)  # column norms (sqrt 2, 2)
        assert norm_columns_p2([[1.0, 0.0], [1.0, 2.0]], 3) == pytest.approx(expected, rel=1e-12)


class TestLeastSquaresLeft:
    def test_identity_factor(self):
        A = np.arange(6.0).reshape(2, 3)
        assert np.allclose(least_squares_left(np.eye(3), A), A)

    def test_axis_projection(self):
        X = least_squares_left(np.array([[1.0, 0.0]]), np.array([[2.0, 5.0]]))
        assert np.allclose(X, [[2.0]])

    def test_beats_random_probes(self):
        rng = np.random.default_rng(3)
        V = rng.standard_normal((2, 3))
        A = rng.standard_normal((5, 3))
        X = least_squares_left(V, A)
        base = np.linalg.norm(X @ V - A, "fro")
        for _ in range(100):
            Xp = rng.standard_normal(X.shape)
            assert base <= np.linalg.norm(Xp @ V - A, "fro") + 1e-6 * np.linalg.norm(A, "fro")

    def test_beats_perturbations_of_solution(self):
        rng = np.random.default_rng(4)
        V = rng.standard_normal((3, 6))
        A = rng.standard_normal((4, 6))
        X = least_squares_left(V, A)
        base = np.linalg.norm(X @ V - A, "fro")
        for _ in range(1000):
            Xp = X + rng.standard_normal(X.shape) * 10.0 ** rng.uniform(-6, 0)
            assert base <= np.linalg.norm(Xp @ V - A, "fro") + 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            least_squares_left(np.ones((2, 3)), np.ones((2, 4)))


class TestBestRankK:
    def test_dominant_axis(self):
        V = best_rank_k(np.diag([3.0, 1.0]), 1)
        assert abs(V[0, 0]) == pytest.approx(1.0)
        assert V[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_full_rank_square(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((4, 4))
        V = best_rank_k(M, 4)
        residual = np.linalg.norm(M - M @ pseudoinverse(V) @ V, "fro")
        assert residual <= 1e-8

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            best_rank_k(np.eye(3), 0)
        with pytest.raises(ValueError):
            best_rank_k(np.eye(3), 4)

    def test_eckart_young_tail(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            n, d = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            M = rng.standard_normal((n, d))
            s = np.linalg.svd(M, compute_uv=False)
            for k in range(1, min(n, d)):
                V = best_rank_k(M, k)
                resid = np.linalg.norm(M - M @ pseudoinverse(V) @ V, "fro") ** 2
                tail = float(np.sum(s[k:] ** 2))
                assert resid == pytest.approx(tail, rel=1e-6, abs=1e-9)


def test_orthonormal_rows_spans_row_space():
    rng = np.random.default_rng(7)
    M = random_matrix(rng, 6, 4, rank=2)
    Q = orthonormal_rows(M)
    assert Q.shape == (2, 4)
    assert np.allclose(Q @ Q.T, np.eye(2), atol=1e-10)
    # every row of M is reproduced by projecting onto the basis
    assert np.allclose(M @ Q.T @ Q, M, atol=1e-8)
