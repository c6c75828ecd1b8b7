"""Dense linear-algebra kernel: SVD, pseudoinverse, norms, closed-form least squares.

All matrices are plain float64 numpy arrays (2-D, row-major). ``as_matrix``
is the single entry point that validates shape and finiteness; every routine
in the package funnels its inputs through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Singular values at or below RANK_RTOL * sigma_max are treated as zero when
# computing numerical rank and pseudoinverses.
RANK_RTOL = 1e-10


class NumericError(RuntimeError):
    """A numerical routine failed to converge or produced non-finite output."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``a`` to a finite float64 2-D array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate and convert ``a`` to a finite float64 1-D array."""
    arr = np.asarray(a, dtype=np.float64).reshape(-1)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SvdFactors:
    """Rank-truncated singular value decomposition M = U @ diag(sigma) @ V.

    U has orthonormal columns (n x r), sigma is non-increasing and positive,
    V has orthonormal rows (r x d), where r is the numerical rank.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.sigma.shape[0])


def svd(M) -> SvdFactors:
    """Singular value decomposition truncated to numerical rank.

    Raises
    ------
    NumericError
        If the underlying decomposition does not converge.
    """
    M = as_matrix(M)
    try:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc
    if s.size == 0 or s[0] <= 0.0:
        n, d = M.shape
        return SvdFactors(np.zeros((n, 0)), np.zeros(0), np.zeros((0, d)))
    r = int(np.sum(s > RANK_RTOL * s[0]))
    return SvdFactors(np.ascontiguousarray(U[:, :r]), s[:r].copy(), np.ascontiguousarray(Vt[:r]))


def numerical_rank(M) -> int:
    return svd(M).rank


def pseudoinverse(M) -> np.ndarray:
    """Moore-Penrose pseudoinverse via rank-truncated SVD.

    Satisfies the four defining identities M W M = M, W M W = W,
    (M W)^T = M W, (W M)^T = W M to working precision.
    """
    f = svd(M)
    return (f.V.T / f.sigma) @ f.U.T


def norm_entrywise(M, p: float) -> float:
    """Entrywise p-norm (sum of |entry|^p) ** (1/p); p=2 is Frobenius."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    M = as_matrix(M)
    if M.size == 0:
        return 0.0
    scale = float(np.max(np.abs(M)))
    if scale == 0.0:
        return 0.0
    # scale out the max entry so large p does not overflow
    return scale * float(np.sum((np.abs(M) / scale) ** p) ** (1.0 / p))


def norm_columns_p2(M, p: float) -> float:
    """p-norm of the vector of column Euclidean norms."""
    M = as_matrix(M)
    return norm_entrywise(np.sqrt(np.sum(M * M, axis=0)), p)


def least_squares_left(V, A) -> np.ndarray:
    """Minimize ||X V - A||_F over X; closed form X = A @ pinv(V).

    V is k x d and A is n x d; they must share the column count d.
    """
    V = as_matrix(V, "V")
    A = as_matrix(A, "A")
    if V.shape[1] != A.shape[1]:
        raise ValueError(f"column mismatch: V has {V.shape[1]} columns, A has {A.shape[1]}")
    return A @ pseudoinverse(V)


def best_rank_k(M, k: int) -> np.ndarray:
    """Top-k right singular vectors of M as a k x d matrix with orthonormal rows.

    Projecting the rows of M onto their span is the Frobenius-optimal
    rank-k approximation of M.
    """
    M = as_matrix(M)
    n, d = M.shape
    if not 1 <= k <= min(n, d):
        raise ValueError(f"k must be in [1, {min(n, d)}], got {k}")
    try:
        _, _, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc
    return np.ascontiguousarray(Vt[:k])


def orthonormal_rows(M) -> np.ndarray:
    """Orthonormal basis for the row space of M (r x d, r = numerical rank)."""
    return svd(M).V
