"""Row sampling by leverage scores and Lp Lewis weights.

Leverage scores measure each row's importance for the column space; sampling
rows independently with probability min(1, score * log2 n) and rescaling kept
rows by 1/sqrt(prob) preserves squared Euclidean norms in expectation. Lewis
weights generalize leverage scores to Lp and drive the row sampler used to
compress Lp regression problems. The Lewis iteration takes no SVD: each round,
and its residual, is one ridge-regularised Gram solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import NumericError, as_matrix, svd


@dataclass(frozen=True)
class LeverageScores:
    """Per-row leverage scores in [0, 1]; they sum to the numerical rank."""

    scores: np.ndarray
    rank: int


@dataclass(frozen=True)
class LewisWeights:
    """Fixed-point Lp Lewis weights with convergence diagnostics.

    ``residual`` is the maximum deviation |w_i - tau_i| between the weights
    and the leverage scores of the reweighted matrix W^(1/2 - 1/p) A, which
    is zero at an exact fixed point. The scores come from one more round of
    the iteration's own ridged quadratic forms, not from an SVD.
    """

    weights: np.ndarray
    p: float
    residual: float


@dataclass(frozen=True)
class SamplingMatrix:
    """Row sampler: kept indices (with multiplicity) and positive rescales.

    Applying the sampler to a matrix keeps rows ``indices`` scaled by
    ``scales``; this is the compressed form of the corresponding diagonal
    or selection matrix.
    """

    indices: np.ndarray
    scales: np.ndarray
    source_rows: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        sc = np.asarray(self.scales, dtype=np.float64)
        if idx.shape != sc.shape:
            raise ValueError("indices and scales must have matching shapes")
        if idx.size and (idx.min() < 0 or idx.max() >= self.source_rows):
            raise ValueError("sampled index out of range")
        if sc.size and (not np.all(np.isfinite(sc)) or np.any(sc <= 0)):
            raise ValueError("rescale factors must be positive and finite")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "scales", sc)

    @property
    def sample_count(self) -> int:
        return int(self.indices.shape[0])

    def apply(self, M) -> np.ndarray:
        M = as_matrix(M)
        if M.shape[0] != self.source_rows:
            raise ValueError(f"matrix has {M.shape[0]} rows, sampler expects {self.source_rows}")
        return M[self.indices] * self.scales[:, None]


def leverage_scores(M) -> LeverageScores:
    """Leverage scores: squared row norms of the left singular factor.

    The scores lie in [0, 1] and sum to the numerical rank of M.
    """
    f = svd(M)
    s = np.sum(f.U * f.U, axis=1)
    return LeverageScores(scores=s, rank=f.rank)


def leverage_sampling_matrix(scores: LeverageScores, seed: int) -> SamplingMatrix:
    """Independent row sampler with inclusion probability min(1, score * log2 n).

    n is the number of scores, clamped to at least 2. Each row i is kept independently with
    probability p_i and rescaled by 1/sqrt(p_i), so E||S v||^2 = ||v||^2 for
    every vector v. Rows with zero leverage are never kept; rows with full
    leverage are always kept.
    """
    n = scores.scores.shape[0]
    # log base 2 of the score count, clamped so a single-row matrix still keeps
    # its row: a row with full leverage must survive or the sampler loses
    # unbiasedness.
    probs = np.minimum(1.0, scores.scores * math.log2(max(n, 2)))
    rng = np.random.default_rng(seed)
    keep = rng.random(n) < probs
    idx = np.flatnonzero(keep)
    return SamplingMatrix(
        indices=idx,
        scales=1.0 / np.sqrt(probs[idx]),
        source_rows=n,
    )


def lewis_weights(M, p: float, iters: int = 10) -> LewisWeights:
    """Approximate Lp Lewis weights by damped fixed-point iteration.

    Starting from the uniform d/n initialization, each round evaluates the
    quadratic forms q(w)_i = a_i^T (A^T W^(1 - 2/p) A)^(-1) a_i, sets
    phi(w) = q(w)^(p/2), and steps w <- w^(1 - theta) * phi(w)^theta with
    theta = min(1, 2/p). For p <= 2 this is the plain update (and for p = 2
    one round returns the leverage scores exactly, since phi ignores W
    there); for p > 2 the plain map is only contractive up to rate
    |p/2 - 1|, and the geometric damping restores convergence. At the fixed
    point each weight equals the leverage score w_i^(1 - 2/p) q(w)_i of the
    corresponding row of W^(1/2 - 1/p) A; one more round of q at the returned
    weights gives the maximum deviation from that identity as ``residual``.
    The rounds stop early at the first one that returns its input to the
    last bit (for p = 2, the second), whose q is then that residual round's.

    Every round adds the ridge 1e-12 * trace/d to the Gram matrix, so
    rank-deficient inputs degrade gracefully instead of failing; a Gram
    matrix that stays singular after regularization raises NumericError.
    """
    M = as_matrix(M)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    n, d = M.shape
    w = np.full(n, d / n)
    expo = 1.0 - 2.0 / p
    theta = min(1.0, 2.0 / p)
    for _ in range(iters):
        q = _row_quadratic_forms(M, w, expo)
        phi = np.maximum(q, 0.0) ** (p / 2.0)
        step = phi if theta == 1.0 else _masked_power(w, 1.0 - theta) * phi ** theta
        if step[0] == w[0] and np.array_equal(step, w):  # the first entry screens most rounds out cheaply
            break  # a fixed point to the last bit: q is the residual round's q
        w = step
    else:
        q = _row_quadratic_forms(M, w, expo)
    tau = _masked_power(w, expo) * q
    residual = float(np.max(np.abs(w - tau))) if w.size else 0.0
    return LewisWeights(weights=w, p=float(p), residual=residual)


def _masked_power(w: np.ndarray, expo: float) -> np.ndarray:
    # zero weight occurs only for zero rows; keep them out of negative-power territory
    if expo == 0.0:
        return np.ones_like(w)
    out = np.zeros_like(w)
    pos = w > 0.0
    out[pos] = w[pos] ** expo
    return out


def _row_quadratic_forms(M: np.ndarray, w: np.ndarray, expo: float) -> np.ndarray:
    """q_i = m_i^T (M^T W^expo M + ridge)^(-1) m_i, with the ridge 1e-12 * trace/d."""
    d = M.shape[1]
    gram = M.T @ (M * _masked_power(w, expo)[:, None])
    gram = gram + (1e-12 * np.trace(gram) / d) * np.eye(d)
    try:
        X = np.linalg.solve(gram, M.T)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Gram matrix singular after regularization: {exc}") from exc
    q = np.einsum("ij,ji->i", M, X)
    if not np.all(np.isfinite(q)):
        raise NumericError("non-finite quadratic forms in Lewis weight iteration")
    return q


def lewis_sampling_matrix(weights: LewisWeights, s: int, seed: int) -> SamplingMatrix:
    """Draw s rows i.i.d. proportional to the Lewis weights.

    Row i is drawn with probability q_i = w_i / sum(w) and each draw is
    rescaled by (s * q_i)^(-1/p), the calibration under which the sketched
    p-norm ||S A x||_p^p is unbiased for ||A x||_p^p.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    w = weights.weights
    if np.any(w < 0):
        raise ValueError("Lewis weights must be non-negative")
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("all sampling weights are zero")
    q = w / total
    rng = np.random.default_rng(seed)
    idx = rng.choice(w.shape[0], size=s, replace=True, p=q)
    scales = (s * q[idx]) ** (-1.0 / weights.p)
    return SamplingMatrix(indices=idx, scales=scales, source_rows=int(w.shape[0]))
