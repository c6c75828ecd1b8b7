"""Oblivious Gaussian sketches: L2-to-Lp embeddings and affine embeddings.

Two sketch families live here. The first maps Euclidean norms into entrywise
p-norms with scaled Gaussian matrices: for a properly scaled m x n Gaussian
G and any y, ||G y||_p concentrates around ||y||_2. The second is a dense
Gaussian affine embedding S with ||X V S - A S||_F ~ ||X V - A||_F
simultaneously over X, used to shrink multi-response regression problems.

Both generators are pure functions of their seed; identical parameters
reproduce identical matrices bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


def gaussian_abs_moment(p: float) -> float:
    """E|g|^p for a standard Gaussian g, via the closed-form Gamma expression."""
    if p < 0:
        raise ValueError(f"p must be non-negative, got {p}")
    return 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


def dvoretzky_gaussian(rows: int, cols: int, p: float, seed: int) -> np.ndarray:
    """Draw a scaled Gaussian rows x cols matrix G embedding L2 into entrywise Lp.

    Entries are i.i.d. N(0, 1) divided by rows^(1/p) * gamma_p, where gamma_p
    is the p-th root of the Gaussian absolute moment. The scale calibrates
    the p-th moment exactly: E||G y||_p^p = ||y||_2^p for every y.

    Parameters
    ----------
    rows, cols : int
        Shape of the sketch matrix; ``cols`` must match the dimension of the
        vectors (or matrix rows) being sketched. ``dvoretzky_rows_needed``
        sizes ``rows`` for a target distortion.
    p : float
        Target entrywise norm, p >= 1.
    seed : int
        RNG seed; the draw is a pure function of (seed, rows, cols, p).
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"rows and cols must be >= 1, got {rows} x {cols}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    gamma_p = gaussian_abs_moment(p) ** (1.0 / p)
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) / (rows ** (1.0 / p) * gamma_p)


def dvoretzky_right_embedding(rows: int, cols: int, p: float, seed: int) -> np.ndarray:
    """Transpose-side instance: a d x d' matrix H for sketching row spaces.

    ``rows`` is the ambient dimension d and ``cols`` the sketch width d'.
    H is the transpose of a ``dvoretzky_gaussian(cols, rows, ...)`` draw, so
    x -> x @ H embeds length-d row vectors.
    """
    return dvoretzky_gaussian(cols, rows, p, seed).T


def dvoretzky_rows_needed(n: int, p: float, eps: float) -> int:
    """Sketch rows sufficient for (1 +- eps) L2-to-Lp distortion in dimension n.

    Evaluates the three-regime bound m(n, p, eps) and returns the applicable
    regime's value, rounded up. The regimes partition eps in
    increasing order: a 1/eps^2 regime for small eps, a 1/eps regime for
    moderate eps up to 1/p, and a (1/eps)^(p/2) log-corrected regime for
    1/p < eps < 1. For p = 1 the first regime covers all of (0, 1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if 1.0 / p < eps:
        m = (n ** (p / 2.0) / (p ** (p / 2.0) * eps ** (p / 2.0))) * math.log(1.0 / eps) ** (p / 2.0)
    else:
        if p == 1.0:
            small_eps_cutoff = math.inf
        else:
            # n^((2-p)/(2(p-1))) can overflow for p just above 1; treat as +inf
            try:
                small_eps_cutoff = p ** (p / 2.0) * n ** (-(p - 2.0) / (2.0 * (p - 1.0)))
            except OverflowError:
                small_eps_cutoff = math.inf
        if eps <= small_eps_cutoff:
            m = p ** p * n / eps ** 2
        else:
            m = (n * p) ** (p / 2.0) / eps
    return max(1, math.ceil(m))


def affine_embedding_cols(k: int, eps: float, delta: float) -> int:
    """Sketch width m = ceil(k^2 / eps^2 * log(1/delta))."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return max(1, math.ceil(k * k / (eps * eps) * math.log(1.0 / delta)))


def affine_embedding(n: int, k: int, eps: float, delta: float, seed: int) -> np.ndarray:
    """Draw a dense Gaussian affine embedding S in R^(n x m).

    m is ``affine_embedding_cols(k, eps, delta)`` and the entries are i.i.d.
    N(0, 1/m). Right-multiplying a rank-k design and its targets by S
    preserves all regression costs up to (1 +- O(eps)) with probability at
    least 1 - delta.

    Parameters
    ----------
    n : int
        Number of coordinates being compressed (columns of the design).
    k : int
        Rank parameter of the designs the embedding must serve.
    eps, delta : float
        Distortion and failure-probability targets; both in (0, 1).
    seed : int
        RNG seed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m = affine_embedding_cols(k, eps, delta)
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, m)) / math.sqrt(m)
