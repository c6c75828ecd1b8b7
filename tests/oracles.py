"""Independent oracles shared by the test suite.

Everything here deliberately avoids the library's own code paths: grid
search for min-max regression optima, direct enumeration for column
selection, and plain numpy summation for norms. Test expectations are
computed with these, never with the functions under test.
"""

from __future__ import annotations

import numpy as np


def grid_minmax_regression(groups, targets, norm="l2", radius=4.0, points=201, levels=6, zoom=8.0):
    """Refined dense-grid minimum of max_i ||A_i x - b_i|| over [-radius, radius]^d, d in {1, 2}.

    Starts from a [-radius, radius]^d grid and zooms around the incumbent
    ``levels`` times, each window clipped to the starting box; the returned
    value is an upper bound on the optimum in the box that tightens
    geometrically with each level.
    """
    d = groups[0].shape[1]
    assert d in (1, 2), "grid oracle supports d in {1, 2}"
    lo = np.full(d, -float(radius))
    hi = np.full(d, float(radius))
    best_val, best_x = np.inf, np.zeros(d)
    for _ in range(levels):
        axes = [np.linspace(lo[j], hi[j], points) for j in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        P = np.stack([m.ravel() for m in mesh])  # d x N
        vals = None
        for A, b in zip(groups, targets):
            R = A @ P - np.asarray(b).reshape(-1, 1)
            v = np.abs(R).sum(axis=0) if norm == "l1" else np.sqrt((R * R).sum(axis=0))
            vals = v if vals is None else np.maximum(vals, v)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_x = float(vals[i]), P[:, i].copy()
        span = (hi - lo) / (points - 1) * zoom
        lo, hi = np.maximum(best_x - span, -radius), np.minimum(best_x + span, radius)
    return best_val, best_x


def grid_minmax_regression_nd(groups, targets, center, radius, norm="l2", points=41, levels=4, zoom=4.0):
    """Refined grid oracle over the box center +- radius, for up to 3 dimensions.

    Each refined window is clipped to that box.
    """
    d = groups[0].shape[1]
    low = np.asarray(center, dtype=float) - radius
    high = np.asarray(center, dtype=float) + radius
    lo, hi = low, high
    best_val, best_x = np.inf, np.asarray(center, dtype=float)
    for _ in range(levels):
        axes = [np.linspace(lo[j], hi[j], points) for j in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        P = np.stack([m.ravel() for m in mesh])
        vals = None
        for A, b in zip(groups, targets):
            R = A @ P - np.asarray(b).reshape(-1, 1)
            v = np.abs(R).sum(axis=0) if norm == "l1" else np.sqrt((R * R).sum(axis=0))
            vals = v if vals is None else np.maximum(vals, v)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_x = float(vals[i]), P[:, i].copy()
        span = (hi - lo) / (points - 1) * zoom
        lo, hi = np.maximum(best_x - span, low), np.minimum(best_x + span, high)
    return best_val, best_x


def exhaustive_css(groups, k):
    """Independent brute-force column selection using lstsq, not pinv."""
    from itertools import combinations

    d = groups[0].shape[1]
    best = (np.inf, None)
    for subset in combinations(range(d), k):
        idx = list(subset)
        worst = 0.0
        for A in groups:
            M, *_ = np.linalg.lstsq(A[:, idx], A, rcond=None)
            worst = max(worst, float(np.linalg.norm(A[:, idx] @ M - A, "fro")))
        if worst < best[0]:
            best = (worst, subset)
    return best


def random_matrix(rng, n, d, rank=None):
    """Random dense matrix, optionally with exact rank deficiency."""
    if rank is None or rank >= min(n, d):
        return rng.standard_normal((n, d))
    return rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))


def random_grouped(rng, ell, d, max_rows=4):
    """Random grouped arrays plus targets (plain lists, no library types)."""
    groups = [rng.standard_normal((int(rng.integers(1, max_rows + 1)), d)) for _ in range(ell)]
    targets = [rng.standard_normal(g.shape[0]) for g in groups]
    return groups, targets
