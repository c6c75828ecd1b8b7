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


def two_group_l2_minmax(groups, targets, tol=1e-12):
    """Upper bound within ~tol of min_x max(||A_1 x - b_1||, ||A_2 x - b_2||) over all x.

    Golden-section search on mu in [0, 1] for the concave dual
    g(mu) = min_x (1 - mu) ||A_1 x - b_1||^2 + mu ||A_2 x - b_2||^2, each
    minimiser from ``np.linalg.lstsq`` on the weighted stack. Returns the
    smallest worst-group cost among those minimisers, which is never below
    the optimum.
    """
    (A1, A2), (b1, b2) = groups, targets

    def solve(mu):
        w1, w2 = np.sqrt(1.0 - mu), np.sqrt(mu)
        x = np.linalg.lstsq(np.vstack([w1 * A1, w2 * A2]), np.concatenate([w1 * b1, w2 * b2]), rcond=None)[0]
        f1, f2 = np.sum((A1 @ x - b1) ** 2), np.sum((A2 @ x - b2) ** 2)
        best[0] = min(best[0], np.sqrt(max(f1, f2)))
        return (1.0 - mu) * f1 + mu * f2

    best = [np.inf]
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    ga, gb = solve(a), solve(b)
    while hi - lo > tol:
        if ga < gb:
            lo, a, ga = a, b, gb
            b = lo + ratio * (hi - lo)
            gb = solve(b)
        else:
            hi, b, gb = b, a, ga
            a = hi - ratio * (hi - lo)
            ga = solve(a)
    solve(0.0), solve(1.0)
    return float(best[0])
