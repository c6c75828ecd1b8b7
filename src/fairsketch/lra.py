"""Min-max fair low-rank approximation.

Every solver here sees the data only through the cached thin-QR factors of
``GroupedMatrix`` (``r_factors``, the zero-padded (ell, d, d) stack of
per-group factors, and ``stacked_r`` for the stacked rows), so after one
O(n d^2) reduction per grouped matrix a solve costs O(ell d^3), independent
of the row count n, and touches every group in batched numpy calls. The
Eckart-Young bound reads the cached per-group spectrum ``tail_energies``.
Three solvers share this module:

* ``svd_baseline`` -- the standard (group-blind) top-k right singular factor
  of the stacked data, the comparison point for everything else.
* ``bicriteria_fair_lra`` -- the randomized sketch-and-solve pipeline: embed
  the stacked data with scaled Gaussians on both sides, compress rows with
  an Lp Lewis-weight sampler, and read off the right factor from a small
  pseudoinverse. By rotational invariance a Gaussian G times the stacked rows
  A = Q R has the law of a Gaussian Z with d columns times R, so the sketch
  draws Z and multiplies ``stacked_r``. Polynomial time; the output rank is
  governed by the row sample count rather than k itself.
* ``binary_search_fair_lra`` -- a guess-and-verify driver that geometrically
  shrinks a feasibility threshold and checks each one by calling
  ``alternating_feasibility``, a smoothed min-max heuristic. The heuristic is
  not a certified decision procedure, so the driver inherits no optimality
  guarantee; it never returns anything worse than its starting factor.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grouped import GroupedMatrix, fair_lra_cost
from .linalg import best_rank_k, numerical_rank, orthonormal_rows, pseudoinverse
from .sampling import lewis_sampling_matrix, lewis_weights
from .sketch import dvoretzky_gaussian, dvoretzky_right_embedding


@dataclass
class BicriteriaConfig:
    """Knobs for the sketching pipeline.

    ``lewis_samples`` is the row budget of the Lewis sampler and therefore
    the rank budget of the returned factor; it defaults to k so the output
    is directly comparable to the rank-k baseline. The sketch exponent is
    ``p`` when given, else max(1, round(ln(ell) / 2)) for ell groups: 1 up to
    ell = 20 and 2 from ell = 21 to 148. ``repeats`` reruns the pipeline and
    keeps the cheapest solution.
    """

    k: int
    p: Optional[float] = None
    g_rows: int = 30
    h_cols: int = 30
    lewis_samples: Optional[int] = None
    seed: int = 0
    repeats: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.p is not None and self.p < 1:
            raise ValueError(f"p override must be >= 1, got {self.p}")
        if min(self.g_rows, self.h_cols) < 1:
            raise ValueError("sketch dimensions must be >= 1")
        if self.lewis_samples is not None and self.lewis_samples < 1:
            raise ValueError(f"lewis_samples must be >= 1, got {self.lewis_samples}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")

    def exponent(self, ell: int) -> float:
        if self.p is not None:
            return float(self.p)
        return float(max(1, round(math.log(max(ell, 2)) / 2)))

    def sample_count(self) -> int:
        return self.lewis_samples if self.lewis_samples is not None else self.k


@dataclass(frozen=True)
class FairLraSolution:
    """Right factor with diagnostics.

    ``v_tilde`` has orthonormal rows spanning the solution subspace (a single
    zero row for all-zero data); ``t`` is its rank. ``cost`` is the unsquared
    worst-group residual. ``t_rows`` is the number of rows the Lewis sampler
    drew (0 when no sketch ran: all-zero data and the binary-search driver)
    and ``p`` the sketch exponent (0 from the binary-search driver).
    """

    v_tilde: np.ndarray
    t: int
    cost: float
    t_rows: int
    p: float


def svd_baseline(data: GroupedMatrix, k: int) -> np.ndarray:
    """Group-blind top-k right singular factor of the vertically stacked data.

    Computed from ``stacked_r``, whose right singular vectors and singular
    values are those of the stacked rows.
    """
    if k > data.d:
        raise ValueError(f"k={k} exceeds feature count {data.d}")
    return best_rank_k(data.stacked_r, k)


def spawn_seeds(seed: int, count: int) -> list:
    """``count`` independent integer seeds derived from ``seed``."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def _pipeline_once(A: np.ndarray, p: float, cfg: BicriteriaConfig, seed: int) -> tuple[np.ndarray, int, dict]:
    """One pipeline run on an R factor of the stacked data: raw factor, sampled rows, phase times.

    ``A`` has at most d rows; G*A has the law of the same scaled Gaussian
    sketch applied to the raw stacked rows.
    """
    n, d = A.shape
    seeds = spawn_seeds(seed, 4)

    t0 = time.perf_counter()
    G = dvoretzky_gaussian(cfg.g_rows, n, p, seeds[0])
    H = dvoretzky_right_embedding(d, cfg.h_cols, p, seeds[1])
    GA = G @ A
    GAH = GA @ H
    w = lewis_weights(GAH, p)
    sampler = lewis_sampling_matrix(w, cfg.sample_count(), seeds[3])
    sketched_design = sampler.apply(GAH)
    sketched_target = sampler.apply(GA)
    t1 = time.perf_counter()

    v_raw = pseudoinverse(sketched_design) @ sketched_target
    t2 = time.perf_counter()
    return v_raw, sampler.sample_count, {"time_total": t2 - t0, "time_extract": t2 - t1}


def bicriteria_fair_lra(data: GroupedMatrix, cfg: BicriteriaConfig) -> FairLraSolution:
    """Randomized bicriteria solver; see the module docstring for the pipeline."""
    sol, _ = bicriteria_fair_lra_timed(data, cfg)
    return sol


def bicriteria_fair_lra_timed(data: GroupedMatrix, cfg: BicriteriaConfig) -> tuple[FairLraSolution, dict]:
    """Like ``bicriteria_fair_lra`` but also reports phase wall times.

    ``time_total`` covers the sketch, the Lewis sampling and the factor
    extraction; ``time_extract`` is the extraction alone. Neither covers the
    R-factor reduction of the data, the orthonormalisation of the factor or
    the cost evaluation. With repeats the times accumulate over runs. A k
    above the feature count is rejected before any sketch runs.
    """
    if cfg.k > data.d:
        raise ValueError(f"k={cfg.k} exceeds feature count {data.d}")
    A = data.stacked_r
    p = cfg.exponent(data.ell)
    total = {"time_total": 0.0, "time_extract": 0.0}
    if not np.any(A):
        zero = np.zeros((1, data.d))
        return FairLraSolution(v_tilde=zero, t=0, cost=0.0, t_rows=0, p=p), total

    best: Optional[FairLraSolution] = None
    for rs in spawn_seeds(cfg.seed, cfg.repeats):
        v_raw, t_rows, times = _pipeline_once(A, p, cfg, rs)
        v_tilde = orthonormal_rows(v_raw)
        t = v_tilde.shape[0]
        if t == 0:
            v_tilde = np.zeros((1, data.d))
        cost = fair_lra_cost(data, v_tilde)
        for phase in total:
            total[phase] += times[phase]
        if best is None or cost < best.cost:
            best = FairLraSolution(v_tilde=v_tilde, t=t, cost=cost, t_rows=t_rows, p=p)
    assert best is not None
    return best, total


def alternating_feasibility(
    data: GroupedMatrix,
    k: int,
    alpha: float,
    seed: int = 0,
) -> Optional[np.ndarray]:
    """Heuristic feasibility oracle: find a rank-k factor with cost <= alpha.

    Starts from the stacked-SVD factor and alternates closed-form weighted
    truncated-SVD rounds, weighting each group by softmax(beta * cost) with
    beta = 10/alpha. Because the weighted closed-form step can only produce
    eigenspaces of group-covariance mixtures, it stalls on instances whose
    min-max optimum mixes directions across groups; the remaining budget is
    therefore spent on projected smoothed-max descent over the subspace with
    annealed random restarts: at most 25 closed-form rounds, then 4 restarts
    of 43 descent steps. Returns the first factor meeting the threshold, or
    None if the budget is exhausted above it.
    """
    if alpha < 0:
        return None
    alpha_sq = float(alpha) ** 2
    R = data.r_factors
    covs = np.swapaxes(R, 1, 2) @ R
    totals = np.sum(R * R, axis=(1, 2))
    scale = float(totals.max())
    beta = 10.0 / max(alpha_sq, 1e-12 * max(scale, 1.0))

    def costs_sq(Q: np.ndarray) -> np.ndarray:
        return totals - np.einsum("lij,ij->l", Q @ covs, Q)

    V = svd_baseline(data, k)
    best_V, best_cost = V, float(costs_sq(V).max())
    if best_cost <= alpha_sq + 1e-12 * max(scale, 1.0):
        return best_V

    for _ in range(25):
        c = costs_sq(V)
        m = float(c.max())
        if m < best_cost:
            best_cost, best_V = m, V
        if best_cost <= alpha_sq:
            return best_V
        w = np.exp(beta * (c - m))
        w /= w.sum()
        V_next = best_rank_k((np.sqrt(w)[:, None, None] * R).reshape(-1, data.d), k)
        if np.allclose(V_next @ V.T @ V @ V_next.T, np.eye(k), atol=1e-12):
            break  # same subspace; the closed-form step has stalled
        V = V_next

    rng = np.random.default_rng(seed)
    for r in range(4):
        init = best_V + (0.05 * 3.0 ** r) * rng.standard_normal(best_V.shape)
        Q = orthonormal_rows(init)
        for t in range(43):
            c = costs_sq(Q)
            m = float(c.max())
            if m < best_cost:
                best_cost, best_V = m, Q
            if best_cost <= alpha_sq:
                return best_V
            w = np.exp(beta * (c - m))
            w /= w.sum()
            M = np.tensordot(w, covs, axes=1)
            G = Q @ M
            T = G - (G @ Q.T) @ Q
            nrm = float(np.linalg.norm(T))
            step = 0.4 / (1.0 + t / 30.0)
            noise = 0.05 * 0.93 ** t * rng.standard_normal(Q.shape)
            Q = orthonormal_rows(Q + (step * T / nrm if nrm > 1e-14 else 0.0) + noise)
        c_final = float(costs_sq(Q).max())
        if c_final < best_cost:
            best_cost, best_V = c_final, Q
    return best_V if best_cost <= alpha_sq else None


def binary_search_fair_lra(data: GroupedMatrix, k: int, eps: float, seed: int = 0) -> FairLraSolution:
    """Shrink a feasibility threshold geometrically and keep the best factor.

    Starts from the stacked-SVD baseline cost alpha0, which any shared factor
    can match, and divides by (1 + eps) while ``alternating_feasibility``,
    with per-call derived seeds, keeps producing factors; stops at the first
    failure or after ceil(log(1e9) / log1p(eps)) calls, by which the
    threshold has shrunk about 1e9-fold. The baseline is the best factor
    until a cheaper one turns up, so it is returned when none does.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    best_V = svd_baseline(data, k)
    alpha = best_cost = fair_lra_cost(data, best_V)
    if alpha > 0.0:
        for call in range(math.ceil(math.log(1e9) / math.log1p(eps))):
            V = alternating_feasibility(data, k, alpha, seed=seed + 7919 * call)
            if V is None:
                break
            cost = fair_lra_cost(data, V)
            if cost < best_cost:
                best_cost, best_V = cost, V
            alpha /= 1.0 + eps
    return FairLraSolution(v_tilde=best_V, t=numerical_rank(best_V), cost=best_cost, t_rows=0, p=0.0)


def eckart_young_lower_bound(data: GroupedMatrix, k: int) -> float:
    """max_i (group-i tail energy past rank k): a certified fair-cost lower bound.

    Any shared rank-k factor serves each group no better than that group's own
    optimal factor, so no fair solution can cost less. Read from the cached
    ``data.tail_energies``; a k at or above d gives 0.
    """
    return math.sqrt(float(data.tail_energies[:, min(k, data.d)].max()))
