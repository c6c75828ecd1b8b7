"""Min-max fair column subset selection.

The bicriteria selector reuses the fair low-rank factor as a surrogate right
factor: columns whose leverage within that factor is high are the columns
worth keeping. Sampling by those column leverage scores (capped at a
k * log k budget) yields the selected set; the reconstruction factors come
from restricting the factor's projector to the kept columns, with an
optional per-group least-squares refit that can only reduce cost.

``brute_force_css`` enumerates every k-subset and is the desk-scale oracle
the randomized selector is validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .grouped import GroupedMatrix, fair_css_cost
from .linalg import pseudoinverse
from .lra import BicriteriaConfig, bicriteria_fair_lra, spawn_seeds
from .sampling import leverage_sampling_matrix, leverage_scores

MAX_SUBSETS = 100_000  # largest C(d, k) that brute_force_css will enumerate


@dataclass(frozen=True)
class CssSolution:
    """Selected column indices with per-group reconstruction factors."""

    indices: tuple
    factors: tuple
    cost: float


def css_budget(k: int) -> int:
    """Column budget ceil(k * log(k + 1))."""
    return max(1, math.ceil(k * math.log(k + 1.0)))


def bicriteria_fair_css(data: GroupedMatrix, cfg: BicriteriaConfig, refit: bool = False) -> CssSolution:
    """Randomized bicriteria column selection.

    Runs the fair low-rank pipeline, samples columns of the resulting factor
    by their leverage scores (independent inclusion, probability
    min(1, score * log d)), and caps the draw at ``css_budget(cfg.k)``
    columns, keeping the highest-leverage sampled columns when over budget.
    The draw is ``leverage_sampling_matrix``'s; when it keeps no column, the
    highest-leverage column is selected. With ``refit`` each
    group's factor is replaced by its own least-squares fit onto the selected
    columns, pinv(R_i[:, S]) R_i, which equals pinv(A_i[:, S]) A_i because
    A_i = Q_i R_i with orthonormal Q_i.
    """
    lra_sol = bicriteria_fair_lra(data, cfg)
    v_tilde = lra_sol.v_tilde
    budget = css_budget(cfg.k)

    if lra_sol.t == 0 or not np.any(v_tilde):
        # degenerate factor: any index set reconstructs the zero data exactly
        idx = np.arange(min(budget, data.d))
        factors = tuple(np.zeros((idx.size, data.d)) for _ in range(data.ell))
        return CssSolution(indices=tuple(int(i) for i in idx), factors=factors, cost=0.0)

    col_scores = leverage_scores(v_tilde.T)
    # child number cfg.repeats of the seed: the pipeline's repeats use the children before it
    idx = leverage_sampling_matrix(col_scores, spawn_seeds(cfg.seed, cfg.repeats + 1)[-1]).indices
    if idx.size == 0:
        idx = np.array([int(np.argmax(col_scores.scores))])
    if idx.size > budget:
        top = np.argsort(-col_scores.scores[idx], kind="stable")[:budget]
        idx = np.sort(idx[top])

    if refit:
        factors = tuple(pseudoinverse(R[:, idx]) @ R for R in data.r_factors)
    else:
        projector_rows = v_tilde[:, idx].T @ v_tilde  # rows idx of V^T V, as V has orthonormal rows
        factors = tuple(projector_rows.copy() for _ in range(data.ell))
    cost = fair_css_cost(data, idx, factors)
    return CssSolution(indices=tuple(int(i) for i in idx), factors=factors, cost=cost)


def brute_force_css(data: GroupedMatrix, k: int) -> CssSolution:
    """Exhaustive k-column oracle with optimal per-group factors, fitted on R_i.

    Ties are broken toward the lexicographically smallest index set. Refuses
    instances with more than ``MAX_SUBSETS`` candidate subsets.
    """
    if not 1 <= k <= data.d:
        raise ValueError(f"k must be in [1, {data.d}], got {k}")
    if math.comb(data.d, k) > MAX_SUBSETS:
        raise ValueError(
            f"C({data.d}, {k}) = {math.comb(data.d, k)} exceeds the {MAX_SUBSETS} subset budget"
        )
    best_idx: Optional[tuple] = None
    best_factors: Optional[tuple] = None
    best_cost = math.inf
    for subset in combinations(range(data.d), k):
        idx = np.array(subset, dtype=int)
        factors = tuple(pseudoinverse(R[:, idx]) @ R for R in data.r_factors)
        cost = fair_css_cost(data, idx, factors)
        if cost < best_cost:
            best_cost, best_idx, best_factors = cost, subset, factors
    assert best_idx is not None and best_factors is not None
    return CssSolution(indices=best_idx, factors=best_factors, cost=best_cost)
