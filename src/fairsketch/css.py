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
from .lra import BicriteriaConfig, bicriteria_fair_lra
from .sampling import _keep_probabilities, leverage_scores

COLUMN_DRAWS = 8  # column draws before the selector gives up on an empty sample
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
    An empty draw is retried with doubled inclusion probabilities; after
    ``COLUMN_DRAWS`` empty draws it raises RuntimeError. With ``refit`` each
    group's factor is replaced by its own least-squares fit onto the selected
    columns.
    """
    if cfg.k > data.d:
        raise ValueError(f"k={cfg.k} exceeds feature count {data.d}")
    lra_sol = bicriteria_fair_lra(data, cfg)
    v_tilde = lra_sol.v_tilde
    budget = css_budget(cfg.k)

    if lra_sol.t == 0 or not np.any(v_tilde):
        # degenerate factor: any index set reconstructs the zero data exactly
        idx = np.arange(min(budget, data.d))
        factors = tuple(np.zeros((idx.size, data.d)) for _ in range(data.ell))
        return CssSolution(indices=tuple(int(i) for i in idx), factors=factors, cost=0.0)

    col_scores = leverage_scores(v_tilde.T)
    base_probs = _keep_probabilities(col_scores.scores)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    idx = np.zeros(0, dtype=int)
    for attempt in range(COLUMN_DRAWS):
        probs = np.minimum(1.0, base_probs * 2.0 ** attempt)
        keep = rng.random(data.d) < probs
        idx = np.flatnonzero(keep)
        if idx.size >= 1:
            break
    if idx.size == 0:
        raise RuntimeError(f"column sampler drew no columns in {COLUMN_DRAWS} attempts")
    if idx.size > budget:
        top = np.argsort(-col_scores.scores[idx], kind="stable")[:budget]
        idx = np.sort(idx[top])

    if refit:
        factors = tuple(pseudoinverse(g[:, idx]) @ g for g in data.groups)
    else:
        projector_rows = (pseudoinverse(v_tilde) @ v_tilde)[idx, :]
        factors = tuple(projector_rows.copy() for _ in range(data.ell))
    cost = fair_css_cost(data, idx, factors)
    return CssSolution(indices=tuple(int(i) for i in idx), factors=factors, cost=cost)


def brute_force_css(data: GroupedMatrix, k: int) -> CssSolution:
    """Exhaustive k-column oracle with optimal per-group factors.

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
        factors = tuple(pseudoinverse(g[:, idx]) @ g for g in data.groups)
        cost = fair_css_cost(data, idx, factors)
        if cost < best_cost:
            best_cost, best_idx, best_factors = cost, subset, factors
    assert best_idx is not None and best_factors is not None
    return CssSolution(indices=best_idx, factors=best_factors, cost=best_cost)
