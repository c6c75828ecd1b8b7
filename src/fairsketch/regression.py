"""Min-max (socially fair) regression.

The worst-group loss g(x) = max_i ||A_i x - b_i|| is a maximum of norms and
hence convex, so three complementary routes are provided:

* ``stacked_least_squares`` -- the ordinary least-squares solution of the
  stacked system; its worst-group cost is within a factor ell of the
  min-max optimum, which makes it the standard seed for threshold search.
* ``minmax_subgradient`` -- projected subgradient descent on g over the box
  [-delta, delta]^d, with Polyak-style steps driven by a geometrically
  decaying gap estimate.
* feasibility exports -- the question "is max_i ||A_i x - b_i|| <= L
  achievable" written as a linear program (L1) or a quadratically
  constrained program (L2, threshold on the squared cost), emitted in a
  CPLEX-LP-style text format for external solvers.

``binary_search_fair_regression`` shrinks the threshold geometrically from
the stacked seed, consulting a feasibility oracle (by default the
subgradient solver) until it fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grouped import (
    GroupedLabels,
    GroupedMatrix,
    fair_regression_cost,
    fair_regression_group_costs,
)
from .linalg import NumericError, as_vector, pseudoinverse

DELTA_MIN = 1.0
DELTA_MAX = 1e6


class OracleContractError(RuntimeError):
    """A feasibility oracle accepted a threshold its solution does not meet."""


@dataclass(frozen=True)
class RegressionSolution:
    """Solution vector with per-group losses and the driving method tag."""

    x: np.ndarray
    per_group_costs: np.ndarray
    max_cost: float
    iterations: int
    method: str
    norm: str


@dataclass(frozen=True)
class FeasibilityModel:
    """Textual optimization model asking whether a threshold is achievable."""

    text: str
    variable_count: int
    constraint_count: int
    norm: str


def _solution(data, labels, x, iterations, method, norm) -> RegressionSolution:
    costs = fair_regression_group_costs(data, labels, x, norm)
    return RegressionSolution(
        x=np.asarray(x, dtype=np.float64),
        per_group_costs=costs,
        max_cost=float(costs.max()),
        iterations=int(iterations),
        method=method,
        norm=norm,
    )


def stacked_least_squares(data: GroupedMatrix, labels: GroupedLabels) -> RegressionSolution:
    """Least squares on the vertically stacked system.

    The returned vector's worst-group L2 cost is at most ell times the
    min-max optimum for ell groups.
    """
    labels.validate_against(data)
    x = pseudoinverse(data.stacked()) @ labels.stacked()
    return _solution(data, labels, x, 0, "stacked", "l2")


def _group_subgradient(A: np.ndarray, b: np.ndarray, x: np.ndarray, norm: str) -> np.ndarray:
    """Subgradient of x -> ||A x - b|| (zero at an exact L2 fit)."""
    r = A @ x - b
    if norm == "l1":
        return A.T @ np.sign(r)
    nr = float(np.linalg.norm(r))
    return A.T @ (r / nr) if nr > 0.0 else np.zeros(A.shape[1])


def fair_regression_subgradient(data: GroupedMatrix, labels: GroupedLabels, x, norm: str = "l2"):
    """Value and one subgradient of g(x) = max_i ||A_i x - b_i||.

    The subgradient comes from the worst group (smallest index on ties);
    convexity gives g(y) >= g(x) + <s, y - x> for every y.
    """
    x = as_vector(x, "x")
    vals = fair_regression_group_costs(data, labels, x, norm)
    j = int(np.argmax(vals))
    return float(vals[j]), _group_subgradient(data.groups[j], labels.targets[j], x, norm)


def default_box_radius(data: GroupedMatrix, labels: GroupedLabels) -> float:
    """Box radius 10 * (max_i ||b_i|| / sigma_min(stacked A) + 1), clipped."""
    s = np.linalg.svd(data.stacked(), compute_uv=False)
    positive = s[s > 1e-12 * (s[0] if s.size else 1.0)]
    sigma_min = float(positive[-1]) if positive.size else 0.0
    bmax = max(float(np.linalg.norm(b)) for b in labels.targets)
    radius = 10.0 * (bmax / sigma_min + 1.0) if sigma_min > 0.0 else DELTA_MAX
    return float(np.clip(radius, DELTA_MIN, DELTA_MAX))


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / np.arange(1, v.size + 1) > 0)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1), 0.0)


def _min_norm_in_hull(gradients: np.ndarray) -> np.ndarray:
    """Shortest vector in the convex hull of the rows (tiny projected-gradient QP)."""
    m = gradients.shape[0]
    if m == 1:
        return gradients[0]
    Q = gradients @ gradients.T
    lam = np.full(m, 1.0 / m)
    lipschitz = 2.0 * np.linalg.norm(Q, 2) + 1e-30
    for _ in range(300):
        lam = _project_simplex(lam - (2.0 / lipschitz) * (Q @ lam))
    return gradients.T @ lam


def minmax_subgradient(
    data: GroupedMatrix,
    labels: GroupedLabels,
    norm: str = "l2",
    eps: float = 1e-5,
    max_iters: int = 6000,
    box_delta: Optional[float] = None,
    x0=None,
) -> RegressionSolution:
    """Projected subgradient descent on the worst-group loss.

    The main loop takes Polyak-style steps, (g(x) - target) / ||s||^2 along
    the worst group's subgradient, with target = best value seen minus a gap
    estimate. Whenever 40 consecutive steps fail to improve, the gap halves
    and a polish step runs from the incumbent: the shortest vector in the
    convex hull of the near-active groups' subgradients gives the steepest
    descent direction for the max, and an exact ternary line search walks it
    (plain Polyak steps crawl when tied groups have nearly antiparallel
    gradients, so this polish is what reaches tight tolerances on degenerate
    valleys). The run stops once the gap estimate falls below eps/8.
    Iterates stay inside the box [-box_delta, box_delta]^d (radius from
    ``default_box_radius`` if unset). Returns the best iterate encountered.
    """
    labels.validate_against(data)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    delta = float(box_delta) if box_delta is not None else default_box_radius(data, labels)
    if delta <= 0:
        raise ValueError(f"box radius must be positive, got {delta}")

    x = np.clip(as_vector(x0, "x0"), -delta, delta) if x0 is not None else np.zeros(data.d)
    if x.shape[0] != data.d:
        raise ValueError(f"x0 has length {x.shape[0]}, expected {data.d}")

    def max_cost(at: np.ndarray) -> float:
        return float(np.max(fair_regression_group_costs(data, labels, at, norm)))

    def line_search(origin: np.ndarray, direction: np.ndarray, f0: float) -> tuple:
        lo, hi = 0.0, 2.0 * delta
        for _ in range(80):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            p1 = np.clip(origin + m1 * direction, -delta, delta)
            p2 = np.clip(origin + m2 * direction, -delta, delta)
            if max_cost(p1) <= max_cost(p2):
                hi = m2
            else:
                lo = m1
        point = np.clip(origin + 0.5 * (lo + hi) * direction, -delta, delta)
        value = max_cost(point)
        return (point, value) if value < f0 else (origin, f0)

    f_best = max_cost(x)
    x_best = x.copy()
    gamma = max(f_best / 2.0, 1e-12)
    stall = 0
    steps = 0
    for steps in range(1, max_iters + 1):
        costs = fair_regression_group_costs(data, labels, x, norm)
        f = float(costs.max())
        if f < f_best - 1e-14:
            f_best, x_best = f, x.copy()
            stall = 0
        else:
            stall += 1
            if stall >= 40:
                best_costs = fair_regression_group_costs(data, labels, x_best, norm)
                active = np.nonzero(best_costs >= f_best - max(1e-10, 0.01 * gamma))[0]
                v = _min_norm_in_hull(np.array([
                    _group_subgradient(data.groups[j], labels.targets[j], x_best, norm) for j in active
                ]))
                nv = float(np.linalg.norm(v))
                if nv > 1e-14:
                    x_best, f_best = line_search(x_best, -v / nv, f_best)
                x = x_best.copy()
                gamma /= 2.0
                stall = 0
                if gamma < eps / 8.0:
                    break
                continue
        j = int(np.argmax(costs))
        s = _group_subgradient(data.groups[j], labels.targets[j], x, norm)
        ns = float(s @ s)
        if ns <= 1e-30:
            break  # zero subgradient: x is optimal for the active group
        target = max(0.0, f_best - gamma)
        x = np.clip(x - ((f - target) / ns) * s, -delta, delta)
        if not np.all(np.isfinite(x)):
            raise NumericError(
                f"subgradient iterate diverged at step {steps} (f={f:.3e}, gamma={gamma:.3e})"
            )
    return _solution(data, labels, x_best, steps, "subgradient", norm)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _terms(coeffs, names) -> str:
    """Signed terms "c1 n1 - c2 n2 + ...", with no leading "+ "."""
    joined = " ".join(f"{'-' if c < 0 else '+'} {_fmt(abs(c))} {name}" for c, name in zip(coeffs, names))
    return joined[2:] if joined.startswith("+ ") else joined


def _feasibility_model(data, labels, L, norm: str, constraints) -> FeasibilityModel:
    """The model around the rows ``constraints(xnames)`` yields.

    Checks the threshold, then writes the header, the objective (the sum of
    the x's for L1, of their squares for squared L2), the constraints and free
    bounds on the x's. L1 adds one slack variable per observation.
    """
    labels.validate_against(data)
    if L < 0:
        raise ValueError(f"threshold must be non-negative, got {L}")
    squared = norm == "l2"
    xnames = [f"x{j + 1}" for j in range(data.d)]
    rows = list(constraints(xnames))
    objective = _terms(np.ones(data.d), [f"{x} ^2" if squared else x for x in xnames])
    lines = [
        f"\\ min-max {'squared-' if squared else ''}{norm.upper()} feasibility model, threshold {_fmt(L)}",
        "\\ feasible exactly when the threshold is at least the "
        f"{'squared ' if squared else ''}optimal worst-group {norm.upper()} cost",
        "Minimize",
        f" obj: [ {objective} ]" if squared else f" obj: {objective}",
        "Subject To",
        *rows,
        "Bounds",
        *(f" {x} free" for x in xnames),
        "End",
    ]
    return FeasibilityModel(
        text="\n".join(lines) + "\n",
        variable_count=data.d + (0 if squared else data.total_rows),
        constraint_count=len(rows),
        norm=norm,
    )


def export_l1_feasibility(data: GroupedMatrix, labels: GroupedLabels, L: float) -> FeasibilityModel:
    """LP asking whether max_i ||A_i x - b_i||_1 <= L is achievable.

    Variables are x1..xd plus one slack t_<i>_<j> per observation; the four
    constraint families bound each residual by its slack from above and
    below, force slacks non-negative, and cap each group's slack total by L.
    The objective is the constant-role sum of the x's; only feasibility
    matters. Groups and rows are emitted in ascending order.
    """

    def constraints(xnames):
        for i, (A, b) in enumerate(zip(data.groups, labels.targets), start=1):
            for j in range(A.shape[0]):
                t = f"t_{i}_{j + 1}"
                row = _terms(A[j], xnames)
                yield f" up_{i}_{j + 1}: {row} - 1 {t} <= {_fmt(b[j])}"
                yield f" lo_{i}_{j + 1}: {row} + 1 {t} >= {_fmt(b[j])}"
                yield f" pos_{i}_{j + 1}: 1 {t} >= 0"
        for i, A in enumerate(data.groups, start=1):
            tnames = [f"t_{i}_{j + 1}" for j in range(A.shape[0])]
            yield f" grp_{i}: " + _terms(np.ones(len(tnames)), tnames) + f" <= {_fmt(L)}"

    return _feasibility_model(data, labels, L, "l1", constraints)


def export_l2_feasibility(data: GroupedMatrix, labels: GroupedLabels, L: float) -> FeasibilityModel:
    """Quadratically constrained model for max_i ||A_i x - b_i||_2^2 <= L.

    One quadratic constraint per group:
    x^T (A_i^T A_i) x - 2 <A_i x, b_i> + ||b_i||^2 <= L, rearranged with the
    constant on the right-hand side. Quadratic terms are ordered by
    (row, col) with row <= col; the x^T x objective plays no feasibility
    role. Feasible exactly when L is at least the squared min-max optimum.
    """

    def constraints(xnames):
        d = len(xnames)
        pairs = [(r, c) for r in range(d) for c in range(r, d)]
        products = [f"{xnames[r]} ^2" if r == c else f"{xnames[r]} * {xnames[c]}" for r, c in pairs]
        for i, (A, b) in enumerate(zip(data.groups, labels.targets), start=1):
            Q = A.T @ A
            quad = _terms([Q[r, c] if r == c else 2.0 * Q[r, c] for r, c in pairs], products)
            lin = _terms(-2.0 * (A.T @ b), xnames)
            lin = lin if lin.startswith("- ") else "+ " + lin
            yield f" q_{i}: [ {quad} ] {lin} <= {_fmt(float(L) - float(b @ b))}"

    return _feasibility_model(data, labels, L, "l2", constraints)


def binary_search_fair_regression(
    data: GroupedMatrix,
    labels: GroupedLabels,
    norm: str = "l2",
    eps: float = 0.05,
    oracle: Optional[Callable[[float], Optional[np.ndarray]]] = None,
) -> RegressionSolution:
    """Threshold search: shrink L by (1 + eps) while it stays feasible.

    L starts at the stacked-least-squares worst-group cost. An oracle call
    at threshold L must return an x with cost at most L * (1 + eps/4) (the
    default runs the subgradient solver, warm-started from the previous
    accept) or None; a returned x that misses its threshold raises
    OracleContractError. At most ceil(log_{1+eps}(ell)) + 2 shrink steps are
    attempted, which suffices to walk the ell-approximation seed down to a
    (1 + eps)-approximation.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    seed_sol = stacked_least_squares(data, labels)
    x_best = seed_sol.x
    level = fair_regression_cost(data, labels, x_best, norm)
    slack = 1.0 + eps / 4.0

    state = {"x": x_best, "best_x": x_best, "best_cost": level}

    def default_oracle(thr: float) -> Optional[np.ndarray]:
        inner_eps = max(1e-9, thr * eps / 20.0)
        sol = minmax_subgradient(data, labels, norm=norm, eps=inner_eps, x0=state["x"])
        if sol.max_cost < state["best_cost"]:
            state["best_x"], state["best_cost"] = sol.x, sol.max_cost
        if sol.max_cost <= thr * slack:
            state["x"] = sol.x
            return sol.x
        return None

    probe = oracle if oracle is not None else default_oracle
    cap = math.ceil(math.log(max(data.ell, 2)) / math.log1p(eps)) + 2
    shrinks = 0
    tol = 1e-9 * max(level, 1.0)
    for _ in range(cap):
        candidate_level = level / (1.0 + eps)
        x_cand = probe(candidate_level)
        if x_cand is None:
            break
        x_cand = as_vector(x_cand, "oracle solution")
        achieved = fair_regression_cost(data, labels, x_cand, norm)
        if achieved > candidate_level * slack + tol:
            raise OracleContractError(
                f"oracle accepted threshold {candidate_level:.6g} with cost {achieved:.6g}"
            )
        x_best, level = x_cand, candidate_level
        shrinks += 1
    if oracle is None and state["best_cost"] < fair_regression_cost(data, labels, x_best, norm):
        # a failed probe may still have found a strictly better point; keep it
        x_best = state["best_x"]
    return _solution(data, labels, x_best, shrinks, "binary-search", norm)
