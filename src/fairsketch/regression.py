"""Min-max (socially fair) regression.

The worst-group loss g(x) = max_i ||A_i x - b_i|| is a maximum of norms and
hence convex, so three complementary routes are provided:

* ``stacked_least_squares`` -- the ordinary least-squares solution of the
  stacked system; its worst-group cost is within a factor ell of the
  min-max optimum, which makes it the standard seed for threshold search.
* ``minmax_subgradient`` -- the direct solver over the box
  [-delta, delta]^d. L2 is solved exactly, as the second-order cone program
  min t s.t. ||R_i [x; -1]|| <= t on the per-group R factors, by a
  log-barrier Newton method that returns a certified duality gap. L1 runs
  projected subgradient descent with Polyak-style steps driven by a
  geometrically decaying gap estimate.
* feasibility exports -- the question "is max_i ||A_i x - b_i|| <= L
  achievable" written as a linear program (L1) or a quadratically
  constrained program (L2, threshold on the squared cost), emitted in a
  CPLEX-LP-style text format for external solvers.

``binary_search_fair_regression`` shrinks the threshold geometrically from
the stacked seed, consulting a feasibility oracle (by default
``minmax_subgradient``) until it fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
BARRIER_GROWTH = 20.0  # tau multiplier per outer barrier step
NEWTON_TOL = 1e-10  # centring ends when the squared Newton decrement is below this
FULL_STEP = 0.25  # squared decrement below which Newton steps are taken whole
INTERIOR = 0.99  # barrier start points are clipped to this fraction of the box
GAP_FLOOR = 1e-9  # below this relative gap the slacks t - ||r_i|| keep too few digits for Newton steps


class OracleContractError(RuntimeError):
    """A feasibility oracle accepted a threshold its solution does not meet."""


@dataclass(frozen=True)
class RegressionSolution:
    """Solution vector with per-group losses and the driving method tag.

    ``gap`` is certified: ``max_cost - gap`` is at most the optimum. It is
    inf where nothing is certified (stacked least squares and L1).
    """

    x: np.ndarray
    per_group_costs: np.ndarray
    max_cost: float
    iterations: int
    method: str
    norm: str
    gap: float


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
        gap=math.inf,
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


def _minmax_l2_barrier(data, labels, eps, max_iters, delta, x0) -> RegressionSolution:
    """min t s.t. ||A_i x - b_i|| <= t, |x_j| < delta, by a log-barrier Newton method.

    Each group enters only through R_i, the thin-QR factor of [A_i b_i]
    (zero-padded to d + 1 rows), since ||A_i x - b_i|| = ||R_i [x; -1]||; a
    Newton step therefore costs O(ell d^3) whatever the row counts. Columns
    are scaled to unit norm and costs to s, the start point's worst-group
    cost (the stacked least-squares seed's unless ``x0`` is given): with
    x = s u / col, the residual over s is r_i = M_i u - beta_i, where M_i and
    beta_i are R_i's scaled design and target columns. Each outer step
    centres tau t - sum_i log(t^2 - ||r_i||^2) - sum_j log(lim_j^2 - u_j^2), the
    box |x_j| < delta in u, by damped Newton steps, then multiplies tau by
    BARRIER_GROWTH (Boyd & Vandenberghe, *Convex Optimization*, ch. 11).

    After each centring a dual point certifies a lower bound on the optimum
    over all x. With w_i = 1/(t^2 - ||r_i||^2), z_i = w_i r_i is moved to the
    nearest point with sum_i M_i^T z_i = 0; by Cauchy-Schwarz, every u then
    has max_i ||M_i u - beta_i|| >= sum_i <z_i, M_i u - beta_i> / sum_i
    max(t w_i, ||z_i||) = -sum_i <z_i, beta_i> / sum_i max(t w_i, ||z_i||).
    The rounding left in sum_i M_i^T z_i is charged against the box. On the
    central path the bound is within nu / tau (nu = 2 (ell + d)) of the cost.
    The run stops once the cost is within ``eps`` of the best bound so far,
    once nu / tau falls below GAP_FLOOR times the cost, or after
    ``max_iters`` Newton steps. When the box cuts off every minimiser the
    gap stays open and the run ends at the floor.
    """
    d, ell = data.d, data.ell
    R = np.zeros((ell, d + 1, d + 1))
    for i, (A, b) in enumerate(zip(data.groups, labels.targets)):
        f = np.linalg.qr(np.column_stack([A, b]), mode="r")
        R[i, : f.shape[0]] = f
    col = np.linalg.norm(R[:, :, :d], axis=(0, 1))
    col[col == 0.0] = 1.0
    M = R[:, :, :d] / col  # unit-norm design columns
    P = pseudoinverse(M.reshape(-1, d))
    seed = P @ R[:, :, d].reshape(-1) / col
    fit = 1e-12 * max(float(np.linalg.norm(R[:, :, d], axis=1).max()), 1.0)

    def worst(x):
        return float(np.linalg.norm(R[:, :, :d] @ x - R[:, :, d], axis=1).max())

    start = seed if x0 is None or worst(seed) <= fit else x0
    start = np.clip(start, -INTERIOR * delta, INTERIOR * delta)
    scale = worst(start)
    if scale <= fit:  # an exact fit: the Newton system would be singular at t = 0
        sol = _solution(data, labels, start, 0, "barrier", "l2")
        return replace(sol, gap=sol.max_cost)  # the trivial bound OPT >= 0

    beta = R[:, :, d] / scale
    lim = delta * col / scale
    u = start * col / scale
    t = 2.0  # twice the start point's scaled worst-group cost
    nu = 2.0 * (ell + d)
    tau = nu / t

    def rise(du, dt):
        """Centring objective at (u + du, t + dt) minus its value at (u, t).

        A sum of log ratios against the current slacks 1/w and box, so that
        it does not cancel against tau * t once tau is large.
        """
        un, tn = u + du, t + dt
        q = tn * tn - np.sum((M @ un - beta) ** 2, axis=1)
        slack = lim * lim - un * un
        if tn <= 0.0 or np.any(q <= 0.0) or np.any(slack <= 0.0):
            return math.inf
        return tau * dt - float(np.sum(np.log(q * w)) + np.sum(np.log(slack / box)))

    steps, stalled, lower = 0, False, -math.inf
    while True:
        previous = math.inf
        while steps < max_iters and not stalled:
            r = M @ u - beta
            w = 1.0 / (t * t - np.sum(r * r, axis=1))
            m = np.einsum("ijk,ij->ik", M, r)  # M_i^T r_i
            box = lim * lim - u * u
            grad = np.append(2.0 * w @ m + 2.0 * u / box, tau - 2.0 * t * w.sum())
            H = np.empty((d + 1, d + 1))
            Ws = (M * np.sqrt(2.0 * w)[:, None, None]).reshape(-1, d)
            H[:d, :d] = Ws.T @ Ws + (m.T * (4.0 * w * w)) @ m + np.diag(2.0 * (lim * lim + u * u) / (box * box))
            H[:d, d] = H[d, :d] = -4.0 * t * (w * w) @ m
            H[d, d] = 2.0 * float(w * w @ (t * t + np.sum(r * r, axis=1)))
            step = np.linalg.solve(H, -grad)
            decrement = -float(grad @ step)
            if decrement <= NEWTON_TOL or decrement >= previous:
                break  # centred, or rounding has overtaken the quadratic convergence
            # Backtrack on the objective while damped; below FULL_STEP, self-concordance keeps
            # the whole step feasible, so only feasibility is checked and rounding cannot stall it.
            target = -0.25 * decrement if decrement > FULL_STEP else math.inf
            previous = math.inf if decrement > FULL_STEP else decrement
            a = 1.0
            while a >= 1e-12 and not rise(a * step[:d], a * step[d]) < a * target:
                a *= 0.5
            steps += 1
            stalled = a < 1e-12  # no descent left at working precision
            if not stalled:
                u, t = u + a * step[:d], t + a * step[d]
        r = M @ u - beta
        w = 1.0 / (t * t - np.sum(r * r, axis=1))
        z = w[:, None] * r
        z -= (P.T @ np.einsum("ijk,ij->k", M, z)).reshape(ell, d + 1)
        residual = np.einsum("ijk,ij->k", M, z)  # zero but for rounding
        weight = float(np.maximum(t * w, np.linalg.norm(z, axis=1)).sum())
        lower = max(lower, (-float(np.sum(z * beta)) - float(lim @ np.abs(residual))) / weight)
        cost = float(np.sqrt(np.max(np.sum(r * r, axis=1))))
        if (cost - lower) * scale <= eps or nu / tau <= GAP_FLOOR * t or steps >= max_iters or stalled:
            break
        tau *= BARRIER_GROWTH

    sol = _solution(data, labels, u * scale / col, steps, "barrier", "l2")
    return replace(sol, gap=max(sol.max_cost - lower * scale, 0.0))


def minmax_subgradient(
    data: GroupedMatrix,
    labels: GroupedLabels,
    norm: str = "l2",
    eps: float = 1e-5,
    max_iters: int = 6000,
    box_delta: Optional[float] = None,
    x0=None,
) -> RegressionSolution:
    """Minimise the worst-group loss over the box [-box_delta, box_delta]^d.

    L2 is solved exactly: a log-barrier Newton method on the per-group R
    factors (``_minmax_l2_barrier``) returns method "barrier", counts Newton
    steps in ``iterations`` and sets ``gap`` to a certified duality gap, so
    that ``max_cost - gap`` is at most the optimum over all x. It stops once
    that gap is at most ``eps``, an absolute cost tolerance, at a precision
    floor near a relative gap of 1e-9, or after ``max_iters`` Newton steps.
    An exact fit inside the box returns at once with no steps.

    L1 runs projected subgradient descent (method "subgradient", gap inf).
    The main loop takes Polyak-style steps, (g(x) - target) / ||s||^2 along
    the worst group's subgradient, with target = best value seen minus a gap
    estimate. Whenever 40 consecutive steps fail to improve, the gap halves
    and a polish step runs from the incumbent: the shortest vector in the
    convex hull of the near-active groups' subgradients gives the steepest
    descent direction for the max, and an exact ternary line search walks it
    (plain Polyak steps crawl when tied groups have nearly antiparallel
    gradients, so this polish is what reaches tight tolerances on degenerate
    valleys). The run stops once the gap estimate falls below eps/8 and
    returns the best iterate encountered.

    Both start from ``x0`` when given (the L2 solver from the stacked seed
    otherwise, the L1 loop from zero) and keep their iterates inside the box,
    whose radius comes from ``default_box_radius`` if unset.
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
    if norm == "l2":
        return _minmax_l2_barrier(data, labels, eps, max_iters, delta, None if x0 is None else x)

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
    at threshold L must return an x with cost at most L * (1 + eps/4) or
    None; a returned x that misses its threshold raises
    OracleContractError. The default oracle runs ``minmax_subgradient``,
    warm-started from the previous accept: for L2 that solve is exact to
    within L * eps / 20, so the first probe already reaches the optimum and
    the search only confirms it; for L1 it is the subgradient loop. At most
    ceil(log_{1+eps}(ell)) + 2 shrink steps are attempted, which suffices to
    walk the ell-approximation seed down to a (1 + eps)-approximation.
    ``gap`` carries the best certificate the default oracle's solves gave
    (inf with a caller's oracle or for L1).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    seed_sol = stacked_least_squares(data, labels)
    x_best = seed_sol.x
    level = fair_regression_cost(data, labels, x_best, norm)
    slack = 1.0 + eps / 4.0

    state = {"x": x_best, "best_x": x_best, "best_cost": level, "lower": -math.inf}

    def default_oracle(thr: float) -> Optional[np.ndarray]:
        inner_eps = max(1e-9, thr * eps / 20.0)
        sol = minmax_subgradient(data, labels, norm=norm, eps=inner_eps, x0=state["x"])
        state["lower"] = max(state["lower"], sol.max_cost - sol.gap)
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
    sol = _solution(data, labels, x_best, shrinks, "binary-search", norm)
    return replace(sol, gap=max(sol.max_cost - state["lower"], 0.0))
