"""Min-max (socially fair) regression.

The worst-group loss g(x) = max_i ||A_i x - b_i|| is a maximum of norms and
hence convex, so three complementary routes are provided:

* ``stacked_least_squares`` -- the ordinary least-squares solution of the
  stacked system; its worst-group cost is within a factor ell of the
  min-max optimum, which makes it the standard seed for threshold search.
* ``minmax_subgradient`` -- the direct solver over the box
  [-delta, delta]^d, exact in both norms and returning a certified duality
  gap. L2 is the second-order cone program min t s.t. ||R_i [x; -1]|| <= t
  on the per-group R factors, solved by a log-barrier Newton method; on two
  groups a safeguarded Newton search on the one-dimensional Lagrange dual
  runs first and hands over to the barrier only when it cannot finish. L1
  is a linear program, solved by Mehrotra's primal-dual interior-point
  method on a (d+1)x(d+1) Schur complement.
* feasibility exports -- the question "is max_i ||A_i x - b_i|| <= L
  achievable" written as a linear program (L1) or a quadratically
  constrained program (L2, threshold on the squared cost), emitted in a
  CPLEX-LP-style text format for external solvers.

``binary_search_fair_regression`` is the paper's guess-and-verify search
over the thresholds L0 / (1 + eps)^j below the stacked seed's cost L0. One
exact ``minmax_subgradient`` solve decides every threshold at once, so the
search takes no oracle and no start point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grouped import (
    GroupedLabels,
    GroupedMatrix,
    fair_regression_cost,
    fair_regression_group_costs,
)
from .linalg import as_vector, pseudoinverse, svd

DELTA_MIN = 1.0
DELTA_MAX = 1e6
BARRIER_GROWTH = 20.0  # tau multiplier per outer barrier step
NEWTON_TOL = 1e-10  # centring ends when the squared Newton decrement is below this
FULL_STEP = 0.25  # squared decrement below which Newton steps are taken whole
INTERIOR = 0.99  # barrier start points are clipped to this fraction of the box
REGULARISE = 1e-14  # shift of K's diagonal, relative to its largest entry, that keeps its pivots positive late in a run
GRAM_ROWS = 512  # rows per block of K's weighted Gram matrix: n x d temporaries fragment the heap
TO_BOUNDARY = 0.99  # interior-point steps go this fraction of the way to the nearest bound s, z >= 0
GAP_FLOOR = 1e-9  # below this relative gap the slacks t - ||r_i|| keep too few digits for Newton steps


@dataclass(frozen=True)
class RegressionSolution:
    """Solution vector with per-group losses and the driving method tag.

    ``gap`` is certified: ``max_cost - gap`` is at most the optimum. It is
    finite for the L1 and L2 solvers and inf only for stacked least squares,
    which certifies nothing.
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


def _solution(data, labels, x, iterations, method, norm, lower) -> RegressionSolution:
    """The solution at x; ``lower`` is a certified lower bound on the optimum (-inf certifies nothing)."""
    costs = fair_regression_group_costs(data, labels, x, norm)
    max_cost = float(costs.max())
    return RegressionSolution(
        x=np.asarray(x, dtype=np.float64),
        per_group_costs=costs,
        max_cost=max_cost,
        iterations=int(iterations),
        method=method,
        norm=norm,
        gap=max(max_cost - lower, 0.0),
    )


def stacked_least_squares(data: GroupedMatrix, labels: GroupedLabels) -> RegressionSolution:
    """Least squares on the vertically stacked system.

    The returned vector's worst-group L2 cost is at most ell times the
    min-max optimum for ell groups. It is solved on the stack of R factors
    of [A_i b_i] (``GroupedLabels.augmented_r``): with [A b] = Q [R_A r_b],
    pinv(A) b = pinv(R_A) r_b, and R_A has A's singular values, so the
    minimum-norm solution and its rank cut are the stacked system's.
    """
    R = labels.augmented_r(data).reshape(-1, data.d + 1)
    x = pseudoinverse(R[:, : data.d]) @ R[:, data.d]
    return _solution(data, labels, x, 0, "stacked", "l2", -math.inf)


def fair_regression_subgradient(data: GroupedMatrix, labels: GroupedLabels, x, norm: str = "l2"):
    """Value and one subgradient of g(x) = max_i ||A_i x - b_i||.

    The subgradient comes from the worst group (smallest index on ties; zero
    at an exact L2 fit); convexity gives g(y) >= g(x) + <s, y - x> for every y.
    """
    x = as_vector(x, "x")
    vals = fair_regression_group_costs(data, labels, x, norm)
    j = int(np.argmax(vals))
    A = data.groups[j]
    r = A @ x - labels.targets[j]
    if norm == "l1":
        return float(vals[j]), A.T @ np.sign(r)
    return float(vals[j]), A.T @ (r / vals[j]) if vals[j] > 0.0 else np.zeros(data.d)


def _box_radius(s: np.ndarray, bmax: float) -> float:
    """10 * (bmax / sigma_min + 1), clipped; sigma_min is the least non-negligible of the descending s."""
    positive = s[s > 1e-12 * (s[0] if s.size else 1.0)]
    sigma_min = float(positive[-1]) if positive.size else 0.0
    radius = 10.0 * (bmax / sigma_min + 1.0) if sigma_min > 0.0 else DELTA_MAX
    return float(np.clip(radius, DELTA_MIN, DELTA_MAX))


def default_box_radius(data: GroupedMatrix, labels: GroupedLabels) -> float:
    """Box radius 10 * (max_i ||b_i|| / sigma_min(stacked A) + 1), clipped.

    Read from ``labels.augmented_r(data)``: with [A_i b_i] = Q_i R_i, the
    stack of R_i's design blocks has the stacked design's singular values,
    and R_i's target column has the norm of b_i.
    """
    R = labels.augmented_r(data)
    s = np.linalg.svd(R[:, :, : data.d].reshape(-1, data.d), compute_uv=False)
    return _box_radius(s, float(np.linalg.norm(R[:, :, data.d], axis=1).max()))


@dataclass(frozen=True)
class _ScaledL2:
    """The L2 problem in the units both of its solvers work in.

    Columns are scaled to unit norm and costs to ``scale``, the worst-group
    cost of ``start``, the stacked least-squares seed clipped into the box:
    with x = scale u / col, the residual over scale is r_i = M_i u - beta_i,
    where M_i and beta_i are R_i's scaled design and target columns, and the
    box |x_j| < delta is |u_j| < lim_j. P is the pseudoinverse of the stacked
    M_i. ``fit`` is the cost below which the start is an exact fit.
    """

    M: np.ndarray
    beta: np.ndarray
    P: np.ndarray
    col: np.ndarray
    lim: np.ndarray
    start: np.ndarray
    scale: float
    fit: float


def _scaled_l2(data, labels, delta) -> _ScaledL2:
    """Column scaling, the clipped start, ``scale`` and the box, from ``labels.augmented_r(data)``.

    A ``delta`` of None is set by ``default_box_radius``, from the same R stack.
    """
    d = data.d
    R = labels.augmented_r(data)
    col = np.linalg.norm(R[:, :, :d], axis=(0, 1))
    col[col == 0.0] = 1.0
    M = R[:, :, :d] / col  # unit-norm design columns
    P = pseudoinverse(M.reshape(-1, d))
    seed = P @ R[:, :, d].reshape(-1) / col
    bmax = float(np.linalg.norm(R[:, :, d], axis=1).max())  # max_i ||b_i||
    if delta is None:
        delta = default_box_radius(data, labels)
    start = np.clip(seed, -INTERIOR * delta, INTERIOR * delta)
    scale = float(np.linalg.norm(R[:, :, :d] @ start - R[:, :, d], axis=1).max())
    unit = scale if scale > 0.0 else 1.0  # an exact fit returns before the scaled problem is read
    return _ScaledL2(M, R[:, :, d] / unit, P, col, delta * col / unit, start, scale, 1e-12 * max(bmax, 1.0))


def _certified_bound(p: _ScaledL2, r: np.ndarray, lam: np.ndarray, t: float) -> float:
    """A lower bound on the scaled optimum from the multipliers ``lam`` >= 0 at residuals r.

    z_i = lam_i r_i is moved to the nearest point with sum_i M_i^T z_i = 0;
    by Cauchy-Schwarz, every u then has max_i ||M_i u - beta_i|| >=
    sum_i <z_i, M_i u - beta_i> / sum_i max(t lam_i, ||z_i||) =
    -sum_i <z_i, beta_i> / sum_i max(t lam_i, ||z_i||). The rounding left in
    sum_i M_i^T z_i is charged against the box. With all z_i zero it
    certifies only OPT >= 0.
    """
    z = lam[:, None] * r
    z -= (p.P.T @ np.einsum("ijk,ij->k", p.M, z)).reshape(z.shape)
    residual = np.einsum("ijk,ij->k", p.M, z)  # zero but for rounding
    weight = float(np.maximum(t * lam, np.linalg.norm(z, axis=1)).sum())
    return (-float(np.sum(z * p.beta)) - float(p.lim @ np.abs(residual))) / weight if weight > 0.0 else 0.0


def _minmax_l2(data, labels, eps, max_iters, delta) -> RegressionSolution:
    """min max_i ||A_i x - b_i|| over the box: the dual search on two groups, else the barrier.

    When the dual search hands over, the barrier runs on the steps that the
    search left unspent.
    """
    p = _scaled_l2(data, labels, delta)
    if p.scale <= p.fit:  # an exact fit: the Newton systems would be singular at zero cost
        return _solution(data, labels, p.start, 0, "barrier", "l2", 0.0)  # the trivial bound OPT >= 0
    spent = 0
    if data.ell == 2:
        sol, spent = _minmax_l2_dual(data, labels, eps, max_iters, p)
        if sol is not None:
            return sol
    return _minmax_l2_barrier(data, labels, eps, max_iters, p, spent)


def _minmax_l2_dual(data, labels, eps, max_iters, p: _ScaledL2):
    """Two groups: a safeguarded Newton search on the Lagrange dual, in ``p``'s units.

    With f_i(u) = ||M_i u - beta_i||^2, min_u max(f_1, f_2) has the concave
    dual max_{mu in [0, 1]} g(mu), g(mu) = min_u (1 - mu) f_1 + mu f_2, and
    no duality gap (Boyd & Vandenberghe, *Convex Optimization*, ch. 5). Its
    minimiser u solves A u = (1 - mu) c_1 + mu c_2 with
    A = (1 - mu) G_1 + mu G_2, G_i = M_i^T M_i and c_i = M_i^T beta_i; one
    Cholesky factor of A gives u, g'(mu) = f_2(u) - f_1(u) and
    g''(mu) = -2 dh^T A^-1 dh with dh = h_2 - h_1, h_i = M_i^T r_i. A bracket
    on the sign of g' safeguards the Newton steps: when the Newton point
    leaves it, the search steps to its midpoint. Each iterate is certified by
    ``_certified_bound`` with lam = (1 - mu, mu); at the dual optimum the
    bound meets the cost.

    Returns (solution, steps). The search stops as the barrier does: once the
    best cost is within ``eps`` of the best bound, at a relative gap of
    GAP_FLOOR, or after ``max_iters`` steps. The solution is None, and the
    barrier must take over, when u leaves the open box, A is singular, or the
    bracket collapses before the gap closes.
    """
    M, beta = p.M, p.beta
    G = np.einsum("ijk,ijl->ikl", M, M)
    c = np.einsum("ijk,ij->ik", M, beta)
    lo, hi, mu = 0.0, 1.0, 0.5  # u(1/2) is the stacked least-squares seed
    steps, lower, cost = 0, -math.inf, math.inf
    while steps < max_iters:
        steps += 1
        lam = np.array([1.0 - mu, mu])
        A = lam[0] * G[0] + lam[1] * G[1]
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            return None, steps
        if L.diagonal().min() ** 2 <= REGULARISE * A.diagonal().max():
            return None, steps  # singular at working precision
        u = np.linalg.solve(L.T, np.linalg.solve(L, lam @ c))
        if not np.all(np.abs(u) < p.lim):
            return None, steps
        r = M @ u - beta
        f = np.sum(r * r, axis=1)
        worst = math.sqrt(float(f.max()))
        if worst < cost:
            cost, best = worst, u
        lower = max(lower, _certified_bound(p, r, lam, 0.0))
        if (cost - lower) * p.scale <= eps or cost - lower <= GAP_FLOOR * cost:
            break
        slope = float(f[1] - f[0])  # g'(mu)
        lo, hi = (mu, hi) if slope > 0.0 else (lo, mu)  # mu is now an end of the bracket
        y = np.linalg.solve(L, np.einsum("jk,j->k", M[1], r[1]) - np.einsum("jk,j->k", M[0], r[0]))
        bend = 2.0 * float(y @ y)  # -g''(mu)
        step = mu + slope / bend if bend > 0.0 else math.nan
        step = step if lo < step < hi else 0.5 * (lo + hi)
        if not lo < step < hi:
            return None, steps  # the bracket has collapsed
        mu = step
    return _solution(data, labels, best * p.scale / p.col, steps, "dual-newton", "l2", lower * p.scale), steps


def _minmax_l2_barrier(data, labels, eps, max_iters, p: _ScaledL2, steps: int) -> RegressionSolution:
    """min t s.t. ||A_i x - b_i|| <= t, |x_j| < delta, by a log-barrier Newton method.

    Each group enters only through R_i, the thin-QR factor of [A_i b_i]
    (zero-padded to d + 1 rows), since ||A_i x - b_i|| = ||R_i [x; -1]||.
    The stack comes from ``labels.augmented_r(data)``, factored once per
    (data, labels) pair, so neither a Newton step nor a repeated solve
    depends on the row counts. The run works in ``p``'s scaled units
    (``_scaled_l2``) and starts from its clipped seed. Each outer step
    centres tau t - sum_i log(t^2 - ||r_i||^2) - sum_j log(lim_j^2 - u_j^2), the
    box |x_j| < delta in u, by damped Newton steps, then multiplies tau by
    BARRIER_GROWTH (Boyd & Vandenberghe, *Convex Optimization*, ch. 11).

    After each centring ``_certified_bound`` certifies a lower bound on the
    optimum from the multipliers w_i = 1/(t^2 - ||r_i||^2). On the central
    path the bound is within nu / tau (nu = 2 (ell + d)) of the cost.
    The run stops once the cost is within ``eps`` of the best bound so far,
    once nu / tau falls below GAP_FLOOR times the cost, or once ``steps``,
    the Newton steps taken plus those already spent by the caller, reaches
    ``max_iters``. When the box cuts off every minimiser the gap stays open
    and the run ends at the floor.
    """
    d, ell = data.d, data.ell
    M, beta, lim = p.M, p.beta, p.lim
    u = p.start * p.col / p.scale
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

    stalled, lower = False, -math.inf
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
        lower = max(lower, _certified_bound(p, r, w, t))
        cost = float(np.sqrt(np.max(np.sum(r * r, axis=1))))
        if (cost - lower) * p.scale <= eps or nu / tau <= GAP_FLOOR * t or steps >= max_iters or stalled:
            break
        tau *= BARRIER_GROWTH

    return _solution(data, labels, u * p.scale / p.col, steps, "barrier", "l2", lower * p.scale)


def _max_step(a: np.ndarray, da: np.ndarray) -> float:
    """Largest alpha in [0, 1] with a + alpha da >= 0, for a > 0."""
    j = (da / a).argmin()  # the nearest bound, if its da is negative
    return min(1.0, float(a[j] / -da[j])) if da[j] < 0.0 else 1.0


def _minmax_l1_ipm(data, labels, eps, max_iters, delta) -> RegressionSolution:
    """min t s.t. ||A_i x - b_i||_1 <= t, |x_k| <= delta, by a primal-dual interior-point method.

    Costs are divided by ``scale``, the worst-group cost of the start point,
    the stacked least-squares seed clipped into the box: beta = b / scale
    and lim = delta / scale. A ``delta`` of None is set as in
    ``default_box_radius``, from the singular values sigma of the one SVD
    below; since sigma is cut at RANK_RTOL, the radius follows the rank the
    solver itself uses. The unknowns are xi, with x = scale T xi: T =
    [V^T / sigma, N] comes from the SVD A = U diag(sigma) V and an
    orthonormal basis N of A's null space. Then A x / scale = M xi with
    M = [U 0]. Its orthonormal columns keep the Newton systems as well
    conditioned as the iterates allow, and the null-space coordinates meet
    only the box.

    The problem is the linear program min t over v = (xi, u, t) s.t.
    G v + s = h, s >= 0. Its slack blocks are u - (M xi - beta) and
    u + (M xi - beta) (one per row), t - sum_{G_i} u_j (one per group) and
    lim - T xi and lim + T xi; z >= 0 are their multipliers. s, z and
    D = z / s are each one vector of these five blocks, read and written
    block by block through views, so no step concatenates or splits them.
    The start is primal feasible, and its multipliers meet every dual
    equation but the one for xi. Each iteration takes Mehrotra's
    predictor-corrector step (*On the Implementation of a Primal-Dual
    Interior Point Method*, 1992): an affine direction, then one aimed at
    sigma mu with sigma = (mu_aff / mu)^3 plus the affine direction's
    second-order term. The primal and the dual step each go TO_BOUNDARY of
    the way to the boundary.

    Both directions solve G^T D G dv = r. Aimed at z ds + s dz = s (x - z),
    r reads only a = D r_p + x, with r_p the primal residual: z cancels
    against the dual residual's G^T z. There the residual bounds u
    couple only through a diagonal plus one rank-one term per group, so
    Sherman-Morrison eliminates them (Portnoy & Koenker, *The Gaussian Hare
    and the Laplacian Tortoise*, 1997). That leaves the (d+1)x(d+1) SPD
    matrix K = sum_j omega_j [m_j; 0][m_j; 0]^T + [T^T diag(D_box) T, 0; 0, 0]
    + sum_i gamma_i [g_i; 1][g_i; 1]^T, with m_j the rows of M,
    e = D_1 + D_2, omega = 4 D_1 D_2 / e, g_i = sum_{G_i} ((D_2 - D_1) / e)_j m_j
    and gamma_i = D_3i / (1 + D_3i sum_{G_i} 1 / e_j). An iteration therefore
    costs one weighted Gram matrix, O(n d^2), and eight passes over n x d
    data: M^T (z_1 - z_2) for the certificate; M times [xi, M^T (z_1 - z_2)]
    in one product, for costs computed afresh, so that the best iterate is
    chosen on exact costs, and the certificate's projection; the
    certificate's A^T y on the raw rows; the g_i; and one M^T and one M
    product per direction, whose M dx gives both du and ds.

    Every iteration certifies a lower bound on the optimum over all x. The
    multiplier difference y = z_2 - z_1, moved to the nearest point with
    U^T y = 0 and so A^T y = 0, gives for every x:
    max_i ||A_i x - b_i||_1 sum_i max_{G_i} |y_j| >= sum_j |y_j (A x - b)_j|
    >= <y, b - A x> = <y, b>. The rounding left in A^T y is charged against
    a ball that holds a minimiser. One lies in A's row space, where
    ||x|| <= ||A x|| / sigma_min, and there ||A x|| <= ||A x - b||_1 + ||b||
    <= ell OPT + ||b|| <= ell max_i ||b_i||_1 + ||b||. (The box would not
    do: when it cuts off every minimiser, y can be all rounding.)

    The run stops once the cost is within ``eps`` of the best bound so far,
    once s^T z falls below GAP_FLOOR times t, or after ``max_iters``
    iterations. Iterates need not descend, so it returns the best one, which
    is never worse than the start.
    """
    d, ell = data.d, data.ell
    b = labels.stacked()
    n = b.size
    rows = [A.shape[0] for A in data.groups]
    starts = np.cumsum([0] + rows[:-1])
    blocks = [slice(a, a + k) for a, k in zip(starts, rows)]
    size = 2 * n + ell + 2 * d
    cut = [0, n, 2 * n, 2 * n + ell, 2 * n + ell + d, size]  # where each block of s and z starts and ends
    parts = [slice(a, c) for a, c in zip(cut[:-1], cut[1:])]

    def per_group(v):
        return np.add.reduceat(v, starts, axis=-1)

    def spread(v):
        """Each group's entry of v, once per row of the group."""
        return np.repeat(v, rows)

    def split(v):
        """The five blocks of a vector laid out like s, as views."""
        return [v[p] for p in parts]

    sv = svd(data.stacked())  # A = U diag(sigma) V up to RANK_RTOL
    if delta is None:
        delta = _box_radius(sv.sigma, max(float(np.linalg.norm(y)) for y in labels.targets))
    null = np.linalg.qr(sv.V.T, mode="complete")[0][:, sv.rank :]  # orthonormal, A null = 0
    T = np.column_stack([sv.V.T / sv.sigma, null])
    M = sv.U if sv.rank == d else np.column_stack([sv.U, np.zeros((n, d - sv.rank))])  # A T = M
    MT = M.T
    fit = 1e-12 * max(float(per_group(np.abs(b)).max()), 1.0)

    seed = T @ (MT @ b)  # the stacked least-squares fit, pinv(A) b
    start = np.clip(seed, -INTERIOR * delta, INTERIOR * delta)
    scale = fair_regression_cost(data, labels, start, "l1")
    if scale <= fit:  # an exact fit, with no cost to scale by
        return _solution(data, labels, start, 0, "interior-point", "l1", 0.0)  # the trivial bound OPT >= 0

    beta, lim = b / scale, np.full(d, delta / scale)
    # the radius of a ball about 0 that holds a minimiser over all x (see the docstring)
    reach = ell * float(per_group(np.abs(beta)).max()) + float(np.linalg.norm(beta))
    reach = reach / float(sv.sigma[-1]) if sv.rank else 0.0

    # u sits the mean residual above |r|, and t that far above the largest group sum of u. The
    # multipliers satisfy every dual equation but the one for xi: each group's z_3 is
    # inversely proportional to its slack, the z_3 sum to 1 and z_1 = z_2 = z_3 / 2; the box's
    # are the rows' mean s z over their slacks.
    xi = np.append(sv.sigma * (sv.V @ start), null.T @ start) / scale  # T^-1 start / scale
    r = M @ xi
    dev = np.abs(r - beta)
    u = dev + dev.mean()
    t = float(per_group(u).max()) + dev.mean()
    Tx = T @ xi
    s = np.concatenate([beta - (r - u), (r + u) - beta, t - per_group(u), lim - Tx, lim + Tx])
    z3 = 1.0 / s[parts[2]]
    z3 /= z3.sum()
    z = np.concatenate([0.5 * spread(z3), 0.5 * spread(z3), z3, np.zeros(2 * d)])
    z[cut[3] :] = float(s[: 2 * n] @ z[: 2 * n]) / (2 * n) / s[cut[3] :]

    lower, steps, cost = 0.0, 0, math.inf
    while True:
        zd = z[:n] - z[n : 2 * n]  # z_1 - z_2
        mz = MT @ zd
        Mxz = M @ np.column_stack([xi, mz])  # M xi and M mz in one pass over M
        rb = Mxz[:, 0] - beta
        latest = float(per_group(np.abs(rb)).max())
        if latest < cost:
            cost, best = latest, xi
        y = Mxz[:, 1] - zd  # z_2 - z_1 moved to U^T y = 0
        weight = float(np.maximum.reduceat(np.abs(y), starts).sum())
        if weight > 0.0:
            residual = sum(A.T @ y[rows_i] for A, rows_i in zip(data.groups, blocks))  # A^T y
            lower = max(lower, (float(beta @ y) - reach * float(np.linalg.norm(residual))) / weight)
        gap = float(s @ z)
        if (cost - lower) * scale <= eps or gap <= GAP_FLOOR * t or steps >= max_iters:
            break
        s1, s2, s3, sp, sm = split(s)
        Tx = T @ xi
        rp = np.empty(size)  # G v + s - h
        rp1, rp2, rp3, rpp, rpm = split(rp)
        np.subtract(rb, u, out=rp1)
        rp1 += s1
        np.subtract(s2, u, out=rp2)
        rp2 -= rb
        rp3[:] = per_group(u) - t + s3
        rpp[:], rpm[:] = Tx + sp - lim, sm - Tx - lim
        inv = 1.0 / s
        D = z * inv
        Drp = D * rp
        D1, D2, D3, Dp, Dm = split(D)
        e, f = D1 + D2, D2 - D1
        ie = 1.0 / e
        gamma = D3 / (1.0 + D3 * per_group(ie))
        omega, fe = 4.0 * D1 * D2 * ie, f * ie
        K, g = np.zeros((d + 1, d + 1)), np.empty((d, ell))
        for a in range(0, n, GRAM_ROWS):
            K[:d, :d] += (MT[:, a : a + GRAM_ROWS] * omega[a : a + GRAM_ROWS]) @ M[a : a + GRAM_ROWS]
        for i, rows_i in enumerate(blocks):
            g[:, i] = MT[:, rows_i] @ fe[rows_i]
        K[:d, :d] += (T.T * (Dp + Dm)) @ T + (g * gamma) @ g.T
        K[:d, d] = K[d, :d] = g @ gamma
        K[d, d] = gamma.sum()
        K[np.diag_indices(d + 1)] += REGULARISE * K.diagonal().max()

        def solve_u(ru):
            """The u block of G^T D G inverted, group by group, by Sherman-Morrison."""
            q = ru * ie
            return q - spread(gamma * per_group(q)) * ie

        def direction(x):
            """(dx, du, dt, ds, dz) with G^T dz = -(G^T z + c), G dv + ds = -rp and z ds + s dz = s (x - z)."""
            a = Drp + x  # D rp + (x - z), plus the z that cancels against the dual residual G^T z + c
            a1, a2, a3, a4, a5 = split(a)
            ru = a1 + a2 - spread(a3)
            wu = solve_u(ru)
            rhs = -(T.T @ (a4 - a5)) - MT @ (a1 - a2 + f * wu)
            dxt = np.linalg.solve(K, np.append(rhs, a3.sum() - 1.0 + D3 @ per_group(wu)))
            dx, dt = dxt[:d], float(dxt[d])
            Mdx, Tdx = M @ dx, T @ dx
            du = solve_u(ru - f * Mdx + spread(D3 * dt))
            ds = -rp  # minus G dv, block by block
            ds1, ds2, ds3, dsp, dsm = split(ds)
            ds1 += du - Mdx
            ds2 += du + Mdx
            ds3 += dt - per_group(du)
            dsp -= Tdx
            dsm += Tdx
            return dx, du, dt, ds, x - z - D * ds

        ds, dz = direction(0.0)[3:]  # aimed at s z = 0; the affine step itself is never taken
        mu = gap / size
        mu_aff = float((s + _max_step(s, ds) * ds) @ (z + _max_step(z, dz) * dz)) / size
        dx, du, dt, ds, dz = direction(((mu_aff / mu) ** 3 * mu - ds * dz) * inv)
        ap, ad = TO_BOUNDARY * _max_step(s, ds), TO_BOUNDARY * _max_step(z, dz)
        xi, u, t = xi + ap * dx, u + ap * du, t + ap * dt
        s, z = s + ap * ds, z + ad * dz
        steps += 1

    return _solution(data, labels, scale * (T @ best), steps, "interior-point", "l1", lower * scale)


def minmax_subgradient(
    data: GroupedMatrix,
    labels: GroupedLabels,
    norm: str = "l2",
    eps: float = 1e-5,
    max_iters: int = 6000,
    box_delta: Optional[float] = None,
) -> RegressionSolution:
    """Minimise the worst-group loss over the box [-box_delta, box_delta]^d.

    Both norms are solved exactly and return a certified duality gap in
    ``gap``, so that ``max_cost - gap`` is at most the optimum over all x:

    * L2 on two groups runs a Newton search on the one-dimensional dual
      max_{mu in [0, 1]} min_x (1 - mu) f_1 + mu f_2, f_i the squared group
      costs (``_minmax_l2_dual``, method "dual-newton"); ``iterations``
      counts its weighted least-squares solves. When a solve leaves the
      open box, the weighted Gram matrix is singular, or the search's
      bracket on mu collapses before the gap closes, it hands the steps it
      left unspent to the barrier.
    * L2 on any other number of groups, and after such a hand-over, runs a
      log-barrier Newton method on the per-group R factors
      (``_minmax_l2_barrier``, method "barrier"); ``iterations`` counts
      Newton steps, plus the dual search's solves before a hand-over.
    * L1 runs Mehrotra's primal-dual interior-point method on the linear
      program (``_minmax_l1_ipm``, method "interior-point"); ``iterations``
      counts interior-point iterations.

    Each stops once the gap is at most ``eps``, an absolute cost tolerance
    (``binary_search_fair_regression`` reads its ``eps`` as a relative step),
    at a precision floor near a relative gap of 1e-9, or after ``max_iters``
    iterations in all. An exact fit inside the box returns at once with
    none. All start from the stacked least-squares seed clipped into the box
    (the dual search from mu = 1/2, whose solve is that seed), take no other
    start point, and keep their iterates strictly inside the box. An unset
    radius comes from the singular values of the stacked design, as in
    ``default_box_radius``. ``eps`` and ``box_delta`` must be positive and
    finite.
    """
    labels.validate_against(data)
    if norm not in ("l1", "l2"):
        raise ValueError(f"norm must be 'l1' or 'l2', got {norm!r}")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if box_delta is not None and not (math.isfinite(box_delta) and box_delta > 0):
        raise ValueError(f"box radius must be positive and finite, got {box_delta}")
    solve = _minmax_l2 if norm == "l2" else _minmax_l1_ipm
    return solve(data, labels, eps, max_iters, None if box_delta is None else float(box_delta))


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
) -> RegressionSolution:
    """Threshold search: the levels L0 / (1 + eps)^j that one exact solve meets.

    L0 is the stacked least-squares seed's worst-group cost, and j runs up to
    cap = ceil(log_{1+eps}(ell)) + 2, enough steps to walk the
    ell-approximation seed down to a (1 + eps)-approximation. One
    ``minmax_subgradient`` solve, to within max(1e-9, L_min * eps / 20) of
    the optimum at L_min = L0 / (1 + eps)^cap, the lowest level, decides
    every threshold: ``iterations`` counts the levels j >= 1 its cost meets
    within the slack (1 + eps/4). The result is the solve's x, or the seed
    when the seed is cheaper, and ``gap`` comes from the solve's certificate.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    seed = stacked_least_squares(data, labels).x
    level = fair_regression_cost(data, labels, seed, norm)
    cap = math.ceil(math.log(max(data.ell, 2)) / math.log1p(eps)) + 2
    lowest = level / (1.0 + eps) ** cap
    sol = minmax_subgradient(data, labels, norm=norm, eps=max(1e-9, lowest * eps / 20.0))
    # the j in [1, cap] with sol.max_cost <= level (1 + eps/4) / (1 + eps)^j, counted in closed form
    ratio = level * (1.0 + eps / 4.0) / sol.max_cost if sol.max_cost > 0.0 else math.inf
    met = max(0, math.floor(min(math.log(ratio) / math.log1p(eps), cap))) if ratio > 0.0 else 0
    x = seed if level < sol.max_cost else sol.x
    return _solution(data, labels, x, met, "binary-search", norm, sol.max_cost - sol.gap)
