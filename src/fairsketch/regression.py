"""Min-max (socially fair) regression.

The worst-group loss g(x) = max_i ||A_i x - b_i|| is a maximum of norms and
hence convex, so three complementary routes are provided:

* ``stacked_least_squares`` -- the ordinary least-squares solution of the
  stacked system; its worst-group cost is within a factor ell of the
  min-max optimum, which makes it the standard seed for threshold search.
* ``minmax_subgradient`` -- the direct solver over the box
  [-delta, delta]^d, exact in both norms and returning a certified duality
  gap. Its default delta, ``default_box_radius``, is proven to hold a
  minimiser and scales with the data. L2 is solved for every group count by
  an active-set Newton ascent on its concave Lagrange dual over the simplex
  of group weights: ``_ascend`` knows only the simplex and reads the problem
  through an oracle, ``_WhitenedL2``, which works in the orthonormal basis
  of one SVD of the stacked design and solves each edge in one
  eigendecomposition of its pencil. L1 is
  a linear program, solved by Mehrotra's primal-dual interior-point method
  on a (d+1)x(d+1) Schur complement.
* feasibility exports -- the question "is max_i ||A_i x - b_i|| <= L
  achievable" written as a linear program (L1) or a quadratically
  constrained program (L2, threshold on the squared cost), emitted in a
  CPLEX-LP-style text format for external solvers.

``binary_search_fair_regression`` is the paper's guess-and-verify search
over the thresholds L0 / (1 + eps)^j below the stacked seed's cost L0. One
exact ``minmax_subgradient`` solve decides every threshold at once, so the
search takes no oracle and no start point.

Every L2 solution's per-group costs are ||R_i [x; -1]|| on the same R
factors; only L1 costs read the raw rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .grouped import (
    GroupedLabels,
    GroupedMatrix,
    fair_regression_cost,
    fair_regression_group_costs,
)
from .linalg import RANK_RTOL, as_vector, svd

INTERIOR = 0.99  # start points are clipped to this fraction of the box
REGULARISE = 1e-14  # diagonal shift, relative to the top entry, that keeps a singular Newton matrix's pivots positive
GRAM_ROWS = 512  # rows per block of K's weighted Gram matrix: n x d temporaries fragment the heap
TO_BOUNDARY = 0.99  # interior-point steps go this fraction of the way to the nearest bound s, z >= 0
GAP_FLOOR = 1e-9  # solves stop at this relative gap: below it the certificates keep too few digits
SLOPE_RTOL = 1e-12  # an edge search stops where f_b - f_a falls to this fraction of the largest f_i
PENCIL_RTOL = 1e-12  # a pencil direction weighted below this fraction of its weight in the pair's sum is singular there


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
    """The solution at x; ``lower`` is a certified lower bound on the optimum (-inf certifies nothing).

    L2 costs are ||R_i [x; -1]|| on ``labels.augmented_r(data)``, which every L2 path has built; L1 costs read the
    raw rows.
    """
    if norm == "l2":
        R = labels.augmented_r(data)
        costs = np.linalg.norm(R[:, :, : data.d] @ x - R[:, :, data.d], axis=1)
    else:
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


def _stacked_fit(data: GroupedMatrix, labels: GroupedLabels):
    """(R, U, s, V, k, x): R = ``labels.augmented_r(data)``, U diag(s) V the thin SVD of its stacked design blocks R_A,
    which has A's singular values, k the rank ``linalg.svd`` keeps (s_j > RANK_RTOL s_0) and x = V_k^T (U_k^T r_b) /
    s_k = pinv(A) b at that rank. Every L2 path reads it.
    """
    R, d = labels.augmented_r(data), data.d
    U, s, V = np.linalg.svd(R[:, :, :d].reshape(-1, d), full_matrices=False)
    k = int(np.sum(s > RANK_RTOL * s[0]))
    return R, U, s, V, k, V[:k].T @ ((U[:, :k].T @ R[:, :, d].reshape(-1)) / s[:k])


def stacked_least_squares(data: GroupedMatrix, labels: GroupedLabels) -> RegressionSolution:
    """Least squares on the stacked system (``_stacked_fit``); its worst-group L2 cost is at most ell times OPT."""
    return _solution(data, labels, _stacked_fit(data, labels)[5], 0, "stacked", "l2", -math.inf)


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


def _radius(sigma: np.ndarray, targets) -> float:
    """``default_box_radius``'s r* from the stacked design's kept singular values sigma (sigma_min = 1 at rank 0)."""
    reach = len(targets) * max(float(np.abs(b).sum()) for b in targets) + math.sqrt(sum(float(b @ b) for b in targets))
    return reach / (float(sigma[-1]) if sigma.size else 1.0)


def default_box_radius(data: GroupedMatrix, labels: GroupedLabels) -> float:
    """r* = (ell max_i ||b_i||_1 + ||b||) / sigma_min: a ball about 0 of this radius holds a minimiser in both norms
    of the design at ``linalg.svd``'s rank, whose least singular value is sigma_min (``_stacked_fit``'s k-th).

    The proof is ``_minmax_l1_ipm``'s: a minimiser lies in A's row space, where ||x|| <= ||A x|| / sigma_min, and
    there ||A x|| is at most ell OPT_1 + ||b|| (in L2, sqrt(ell) OPT_2 + ||b||), and OPT <= max_i ||b_i||_1 at x = 0.
    """
    _, _, s, _, k, _ = _stacked_fit(data, labels)
    return _radius(s[:k], labels.targets)


class _WhitenedL2:
    """``_ascend``'s oracle for min max_i ||A_i x - b_i|| over the box, in units x = scale V^T (u / sigma).

    The problem does not change under x = T u for an invertible T; in these
    units the stacked M of r_i = M_i u - beta_i has orthonormal columns, so no
    solve squares A's condition number. M_i is group i's block of U_k in
    ``_stacked_fit``'s SVD U diag(s) V, beta_i R_i's target column over
    ``scale``, the worst-group cost of ``start`` (the seed clipped into the
    box); ``fit`` bounds an exact fit's cost. With f_i(u) = ||M_i u - beta_i||^2,
    the dual g(lam) = min_u sum_i lam_i f_i has no duality gap (Boyd &
    Vandenberghe, *Convex Optimization*, ch. 5). u solves A u = sum_i lam_i c_i,
    A = sum_i lam_i G_i, with G_i = M_i^T M_i and c_i = M_i^T beta_i, and
    W = L^-1 J for L L^T = A and J = [M_i^T r_i]_i. ``weights`` is uniform (u
    is the stacked seed), or, past k + 1 groups for the rank k, where W^T W is
    singular, the seed's worst group's vertex. Where a user box binds,
    ``_box_qp`` solves the point in x's units on D_i = R_Ai / scale, with
    J = [D_i^T r_i] on its free coordinates. The default box needs no check:
    each x = scale V^T (u / sigma) lies in A's row space, and the ascent's best
    point costs at most the seed, <= ||b||, so ||A x|| <= (sqrt(ell) + 1) ||b||
    <= ell max_i ||b_i||_1 + ||b||: x lies in the r* ball.

    An edge, lam = (1 - mu) e_a + mu e_b, is solved in the eigenbasis of its
    pencil (Golub & Van Loan, *Matrix Computations*, 8.7), factored once per
    edge: P^T (G_a + G_b) P = I (on two groups G_a + G_b = I) and
    P^T G_b P = diag(theta), so u = P ((c'_a + mu (c'_b - c'_a)) / den) with
    c' = P^T c and den = 1 - theta + mu (2 theta - 1), and g'' and g''' cost
    O(k). A singular base takes ``_cholesky``'s shift; a den entry below
    PENCIL_RTOL, a direction the group at a vertex does not see, takes the
    quotient's limit in mu. Larger supports take ``_cholesky``.

    ``cert`` holds what ``_certified_bound`` reads: R_A, |R_A| and b in extended
    precision, U, s and V cut to m >= k, low and tail. LAPACK's SVD is exact for
    a design within nu = 4 rows eps s_0 of R_A: singular values up to 2 nu are
    read as zero, R_A's m others are at least low = s_m - nu, and what is read
    as zero is at most tail = s_m+1 + nu. A ``delta`` of None sets no box.
    """

    def __init__(self, data, labels, delta):
        d, ell = data.d, data.ell
        R, U, s, V, k, seed = _stacked_fit(data, labels)
        bmax = float(np.linalg.norm(R[:, :, d], axis=1).max())  # max_i ||b_i||
        self.start = seed if delta is None else np.clip(seed, -INTERIOR * delta, INTERIOR * delta)
        self.scale = float(np.linalg.norm(R[:, :, :d] @ self.start - R[:, :, d], axis=1).max())
        unit = self.scale if self.scale > 0.0 else 1.0  # an exact fit returns before the scaled problem is read
        # an exact fit's residual is the rounding of A x - b, about (d + 1) eps ||A||_F ||x|| at most
        self.fit = 1e-12 * bmax + 4.0 * (d + 1) * math.ulp(1.0) * np.linalg.norm(s[:k]) * np.linalg.norm(self.start)
        nu = 4.0 * len(U) * math.ulp(1.0) * s[0]
        m = max(k, int(np.sum(s > 2.0 * nu)))
        low, tail = s[m - 1] - nu if m else math.inf, s[m] + nu if m < d else 0.0  # a zero design: 0 is a minimiser
        wide = R.reshape(-1, d + 1).astype(np.longdouble)
        self.cert = (wide[:, :d], np.abs(wide[:, :d]), wide[:, d], U[:, :m], s[:m], V[:m], low, tail)
        self.M, self.beta, self.sigma, self.V = U[:, :k].reshape(ell, d + 1, k), R[:, :, d] / unit, s[:k], V[:k]
        self.G = self.M.transpose(0, 2, 1) @ self.M
        self.c = (self.beta[:, None, :] @ self.M)[:, 0]
        self.weights = np.full(ell, 1.0 / ell) if ell <= k + 1 else np.eye(ell)[int(np.linalg.norm(
            self.M @ (self.sigma * (self.V @ self.start)) / unit - self.beta, axis=1).argmax())]
        self.lim = None if delta is None else np.full(d, delta * (1.0 - 1e-12))  # inside the box after rounding
        self.delta, self.R, self.boxed, self.pencils = delta, R, None, {}

    def _pencil(self, a, b):
        """(P, 1 - theta, 2 theta - 1, c'_a, c'_b - c'_a) of the edge (1 - mu) e_a + mu e_b."""
        H = np.linalg.inv(_cholesky(self.G[a] + self.G[b]))
        B = H @ self.M[b].T
        theta, Q = np.linalg.eigh(B @ B.T)
        theta = np.clip(theta, 0.0, 1.0)
        P = H.T @ Q
        ca = P.T @ self.c[a]
        return P, 1.0 - theta, 2.0 * theta - 1.0, ca, P.T @ self.c[b] - ca

    def point(self, lam, edge):
        """(x, f): x minimises sum_i lam_i f_i over the box, f_i = dg/dlam_i; an ``edge`` (a, b) takes its basis.

        The point's factor stays for ``curvature`` and ``root``.
        """
        M, ell, k = self.M, len(self.M), self.sigma.size
        self.edge, self.L, self.free, self.D, self.grad = edge, None, slice(None), M, None  # every coordinate free
        if edge:  # O(k^2) in the edge's basis: u = P v
            if tuple(edge) not in self.pencils:
                self.pencils[tuple(edge)] = self._pencil(*edge)
            self.P, Ta, self.dT, ca, dc = self.pencils[tuple(edge)]
            mu = lam[edge[1]]
            den = Ta + mu * self.dT
            flat = den <= PENCIL_RTOL
            self.inv = 1.0 / np.where(flat, 1.0, den)
            v = (ca + mu * dc) * self.inv
            if flat.any():  # directions unseen at mu take the quotient's limit in mu, along which g does not bend
                self.inv[flat], v[flat] = 0.0, dc[flat] / self.dT[flat]
            u, self.h = self.P @ v, self.dT * v - dc
        else:
            self.L = _cholesky((lam @ self.G.reshape(ell, -1)).reshape(k, k))
            u = np.linalg.solve(self.L.T, np.linalg.solve(self.L, lam @ self.c))
        x = self.V.T @ (u / self.sigma) * self.scale
        if self.lim is not None and not np.all(np.abs(x) < self.lim):  # the user box binds: solve there in x's units
            if self.boxed is None:  # the design in x's units, D_i = R_Ai / scale, its Grams and D_i^T beta_i
                D = self.R[:, :, : x.size] / self.scale
                self.boxed = D, (D.transpose(0, 2, 1) @ D).reshape(ell, -1), (self.beta[:, None, :] @ D)[:, 0]
            self.D, grams, rhs = self.boxed  # J is read on the design in x's units
            A, b = (lam @ grams).reshape(x.size, x.size), lam @ rhs
            x, self.free, self.L = _box_qp(A, b, self.lim, x)
            self.grad = A @ x - b  # half the gradient of sum_i lam_i f_i in x's units
            u = self.sigma * (self.V @ x) / self.scale
        self.r = M @ u - self.beta
        self.f = np.sum(self.r * self.r, axis=1)
        return x, self.f

    def _half(self, J):
        """L^-1 J on the point's free coordinates, for L L^T = A: diag(den)^-1/2 P^T J in an edge's basis."""
        return np.sqrt(self.inv)[:, None] * (self.P.T @ J) if self.L is None else np.linalg.solve(self.L, J[self.free])

    def curvature(self, S):
        """(-g'', g''') on the edge S: h = P^T (J_b - J_a) = dT v - dc, h' = -dT h / den in its basis; g''' 0 off it."""
        if self.L is None and S == self.edge:
            q = self.h * self.h * self.inv
            return 2.0 * float(q.sum()), 6.0 * float((self.dT * self.inv) @ q)
        y = self._half((self.D[S[1]].T @ self.r[S[1]] - self.D[S[0]].T @ self.r[S[0]])[:, None])
        return 2.0 * float((y * y).sum()), 0.0  # no third derivative off the basis: a Newton step

    def root(self, S):
        """W = L^-1 J_S: the Hessian on S's face is -2 W^T W."""
        return self._half(np.einsum("ijk,ij->ik", self.D[S], self.r[S]).T)

    def feasible(self, x, lam):
        """A lower bound on the box's optimum in ``scale``'s units from the point at lam, -inf where the box is free.

        Where a user box binds, min over the box of q = sum_i lam_i f_i bounds the box's optimum squared, and so does
        q's linearisation at x where it is least on the box: q(x) - 2 (grad^T x + delta ||grad||_1), for ``grad`` half
        q's gradient. That is q(x) at the box's minimiser, up to rounding, and it holds at points short of it too, as
        where ``_cholesky`` shifts a singular Gram matrix.
        """
        if self.grad is None:
            return -math.inf
        q = float(lam @ self.f) - 2.0 * float(self.grad @ x + self.delta * np.abs(self.grad).sum())
        return math.sqrt(max(q, 0.0))

    def bound(self, x, lam, cost):  # a lower bound on the optimum over all x, in ``scale``'s units
        return _certified_bound(self, x, lam, cost)


def _certified_bound(p: _WhitenedL2, x: np.ndarray, lam: np.ndarray, cost: float) -> float:
    """A lower bound on the scaled optimum from multipliers ``lam`` >= 0 at x, where some point costs ``cost``.

    z_i = lam_i (A_i x - b_i) on R_A gives max_i ||A_i x' - b_i|| sum_i ||z_i||
    >= <A^T z, x'> - <z, b> for every x', rank cut directions too. Two steps
    z -= U diag(1/s) V A^T z, in extended precision, take z to A's left null
    space past the SVD's rounding. A minimiser x* has ||x*|| <= ||A x*|| / low
    <= (sqrt(ell) OPT + ||b||) / low, the reach that ||A^T z|| + tail ||z|| and
    the rounding rows eps' || |A|^T |z| || are charged against (eps', the
    epsilon); <z, b> is charged rows eps' |z|^T |b|, and the double-precision
    costs the bound is read against 4 rows eps sum_i lam_i ||r_i||^2.
    """
    A, size, b, U, s, V, low, tail = p.cert  # np.dot, not @: numpy's matmul loop is slow on extended precision
    r = (np.dot(A, x) - b).reshape(lam.size, -1)
    z = (lam[:, None] * r).reshape(-1)
    for _ in range(2):
        z -= U @ ((V @ np.dot(z, A).astype(np.float64)) / s)
    y, groups, spill = np.dot(z, A), z.reshape(lam.size, -1), np.dot(np.abs(z), size)  # |fl(y) - A^T z| <= gamma spill
    weight = float(np.sqrt(np.einsum("ij,ij->i", groups, groups)).sum())
    if not weight or not low > 0.0:
        return 0.0
    gamma, rounding = len(b) * float(np.finfo(np.longdouble).eps), 4.0 * len(b) * math.ulp(1.0)
    reach = (math.sqrt(lam.size) * cost * p.scale + float(np.sqrt(b @ b))) / low
    lead = -float(z @ b) - gamma * float(np.abs(z) @ np.abs(b)) - rounding * float(lam @ np.einsum("ij,ij->i", r, r))
    leak = (float(np.sqrt(y @ y)) + tail * float(np.sqrt(z @ z)) + gamma * float(np.sqrt(spill @ spill))) * reach
    return (lead - leak) / (weight * (1.0 + gamma) * p.scale)


def _cholesky(A: np.ndarray) -> np.ndarray:
    """Cholesky factor of A, or, while singular, of A shifted by REGULARISE times its top entry, then 100x more."""
    top, shift = float(A.diagonal().max(initial=0.0)) or 1.0, 0.0
    for _ in range(8):
        try:
            L = np.linalg.cholesky(A + shift * np.eye(len(A)) if shift else A)
            if not A.size or L.diagonal().min() ** 2 > REGULARISE * top:
                return L
        except np.linalg.LinAlgError:
            pass
        shift = 100.0 * shift or REGULARISE * top
    raise np.linalg.LinAlgError("the weighted Gram matrix is not positive semidefinite")


def _box_qp(A: np.ndarray, rhs: np.ndarray, lim: np.ndarray, u: np.ndarray):
    """(u, free mask, L): min u^T A u / 2 - rhs^T u over |u_j| <= lim_j, L A's Cholesky factor on the free u_j.

    A primal active set from ``u`` clipped into the box (Lawson & Hanson,
    *Solving Least Squares Problems*, 1974): solve on the free coordinates,
    then fix the first bound crossed on the way, or free a wrong-signed one.
    """
    u = np.clip(u, -lim, lim)
    free = np.abs(u) < lim
    for _ in range(4 * u.size + 4):  # each pass fixes or frees one coordinate
        F = np.flatnonzero(free)
        L = _cholesky(A[np.ix_(F, F)])
        y = u.copy()
        y[F] = np.linalg.solve(L.T, np.linalg.solve(L, rhs[F] - A[F][:, ~free] @ u[~free]))
        out = np.abs(y) > lim
        if out.any():
            dy = y - u
            cross = (np.sign(dy) * lim - u)[out] / dy[out]
            j = np.flatnonzero(out)[cross.argmin()]
            u = u + cross.min() * dy
            u[j], free[j] = math.copysign(lim[j], dy[j]), False
            continue
        u = y
        push = np.where(free, 0.0, (A @ u - rhs) * np.sign(u))  # > 0: leaving the bound lowers the objective
        j = int(push.argmax())
        if push[j] <= 1e-12 * float(np.abs(A[j]) @ np.abs(u) + abs(rhs[j])):
            break
        free[j] = True
    return u, free, L


def _edge_step(oracle, S, lam, f, brackets, spent):
    """The edge S's next lam, or None where its search stops; narrows the edge's bracket, kept for the run."""
    a, b = S
    mu, slope, top = lam[b], float(f[b] - f[a]), float(f.max())
    lo, hi = brackets.get((a, b), (0.0, 1.0))
    if slope > 0.0:  # the maximiser lies strictly past mu, so a vertex at mu is ruled out
        lo = max(lo, math.nextafter(mu, math.inf))
    else:
        hi = min(hi, math.nextafter(mu, -math.inf))
    brackets[a, b] = lo, hi
    if abs(slope) <= SLOPE_RTOL * top or lo > hi or top > max(f[a], f[b]) or spent:
        return None
    if mu == 0.0 or mu == 1.0:  # g' is steepest at a vertex, where Newton steps creep: bisect away from it
        point = 0.5 * (lo + hi)
    else:
        bend, twist = oracle.curvature(S)
        newton = mu + slope / bend if bend > 0.0 else math.copysign(math.inf, slope)
        denom = 2.0 * bend * bend - slope * twist
        halley = mu + 2.0 * slope * bend / denom if denom > 0.0 else newton
        inside = [x for x in (halley, newton) if lo <= x <= hi]
        # Halley's step, else Newton's; out of the bracket, to a vertex it still holds, else to its midpoint
        held = 0.0 if newton < lo and lo == 0.0 else 1.0 if newton > hi and hi == 1.0 else 0.5 * (lo + hi)
        point = inside[0] if inside else held
    nxt = np.zeros(lam.size)
    nxt[a], nxt[b] = 1.0 - point, point
    return nxt


def _face_step(lam, f, W, S, tau):
    """(next lam, predicted rise, tau): the Newton step on S's face in the basis e_k - e_s0, -2 W^T W the Hessian.

    tau damps it towards the projected gradient, more while it would lower the added group's zero weight.
    """
    Z, g = W[:, 1:] - W[:, :1], f[S[1:]] - f[S[0]]
    K = 2.0 * Z.T @ Z
    scale = float(K.trace()) / len(g)
    if scale == 0.0:  # no curvature, as where the point is fixed whatever lam: the projected gradient
        scale, tau = float(np.abs(g).max()), max(tau, 1.0)
    for _ in range(20):  # the damping's floor sends directions without curvature to the face's edge
        theta = np.linalg.lstsq(K + max(tau, 1e-12) * scale * (np.eye(len(g)) + 1.0), g, rcond=None)[0]
        step = np.zeros(lam.size)
        step[S[1:]], step[S[0]] = theta, -theta.sum()
        if all(lam[i] > 0.0 or step[i] >= 0.0 for i in S):
            break
        tau = max(10.0 * tau, 1e-3)
    down = step < 0.0
    ratio = lam[down] / -step[down]
    alpha = min(1.0, float(ratio.min())) if down.any() else 1.0
    nxt = np.maximum(lam + alpha * step, 0.0)
    nxt[np.flatnonzero(down)[ratio <= alpha * (1.0 + 1e-9)]] = 0.0  # what the ratio test zeroes, up to rounding
    return nxt, alpha * float(f @ step), tau


def _ascend(oracle, eps, max_iters):
    """(best point, solves, lower bound): an active-set Newton ascent on a concave dual g over the simplex of group
    weights lam. It reads the problem only through ``oracle``: ``weights``, ``start``, ``scale``, ``point``,
    ``root``, ``curvature``, ``feasible`` and ``bound``, as ``_WhitenedL2`` defines them.

    From ``oracle.weights``, each step adds the worst group outside the support
    S if it is worse than all of S, then moves on S's face. An edge,
    lam = (1 - mu) e_a + mu e_b, takes Halley's steps, else Newton's,
    kept in a bracket on g' = f_b - f_a = 0; out of it, a step goes to a vertex
    that no point has ruled out, else, as from a vertex, to the midpoint. The
    search stops where the slope falls to SLOPE_RTOL of the largest f_i, where
    the bracket empties (as at a vertex whose slope points out of the edge),
    where a group outside the edge is worse than both, or when the budget is
    spent; only that point is certified. Larger faces take ``_face_step``'s
    damped Newton step up to the first weight it zeroes, whose group leaves S;
    a step that g rises along by less than an Armijo fraction is retried with
    ten times the damping. Every face point is certified. Each point and each
    retried step counts as a solve. The ascent stops at a gap of ``eps`` in
    ``oracle.scale``'s units, or of GAP_FLOOR relative, after ``max_iters``
    solves, or when it stalls (an edge's search ends short of the gap, lam
    stops changing, no step rises). The gap is read against ``bound``, the
    returned bound, or against ``feasible``, a bound on the feasible set the
    oracle may give at any point, which also ends an edge's search.
    """
    lam = oracle.weights
    ell, S = lam.size, [i for i in range(lam.size) if lam[i] > 0.0]
    steps, lower, held, cost, best = 0, 0.0, -math.inf, 1.0, oracle.start  # every cost is a norm, so OPT >= 0
    brackets, tau, face = {}, 0.0, None  # face: a face step's (lam, g, f, W, rise) while its trial point is solved
    while steps < max_iters:
        steps += 1
        edge = list(S) if len(S) == 2 else None
        x, f = oracle.point(lam, edge)
        worst = math.sqrt(float(f.max()))
        if worst < cost:
            cost, best = worst, x
        held = max(held, oracle.feasible(x, lam))
        done = (cost - held) * oracle.scale <= eps or cost - held <= GAP_FLOOR * cost
        if edge and not done:
            nxt = _edge_step(oracle, S, lam, f, brackets, steps >= max_iters)
            if nxt is not None:
                lam = nxt
                continue
        lower = max(lower, oracle.bound(x, lam, cost))
        if done or (cost - lower) * oracle.scale <= eps or cost - lower <= GAP_FLOOR * cost:
            break
        if face is not None:  # keep the trial point if g rose enough, else retry with more damping
            base, g0, fb, W, rise = face
            if float(lam @ f) - g0 >= 1e-4 * rise:
                face, tau, S = None, 0.25 * tau, [i for i in S if lam[i] > 0.0]
            else:
                lam, rise, tau = _face_step(base, fb, W, S, max(10.0 * tau, 1e-3))
                if not rise > 1e-15 * abs(g0):
                    break  # no step rises at working precision
                face = (base, g0, fb, W, rise)
                continue
        if edge:  # a search that ends at a vertex leaves the edge
            S = [i for i in S if lam[i] > 0.0]
        if len(S) < ell:
            j = max((i for i in range(ell) if i not in S), key=f.__getitem__)
            if f[j] > f[S].max():
                S.append(j)
        if len(S) >= 3:
            W = oracle.root(S)
            nxt, rise, tau = _face_step(lam, f, W, S, tau)
            if not rise > 0.0 or np.array_equal(nxt, lam):
                break  # lam no longer changes
            face, lam = (lam, float(lam @ f), f, W, rise), nxt
            continue
        if len(S) == 1 or S == edge:
            break  # a vertex, or an edge whose search has ended, that no group outside beats
        lam = _edge_step(oracle, S, lam, f, brackets, steps >= max_iters)  # a new edge's first step, from this point
        if lam is None:
            break
    return best, steps, lower


def _minmax_l2(data, labels, eps, max_iters, delta) -> RegressionSolution:
    """min max_i ||A_i x - b_i|| over the box by ``_ascend`` on ``_WhitenedL2``; an exact fit returns at once."""
    p = _WhitenedL2(data, labels, delta)
    if p.scale <= p.fit:  # an exact fit: nothing to scale the costs by
        return _solution(data, labels, p.start, 0, "dual-newton", "l2", 0.0)  # the trivial bound OPT >= 0
    best, steps, lower = _ascend(p, eps, max_iters)
    return _solution(data, labels, best, steps, "dual-newton", "l2", lower * p.scale)


def _max_step(a: np.ndarray, da: np.ndarray) -> float:
    """Largest alpha in [0, 1] with a + alpha da >= 0, for a > 0."""
    j = (da / a).argmin()  # the nearest bound, if its da is negative
    return min(1.0, float(a[j] / -da[j])) if da[j] < 0.0 else 1.0


def _minmax_l1_ipm(data, labels, eps, max_iters, delta) -> RegressionSolution:
    """min t s.t. ||A_i x - b_i||_1 <= t, |x_k| <= delta, by a primal-dual interior-point method.

    Costs are divided by ``scale``, the worst-group cost of the start point,
    the stacked least-squares seed clipped into the box: beta = b / scale
    and lim = delta / scale. ``default_box_radius``'s r*, from the singular
    values sigma of the one SVD below (cut at RANK_RTOL, as there), is the
    box when ``delta`` is None and, over ``scale``, the certificate's reach
    below, whatever the box. The unknowns are xi, with x = scale T xi: T =
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
    and gamma_i = D_3i / (1 + D_3i sum_{G_i} 1 / e_j), which ``_cholesky``
    factors once for both. An iteration therefore costs one weighted Gram
    matrix, O(n d^2), and eight passes over n x d data: M^T (z_1 - z_2) for
    the certificate; M times [xi, M^T (z_1 - z_2)] in one product, for costs
    computed afresh, so that the best iterate is chosen on exact costs, and
    the certificate's projection; the certificate's A^T y on the raw rows;
    the g_i; and one M^T and one M product per direction, whose M dx gives
    both du and ds.

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
    radius = _radius(sv.sigma, labels.targets)  # a ball about 0 that holds a minimiser (see the docstring)
    delta = radius if delta is None else delta
    null = np.linalg.qr(sv.V.T, mode="complete")[0][:, sv.rank :]  # orthonormal, A null = 0
    T = np.column_stack([sv.V.T / sv.sigma, null])
    M = sv.U if sv.rank == d else np.column_stack([sv.U, np.zeros((n, d - sv.rank))])  # A T = M
    MT = M.T
    fit = 1e-12 * float(per_group(np.abs(b)).max())

    seed = T @ (MT @ b)  # the stacked least-squares fit, pinv(A) b
    start = np.clip(seed, -INTERIOR * delta, INTERIOR * delta)
    scale = fair_regression_cost(data, labels, start, "l1")
    if scale <= fit:  # an exact fit, with no cost to scale by
        return _solution(data, labels, start, 0, "interior-point", "l1", 0.0)  # the trivial bound OPT >= 0

    beta, lim, reach = b / scale, np.full(d, delta / scale), radius / scale

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
        L = _cholesky(K)

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
            dxt = np.linalg.solve(L.T, np.linalg.solve(L, np.append(rhs, a3.sum() - 1.0 + D3 @ per_group(wu))))
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

    * L2 runs a Newton ascent on the Lagrange dual max_lam min_x
      sum_i lam_i f_i over the simplex of group weights, f_i the squared
      group costs, in the stacked design's orthonormal basis (``_minmax_l2``,
      method "dual-newton"), on two groups a safeguarded Halley search to
      rounding level whatever ``eps``; ``iterations`` counts its weighted
      least-squares solves, one per point and one per retried step.
    * L1 runs Mehrotra's primal-dual interior-point method on the linear
      program (``_minmax_l1_ipm``, method "interior-point"); ``iterations``
      counts interior-point iterations.

    Each stops once the gap is at most ``eps``, an absolute cost tolerance
    (``binary_search_fair_regression`` reads its ``eps`` as a relative step),
    at a precision floor near a relative gap of 1e-9, or after ``max_iters``
    iterations in all; L2 also stops when its ascent stalls, as when the box
    cuts off every minimiser. An exact fit inside the box returns at once.
    All start from the stacked least-squares seed clipped into the box and
    return a point strictly inside it. An unset radius is r* =
    (ell max_i ||b_i||_1 + ||b||) / sigma_min (``default_box_radius``), which
    holds a minimiser and, unlike ``eps``, scales with the data. Both norms
    solve the design at ``linalg.svd``'s rank. L2's ``gap`` bounds the full
    design's optimum, singular values below its SVD's rounding read as zero;
    L1's, the cut design's. ``eps`` and ``box_delta`` must be positive and finite.
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
    ``minmax_subgradient`` solve, to within L_min * eps / 20 of the optimum
    at L_min = L0 / (1 + eps)^cap, the lowest level, decides every
    threshold: ``iterations`` counts the levels j >= 1 its cost meets within
    the slack (1 + eps/4). The result is the solve's x with the solve's
    costs, or the seed when it is cheaper or fits exactly, and ``gap`` comes
    from the solve's certificate. In L2, L0 is the seed's own ``max_cost``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    seed = stacked_least_squares(data, labels)
    level = seed.max_cost if norm == "l2" else fair_regression_cost(data, labels, seed.x, norm)
    cap = math.ceil(math.log(max(data.ell, 2)) / math.log1p(eps)) + 2
    tol = level / (1.0 + eps) ** cap * eps / 20.0
    if not tol > 0.0:  # an exact fit: nothing is cheaper than the seed
        return _solution(data, labels, seed.x, 0, "binary-search", norm, 0.0)
    sol = minmax_subgradient(data, labels, norm=norm, eps=tol)
    # the j in [1, cap] with sol.max_cost <= level (1 + eps/4) / (1 + eps)^j, counted in closed form
    ratio = level * (1.0 + eps / 4.0) / sol.max_cost if sol.max_cost > 0.0 else math.inf
    met = max(0, math.floor(min(math.log(ratio) / math.log1p(eps), cap)))
    if level < sol.max_cost:
        return _solution(data, labels, seed.x, met, "binary-search", norm, sol.max_cost - sol.gap)
    return replace(sol, iterations=met, method="binary-search")
