import importlib.util
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsketch import regression
from fairsketch.grouped import GroupedLabels, GroupedMatrix, fair_regression_cost
from fairsketch.linalg import RANK_RTOL
from fairsketch.regression import (
    binary_search_fair_regression,
    default_box_radius,
    export_l1_feasibility,
    export_l2_feasibility,
    fair_regression_subgradient,
    minmax_subgradient,
    stacked_least_squares,
)
from oracles import grid_minmax_regression, grid_minmax_regression_nd, random_grouped, two_group_l2_minmax


def make(groups, targets):
    return GroupedMatrix.from_arrays(tuple(groups)), GroupedLabels.from_arrays(tuple(targets))


ONE_D = make(
    [np.array([[1.0]]), np.array([[1.0], [1.0]])],
    [np.array([1.0]), np.array([-1.0, -1.0])],
)

SYMMETRIC_1D = make(
    [np.array([[1.0]]), np.array([[1.0]])],
    [np.array([1.0]), np.array([-1.0])],
)


class TestStackedLeastSquares:
    def test_single_group_is_ols(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 3))
        b = rng.standard_normal(6)
        data, labels = make([A], [b])
        sol = stacked_least_squares(data, labels)
        x_ols, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.allclose(sol.x, x_ols, atol=1e-10)

    def test_consistent_system(self):
        rng = np.random.default_rng(1)
        groups, _ = random_grouped(rng, 3, 4)
        x_star = rng.standard_normal(4)
        data, labels = make(groups, [g @ x_star for g in groups])
        assert stacked_least_squares(data, labels).max_cost <= 1e-8

    def test_one_dimensional_worked_example(self):
        data, labels = ONE_D
        sol = stacked_least_squares(data, labels)
        assert sol.x[0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert sol.max_cost == pytest.approx(4.0 / 3.0, abs=1e-12)
        opt, _ = grid_minmax_regression([g for g in data.groups], [t for t in labels.targets])
        assert opt == pytest.approx(4.0 - 2.0 * math.sqrt(2.0), abs=1e-6)
        ratio = sol.max_cost / opt
        assert ratio == pytest.approx(1.138, abs=1e-3)
        assert ratio <= 2.0  # the group count

    def test_max_cost_consistency(self):
        rng = np.random.default_rng(2)
        groups, targets = random_grouped(rng, 3, 3)
        data, labels = make(groups, targets)
        sol = stacked_least_squares(data, labels)
        assert sol.max_cost == pytest.approx(float(sol.per_group_costs.max()), abs=1e-12)
        assert sol.max_cost == pytest.approx(fair_regression_cost(data, labels, sol.x), abs=1e-12)
        assert sol.gap == math.inf  # no certificate


class TestAugmentedRCache:
    """Every L2 path runs on ``GroupedLabels.augmented_r``, factored once per (data, labels) pair."""

    def test_l2_paths_factor_once_and_never_stack(self, monkeypatch):
        rng = np.random.default_rng(73)
        d = 4
        groups = [rng.standard_normal((n, d)) for n in (30, 20)]
        targets = [g @ rng.standard_normal(d) + rng.standard_normal(g.shape[0]) for g in groups]
        data, labels = make(groups, targets)
        calls, tall, real_svd = Counter(), [], np.linalg.svd

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def svd(M, *args, **kwargs):
            if np.shape(M)[0] > 2 * (d + 1):
                tall.append(np.shape(M))
            return real_svd(M, *args, **kwargs)

        monkeypatch.setattr(GroupedMatrix, "stacked", counted("GroupedMatrix.stacked", GroupedMatrix.stacked))
        monkeypatch.setattr(GroupedLabels, "stacked", counted("GroupedLabels.stacked", GroupedLabels.stacked))
        monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
        monkeypatch.setattr(np.linalg, "svd", svd)
        stacked_least_squares(data, labels)
        minmax_subgradient(data, labels, norm="l2", eps=1e-6)
        minmax_subgradient(data, labels, norm="l2", eps=1e-3)
        binary_search_fair_regression(data, labels, norm="l2")
        assert calls == {"qr": data.ell}
        assert tall == []

    def test_cache_follows_the_data_it_is_given(self):
        rng = np.random.default_rng(74)
        groups, targets = random_grouped(rng, 3, 3, max_rows=6)
        labels = GroupedLabels.from_arrays(targets)
        first = GroupedMatrix.from_arrays(groups)
        second = GroupedMatrix.from_arrays([2.0 * g + 1.0 for g in groups])  # the same shapes
        x_first = stacked_least_squares(first, labels).x
        x_second = stacked_least_squares(second, labels).x
        ref, *_ = np.linalg.lstsq(np.vstack(second.groups), labels.stacked(), rcond=None)
        assert np.allclose(x_second, ref, atol=1e-10)
        assert np.array_equal(stacked_least_squares(first, labels).x, x_first)
        taller = GroupedMatrix.from_arrays([np.vstack([g, g[:1]]) for g in groups])
        with pytest.raises(ValueError):
            stacked_least_squares(taller, labels)
        with pytest.raises(ValueError):
            GroupedLabels.from_arrays([t[:-1] for t in targets]).augmented_r(first)

    @pytest.mark.parametrize("solve", [
        lambda data, labels: minmax_subgradient(data, labels, norm="l2", eps=1e-8),
        lambda data, labels: binary_search_fair_regression(data, labels, norm="l2"),
    ], ids=["barrier", "binary-search"])
    def test_warm_cache_solves_bit_identically(self, solve):
        rng = np.random.default_rng(75)
        groups, targets = random_grouped(rng, 3, 4, max_rows=12)
        data, labels = make(groups, targets)
        cold = solve(data, labels)
        warm = solve(data, labels)
        assert np.array_equal(warm.x, cold.x)
        assert (warm.gap, warm.iterations) == (cold.gap, cold.iterations)


class TestSubgradient:
    def test_symmetric_absolute_values(self):
        data, labels = SYMMETRIC_1D
        sol = minmax_subgradient(data, labels, box_delta=2.0)
        assert sol.max_cost == pytest.approx(1.0, abs=1e-3)
        assert abs(sol.x[0]) <= 1e-3

    def test_single_group_matches_stacked(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((5, 2))
        b = rng.standard_normal(5)
        data, labels = make([A], [b])
        sub = minmax_subgradient(data, labels)
        ols = stacked_least_squares(data, labels)
        assert sub.max_cost == pytest.approx(ols.max_cost, abs=1e-4)

    def test_matches_grid_on_2d_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            groups, targets = random_grouped(rng, 3, 2)
            data, labels = make(groups, targets)
            sol = minmax_subgradient(data, labels, eps=1e-6, box_delta=4.0)
            opt, _ = grid_minmax_regression(groups, targets, radius=4.0)
            assert abs(sol.max_cost - opt) <= 1e-3

    def test_l1_norm_supported(self):
        data, labels = SYMMETRIC_1D
        sol = minmax_subgradient(data, labels, norm="l1", box_delta=2.0)
        assert sol.max_cost == pytest.approx(1.0, abs=1e-3)

    def test_subgradient_inequality_finite_difference(self):
        rng = np.random.default_rng(5)
        groups, targets = random_grouped(rng, 3, 3)
        data, labels = make(groups, targets)
        for norm in ("l1", "l2"):
            for _ in range(20):
                x = rng.standard_normal(3)
                g0, s = fair_regression_subgradient(data, labels, x, norm)
                direction = rng.standard_normal(3)
                for h in (1e-3, 1e-4):
                    g1 = fair_regression_cost(data, labels, x + h * direction, norm)
                    assert g1 >= g0 + h * float(s @ direction) - 1e-9


class TestBarrier:
    """The exact L2 solver behind ``minmax_subgradient(norm="l2")``."""

    def test_certified_gap_brackets_grid_optimum(self):
        rng = np.random.default_rng(19)
        for i in range(20):
            groups, targets = random_grouped(rng, int(rng.integers(2, 4)), 2)
            data, labels = make(groups, targets)
            sol = minmax_subgradient(data, labels, eps=1e-6, box_delta=4.0)
            # a finer grid than criterion 9's: its default is up to 5e-5 above the optimum here
            opt, _ = grid_minmax_regression(groups, targets, radius=4.0, points=301, levels=10, zoom=20)
            assert sol.method in ("barrier", "dual-newton") and sol.norm == "l2"
            assert sol.max_cost - sol.gap <= opt <= sol.max_cost + 1e-6, f"instance {i}"
            assert np.all(np.abs(sol.x) < 4.0), f"instance {i}"

    def test_gap_is_certified_before_convergence(self):
        # a few Newton steps leave the iterate far from the central path; the bound must hold anyway
        rng = np.random.default_rng(29)
        for i in range(10):
            groups, targets = random_grouped(rng, int(rng.integers(2, 4)), 2)
            data, labels = make(groups, targets)
            opt, _ = grid_minmax_regression(groups, targets, radius=4.0)
            for max_iters in (1, 2, 4):
                sol = minmax_subgradient(data, labels, max_iters=max_iters, box_delta=4.0)
                assert sol.iterations <= max_iters
                assert sol.max_cost - sol.gap <= opt, f"instance {i}, {max_iters} steps"

    def test_gap_is_at_most_eps(self):
        rng = np.random.default_rng(12)
        groups = [s * rng.standard_normal((n, 5)) for n, s in ((40, 1.0), (25, 3.0), (60, 0.5))]
        targets = [g @ rng.standard_normal(5) + rng.standard_normal(g.shape[0]) for g in groups]
        data, labels = make(groups, targets)
        for eps in (1e-2, 1e-4, 1e-6):
            sol = minmax_subgradient(data, labels, eps=eps)
            assert 0.0 <= sol.gap <= eps
            assert sol.max_cost == pytest.approx(fair_regression_cost(data, labels, sol.x), abs=1e-12)
        # a tolerance below working precision ends at the floor, not at the step cap
        sol = minmax_subgradient(data, labels, eps=1e-14)
        assert sol.iterations < 100
        assert sol.gap <= 1e-7 * sol.max_cost

    def test_exact_fit_returns_without_newton_steps(self):
        # two 1-row groups in the plane: the stacked seed fits both, and the Newton system is singular there
        data, labels = make([np.array([[1.0, 2.0]]), np.array([[3.0, -1.0]])], [np.array([0.5]), np.array([2.0])])
        sol = minmax_subgradient(data, labels, eps=1e-6, box_delta=4.0)
        assert sol.max_cost <= 1e-9
        assert sol.gap <= 1e-9
        assert sol.iterations == 0

    def test_iterates_stay_inside_the_box(self):
        # the optimum x = 11 lies outside the box; the best point in it sits at the edge
        data, labels = make([np.array([[1.0]]), np.array([[1.0]])], [np.array([10.0]), np.array([12.0])])
        sol = minmax_subgradient(data, labels, eps=1e-6, box_delta=2.0)
        assert abs(sol.x[0]) < 2.0
        assert sol.max_cost == pytest.approx(10.0, abs=1e-6)
        assert sol.max_cost - sol.gap <= 1.0  # the certificate bounds the optimum over all x


def scaled_two_group(rng):
    """Two groups in d in {1, 2, 3, 5}, each design and target scaled by its own 10^U(-3, 3)."""
    d = int(rng.choice([1, 2, 3, 5]))
    groups, targets = random_grouped(rng, 2, d, max_rows=2 * d + 2)
    s = 10.0 ** rng.uniform(-3.0, 3.0, size=4)
    return [s[0] * groups[0], s[1] * groups[1]], [s[2] * targets[0], s[3] * targets[1]]


class TestDualNewton:
    """The Newton ascent on the Lagrange dual that ``minmax_subgradient(norm="l2")`` runs for every group count."""

    def test_interior_optimum_takes_the_dual_search(self):
        rng = np.random.default_rng(31)
        groups = [rng.standard_normal((n, 3)) for n in (20, 12)]
        targets = [g @ rng.standard_normal(3) + s * rng.standard_normal(g.shape[0]) for g, s in zip(groups, (1.0, 3.0))]
        data, labels = make(groups, targets)
        sol = minmax_subgradient(data, labels, eps=1e-6)
        assert sol.method == "dual-newton" and sol.norm == "l2"
        assert 0.0 <= sol.gap <= 1e-6
        assert sol.iterations <= 20
        assert sol.max_cost == pytest.approx(two_group_l2_minmax(groups, targets), abs=2e-6)
        repeated = minmax_subgradient(*make(groups + [groups[0]], targets + [targets[0]]), eps=1e-9)
        assert repeated.method == "dual-newton"  # three groups, the first repeated: the same optimum
        assert repeated.max_cost == pytest.approx(sol.max_cost, abs=2e-6)

    def test_optimum_outside_the_box_stays_in_the_dual_search(self):
        # the instance of TestBarrier.test_iterates_stay_inside_the_box: the first dual point leaves the box
        data, labels = make([np.array([[1.0]]), np.array([[1.0]])], [np.array([10.0]), np.array([12.0])])
        assert minmax_subgradient(data, labels, eps=1e-6, box_delta=2.0).method == "dual-newton"

    def test_three_groups_take_the_dual_search(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            sol = minmax_subgradient(*make(*random_grouped(rng, 3, 2, max_rows=6)), eps=1e-6)
            assert sol.method == "dual-newton"
            assert 0.0 <= sol.gap <= 1e-6

    def test_certified_on_scaled_random_instances(self):
        rng = np.random.default_rng(33)
        for i in range(240):
            groups, targets = scaled_two_group(rng)
            eps = float(rng.choice([1e-2, 1e-5, 1e-9]))
            sol = minmax_subgradient(*make(groups, targets), eps=eps)
            assert sol.max_cost - sol.gap <= two_group_l2_minmax(groups, targets), f"instance {i}"
            assert sol.method == "dual-newton" and sol.gap <= max(eps, 1e-9 * sol.max_cost), f"instance {i}"

    def test_step_budget_holds_on_the_box(self):
        rng = np.random.default_rng(34)
        instances = [scaled_two_group(rng) for _ in range(20)]
        instances.append(([np.array([[1.0]]), np.array([[1.0]])], [np.array([10.0]), np.array([12.0])]))
        for i, (groups, targets) in enumerate(instances):
            data, labels = make(groups, targets)
            box = 2.0 if i == len(instances) - 1 else None
            opt = minmax_subgradient(data, labels, eps=1e-9, box_delta=box).max_cost
            for max_iters in (1, 2, 4):
                sol = minmax_subgradient(data, labels, eps=1e-9, max_iters=max_iters, box_delta=box)
                assert sol.iterations <= max_iters, f"instance {i}, {max_iters} steps"
                assert sol.max_cost - sol.gap <= opt, f"instance {i}, {max_iters} steps"
        assert sol.method == "dual-newton"  # the last instance solves on the box from its first step


def noisy_and_quiet_pairs(count=200):
    """Two groups in d in [2, 5] with more than d rows each and one planted x, noise 3.0 against 0.1.

    Yields (groups, targets, vertex): vertex is whether the noisy group's own least-squares fit leaves the
    quiet group cheaper, so that the min-max optimum is that fit and the dual's maximiser the noisy vertex.
    """
    rng = np.random.default_rng(5)
    for _ in range(count):
        d = int(rng.integers(2, 6))
        groups = [rng.standard_normal((int(rng.integers(d + 1, 40)), d)) for _ in range(2)]
        x = rng.standard_normal(d)
        targets = [g @ x + s * rng.standard_normal(g.shape[0]) for g, s in zip(groups, (3.0, 0.1))]
        fit = np.linalg.lstsq(groups[0], targets[0], rcond=None)[0]
        vertex = np.linalg.norm(groups[1] @ fit - targets[1]) <= np.linalg.norm(groups[0] @ fit - targets[0])
        yield groups, targets, vertex


class TestEdgeSearch:
    """An edge of the L2 dual is searched in its pencil's eigenbasis: one factor, one certificate, one cost pass."""

    def test_interior_solve_factors_and_certifies_once(self, monkeypatch):
        calls = Counter()

        def count(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        rng = np.random.default_rng(31)  # the instance of TestDualNewton.test_interior_optimum_takes_the_dual_search
        groups = [rng.standard_normal((n, 3)) for n in (20, 12)]
        targets = [g @ rng.standard_normal(3) + s * rng.standard_normal(g.shape[0]) for g, s in zip(groups, (1.0, 3.0))]
        data, labels = make(groups, targets)
        for owner, name in ((np.linalg, "cholesky"), (regression, "_certified_bound"),
                            (regression, "fair_regression_group_costs"), (regression, "fair_regression_cost")):
            count(owner, name)
        for solve in (lambda: minmax_subgradient(data, labels, eps=1e-9),
                      lambda: binary_search_fair_regression(data, labels)):
            calls.clear()
            sol = solve()
            assert calls == {"cholesky": 1, "_certified_bound": 1}  # no group's raw rows are read
            assert sol.gap <= 1e-9 * sol.max_cost
            assert sol.per_group_costs[0] == pytest.approx(sol.per_group_costs[1], rel=1e-9)  # inside the edge

    def test_l2_costs_read_the_r_stack(self):
        rng = np.random.default_rng(41)
        for i in range(60):
            ell, d = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            groups = [rng.standard_normal((int(rng.integers(d + 1, 3 * d + 3)), d)) for _ in range(ell)]
            targets = [rng.standard_normal(g.shape[0]) for g in groups]
            s = 10.0 ** rng.uniform(-8.0, 4.0, size=2)
            groups, targets = [s[0] * g for g in groups], [s[1] * t for t in targets]
            data, labels = make(groups, targets)
            for x in (minmax_subgradient(data, labels, eps=1e-9 * s[1]).x, s[1] / s[0] * rng.standard_normal(d)):
                got = regression._solution(data, labels, x, 0, "dual-newton", "l2", 0.0).per_group_costs
                want = np.array([np.linalg.norm(g @ x - t) for g, t in zip(groups, targets)])
                assert np.all(np.abs(got - want) <= 1e-12 * want), f"instance {i}"
        data, labels = make([np.ones((3, 2)), np.eye(2)], [np.zeros(3), np.zeros(2)])
        assert stacked_least_squares(data, labels).max_cost == 0.0

    def test_singular_group_and_rank_deficient_design_certify(self):
        # a one-row group has a singular Gram matrix, so its vertex sees only one direction; a repeated column
        # makes the stacked design, and so the pencil's base, singular
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 5))
            one, many = rng.standard_normal((1, d)), rng.standard_normal((int(rng.integers(d + 1, 3 * d)), d))
            b_one, b_many = 3.0 * rng.standard_normal(1), rng.standard_normal(many.shape[0])
            pairs = [([one, many], [b_one, b_many]), ([many, one], [b_many, b_one]),
                     ([np.column_stack([one, one[:, :1]]), np.column_stack([many, many[:, :1]])], [b_one, b_many])]
            for k, (groups, targets) in enumerate(pairs):
                sol = minmax_subgradient(*make(groups, targets), eps=1e-9)
                assert sol.max_cost - sol.gap <= two_group_l2_minmax(groups, targets), f"seed {seed}, pair {k}"
                assert sol.gap <= 1e-9 * max(sol.max_cost, 1.0), f"seed {seed}, pair {k}"

    def test_vertex_optimum_ends_in_few_points(self):
        # bisecting towards the vertex took 28 solves on most of these; evaluating the vertex itself ends there
        counts, at_vertex = [], []
        for i, (groups, targets, vertex) in enumerate(noisy_and_quiet_pairs()):
            sol = minmax_subgradient(*make(groups, targets), eps=1e-9)
            assert sol.gap <= 1e-9, f"instance {i}"
            counts.append(sol.iterations)
            if vertex:
                at_vertex.append(sol.iterations)
        assert len(at_vertex) >= 100
        assert max(at_vertex) <= 3 and np.median(counts) <= 4 and max(counts) <= 10

    def test_rank_deficient_group_at_its_own_vertex(self):
        # the noisy group never has feature 0, so its vertex leaves that direction to the quiet group's fit: the
        # limit of u as mu reaches the vertex; any other point there misreads the slope and bisects, up to 95 solves
        rng = np.random.default_rng(12)
        for i in range(200):
            d = int(rng.integers(2, 6))
            noisy = rng.standard_normal((int(rng.integers(d + 2, 4 * d + 2)), d))
            noisy[:, 0] = 0.0
            quiet = rng.standard_normal((int(rng.integers(d + 1, 4 * d)), d))
            x = rng.standard_normal(d)
            targets = [noisy @ x + 3.0 * rng.standard_normal(noisy.shape[0]),
                       quiet @ x + 0.1 * rng.standard_normal(quiet.shape[0])]
            sol = minmax_subgradient(*make([noisy, quiet], targets), eps=1e-9)
            assert sol.gap <= 1e-9 * max(sol.max_cost, 1.0) and sol.iterations <= 10, f"instance {i}"


def planted_groups(rng, ell, d):
    """ell groups of 40-119 rows in R^d, each with its own design mix, planted coefficients and noise level."""
    common = rng.standard_normal(d)
    groups, targets = [], []
    for _ in range(ell):
        A = rng.standard_normal((int(rng.integers(40, 120)), d)) @ (np.eye(d) + 0.5 * rng.standard_normal((d, d)))
        groups.append(A)
        targets.append(A @ (common + rng.standard_normal(d)) + rng.uniform(0.5, 2.0) * rng.standard_normal(A.shape[0]))
    return groups, targets


class TestManyGroups:
    """The dual ascent away from two groups: faces of the simplex, vertex starts, badly scaled and huge boxes."""

    @pytest.mark.parametrize("ell, d", [(1, 23), (3, 23), (4, 23), (8, 23), (16, 23), (32, 23), (8, 2)])
    def test_planted_instances_close(self, ell, d):
        # (8, 2) has more groups than d + 1, so the ascent starts at a vertex
        for seed in range(3):
            groups, targets = planted_groups(np.random.default_rng([seed, ell, d]), ell, d)
            sol = minmax_subgradient(*make(groups, targets), eps=1e-6)
            assert sol.method == "dual-newton"
            assert sol.gap <= 1e-6, f"seed {seed}"
            assert sol.iterations <= 30, f"seed {seed}"

    def test_huge_box_matches_the_default_box(self):
        # a box of 1e300 once overflowed the certificate's box charge and left a gap of 4e283
        rng = np.random.default_rng(31)
        groups = [rng.standard_normal((n, 3)) for n in (20, 12, 15)]
        noise = (1.0, 3.0, 2.0)
        targets = [g @ rng.standard_normal(3) + s * rng.standard_normal(g.shape[0]) for g, s in zip(groups, noise)]
        data, labels = make(groups, targets)
        default = minmax_subgradient(data, labels)
        huge = minmax_subgradient(data, labels, box_delta=1e300)
        assert huge.max_cost == pytest.approx(default.max_cost, rel=1e-9)
        assert huge.gap <= 1e-5 and default.gap <= 1e-5

    def test_rank_deficient_badly_scaled_fits_return(self):
        # three rows in R^5 fit exactly; the scales 1e-2 and 1e3 made the barrier's Newton matrix singular
        for seed in range(40):
            rng = np.random.default_rng(seed)
            groups = [1e-2 * rng.standard_normal((2, 5)), 1e3 * rng.standard_normal((1, 5))]
            targets = [1e2 * rng.standard_normal(2), 1e-2 * rng.standard_normal(1)]
            sol = minmax_subgradient(*make(groups, targets))
            assert sol.method == "dual-newton" and sol.iterations == 0, f"seed {seed}"  # an exact fit, up to rounding
            assert 0.0 <= sol.max_cost - sol.gap <= sol.max_cost, f"seed {seed}"

    def test_scaled_random_instances_close(self):
        # up to six groups of 1 to 2d + 2 rows in d <= 5, each design and target scaled by 10^U(-3, 3), a fifth with
        # a repeated group: tiny and huge groups, groups with fewer rows than d, optima on faces and at vertices
        rng = np.random.default_rng(1)
        for i in range(60):
            ell, d = int(rng.integers(2, 6)), int(rng.integers(1, 6))
            groups, targets = random_grouped(rng, ell, d, max_rows=2 * d + 2)
            s = 10.0 ** rng.uniform(-3.0, 3.0, size=2 * ell) if i % 3 else np.ones(2 * ell)
            groups, targets = [a * g for a, g in zip(s, groups)], [a * t for a, t in zip(s[ell:], targets)]
            if i % 5 == 0:
                groups, targets = groups + [groups[0]], targets + [targets[0]]
            sol = minmax_subgradient(*make(groups, targets), eps=1e-9)
            assert sol.gap <= max(1e-9, 1e-9 * sol.max_cost) or sol.iterations == 0, f"instance {i}"
            assert sol.iterations <= 60, f"instance {i}"

    def test_exactly_fitted_groups_leave_the_support(self):
        # two one-row groups at scale 1e-4 fit exactly wherever the others are solved: no curvature along their
        # weights, which the damping floor sends straight to zero (a Hypothesis example of the order property)
        groups = [np.array([[0.00012573, -0.0001321, 0.00064042]]), np.array([[0.0001049, -0.00053567, 0.0003616]]),
                  np.array([[1304.00004513, 947.08096313, -703.73523581]]),
                  np.array([[-1265.42147105, -623.27446254, 41.32597935],
                            [-2325.03077464, -218.79166393, -1245.91094725],
                            [-732.2673547, -544.25898286, -316.30015637]])]
        targets = [np.array([0.00041163]), np.array([0.00104251]), np.array([-128.53466294]),
                   np.array([1366.46347055, -665.19467349, 351.51007009])]
        for order in ([0, 1, 2, 3], [2, 1, 0, 3]):
            sol = minmax_subgradient(*make([groups[i] for i in order], [targets[i] for i in order]), eps=1e-6)
            assert sol.gap <= 1e-6 and sol.iterations <= 15, f"order {order}"
            assert sol.max_cost == pytest.approx(889.626257, rel=1e-8)

    def test_repeated_group_ends_at_the_floor(self):
        # a third group repeating the first at a tolerance below working precision: near-exact fits among them
        rng = np.random.default_rng(35)
        for i in range(40):
            groups, targets = scaled_two_group(rng)
            sol = minmax_subgradient(*make(groups + [groups[0]], targets + [targets[0]]), eps=1e-13)
            assert sol.iterations <= 100, f"instance {i}"
            # the certificate charges the rounding of its inner products, so it holds with no allowance
            assert sol.max_cost - sol.gap <= two_group_l2_minmax(groups, targets), f"instance {i}"


BALLS = [  # (centres, radius) of the smallest ball about the points c_i, its closed form
    ([(0, 0), (4, 0), (1, 1)], 2.0),  # an obtuse triangle: the long side's midpoint, an edge optimum
    ([(0, 0), (4, 0), (2, 3)], 13 / 6),  # an acute one: the circumcentre, on the face of all three
    ([(0, 0), (1, 0), (0, 1), (1, 1), (0.5, 0.5)], math.sqrt(0.5)),  # ell = 5 > k + 1: the vertex start
    # a regular tetrahedron and a point inside it
    ([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1), (0.1, 0.2, 0)], math.sqrt(3)),
    ([(math.cos(t), math.sin(t)) for t in np.arange(6) * math.pi / 3], 1.0),  # a regular hexagon
    ([(2.0, -1.0)], 0.0),
]


def ball(centres):
    """Groups A_i = I_d, b_i = c_i: max_i ||x - c_i||, the radius of the ball about x through the farthest c_i."""
    C = np.asarray(centres, dtype=float)
    return make([np.eye(C.shape[1])] * len(C), list(C))


def clouds(count):
    """Point clouds of 2-39 points in d = 1..5, standard normals times 10^U(-3, 3)."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        ell, d = int(rng.integers(2, 40)), int(rng.integers(1, 6))
        yield rng.standard_normal((ell, d)) * 10.0 ** rng.uniform(-3.0, 3.0)


class TestSmallestBall:
    """With every A_i = I_d and b_i = c_i, the L2 solve finds the smallest ball about the points c_i."""

    @pytest.mark.parametrize("centres, radius", BALLS)
    def test_closed_form_radii(self, centres, radius):
        sol = minmax_subgradient(*ball(centres), eps=1e-12)
        assert sol.max_cost == pytest.approx(radius, rel=1e-12, abs=1e-12)
        assert sol.gap <= 1e-12 * max(radius, 1.0) and sol.iterations <= 4

    def test_random_clouds(self):
        for i, C in enumerate(clouds(300)):
            sol = minmax_subgradient(*ball(C), eps=1e-12)
            far = float(np.linalg.norm(C - sol.x, axis=1).max())
            assert sol.max_cost == pytest.approx(far, rel=1e-9), f"cloud {i}"
            assert sol.gap <= 1e-9 * sol.max_cost and sol.iterations <= 10, f"cloud {i}"


class BallOracle:
    """``regression._ascend``'s oracle for the smallest ball about the rows c_i of C, with nothing of regression.

    At lam the centre u = lam C minimises g(lam) = sum_i lam_i ||u - c_i||^2 = sum_i lam_i ||c_i||^2 - ||lam C||^2,
    so -g'' = 2 ||c_a - c_b||^2 on an edge, the Hessian on a face is -2 W^T W with W = r_S^T, and sqrt(g) bounds the
    radius. Costs are read in units of the start's radius, the centroid's; the ascent starts at the farthest point.
    """

    def __init__(self, C):
        self.C, self.start = C, C.mean(axis=0)
        far = np.linalg.norm(C - self.start, axis=1)
        self.scale, self.weights = float(far.max()), np.eye(len(C))[int(far.argmax())]

    def point(self, lam, edge):
        u = lam @ self.C
        self.r = (u - self.C) / self.scale
        self.f = np.sum(self.r * self.r, axis=1)
        return u, self.f

    def curvature(self, S):
        return 2.0 * float(np.sum((self.C[S[1]] - self.C[S[0]]) ** 2)) / self.scale**2, 0.0

    def root(self, S):
        return self.r[S].T

    def feasible(self, x, lam):  # the ball's feasible set is every centre: bound bounds it
        return -math.inf

    def bound(self, x, lam, cost):
        return math.sqrt(float(lam @ self.f))


class TestAscentSeam:
    """``_ascend`` reads its problem only through the oracle: a smallest-ball oracle drives it without regression."""

    @pytest.mark.parametrize("centres, radius", BALLS[:-1])
    def test_ball_oracle_reaches_closed_form_radii(self, centres, radius):
        C = np.asarray(centres, dtype=float)
        oracle = BallOracle(C)
        best, steps, lower = regression._ascend(oracle, 1e-12, 100)
        assert float(np.linalg.norm(C - best, axis=1).max()) == pytest.approx(radius, rel=1e-11)
        assert lower * oracle.scale <= radius * (1.0 + 1e-12) and steps <= 4

    def test_ball_oracle_agrees_with_the_l2_solve(self):
        for i, C in enumerate(clouds(200)):
            best, _, _ = regression._ascend(BallOracle(C), 1e-12, 100)
            sol = minmax_subgradient(*ball(C), eps=1e-12)
            assert float(np.linalg.norm(C - best, axis=1).max()) == pytest.approx(sol.max_cost, rel=1e-9), f"cloud {i}"


class TestUserBox:
    """Where a user box binds, the stop also reads the box dual's bound; ``gap`` still bounds the optimum over all x."""

    @pytest.mark.parametrize("groups, targets, box, optimum", [
        ([[(0, 3)], [(0, 2)], [(-3, 0)]], [[-6], [-6], [4]], 2.0, 2.0),  # group 2 costs |2 x_2 + 6| >= 2 at x_2 = -2
        ([[(2, 3)], [(0, -2)], [(3, 0), (2, 2)]], [[4], [-8], [3, -1]], 1.0, 6.0),  # group 2: |8 - 2 x_2| >= 6
        ([[(3, 3), (-2, 1)], [(-3, 2)], [(0, -1)]], [[5, 1], [1], [-9]], 2.0, 7.0),  # group 3: |9 - x_2| >= 7
        # this one raised "SVD did not converge in Linear Least Squares"; group 4 costs |2 - x_1| >= 1 at x_1 = 1
        ([[(3, -2)], [(0, 0)], [(0, 2)], [(-1, 0)]], [[3], [0], [-1], [-2]], 1.0, 1.0),
    ])
    def test_box_optimum_ends_by_its_bound(self, groups, targets, box, optimum):
        # the first three took over 1000 solves, with overflow warnings, while the stop read only the bound over all x
        data, labels = make([np.array(g, dtype=float) for g in groups], [np.array(t, dtype=float) for t in targets])
        sol = minmax_subgradient(data, labels, eps=1e-9, box_delta=box)
        assert sol.max_cost == pytest.approx(optimum, rel=1e-9) and sol.iterations <= 5
        assert np.all(np.abs(sol.x) < box)
        assert sol.max_cost - sol.gap <= minmax_subgradient(data, labels, eps=1e-9).max_cost  # over all x


def l1_lp_optimum(groups, targets) -> float:
    """HiGHS's optimum of min t s.t. -u <= A x - b <= u, sum_{G_i} u_j <= t, over (x, u, t)."""
    from scipy.optimize import linprog

    A, b = np.vstack(groups), np.concatenate(targets)
    n, d, ell = A.shape[0], A.shape[1], len(groups)
    member = np.zeros((ell, n))
    member[np.repeat(np.arange(ell), [g.shape[0] for g in groups]), np.arange(n)] = 1.0
    A_ub = np.block([
        [A, -np.eye(n), np.zeros((n, 1))],
        [-A, -np.eye(n), np.zeros((n, 1))],
        [np.zeros((ell, d)), member, -np.ones((ell, 1))],
    ])
    c = np.zeros(d + n + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.concatenate([b, -b, np.zeros(ell)]),
                  bounds=[(None, None)] * d + [(0, None)] * n + [(None, None)], method="highs")
    assert res.status == 0
    return float(res.fun)


class TestInteriorPoint:
    """The exact L1 solver behind ``minmax_subgradient(norm="l1")``."""

    def test_certified_gap_brackets_grid_optimum(self):
        rng = np.random.default_rng(23)
        for i in range(20):
            groups, targets = random_grouped(rng, int(rng.integers(2, 4)), 2)
            data, labels = make(groups, targets)
            sol = minmax_subgradient(data, labels, norm="l1", eps=1e-6, box_delta=4.0)
            opt, _ = grid_minmax_regression(groups, targets, norm="l1", radius=4.0, points=301, levels=10, zoom=20)
            assert sol.method == "interior-point" and sol.norm == "l1"
            assert sol.max_cost - sol.gap <= opt <= sol.max_cost + 1e-6, f"instance {i}"
            assert np.all(np.abs(sol.x) < 4.0), f"instance {i}"

    def test_matches_highs(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(31)
        for d in (3, 3, 4, 5, 5):
            groups, targets = random_grouped(rng, int(rng.integers(2, 5)), d, max_rows=12)
            data, labels = make(groups, targets)
            sol = minmax_subgradient(data, labels, norm="l1", eps=1e-9)
            opt = l1_lp_optimum(groups, targets)
            assert sol.max_cost == pytest.approx(opt, rel=1e-7), f"d = {d}"
            assert sol.max_cost - sol.gap <= opt * (1.0 + 1e-9), f"d = {d}"
        # long blocks: groups of hundreds of rows, where the per-block steps see more than a few entries
        for sizes, d in (((300, 200), 8), ((150, 140, 160), 5)):
            groups = [rng.standard_normal((k, d)) for k in sizes]
            targets = [g @ rng.standard_normal(d) + rng.laplace(size=g.shape[0]) for g in groups]
            data, labels = make(groups, targets)
            sol = minmax_subgradient(data, labels, norm="l1", eps=1e-9)
            opt = l1_lp_optimum(groups, targets)
            assert sol.max_cost == pytest.approx(opt, rel=1e-7), f"rows {sizes}"
            assert sol.max_cost - sol.gap <= opt * (1.0 + 1e-9), f"rows {sizes}"

    @pytest.mark.parametrize("seed, iterations, max_cost", [
        (5, 13, 477.41662574042243),
        (6, 13, 493.1893785554205),
        (7, 13, 434.48941272057885),
    ])
    def test_trajectory_is_pinned(self, seed, iterations, max_cost):
        # a recorded path: rearranging the arithmetic of an iteration must keep it up to rounding
        rng = np.random.default_rng(seed)
        groups = [rng.standard_normal((n, 8)) for n in (360, 240)]
        targets = [g @ rng.standard_normal(8) + rng.laplace(size=g.shape[0]) for g in groups]
        sol = minmax_subgradient(*make(groups, targets), norm="l1", eps=1e-6)
        assert abs(sol.iterations - iterations) <= 1
        assert sol.max_cost == pytest.approx(max_cost, rel=1e-9, abs=0.0)
        assert 0.0 <= sol.gap <= 1e-6

    def test_gap_is_at_most_eps(self):
        rng = np.random.default_rng(12)
        groups = [s * rng.standard_normal((n, 5)) for n, s in ((40, 1.0), (25, 3.0), (60, 0.5))]
        targets = [g @ rng.standard_normal(5) + rng.standard_normal(g.shape[0]) for g in groups]
        data, labels = make(groups, targets)
        for eps in (1e-2, 1e-4, 1e-6):
            sol = minmax_subgradient(data, labels, norm="l1", eps=eps)
            assert 0.0 <= sol.gap <= eps
            assert sol.max_cost == pytest.approx(fair_regression_cost(data, labels, sol.x, "l1"), abs=1e-12)
        # a tolerance below working precision ends at the floor, not at the iteration cap or in NaN
        sol = minmax_subgradient(data, labels, norm="l1", eps=1e-14)
        assert sol.iterations < 100
        assert np.all(np.isfinite(sol.x))
        assert sol.gap <= 1e-7 * sol.max_cost

    def test_exact_fit_returns_without_iterations(self):
        data, labels = make([np.array([[1.0, 2.0]]), np.array([[3.0, -1.0]])], [np.array([0.5]), np.array([2.0])])
        sol = minmax_subgradient(data, labels, norm="l1", eps=1e-6, box_delta=4.0)
        assert sol.max_cost <= 1e-9
        assert sol.gap <= 1e-9
        assert sol.iterations == 0

    def test_iterates_stay_inside_the_box(self):
        # the optimum x = 11 lies outside the box; the best point in it sits at the edge
        data, labels = make([np.array([[1.0]]), np.array([[1.0]])], [np.array([10.0]), np.array([12.0])])
        sol = minmax_subgradient(data, labels, norm="l1", eps=1e-6, box_delta=2.0)
        assert abs(sol.x[0]) < 2.0
        assert sol.max_cost == pytest.approx(10.0, abs=1e-6)
        # the certificate bounds the optimum over all x, here 1, and reaches it up to rounding
        assert 1.0 - 1e-6 <= sol.max_cost - sol.gap <= 1.0 + 1e-12

    def test_never_worse_than_the_start(self):
        # eps above the whole cost ends the run after one iteration, which here leads uphill
        rng = np.random.default_rng(0)
        groups = [rng.standard_normal((40, 3)) for _ in range(2)]
        targets = [1e-3 * (g @ rng.standard_normal(3) + rng.standard_normal(40)) for g in groups]
        groups = [1e-3 * g for g in groups]
        data, labels = make(groups, targets)
        seed = fair_regression_cost(data, labels, stacked_least_squares(data, labels).x, "l1")
        sol = minmax_subgradient(data, labels, norm="l1", eps=0.05)
        assert sol.max_cost <= seed
        assert sol.max_cost - sol.gap <= minmax_subgradient(data, labels, norm="l1", eps=1e-12).max_cost

    def test_duplicated_column_leaves_the_optimum(self):
        # a rank-deficient design: the copy adds a direction that only the box limits
        rng = np.random.default_rng(43)
        groups = [rng.standard_normal((n, 3)) for n in (7, 5, 9)]
        targets = [rng.standard_normal(g.shape[0]) for g in groups]
        data, labels = make(groups, targets)
        full = minmax_subgradient(data, labels, norm="l1", eps=1e-9)
        data, labels = make([np.column_stack([g, g[:, 1]]) for g in groups], targets)
        sol = minmax_subgradient(data, labels, norm="l1", eps=1e-9)
        assert sol.max_cost == pytest.approx(full.max_cost, abs=1e-8)
        assert sol.max_cost - sol.gap <= full.max_cost + 1e-12

    def test_default_box_stacks_and_factors_once(self, monkeypatch):
        rng = np.random.default_rng(71)
        groups = [rng.standard_normal((n, 4)) for n in (30, 20, 25)]
        targets = [g @ rng.standard_normal(4) + rng.standard_normal(g.shape[0]) for g in groups]
        data, labels = make(groups, targets)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(GroupedMatrix, "stacked", counted("stacked", GroupedMatrix.stacked))
        monkeypatch.setattr(regression, "svd", counted("svd", regression.svd))
        monkeypatch.setattr(np.linalg, "svd", counted("np.linalg.svd", np.linalg.svd))
        minmax_subgradient(data, labels, norm="l1", eps=1e-6)
        assert calls == {"stacked": 1, "svd": 1, "np.linalg.svd": 1}

    def test_default_box_matches_default_box_radius(self):
        # on full-rank designs the solver's own singular values give default_box_radius's box
        rng = np.random.default_rng(72)
        for i in range(10):
            d = int(rng.integers(2, 6))
            groups, targets = random_grouped(rng, int(rng.integers(2, 4)), d, max_rows=3 * d)
            data, labels = make(groups, targets)
            if np.linalg.matrix_rank(data.stacked()) < d:
                continue
            own = minmax_subgradient(data, labels, norm="l1", eps=1e-6)
            given = minmax_subgradient(data, labels, norm="l1", eps=1e-6, box_delta=default_box_radius(data, labels))
            assert own.iterations == given.iterations, f"instance {i}"
            assert own.max_cost == pytest.approx(given.max_cost, rel=1e-12, abs=0.0), f"instance {i}"

    @pytest.mark.parametrize("seed", [290, 359, 591, 616, 935])
    def test_degenerate_integer_designs(self, seed):
        # rounded designs with zero rows, whose Newton matrix loses its last pivot late in a run
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        n = int(rng.integers(d + 1, 15))
        A = np.round(rng.standard_normal((n, d)) * rng.choice([0.3, 1.0], (n, 1)))
        b = rng.standard_normal(n)
        sol = minmax_subgradient(*make([A], [b]), norm="l1", eps=1e-9)
        assert 0.0 <= sol.gap <= 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_certified_on_the_former_subgradient_instances(self, seed):
        # the two instances that pinned the subgradient loop this solver replaced, bit for bit
        rng = np.random.default_rng(61)
        instances = [random_grouped(rng, 3, 2), random_grouped(rng, 2, 3, max_rows=6)]
        groups, targets = instances[seed]
        data, labels = make(groups, targets)
        if seed == 0:
            sol = minmax_subgradient(data, labels, norm="l1", box_delta=4.0, eps=1e-6)
            opt, _ = grid_minmax_regression(groups, targets, norm="l1", radius=4.0, points=301, levels=10, zoom=20)
        else:
            sol = minmax_subgradient(data, labels, norm="l1")
            opt, _ = grid_minmax_regression_nd(groups, targets, center=sol.x, radius=1.0, norm="l1", levels=12)
        assert sol.method == "interior-point" and math.isfinite(sol.gap)
        assert sol.max_cost - sol.gap <= opt <= sol.max_cost + 1e-5


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_certificate_holds_when_the_box_cuts_off_an_exact_fit(norm):
    # four rows in R^4 fit exactly, so the optimum over all x is 0, but not inside a box of 0.5.
    # The groups' scales differ by 1e3, which leaves the projected multipliers nearly all rounding.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        groups = [rng.standard_normal((3, 4)), 1e3 * rng.standard_normal((1, 4))]
        targets = [rng.standard_normal(3), 1e3 * rng.standard_normal(1)]
        sol = minmax_subgradient(*make(groups, targets), norm=norm, eps=1e-9, box_delta=0.5)
        assert sol.max_cost - sol.gap <= 1e-9 * sol.max_cost, f"seed {seed}"


@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("name", ["eps", "box_delta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_tolerance_and_box_must_be_positive_and_finite(norm, name, value):
    # NaN passed a plain "<= 0" check: eps ran to the precision floor, a box of NaN failed deep inside
    with pytest.raises(ValueError, match="positive and finite"):
        minmax_subgradient(*ONE_D, norm=norm, **{name: value})


def probe_instance(design=1.0, target=1.0):
    """Two groups of 40 and 30 rows in R^3 with a shared planted x, the design and the targets scaled."""
    rng = np.random.default_rng(5)
    groups = [rng.standard_normal((n, 3)) for n in (40, 30)]
    targets = [g @ np.array([1.0, -2.0, 0.5]) + 0.3 * rng.standard_normal(g.shape[0]) for g in groups]
    return make([design * g for g in groups], [target * t for t in targets])


@pytest.mark.parametrize("norm", ["l1", "l2"])
class TestScaleInvariance:
    """The default box, the exact-fit test and the threshold search's tolerance scale with the data."""

    def test_scaled_design_is_solved_as_the_original(self, norm):
        # the box once was clipped to 1e6: at 1e-8 it cut off every minimiser, L2 stopped at 13.7 and L1 at 64.1
        ref = minmax_subgradient(*probe_instance(), norm=norm, eps=1e-9)
        for s in (1e-8, 1e-4, 1e4):
            sol = minmax_subgradient(*probe_instance(design=s), norm=norm, eps=1e-9)
            assert sol.iterations == ref.iterations, f"scale {s}"
            assert sol.max_cost == pytest.approx(ref.max_cost, rel=1e-9, abs=0.0), f"scale {s}"

    def test_tiny_data_is_not_an_exact_fit(self, norm):
        # an absolute exact-fit floor of 1e-12 once returned the stacked seed with the trivial bound here
        ref = minmax_subgradient(*probe_instance(), norm=norm, eps=1e-9)
        for s in (1e-13, 1e-14):
            sol = minmax_subgradient(*probe_instance(s, s), norm=norm, eps=1e-9 * s)
            assert sol.iterations == ref.iterations, f"scale {s}"
            assert sol.max_cost / s == pytest.approx(ref.max_cost, rel=1e-9, abs=0.0), f"scale {s}"

    def test_threshold_search_on_tiny_data(self, norm):
        # an absolute floor of 1e-9 on the solve's tolerance once returned the seed, in L2 3.8% above the optimum
        ref = binary_search_fair_regression(*probe_instance(), norm=norm)
        for s in (1e-9, 1e-10):
            sol = binary_search_fair_regression(*probe_instance(s, s), norm=norm)
            assert sol.max_cost / s == pytest.approx(ref.max_cost, rel=1e-6, abs=0.0), f"scale {s}"

    def test_default_box_holds_the_minimiser(self, norm):
        # a box of 1e300 cuts off nothing, so its solve's x must lie in the ball the default box is proven to hold
        rng = np.random.default_rng(74)
        instances = [probe_instance(design=1e-7)] + [make(*planted_groups(rng, ell, 4)) for ell in (3, 32)]
        for i, (data, labels) in enumerate(instances):
            huge = minmax_subgradient(data, labels, norm=norm, eps=1e-9, box_delta=1e300)
            assert np.linalg.norm(huge.x) <= default_box_radius(data, labels), f"instance {i}"
            default = minmax_subgradient(data, labels, norm=norm, eps=1e-9)
            assert default.max_cost == pytest.approx(huge.max_cost, rel=1e-8), f"instance {i}"

    def test_zero_targets_return_at_once(self, norm):
        # the exact-fit threshold is relative, so 0 for all-zero targets, and a cost of 0 still meets it
        data, labels = make([np.ones((2, 2)), np.eye(2)], [np.zeros(2), np.zeros(2)])
        for sol in (minmax_subgradient(data, labels, norm=norm), binary_search_fair_regression(data, labels, norm)):
            assert sol.iterations == 0 and sol.max_cost == 0.0 and sol.gap == 0.0


INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def credit_inputs():
    """``perfbench/inputs.py``, the benchmark's seeded credit-shaped generators (numpy only), loaded from its path."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def credit_transformed(ell, cond):
    """ell groups of 400 credit-shaped rows in R^8, planted targets, and the designs times T = Q1 diag(s) Q2 with
    s = logspace(0, -log10(cond), 8): (untransformed, transformed) instances with the same optimum."""
    inputs = credit_inputs()
    groups = inputs.credit_groups(np.random.default_rng(11), sizes=(400,) * ell, d=8)
    targets = inputs.planted_targets(np.random.default_rng(11), groups)
    rng = np.random.default_rng(5)
    q1, q2 = (np.linalg.qr(rng.standard_normal((8, 8)))[0] for _ in range(2))
    T = q1 @ np.diag(np.logspace(0.0, -math.log10(cond), 8)) @ q2
    return make(groups, targets), make([g @ T for g in groups], targets)


class TestWhitenedBasis:
    """The L2 solver works in the stacked design's orthonormal basis: x -> T x leaves its answer, one SVD a solve."""

    @pytest.mark.parametrize("ell, cond", [(2, 1e4), (2, 1e6), (3, 1e4), (3, 1e6), (3, 1e8)])
    def test_column_transform_leaves_the_optimum(self, ell, cond):
        # the normal equations on column-scaled R factors squared cond(T): up to +74% above the optimum
        plain, transformed = credit_transformed(ell, cond)
        ref = minmax_subgradient(*plain, eps=1e-9)
        sol = minmax_subgradient(*transformed, eps=1e-9)
        assert sol.max_cost == pytest.approx(ref.max_cost, rel=1e-6, abs=0.0)
        assert sol.gap <= 1e-6 * sol.max_cost and sol.iterations <= 10

    def test_transform_past_the_rank_cut_is_certified(self):
        # at ell = 2 and cond(T) = 1e8 the design's sigma_min / sigma_max is 8.8e-11, so linalg.svd keeps rank 7,
        # as the L1 solver does: the rank-7 optimum is 27% above the full one, and the certificate leaves the cut
        # direction free, so the gap says so
        plain, transformed = credit_transformed(2, 1e8)
        s = np.linalg.svd(np.vstack(transformed[0].groups), compute_uv=False)
        assert s[-1] <= RANK_RTOL * s[0]
        ref = minmax_subgradient(*plain, eps=1e-9)
        sol = minmax_subgradient(*transformed, eps=1e-9)
        assert sol.max_cost - sol.gap <= ref.max_cost and sol.iterations <= 10

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "split"])
    def test_near_collinear_design_closes(self, shared):
        # a fourth column the first plus 1e-7 noise (cond ~2e7) left gaps up to 4% of the cost on the normal equations
        for seed in range(5):
            rng = np.random.default_rng(seed)
            A = rng.standard_normal((60, 4))
            A[:, 3] = A[:, 0] + 1e-7 * rng.standard_normal(60)
            b = A @ rng.standard_normal(4) + rng.standard_normal(60)
            if shared:
                groups, targets = [A] * 3, [b, b + rng.standard_normal(60), b - rng.standard_normal(60)]
            else:
                groups, targets = [A[:20], A[20:40], A[40:]], [b[:20], b[20:40], b[40:]]
            sol = minmax_subgradient(*make(groups, targets), eps=1e-12)
            assert sol.gap <= 1e-9 * sol.max_cost, f"seed {seed}"

    def test_direction_below_the_rank_cut_is_not_certified_away(self):
        # A_2's only direction sits 1e-11 below A_1's, under the rank cut: x = (1, 1e11) fits both groups, so OPT = 0,
        # while the cut design's optimum is 1
        data, labels = make([np.array([[1.0, 0.0]]), np.array([[0.0, 1e-11]])], [np.array([1.0]), np.array([1.0])])
        sol = minmax_subgradient(data, labels, eps=1e-9)
        assert sol.max_cost == pytest.approx(1.0) and sol.max_cost - sol.gap <= 1e-12

    def test_certificate_holds_on_column_mixed_designs(self):
        # designs times T of condition 1e7: the optimum is the untransformed one's, reached at T^-1 y. The bound is
        # held against that point's and the solve's own cost on the R stack in extended precision; a certificate
        # that ignored the SVD's backward error rose above them by up to 1e-9 of the cost
        rng, worst = np.random.default_rng(418), -math.inf
        for i in range(60):
            d = int(rng.integers(2, 5))
            groups, targets = random_grouped(rng, 2, d, max_rows=2 * d + 2)
            q1, q2 = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
            T = q1 @ np.diag(np.logspace(0.0, -7.0, d)) @ q2
            mixed = make([g @ T for g in groups], targets)
            sol = minmax_subgradient(*mixed, eps=1e-9)
            R = mixed[1].augmented_r(mixed[0]).astype(np.longdouble)
            y = minmax_subgradient(*make(groups, targets), eps=1e-9).x
            for x in (np.linalg.solve(T, y), sol.x):
                cost = float(np.linalg.norm(R @ np.append(x, -1.0).astype(np.longdouble), axis=1).max())
                worst = max(worst, (sol.max_cost - sol.gap - cost) / cost)
                assert sol.max_cost - sol.gap <= cost, f"instance {i}"
        assert worst > -1e-6  # the bound is tight as well as sound

    def test_one_svd_per_solve(self, monkeypatch):
        # the seed, sigma_min, the certificate's range and the solve share one SVD; the stacked seed adds one
        calls, real_svd = Counter(), np.linalg.svd

        def svd(*args, **kwargs):
            calls["svd"] += 1
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        for ell in (2, 3):
            data, labels = make(*planted_groups(np.random.default_rng(ell), ell, 5))
            for solve, count in ((lambda: minmax_subgradient(data, labels, eps=1e-9), 1),
                                 (lambda: binary_search_fair_regression(data, labels), 2)):
                calls.clear()
                solve()
                assert calls["svd"] == count, f"ell {ell}"


class TestFeasibilityExports:
    def test_l1_counts(self):
        data, labels = make([np.array([[1.0], [2.0]])], [np.array([0.5, -0.5])])
        model = export_l1_feasibility(data, labels, 1.0)
        assert model.variable_count == 3  # one x, two slacks
        assert model.constraint_count == 7  # 2 + 2 + 2 + 1
        assert model.norm == "l1"
        assert model.text.startswith("\\")
        assert model.text.rstrip().endswith("End")

    def test_l1_infeasible_below_optimum(self):
        pytest.importorskip("scipy")
        from scipy.optimize import linprog

        def solve(model_data, model_labels, L):
            model = export_l1_feasibility(model_data, model_labels, L)
            # independent feasibility check: rebuild the polytope directly
            d = model_data.d
            nvars = model.variable_count
            A_ub, b_ub = [], []
            col = d
            slack_cols = {}
            for i, (A, b) in enumerate(zip(model_data.groups, model_labels.targets)):
                for j in range(A.shape[0]):
                    slack_cols[(i, j)] = col
                    col += 1
            for i, (A, b) in enumerate(zip(model_data.groups, model_labels.targets)):
                for j in range(A.shape[0]):
                    up = np.zeros(nvars)
                    up[:d] = A[j]
                    up[slack_cols[(i, j)]] = -1.0
                    A_ub.append(up)
                    b_ub.append(b[j])
                    lo = np.zeros(nvars)
                    lo[:d] = -A[j]
                    lo[slack_cols[(i, j)]] = -1.0
                    A_ub.append(lo)
                    b_ub.append(-b[j])
            for i, (A, b) in enumerate(zip(model_data.groups, model_labels.targets)):
                row = np.zeros(nvars)
                for j in range(A.shape[0]):
                    row[slack_cols[(i, j)]] = 1.0
                A_ub.append(row)
                b_ub.append(L)
            bounds = [(None, None)] * d + [(0, None)] * (nvars - d)
            res = linprog(np.zeros(nvars), A_ub=np.array(A_ub), b_ub=np.array(b_ub), bounds=bounds, method="highs")
            return res.status == 0

        data, labels = ONE_D
        opt, _ = grid_minmax_regression([g for g in data.groups], [t for t in labels.targets], norm="l1")
        assert solve(data, labels, 1.01 * opt)
        assert not solve(data, labels, 0.99 * opt)

    def test_l1_infeasible_with_zero_design(self):
        data, labels = make([np.array([[0.0]])], [np.array([2.0])])
        model = export_l1_feasibility(data, labels, 0.0)
        # residual is fixed at -2, so slack >= 2 contradicts the group cap 0
        assert "grp_1" in model.text

    def test_l2_counts_and_feasibility(self):
        rng = np.random.default_rng(6)
        groups, _ = random_grouped(rng, 3, 2)
        x_star = rng.standard_normal(2)
        data, labels = make(groups, [g @ x_star for g in groups])
        model = export_l2_feasibility(data, labels, 0.0)
        assert model.constraint_count == 3
        assert model.variable_count == 2
        # consistent system: x_star satisfies every quadratic constraint at L=0
        for A, b in zip(data.groups, labels.targets):
            lhs = x_star @ (A.T @ A) @ x_star - 2 * (A @ x_star) @ b + b @ b
            assert lhs <= 1e-9

    def test_l2_threshold_separates(self):
        data, labels = SYMMETRIC_1D

        def feasible(L):
            # numeric oracle: the single scalar x must satisfy both quadratics
            xs = np.linspace(-3, 3, 20001)
            ok = np.ones_like(xs, dtype=bool)
            for A, b in zip(data.groups, labels.targets):
                a = float(A[0, 0])
                bb = float(b[0])
                ok &= (a * xs - bb) ** 2 <= L + 1e-12
            return bool(np.any(ok))

        assert feasible(1.02)
        assert not feasible(0.98)
        m_feas = export_l2_feasibility(data, labels, 1.02)
        m_infeas = export_l2_feasibility(data, labels, 0.98)
        for model, L in ((m_feas, 1.02), (m_infeas, 0.98)):
            header = model.text.splitlines()[0]
            assert float(header.rsplit(" ", 1)[1]) == pytest.approx(L)

    def test_text_round_trip_coefficients(self):
        rng = np.random.default_rng(7)
        groups, targets = random_grouped(rng, 2, 2)
        data, labels = make(groups, targets)
        model = export_l1_feasibility(data, labels, 3.5)
        lines = model.text.splitlines()
        parsed_vars = set()
        ups = {}
        for line in lines:
            line = line.strip()
            if line.startswith("up_") or line.startswith("lo_") or line.startswith("pos_") or line.startswith("grp_"):
                name, rest = line.split(":", 1)
                tokens = rest.split()
                for tok in tokens:
                    if tok.startswith("x") or tok.startswith("t_"):
                        parsed_vars.add(tok)
                if name.startswith("up_"):
                    coeffs = []
                    sign = 1.0
                    for tok in tokens:
                        if tok == "-":
                            sign = -1.0
                        elif tok == "+":
                            sign = 1.0
                        elif tok not in ("<=", ">="):
                            try:
                                coeffs.append(sign * float(tok))
                            except ValueError:
                                pass
                    ups[name] = coeffs
        assert len(parsed_vars) == model.variable_count
        # each up_i_j line carries the exact design row to 17 significant digits
        i, j = 1, 1
        row = data.groups[0][0]
        got = ups["up_1_1"]
        for expected, actual in zip(row, got):
            assert actual == pytest.approx(expected, rel=1e-12)
        constraint_lines = [
            ln for ln in lines
            if ln.strip().startswith(("up_", "lo_", "pos_", "grp_"))
        ]
        assert len(constraint_lines) == model.constraint_count

    def test_negative_threshold_rejected(self):
        data, labels = SYMMETRIC_1D
        with pytest.raises(ValueError):
            export_l1_feasibility(data, labels, -1.0)
        with pytest.raises(ValueError):
            export_l2_feasibility(data, labels, -0.5)


class TestBinarySearch:
    def test_consistent_system_near_zero(self):
        rng = np.random.default_rng(8)
        groups, _ = random_grouped(rng, 3, 3)
        x_star = rng.standard_normal(3)
        data, labels = make(groups, [g @ x_star for g in groups])
        sol = binary_search_fair_regression(data, labels, eps=0.1)
        assert sol.max_cost <= 1e-6

    def test_symmetric_within_factor(self):
        data, labels = SYMMETRIC_1D
        eps = 0.05
        sol = binary_search_fair_regression(data, labels, eps=eps)
        assert sol.max_cost <= (1 + eps) * 1.0 + 1e-3
        assert sol.iterations <= math.ceil(math.log(2) / math.log1p(eps)) + 2
        assert sol.max_cost - sol.gap <= 1.0  # the solve's certificate; the optimum is 1
        l1 = binary_search_fair_regression(data, labels, eps=eps, norm="l1")
        assert l1.max_cost <= (1 + eps) * 1.0 + 1e-3
        assert 0.0 <= l1.max_cost - l1.gap <= 1.0 + 1e-12  # the L1 optimum is 1 too, up to rounding

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(st.integers(2, 8), st.integers(1, 5), st.sampled_from(["l1", "l2"]), st.sampled_from([0.05, 0.3]),
           st.integers(0, 2**32 - 1))
    def test_one_solve_meets_the_search_contract(self, ell, d, norm, eps, seed):
        rng = np.random.default_rng(seed)
        data, labels = make(*random_grouped(rng, ell, d, max_rows=2 * d + 2))
        start = fair_regression_cost(data, labels, stacked_least_squares(data, labels).x, norm)
        rounding = 1e-9 * max(start, 1.0)
        sol = binary_search_fair_regression(data, labels, norm=norm, eps=eps)
        bound = sol.max_cost - sol.gap
        assert sol.max_cost <= start
        assert bound <= minmax_subgradient(data, labels, norm=norm, eps=1e-9).max_cost + rounding
        assert sol.max_cost <= (1.0 + eps) * bound + rounding
        assert sol.iterations <= math.ceil(math.log(ell) / math.log1p(eps)) + 2

    def test_met_levels_match_the_count_over_every_level(self, monkeypatch):
        # the closed-form count against one over the array of all cap levels, with the solve's cost drawn
        rng = np.random.default_rng(37)
        for i in range(200):
            ell = int(rng.integers(2, 40))
            data, labels = make(*random_grouped(rng, ell, 1))
            level = fair_regression_cost(data, labels, stacked_least_squares(data, labels).x)
            eps = float(10.0 ** rng.uniform(-6.0, -0.01))
            cost = level * 10.0 ** rng.uniform(-math.log10(ell) - 0.3, 0.1)
            solved = regression.RegressionSolution(x=np.zeros(1), per_group_costs=np.full(ell, cost), max_cost=cost,
                                                   iterations=0, method="barrier", norm="l2", gap=0.0)
            monkeypatch.setattr(regression, "minmax_subgradient", lambda *args, **kwargs: solved)
            cap = math.ceil(math.log(ell) / math.log1p(eps)) + 2
            levels = level / (1.0 + eps) ** np.arange(1, cap + 1)
            met = np.count_nonzero(cost <= levels * (1.0 + eps / 4.0))
            assert binary_search_fair_regression(data, labels, eps=eps).iterations == met, f"draw {i}"

    def test_tiny_step_returns_a_solution(self):
        # eps = 1e-300 gives cap ~ 7e299 levels, which no array holds
        data, labels = ONE_D
        sol = binary_search_fair_regression(data, labels, eps=1e-300)
        assert sol.method == "binary-search" and sol.iterations >= 1
        assert sol.max_cost - sol.gap <= sol.max_cost <= stacked_least_squares(data, labels).max_cost


def test_exports_never_emit_double_signs():
    rng = np.random.default_rng(10)
    groups, targets = random_grouped(rng, 3, 3)
    data, labels = make(groups, targets)
    for model in (export_l1_feasibility(data, labels, 2.0), export_l2_feasibility(data, labels, 2.0)):
        assert "+ -" not in model.text
        assert "- +" not in model.text


GOLDEN = make(
    [np.array([[1.0, 0.0], [0.0, 0.5]]), np.array([[-2.0, 1.0], [0.5, -1.0]])],
    [np.array([1.0, 0.5]), np.array([2.0, -0.5])],
)

GOLDEN_L1 = """\\ min-max L1 feasibility model, threshold {L}
\\ feasible exactly when the threshold is at least the optimal worst-group L1 cost
Minimize
 obj: 1 x1 + 1 x2
Subject To
 up_1_1: 1 x1 + 0 x2 - 1 t_1_1 <= 1
 lo_1_1: 1 x1 + 0 x2 + 1 t_1_1 >= 1
 pos_1_1: 1 t_1_1 >= 0
 up_1_2: 0 x1 + 0.5 x2 - 1 t_1_2 <= 0.5
 lo_1_2: 0 x1 + 0.5 x2 + 1 t_1_2 >= 0.5
 pos_1_2: 1 t_1_2 >= 0
 up_2_1: - 2 x1 + 1 x2 - 1 t_2_1 <= 2
 lo_2_1: - 2 x1 + 1 x2 + 1 t_2_1 >= 2
 pos_2_1: 1 t_2_1 >= 0
 up_2_2: 0.5 x1 - 1 x2 - 1 t_2_2 <= -0.5
 lo_2_2: 0.5 x1 - 1 x2 + 1 t_2_2 >= -0.5
 pos_2_2: 1 t_2_2 >= 0
 grp_1: 1 t_1_1 + 1 t_1_2 <= {L}
 grp_2: 1 t_2_1 + 1 t_2_2 <= {L}
Bounds
 x1 free
 x2 free
End
"""

GOLDEN_L2 = """\\ min-max squared-L2 feasibility model, threshold {L}
\\ feasible exactly when the threshold is at least the squared optimal worst-group L2 cost
Minimize
 obj: [ 1 x1 ^2 + 1 x2 ^2 ]
Subject To
 q_1: [ 1 x1 ^2 + 0 x1 * x2 + 0.25 x2 ^2 ] - 2 x1 - 0.5 x2 <= {rhs1}
 q_2: [ 4.25 x1 ^2 - 5 x1 * x2 + 2 x2 ^2 ] + 8.5 x1 - 5 x2 <= {rhs2}
Bounds
 x1 free
 x2 free
End
"""


@pytest.mark.parametrize("L, text", [
    (0.0, "0"),
    (0.1, "0.10000000000000001"),
])
def test_l1_export_golden_text(L, text):
    # zero, negative and leading-negative coefficients and a negative right-hand side
    data, labels = GOLDEN
    assert export_l1_feasibility(data, labels, L).text == GOLDEN_L1.format(L=text)


@pytest.mark.parametrize("L, text, rhs1, rhs2", [
    (0.0, "0", "-1.25", "-4.25"),
    (0.1, "0.10000000000000001", "-1.1499999999999999", "-4.1500000000000004"),
])
def test_l2_export_golden_text(L, text, rhs1, rhs2):
    # a zero cross term, a leading negative linear term and negative right-hand sides
    data, labels = GOLDEN
    assert export_l2_feasibility(data, labels, L).text == GOLDEN_L2.format(L=text, rhs1=rhs1, rhs2=rhs2)
