import math

import numpy as np
import pytest

from fairsketch.grouped import GroupedLabels, GroupedMatrix, fair_regression_cost
from fairsketch.regression import (
    OracleContractError,
    binary_search_fair_regression,
    export_l1_feasibility,
    export_l2_feasibility,
    fair_regression_subgradient,
    minmax_subgradient,
    stacked_least_squares,
)
from oracles import grid_minmax_regression, random_grouped


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

    def test_levels_shrink_geometrically(self):
        rng = np.random.default_rng(9)
        groups, targets = random_grouped(rng, 2, 2)
        data, labels = make(groups, targets)
        thresholds = []

        def oracle(L):
            thresholds.append(L)
            sol = minmax_subgradient(data, labels, eps=1e-7, x0=None)
            return sol.x if sol.max_cost <= L * 1.0125 else None

        binary_search_fair_regression(data, labels, eps=0.05, oracle=oracle)
        for a, b in zip(thresholds, thresholds[1:]):
            assert b == pytest.approx(a / 1.05, rel=1e-12)

    def test_lying_oracle_raises(self):
        data, labels = SYMMETRIC_1D
        with pytest.raises(OracleContractError):
            binary_search_fair_regression(
                data, labels, eps=0.05, oracle=lambda L: np.array([5.0])
            )


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
