import numpy as np
import pytest

from fairsketch.grouped import (
    GroupedLabels,
    GroupedMatrix,
    fair_css_cost,
    fair_lra_cost,
    fair_regression_cost,
    group_indices,
    split_by_group,
)
from fairsketch.css import brute_force_css
from fairsketch.regression import stacked_least_squares
from fairsketch.experiments import synthetic_pair
from oracles import random_grouped

V_FAIR = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
V_STD = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])


class TestGroupedMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupedMatrix.from_arrays(())
        with pytest.raises(ValueError):
            GroupedMatrix.from_arrays((np.ones((1, 2)), np.ones((1, 3))))
        with pytest.raises(ValueError):
            GroupedMatrix.from_arrays((np.ones((1, 2)), np.ones((1, 2))), ("a", "a"))
        with pytest.raises(ValueError):
            GroupedMatrix.from_arrays((np.ones((0, 2)),))

    def test_stacking(self):
        data = synthetic_pair()
        assert data.ell == 2
        assert data.d == 4
        assert data.total_rows == 4
        assert data.stacked().shape == (4, 4)


class TestFairLraCost:
    def test_golden_pair(self):
        data = synthetic_pair()
        assert fair_lra_cost(data, V_FAIR, squared=True) == pytest.approx(4.0, abs=1e-12)
        assert fair_lra_cost(data, V_STD, squared=True) == pytest.approx(7.9202, abs=1e-12)

    def test_identity_projects_exactly(self):
        rng = np.random.default_rng(0)
        groups, _ = random_grouped(rng, 3, 5)
        data = GroupedMatrix.from_arrays(groups)
        assert fair_lra_cost(data, np.eye(5)) <= 1e-8

    def test_shape_error(self):
        with pytest.raises(ValueError):
            fair_lra_cost(synthetic_pair(), np.ones((2, 3)))

    def test_permutation_and_reorder_invariance(self):
        rng = np.random.default_rng(1)
        groups, _ = random_grouped(rng, 3, 4, max_rows=5)
        V = rng.standard_normal((2, 4))
        data = GroupedMatrix.from_arrays(groups)
        base = fair_lra_cost(data, V)
        shuffled = [g[rng.permutation(g.shape[0])] for g in groups]
        assert fair_lra_cost(GroupedMatrix.from_arrays(shuffled), V) == pytest.approx(base, rel=1e-12)
        reordered = GroupedMatrix.from_arrays(tuple(reversed(groups)))
        assert fair_lra_cost(reordered, V) == pytest.approx(base, rel=1e-12)

    def test_single_group_matches_eckart_young_tail(self):
        rng = np.random.default_rng(2)
        from fairsketch.linalg import best_rank_k

        for _ in range(10):
            A = rng.standard_normal((6, 5))
            data = GroupedMatrix.from_arrays((A,))
            s = np.linalg.svd(A, compute_uv=False)
            for k in (1, 2, 3):
                cost = fair_lra_cost(data, best_rank_k(A, k), squared=True)
                assert cost == pytest.approx(float(np.sum(s[k:] ** 2)), rel=1e-6)

    def test_max_monotone_in_groups(self):
        rng = np.random.default_rng(3)
        groups, _ = random_grouped(rng, 2, 4)
        V = rng.standard_normal((2, 4))
        base = fair_lra_cost(GroupedMatrix.from_arrays(groups), V)
        grown = groups + [rng.standard_normal((2, 4))]
        assert fair_lra_cost(GroupedMatrix.from_arrays(grown), V) >= base - 1e-12


class TestFairCssCost:
    def test_exact_on_support(self):
        rng = np.random.default_rng(4)
        data = GroupedMatrix.from_arrays(
            tuple(np.pad(rng.standard_normal((2, 2)), ((0, 0), (1, 1))) for _ in range(2))
        )
        idx = [1, 2]
        factors = [np.linalg.lstsq(g[:, idx], g, rcond=None)[0] for g in data.groups]
        assert fair_css_cost(data, idx, factors) <= 1e-8

    def test_empty_indices_rejected(self):
        data = synthetic_pair()
        with pytest.raises(ValueError):
            fair_css_cost(data, [], [np.zeros((0, 4))] * 2)

    def test_index_out_of_range(self):
        data = synthetic_pair()
        with pytest.raises(ValueError):
            fair_css_cost(data, [7], [np.zeros((1, 4))] * 2)

    def test_singleton_matches_brute_force(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 3))
        data = GroupedMatrix.from_arrays((A,))
        best = brute_force_css(data, 1)
        # evaluating the winning singleton by hand reproduces its cost
        idx = list(best.indices)
        M = np.linalg.lstsq(A[:, idx], A, rcond=None)[0]
        assert fair_css_cost(data, idx, [M]) == pytest.approx(best.cost, rel=1e-9)


class TestFairRegressionCost:
    def test_consistent_system(self):
        rng = np.random.default_rng(6)
        groups, _ = random_grouped(rng, 3, 4)
        x_star = rng.standard_normal(4)
        labels = GroupedLabels.from_arrays(tuple(g @ x_star for g in groups))
        data = GroupedMatrix.from_arrays(groups)
        assert fair_regression_cost(data, labels, x_star) <= 1e-10

    def test_symmetric_1d(self):
        data = GroupedMatrix.from_arrays((np.array([[1.0]]), np.array([[1.0]])))
        labels = GroupedLabels.from_arrays((np.array([1.0]), np.array([-1.0])))
        assert fair_regression_cost(data, labels, [0.0]) == pytest.approx(1.0)

    def test_zero_vector_gives_max_target_norm(self):
        rng = np.random.default_rng(7)
        groups, targets = random_grouped(rng, 3, 4)
        data = GroupedMatrix.from_arrays(groups)
        labels = GroupedLabels.from_arrays(tuple(targets))
        expected = max(np.linalg.norm(t) for t in targets)
        assert fair_regression_cost(data, labels, np.zeros(4)) == pytest.approx(expected)

    def test_convexity_midpoint(self):
        rng = np.random.default_rng(8)
        for norm in ("l1", "l2"):
            groups, targets = random_grouped(rng, 3, 4)
            data = GroupedMatrix.from_arrays(groups)
            labels = GroupedLabels.from_arrays(tuple(targets))
            for _ in range(20):
                x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
                mid = fair_regression_cost(data, labels, (x1 + x2) / 2, norm)
                avg = (
                    fair_regression_cost(data, labels, x1, norm)
                    + fair_regression_cost(data, labels, x2, norm)
                ) / 2
                assert mid <= avg + 1e-9


class TestSplitByGroup:
    def test_two_singletons(self):
        data = split_by_group(np.arange(4.0).reshape(2, 2), ["a", "b"])
        assert data.ell == 2
        assert data.labels == ("a", "b")
        assert all(g.shape == (1, 2) for g in data.groups)

    def test_single_group(self):
        data = split_by_group(np.ones((3, 2)), ["x", "x", "x"])
        assert data.ell == 1

    def test_interleaved(self):
        rows = np.arange(8.0).reshape(4, 2)
        data = split_by_group(rows, ["a", "b", "a", "b"])
        assert np.allclose(data.groups[0], rows[[0, 2]])
        assert np.allclose(data.groups[1], rows[[1, 3]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_by_group(np.zeros((0, 2)), [])


def test_grouped_labels_validation():
    data = GroupedMatrix.from_arrays((np.ones((2, 3)), np.ones((1, 3))))
    with pytest.raises(ValueError):
        GroupedLabels.from_arrays((np.ones(2),)).validate_against(data)
    with pytest.raises(ValueError):
        GroupedLabels.from_arrays((np.ones(2), np.ones(2))).validate_against(data)
    GroupedLabels.from_arrays((np.ones(2), np.ones(1))).validate_against(data)


def test_arrays_are_held_as_read_only_views():
    rng = np.random.default_rng(76)
    A, B = rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
    b = rng.standard_normal(5)
    data = GroupedMatrix.from_arrays([A, B])
    labels = GroupedLabels.from_arrays([b, np.ones(4)])
    assert np.shares_memory(data.groups[0], A) and np.shares_memory(labels.targets[0], b)  # no copies
    with pytest.raises(ValueError):
        data.groups[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        labels.targets[0][0] = 1.0
    V = rng.standard_normal((1, 3))
    fair_lra_cost(data, V)  # fills the cached R factors
    A *= 10.0  # the caller's array stays writable
    fresh = GroupedMatrix.from_arrays([A, B])
    assert fair_lra_cost(fresh, V) == pytest.approx(fair_lra_cost(GroupedMatrix.from_arrays([A.copy(), B]), V))
    stacked_least_squares(fresh, labels)  # fills the cached R factors of [A_i b_i]
    b += 1.0
    fresh_labels = GroupedLabels.from_arrays([b, np.ones(4)])
    ref, *_ = np.linalg.lstsq(np.vstack([A, B]), np.append(b, np.ones(4)), rcond=None)
    assert np.allclose(stacked_least_squares(fresh, fresh_labels).x, ref, atol=1e-10)


def test_split_by_group_integer_labels():
    data = split_by_group(np.arange(6.0).reshape(3, 2), [1, 2, 1])
    assert data.labels == ("1", "2")
    assert data.groups[0].shape == (2, 2)


def test_norms_of_zero_matrix():
    from fairsketch.linalg import norm_columns_p2, norm_entrywise

    assert norm_entrywise(np.zeros((3, 2)), 3) == 0.0
    assert norm_columns_p2(np.zeros((3, 2)), 3) == 0.0


def _first_appearance_buckets(col):
    buckets = {}
    for i, lbl in enumerate(col):
        buckets.setdefault(str(lbl), []).append(i)
    return buckets


@pytest.mark.parametrize("col", [
    [3, 1, 3, 2, 1, 1],
    [0.5, 2.0, 0.5, -1.0, 1e-20],
    ["b", "a", "", "b", "a b", "a"],
    [1, "1", 2.0, "x", 1.0, 2],
    np.array(["m", "f", "f", " m", "m"]),
], ids=["int", "float", "str", "mixed", "numpy-str"])
def test_group_indices_matches_first_appearance(col):
    ref = _first_appearance_buckets(col)
    order, buckets = group_indices(col)
    assert order == tuple(ref)
    assert all(type(lbl) is str for lbl in order)
    assert buckets.keys() == ref.keys()
    for lbl in order:
        assert np.array_equal(buckets[lbl], ref[lbl])


def test_group_indices_rejects_an_empty_column():
    for empty in ([], np.array([], dtype=str)):
        with pytest.raises(ValueError, match="empty label column"):
            group_indices(empty)
