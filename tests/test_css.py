import numpy as np
import pytest

from fairsketch import css
from fairsketch.css import bicriteria_fair_css, brute_force_css, css_budget
from fairsketch.grouped import GroupedMatrix, fair_css_cost
from fairsketch.linalg import pseudoinverse
from fairsketch.lra import BicriteriaConfig, bicriteria_fair_lra
from fairsketch.sampling import SamplingMatrix
from oracles import exhaustive_css


def support_data(rng, cols=(1, 2), d=4, ell=2):
    groups = []
    for _ in range(ell):
        g = np.zeros((3, d))
        g[:, list(cols)] = rng.standard_normal((3, len(cols)))
        groups.append(g)
    return GroupedMatrix.from_arrays(tuple(groups))


class TestBruteForce:
    def test_all_columns(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 3))
        data = GroupedMatrix.from_arrays((A,))
        sol = brute_force_css(data, 3)
        assert sol.indices == (0, 1, 2)
        # full column set reconstructs the column space exactly
        assert sol.cost <= 1e-8

    def test_support_identification(self):
        data = support_data(np.random.default_rng(1))
        sol = brute_force_css(data, 2)
        assert sol.indices == (1, 2)
        assert sol.cost <= 1e-10

    def test_singletons_match_direct_enumeration(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4))
        data = GroupedMatrix.from_arrays((A,))
        sol = brute_force_css(data, 1)
        direct = min(
            fair_css_cost(data, [j], [np.linalg.lstsq(A[:, [j]], A, rcond=None)[0]])
            for j in range(4)
        )
        assert sol.cost == pytest.approx(direct, rel=1e-12)

    def test_budget_guard(self):
        data = GroupedMatrix.from_arrays((np.ones((2, 60)),))
        with pytest.raises(ValueError):
            brute_force_css(data, 10)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        data = GroupedMatrix.from_arrays((rng.standard_normal((6, 5)),))
        costs = [brute_force_css(data, k).cost for k in range(1, 6)]
        assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))


class TestBicriteriaCss:
    def test_zero_leverage_columns_excluded(self):
        data = support_data(np.random.default_rng(4))
        cfg = BicriteriaConfig(k=2, g_rows=5, h_cols=5, lewis_samples=2, seed=0)
        sol = bicriteria_fair_css(data, cfg)
        assert set(sol.indices) <= {1, 2}
        assert sol.cost <= 1e-8

    def test_zero_data(self):
        data = GroupedMatrix.from_arrays((np.zeros((2, 4)),))
        sol = bicriteria_fair_css(data, BicriteriaConfig(k=2, seed=0))
        assert sol.cost == 0.0
        assert len(sol.indices) >= 1

    def test_indices_valid_distinct_within_budget(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            data = GroupedMatrix.from_arrays(
                (rng.standard_normal((5, 6)), rng.standard_normal((4, 6)))
            )
            cfg = BicriteriaConfig(k=2, g_rows=6, h_cols=6, seed=seed)
            sol = bicriteria_fair_css(data, cfg)
            assert len(sol.indices) == len(set(sol.indices))
            assert len(sol.indices) <= css_budget(2)
            assert all(0 <= j < 6 for j in sol.indices)
            assert sol.cost == pytest.approx(
                fair_css_cost(data, sol.indices, sol.factors), abs=1e-9
            )

    def test_reconstruction_in_selected_span(self):
        rng = np.random.default_rng(6)
        data = GroupedMatrix.from_arrays((rng.standard_normal((5, 5)),))
        sol = bicriteria_fair_css(data, BicriteriaConfig(k=2, g_rows=5, h_cols=5, seed=1))
        idx = list(sol.indices)
        for A, M in zip(data.groups, sol.factors):
            recon = A[:, idx] @ M
            sel = A[:, idx]
            proj = sel @ np.linalg.pinv(sel)
            assert np.linalg.norm(proj @ recon - recon, "fro") <= 1e-8

    def test_against_brute_force(self):
        rng = np.random.default_rng(7)
        wins = 0
        for seed in range(50):
            data = GroupedMatrix.from_arrays((rng.standard_normal((6, 6)),))
            cfg = BicriteriaConfig(k=2, g_rows=6, h_cols=6, seed=seed)
            sol = bicriteria_fair_css(data, cfg)
            brute = brute_force_css(data, 2)
            wins += sol.cost <= 50.0 * brute.cost
            # oracle at the drawn budget lower-bounds the randomized pick
            assert sol.cost >= brute_force_css(data, len(sol.indices)).cost - 1e-9
        assert wins >= 0.8 * 50

    def test_factors_are_rows_of_the_factor_projector(self):
        rng = np.random.default_rng(10)
        for seed in range(5):
            data = GroupedMatrix.from_arrays((rng.standard_normal((6, 7)), rng.standard_normal((5, 7))))
            cfg = BicriteriaConfig(k=3, g_rows=6, h_cols=7, seed=seed)
            V = bicriteria_fair_lra(data, cfg).v_tilde
            sol = bicriteria_fair_css(data, cfg)
            expected = (pseudoinverse(V) @ V)[list(sol.indices)]
            for M in sol.factors:
                assert np.allclose(M, expected, rtol=0.0, atol=1e-12)

    def test_refit_never_hurts(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            data = GroupedMatrix.from_arrays(
                (rng.standard_normal((5, 5)), rng.standard_normal((3, 5)))
            )
            cfg = BicriteriaConfig(k=2, g_rows=5, h_cols=5, seed=seed)
            plain = bicriteria_fair_css(data, cfg)
            refit = bicriteria_fair_css(data, cfg, refit=True)
            assert refit.indices == plain.indices
            assert refit.cost <= plain.cost + 1e-9


def test_brute_force_matches_independent_oracle():
    rng = np.random.default_rng(9)
    for _ in range(5):
        A = rng.standard_normal((6, 6))
        data = GroupedMatrix.from_arrays((A,))
        mine = brute_force_css(data, 2)
        cost, subset = exhaustive_css([A], 2)
        assert mine.indices == subset
        assert mine.cost == pytest.approx(cost, rel=1e-9)


def test_sampler_always_returns_columns_on_spread_factors():
    # rank-1 factor spread over many columns gives every column tiny leverage;
    # an empty draw must still select a column, the highest-leverage one
    rng = np.random.default_rng(11)
    A = np.outer(rng.standard_normal(4), np.ones(120))
    data = GroupedMatrix.from_arrays((A,))
    for seed in range(200):
        cfg = BicriteriaConfig(k=1, g_rows=4, h_cols=8, seed=seed)
        sol = bicriteria_fair_css(data, cfg)
        assert len(sol.indices) >= 1


def test_empty_column_draw_selects_the_highest_leverage_column(monkeypatch):
    # a rank-1 factor along the column weights: column 1 has the largest leverage
    rng = np.random.default_rng(12)
    data = GroupedMatrix.from_arrays((np.outer(rng.standard_normal(6), [0.1, 3.0, 0.5, 1.0]),))

    def empty(scores, seed):
        return SamplingMatrix(indices=np.zeros(0, dtype=int), scales=np.zeros(0), source_rows=scores.scores.size)

    monkeypatch.setattr(css, "leverage_sampling_matrix", empty)
    assert bicriteria_fair_css(data, BicriteriaConfig(k=1, seed=0)).indices == (1,)
