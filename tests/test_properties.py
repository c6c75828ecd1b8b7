"""Invariances of the worst-group objectives and the Eckart-Young bound.

Row order within a group and the order of the groups do not change what a
group costs; scaling the data (and targets) by c scales every cost by |c|;
no factor with k rows beats the rank-k Eckart-Young bound. The min-max L1
and L2 optima inherit the same invariances. A group seen
only through the R factor of its thin QR costs what the group costs, which
is the reduction that lets every Frobenius and L2 objective run on d x d
blocks (Woodruff, *Sketching as a Tool for Numerical Linear Algebra*, 2014).
The LRA and CSS solvers run on those cached factors, so handing them the R
factors in place of the rows changes nothing they return, bit for bit.
Stacked least squares runs on the R factors of [A_i b_i] and still returns
the stacked raw system's minimum-norm fit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsketch.grouped import (
    GroupedLabels,
    GroupedMatrix,
    fair_lra_cost,
    fair_lra_group_costs,
    fair_regression_cost,
    fair_regression_group_costs,
)
from fairsketch.css import bicriteria_fair_css
from fairsketch.linalg import RANK_RTOL
from fairsketch.lra import BicriteriaConfig, bicriteria_fair_lra, eckart_young_lower_bound, svd_baseline
from fairsketch.regression import minmax_subgradient, stacked_least_squares

SETTINGS = settings(derandomize=True, deadline=None, max_examples=50)
RTOL = 1e-9


@st.composite
def instances(draw, tall=False):
    """Groups with unequal sizes and scales, targets, a k-row factor V and a point x.

    With ``tall`` every group has at least d + 1 rows.
    """
    d = draw(st.integers(2, 5))
    low = d + 1 if tall else 1
    sizes = draw(st.lists(st.integers(low, low + 5), min_size=2, max_size=5))
    scales = draw(st.lists(st.sampled_from([1e-3, 1.0, 1e3]), min_size=len(sizes), max_size=len(sizes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = [s * rng.standard_normal((n, d)) for n, s in zip(sizes, scales)]
    targets = [s * rng.standard_normal(n) for n, s in zip(sizes, scales)]
    k = draw(st.integers(1, d - 1))  # k = d would make every projection cost zero
    return groups, targets, rng.standard_normal((k, d)), rng.standard_normal(d), rng


def costs(groups, targets, V, x):
    data = GroupedMatrix.from_arrays(groups)
    labels = GroupedLabels.from_arrays(targets)
    return (
        fair_lra_group_costs(data, V),
        fair_regression_group_costs(data, labels, x, "l1"),
        fair_regression_group_costs(data, labels, x, "l2"),
        eckart_young_lower_bound(data, V.shape[0]),
    )


def energy(groups) -> float:
    return max(float(np.sqrt(np.sum(g * g))) for g in groups)


@SETTINGS
@given(instances(), st.data())
def test_row_and_group_order(inst, data):
    groups, targets, V, x, rng = inst
    scale = energy(groups) + energy([t[:, None] for t in targets])
    before = costs(groups, targets, V, x)

    rows = [rng.permutation(g.shape[0]) for g in groups]
    shuffled = costs([g[r] for g, r in zip(groups, rows)], [t[r] for t, r in zip(targets, rows)], V, x)
    for a, b in zip(before, shuffled):
        np.testing.assert_allclose(b, a, rtol=RTOL, atol=RTOL * scale)

    order = data.draw(st.permutations(range(len(groups))))
    reordered = costs([groups[i] for i in order], [targets[i] for i in order], V, x)
    for a, b in zip(before[:3], reordered[:3]):
        np.testing.assert_allclose(b, a[list(order)], rtol=RTOL, atol=RTOL * scale)
    np.testing.assert_allclose(reordered[3], before[3], rtol=RTOL, atol=RTOL * scale)


@SETTINGS
@given(instances(), st.floats(1e-3, 1e3), st.booleans())
def test_scale_equivariance(inst, c, negative):
    groups, targets, V, x, _ = inst
    c = -c if negative else c
    scale = abs(c) * (energy(groups) + energy([t[:, None] for t in targets]))
    before = costs(groups, targets, V, x)
    scaled = costs([c * g for g in groups], [c * t for t in targets], V, x)
    for a, b in zip(before, scaled):
        np.testing.assert_allclose(b, abs(c) * np.asarray(a), rtol=RTOL, atol=RTOL * scale)


@SETTINGS
@given(instances())
def test_cost_at_least_eckart_young(inst):
    groups, _, V, _, _ = inst
    data = GroupedMatrix.from_arrays(groups)
    bound = eckart_young_lower_bound(data, V.shape[0])
    assert fair_lra_cost(data, V) >= bound - RTOL * energy(groups)


@SETTINGS
@given(instances(tall=True))
def test_r_factor_reduction(inst):
    groups, targets, V, x, _ = inst
    d, k = V.shape[1], V.shape[0]
    scale = energy(groups) + energy([t[:, None] for t in targets])
    data = GroupedMatrix.from_arrays(groups)
    reduced = GroupedMatrix.from_arrays([np.linalg.qr(g, mode="r") for g in groups])
    np.testing.assert_allclose(fair_lra_group_costs(reduced, V), fair_lra_group_costs(data, V),
                               rtol=RTOL, atol=RTOL * scale)
    np.testing.assert_allclose(eckart_young_lower_bound(reduced, k), eckart_young_lower_bound(data, k),
                               rtol=RTOL, atol=RTOL * scale)

    # L2 regression: R of [A_i b_i], split into design and target columns
    stacked = [np.linalg.qr(np.column_stack([g, t]), mode="r") for g, t in zip(groups, targets)]
    r_data = GroupedMatrix.from_arrays([r[:, :d] for r in stacked])
    r_labels = GroupedLabels.from_arrays([r[:, d] for r in stacked])
    np.testing.assert_allclose(fair_regression_group_costs(r_data, r_labels, x, "l2"),
                               fair_regression_group_costs(data, GroupedLabels.from_arrays(targets), x, "l2"),
                               rtol=RTOL, atol=RTOL * scale)


@st.composite
def ragged_groups(draw):
    """Groups with fewer, as many and more rows than d, some rank-deficient or all-zero."""
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 2 * d + 1))
        rank = draw(st.integers(0, min(n, d)))
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        groups.append(scale * rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d)))
    return groups


@SETTINGS
@given(ragged_groups())
def test_r_factor_stack_and_tail_energies(groups):
    data = GroupedMatrix.from_arrays(groups)
    d, R = data.d, data.r_factors
    assert R.shape == (data.ell, d, d) and not R.flags.writeable
    assert np.array_equal(R, np.triu(R))
    refs = [np.linalg.qr(g, mode="r") for g in groups]
    for factor, ref in zip(R, refs):
        assert np.array_equal(factor[: ref.shape[0]], ref)
        assert not np.any(factor[ref.shape[0]:])
    if all(np.all(np.any(ref, axis=1)) for ref in refs):
        assert np.array_equal(data.stacked_r, np.linalg.qr(np.vstack(refs), mode="r"))

    tails = data.tail_energies
    assert tails.shape == (data.ell, d + 1) and not tails.flags.writeable
    energies = np.array([np.sum(g * g) for g in groups])
    np.testing.assert_allclose(tails[:, 0], energies, rtol=1e-9)
    assert np.all(np.diff(tails, axis=1) <= 0.0)
    for tail, g, energy in zip(tails, groups, energies):
        ev = np.clip(np.linalg.eigvalsh(g.T @ g), 0.0, None)  # ascending, so its cumsum is the tail
        np.testing.assert_allclose(tail[:d], np.cumsum(ev)[::-1], rtol=1e-9, atol=1e-9 * energy)


@SETTINGS
@given(instances(), st.integers(0, 2**32 - 1))
def test_solvers_see_only_the_r_factors(inst, seed):
    groups, _, V, _, _ = inst
    k = V.shape[0]
    data = GroupedMatrix.from_arrays(groups, [f"grp{i}" for i in range(len(groups))])
    reduced = GroupedMatrix.from_arrays(data.r_factors, data.labels)
    cfg = BicriteriaConfig(k=k, lewis_samples=k + 1, seed=seed)

    sol, r_sol = bicriteria_fair_lra(data, cfg), bicriteria_fair_lra(reduced, cfg)
    assert np.array_equal(r_sol.v_tilde, sol.v_tilde)
    assert (r_sol.t, r_sol.cost) == (sol.t, sol.cost)
    base, r_base = svd_baseline(data, k), svd_baseline(reduced, k)
    assert np.array_equal(r_base.T @ r_base, base.T @ base)
    assert eckart_young_lower_bound(reduced, k) == eckart_young_lower_bound(data, k)
    assert np.array_equal(fair_lra_group_costs(reduced, V), fair_lra_group_costs(data, V))
    for refit in (False, True):
        css, r_css = bicriteria_fair_css(data, cfg, refit), bicriteria_fair_css(reduced, cfg, refit)
        assert (r_css.indices, r_css.cost) == (css.indices, css.cost)
        assert all(np.array_equal(a, b) for a, b in zip(r_css.factors, css.factors))


@SETTINGS
@given(instances(), st.sampled_from([1e-3, 1.0, 1e3]), st.booleans())
def test_stacked_least_squares_is_the_min_norm_fit(inst, c, duplicate):
    # groups may have fewer than d + 1 rows, which leaves zero padding in their R factors;
    # a duplicated column makes the design rank-deficient
    groups, targets, _, _, _ = inst
    groups, targets = [c * g for g in groups], [c * t for t in targets]
    if duplicate:
        groups = [np.column_stack([g, g[:, :1]]) for g in groups]
    A, b = np.vstack(groups), np.concatenate(targets)
    x = stacked_least_squares(GroupedMatrix.from_arrays(groups), GroupedLabels.from_arrays(targets)).x
    ref = np.linalg.lstsq(A, b, rcond=RANK_RTOL)[0]  # the same rank cut as the library's
    s = np.linalg.svd(A, compute_uv=False)
    cond = s[0] / s[s > RANK_RTOL * s[0]][-1]
    # two backward-stable solves agree to about cond(A) rounding units
    np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-12 * cond * np.linalg.norm(ref))


def minmax_optimum(groups, targets, norm) -> float:
    """Min-max cost in ``norm``, solved to 1e-8 of the stacked seed's cost."""
    data = GroupedMatrix.from_arrays(groups)
    labels = GroupedLabels.from_arrays(targets)
    seed = fair_regression_cost(data, labels, stacked_least_squares(data, labels).x, norm)
    scale = energy(groups) + energy([t[:, None] for t in targets])
    return minmax_subgradient(data, labels, norm=norm, eps=max(1e-8 * seed, 1e-12 * scale)).max_cost


def check_scaling(inst, c, norm):
    groups, targets, _, _, _ = inst
    scale = energy(groups) + energy([t[:, None] for t in targets])
    scaled = minmax_optimum([c * g for g in groups], [c * t for t in targets], norm)
    np.testing.assert_allclose(scaled, c * minmax_optimum(groups, targets, norm), rtol=1e-6, atol=1e-9 * c * scale)


def check_order(inst, data, norm):
    groups, targets, _, _, rng = inst
    scale = energy(groups) + energy([t[:, None] for t in targets])
    rows = [rng.permutation(g.shape[0]) for g in groups]
    order = data.draw(st.permutations(range(len(groups))))
    shuffled = minmax_optimum([groups[i][rows[i]] for i in order], [targets[i][rows[i]] for i in order], norm)
    np.testing.assert_allclose(shuffled, minmax_optimum(groups, targets, norm), rtol=1e-6, atol=1e-9 * scale)


@SETTINGS
@given(instances(), st.floats(1e-3, 1e3))
def test_l2_optimum_scales_with_the_data(inst, c):
    check_scaling(inst, c, "l2")


@SETTINGS
@given(instances(), st.data())
def test_l2_optimum_ignores_row_and_group_order(inst, data):
    check_order(inst, data, "l2")


@SETTINGS
@given(instances(), st.floats(1e-3, 1e3))
def test_l1_optimum_scales_with_the_data(inst, c):
    check_scaling(inst, c, "l1")


@SETTINGS
@given(instances(), st.data())
def test_l1_optimum_ignores_row_and_group_order(inst, data):
    check_order(inst, data, "l1")
