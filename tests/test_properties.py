"""Invariances of the worst-group objectives and the Eckart-Young bound.

Row order within a group and the order of the groups do not change what a
group costs; scaling the data (and targets) by c scales every cost by |c|;
no factor with k rows beats the rank-k Eckart-Young bound. A group seen
only through the R factor of its thin QR costs what the group costs, which
is the reduction that lets every Frobenius and L2 objective run on d x d
blocks (Woodruff, *Sketching as a Tool for Numerical Linear Algebra*, 2014).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsketch.grouped import (
    GroupedLabels,
    GroupedMatrix,
    fair_lra_cost,
    fair_lra_group_costs,
    fair_regression_group_costs,
)
from fairsketch.lra import eckart_young_lower_bound

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
