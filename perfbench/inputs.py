"""Seeded input generators for the fairsketch benchmark (numpy and the standard library only).

Every generator takes a ``numpy.random.Generator`` built from the workload
seed, so one seed gives the same inputs bit for bit. Shapes never depend on
the seed. Neither does the population a sample is drawn from: loadings,
means and planted coefficients come from a fixed numbered population, and
the seed draws the rows, noise, splits and subsamples. Seeds therefore vary
the sample, not how hard the problem is, and op costs stay comparable.

The UCI credit file is not in the repository, so "credit-shaped" data stands
in for it: 30000 rows by 23 features in two groups of 18000 and 12000 rows,
with a low-rank signal whose loadings and means differ by group, fixed column
scales spread over two decades, and values rounded to cents like the real
file's monetary columns.
"""

from __future__ import annotations

import numpy as np

CREDIT_GROUP_ROWS = (18000, 12000)
CREDIT_FEATURES = 23
CREDIT_GROUP_VALUES = ("2", "1")  # SEX codes of the two groups, larger group first
SIGNAL_RANK = 6
POPULATION_SEED = 2412_06063


def population(index: int, part: int) -> np.random.Generator:
    """Generator for the fixed parameters of population ``index``: part 0 the matrix, 1 the targets."""
    return np.random.default_rng([POPULATION_SEED, index, part])


def credit_groups(rng: np.random.Generator, sizes=CREDIT_GROUP_ROWS, d: int = CREDIT_FEATURES,
                  pop: int = 0) -> list:
    """Per-group credit-shaped matrices with the given row counts, sampled from population ``pop``."""
    params = population(pop, 0)
    shared = params.standard_normal((SIGNAL_RANK, d))
    scales = np.geomspace(1.0, 100.0, d)
    spread = np.geomspace(3.0, 0.5, SIGNAL_RANK)
    groups = []
    for n in sizes:
        loadings = shared + 0.6 * params.standard_normal((SIGNAL_RANK, d))
        mean = params.uniform(0.5, 2.0, d)
        latent = rng.standard_normal((n, SIGNAL_RANK)) * spread
        x = (mean + latent @ loadings + 0.3 * rng.standard_normal((n, d))) * scales
        groups.append(np.round(x, 2))
    return groups


def unequal_split(groups: list, ell: int, rng: np.random.Generator, min_rows: int = 100) -> list:
    """Re-split the stacked rows of ``groups`` into ``ell`` groups of Zipf-like sizes.

    Sizes depend only on the row count and ``ell``; which rows land in which
    group is a seeded permutation.
    """
    rows = np.vstack(groups)
    n = rows.shape[0]
    weights = 1.0 / np.arange(1, ell + 1)
    sizes = min_rows + np.floor((n - ell * min_rows) * weights / weights.sum()).astype(int)
    sizes[0] += n - int(sizes.sum())
    perm = rng.permutation(n)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return [rows[np.sort(perm[a:b])] for a, b in zip(bounds[:-1], bounds[1:])]


def subsample_groups(groups: list, per_group: int, rng: np.random.Generator) -> list:
    """``per_group`` rows drawn without replacement from each group, in row order."""
    return [g[np.sort(rng.choice(g.shape[0], size=per_group, replace=False))] for g in groups]


def imbalanced_subspaces(rng: np.random.Generator, d: int = 12, big: int = 400, small: int = 40,
                         noise: float = 0.05) -> list:
    """Family (b): a large group spanning e1..e3 and a small one spanning e4..e6.

    Small isotropic noise on all d coordinates keeps every group full rank, so
    the Eckart-Young bound at rank 3 is positive.
    """
    a = np.zeros((big, d))
    a[:, 0:3] = rng.standard_normal((big, 3))
    b = np.zeros((small, d))
    b[:, 3:6] = rng.standard_normal((small, 3))
    return [a + noise * rng.standard_normal(a.shape), b + noise * rng.standard_normal(b.shape)]


def planted_targets(rng: np.random.Generator, groups: list, pop: int = 0, noise: float = 0.2,
                    scale: float = 100.0) -> list:
    """Targets b_i = A_i x_i + e_i with a planted x_i per group.

    The planted vectors share a common part and differ by a group part of the
    same size, so no single x fits every group and the stacked fit favours the
    larger group. Coefficients are divided by the column magnitudes, so every
    feature contributes alike, and multiplied by ``scale``, giving money-sized
    targets; the noise is relative to each group's clean target spread. The
    planted coefficients come from population ``pop``.
    """
    params = population(pop, 1)
    col_scale = np.mean(np.abs(np.vstack(groups)), axis=0)
    common = params.standard_normal(col_scale.size)
    targets = []
    for g in groups:
        x = scale * (common + params.standard_normal(col_scale.size)) / col_scale
        clean = g @ x
        targets.append(np.round(clean + noise * np.std(clean) * rng.standard_normal(clean.size), 2))
    return targets


def write_credit_csv(path, groups: list, targets: list, rng: np.random.Generator) -> None:
    """Write groups as one credit-style CSV: features X1..Xd, group column SEX, label Y.

    Rows of the groups are interleaved in a seeded order, as in the real file.
    Values are written with two decimals, which round-trips the cent-rounded
    inputs exactly.
    """
    d = groups[0].shape[1]
    rows = np.vstack(groups)
    y = np.concatenate(targets)
    sex = np.concatenate([np.full(g.shape[0], int(v)) for g, v in zip(groups, CREDIT_GROUP_VALUES)])
    order = rng.permutation(rows.shape[0])
    table = np.column_stack([rows[order], sex[order], y[order]])
    header = ",".join([f"X{j + 1}" for j in range(d)] + ["SEX", "Y"])
    fmt = ["%.2f"] * d + ["%d", "%.2f"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, table, fmt=fmt, delimiter=",", header=header, comments="")
