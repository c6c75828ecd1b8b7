"""Grouped data model and the three min-max (socially fair) objectives.

A grouped matrix is a collection of per-group observation matrices sharing
one feature dimension. Groups are kept as separate arrays so per-group costs
and sketches need no row-offset arithmetic; ``stacked`` provides the vertical
concatenation when a single design matrix is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import as_matrix, as_vector, pseudoinverse


@dataclass(frozen=True)
class GroupedMatrix:
    """Per-group observation matrices A_1..A_ell with d shared columns."""

    groups: tuple
    labels: tuple

    def __post_init__(self):
        groups = tuple(as_matrix(g, f"group {i}") for i, g in enumerate(self.groups))
        labels = tuple(str(x) for x in self.labels) if self.labels else tuple(
            f"g{i}" for i in range(len(groups))
        )
        if len(groups) < 1:
            raise ValueError("need at least one group")
        if len(labels) != len(groups):
            raise ValueError(f"{len(labels)} labels for {len(groups)} groups")
        if len(set(labels)) != len(labels):
            raise ValueError("group labels must be distinct")
        d = groups[0].shape[1]
        for i, g in enumerate(groups):
            if g.shape[0] < 1:
                raise ValueError(f"group {labels[i]} has no rows")
            if g.shape[1] != d:
                raise ValueError(
                    f"group {labels[i]} has {g.shape[1]} columns, expected {d}"
                )
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_arrays(cls, groups: Sequence, labels: Sequence | None = None) -> "GroupedMatrix":
        return cls(tuple(groups), tuple(labels) if labels is not None else ())

    @property
    def ell(self) -> int:
        return len(self.groups)

    @property
    def d(self) -> int:
        return self.groups[0].shape[1]

    @property
    def total_rows(self) -> int:
        return sum(g.shape[0] for g in self.groups)

    def stacked(self) -> np.ndarray:
        return np.vstack(self.groups)


@dataclass(frozen=True)
class GroupedLabels:
    """Per-group regression targets b_1..b_ell paired with a GroupedMatrix."""

    targets: tuple

    def __post_init__(self):
        targets = tuple(as_vector(t, f"target {i}") for i, t in enumerate(self.targets))
        object.__setattr__(self, "targets", targets)

    @classmethod
    def from_arrays(cls, targets: Sequence) -> "GroupedLabels":
        return cls(tuple(targets))

    def validate_against(self, data: GroupedMatrix) -> None:
        if len(self.targets) != data.ell:
            raise ValueError(f"{len(self.targets)} target vectors for {data.ell} groups")
        for lbl, g, t in zip(data.labels, data.groups, self.targets):
            if t.shape[0] != g.shape[0]:
                raise ValueError(
                    f"group {lbl}: {t.shape[0]} targets for {g.shape[0]} rows"
                )

    def stacked(self) -> np.ndarray:
        return np.concatenate(self.targets)


def fair_lra_group_costs(data: GroupedMatrix, V, squared: bool = False) -> np.ndarray:
    """Per-group residual ||A_i - A_i pinv(V) V||_F (squared if requested)."""
    V = as_matrix(V, "V")
    if V.shape[1] != data.d:
        raise ValueError(f"V has {V.shape[1]} columns, data has {data.d}")
    W = pseudoinverse(V)
    out = np.empty(data.ell)
    for i, A in enumerate(data.groups):
        R = A - (A @ W) @ V
        out[i] = float(np.sum(R * R))
    return out if squared else np.sqrt(out)


def fair_lra_cost(data: GroupedMatrix, V, squared: bool = False) -> float:
    """Worst-group projection residual for a shared right factor V."""
    return float(np.max(fair_lra_group_costs(data, V, squared=squared)))


def fair_css_cost(data: GroupedMatrix, indices, factors) -> float:
    """Worst-group residual ||A_i[:, S] M_i - A_i||_F for selected columns S.

    ``factors`` holds one M_i of shape (len(indices), d) per group.
    """
    idx = np.asarray(list(indices), dtype=int)
    if idx.size == 0:
        raise ValueError("column index set must be non-empty")
    if idx.min() < 0 or idx.max() >= data.d:
        raise ValueError(f"column index out of range [0, {data.d})")
    factors = [as_matrix(M, f"factor {i}") for i, M in enumerate(factors)]
    if len(factors) != data.ell:
        raise ValueError(f"{len(factors)} factors for {data.ell} groups")
    worst = 0.0
    for A, M in zip(data.groups, factors):
        if M.shape != (idx.size, data.d):
            raise ValueError(f"factor shape {M.shape}, expected {(idx.size, data.d)}")
        R = A[:, idx] @ M - A
        worst = max(worst, float(np.sum(R * R)))
    return float(np.sqrt(worst))


def fair_regression_group_costs(
    data: GroupedMatrix, labels: GroupedLabels, x, norm: str = "l2"
) -> np.ndarray:
    """Per-group regression loss ||A_i x - b_i|| in the L1 or L2 norm."""
    labels.validate_against(data)
    x = as_vector(x, "x")
    if x.shape[0] != data.d:
        raise ValueError(f"x has length {x.shape[0]}, data has {data.d} columns")
    if norm not in ("l1", "l2"):
        raise ValueError(f"norm must be 'l1' or 'l2', got {norm!r}")
    out = np.empty(data.ell)
    for i, (A, b) in enumerate(zip(data.groups, labels.targets)):
        r = A @ x - b
        out[i] = float(np.abs(r).sum()) if norm == "l1" else float(np.linalg.norm(r))
    return out


def fair_regression_cost(
    data: GroupedMatrix, labels: GroupedLabels, x, norm: str = "l2"
) -> float:
    """Worst-group regression loss max_i ||A_i x - b_i||."""
    return float(np.max(fair_regression_group_costs(data, labels, x, norm)))


def group_indices(group_col) -> tuple[tuple, dict]:
    """Ordered distinct labels and their row-index buckets (first appearance order)."""
    labels = [str(x) for x in group_col]
    if not labels:
        raise ValueError("cannot group an empty label column")
    order: list[str] = []
    buckets: dict[str, list[int]] = {}
    for i, lbl in enumerate(labels):
        if lbl not in buckets:
            buckets[lbl] = []
            order.append(lbl)
        buckets[lbl].append(i)
    return tuple(order), buckets


def split_by_group(rows, group_col) -> GroupedMatrix:
    """Split a row matrix into groups by a parallel label column.

    One group per distinct label, in order of first appearance; row order is
    preserved within each group.
    """
    rows = as_matrix(rows, "rows")
    if rows.shape[0] == 0:
        raise ValueError("cannot split an empty matrix")
    if len(group_col) != rows.shape[0]:
        raise ValueError(f"{len(group_col)} labels for {rows.shape[0]} rows")
    order, buckets = group_indices(group_col)
    groups = tuple(rows[buckets[lbl]] for lbl in order)
    return GroupedMatrix(groups, order)
