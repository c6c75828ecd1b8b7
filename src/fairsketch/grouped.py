"""Grouped data model and the three min-max (socially fair) objectives.

A grouped matrix is a collection of per-group observation matrices sharing
one feature dimension. Groups are kept as separate arrays so per-group costs
need no row-offset arithmetic. The Frobenius objectives (low-rank
approximation and column selection) see a group only through its Gram
matrix, so they run on each group's thin-QR factor R_i, computed once per
grouped matrix: ||A_i - A_i P||_F = ||R_i - R_i P||_F for every P. The factors
are held as one zero-padded (ell, d, d) stack, so a cost over every group is
one batched numpy call, and each group's spectrum, read off one batched SVD
of that stack, is cached as ``tail_energies``. L2 regression sees a group
only through the R factor of [A_i b_i], since ||A_i x - b_i|| = ||R_i [x; -1]||,
held in the same padded layout and computed once per (data, labels) pair by
``GroupedLabels.augmented_r``, which also gives every L2 solution's
reported per-group costs. Only the L1 objective, which is not
rotation-invariant, its reported costs and the feasibility exports read the
raw rows; ``stacked`` provides their vertical concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .linalg import as_matrix, as_vector, pseudoinverse


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that raises on writes; ``a`` itself stays writable."""
    view = a.view()
    view.flags.writeable = False
    return view


def _r_stack(blocks: Iterable, count: int, width: int) -> np.ndarray:
    """Read-only (count, width, width) stack of the blocks' thin-QR R factors.

    Block i has ``width`` columns; its R, min(rows, width) x width, fills the
    top rows of slot i and zeros fill the rows below, which leaves its Gram
    matrix, and so every Frobenius cost and singular value, unchanged.
    """
    R = np.zeros((count, width, width))
    for i, block in enumerate(blocks):
        f = np.linalg.qr(block, mode="r")
        R[i, : f.shape[0]] = f
    R.flags.writeable = False
    return R


@dataclass(frozen=True)
class GroupedMatrix:
    """Per-group observation matrices A_1..A_ell with d shared columns.

    ``r_factors``, ``stacked_r`` and ``tail_energies`` are computed on first
    use and cached on the instance. ``r_factors`` is one read-only (ell, d, d)
    array: slot i holds the R of the thin QR of A_i in its top min(n_i, d)
    rows and zeros below. ``stacked_r`` is the R of the stacked R_i, each taken
    up to its last nonzero row (an all-zero one with its min(n_i, d) rows), and
    is also an R factor of the stacked rows. ``tail_energies[i, t]`` is group
    i's squared energy beyond its best rank-t fit, from one batched SVD of
    ``r_factors``: a read-only ell x (d + 1) array whose column 0 holds each
    ||A_i||_F^2 and whose column d is zero. Each factor has the Gram matrix of
    what it stands for, so every Frobenius cost, projection, singular value
    and Gaussian sketch law is the same on it.

    The groups are held by reference, as read-only views of the caller's
    arrays, so the cached factors go stale if those arrays change: build a
    new GroupedMatrix after changing the data.
    """

    groups: tuple
    labels: tuple

    def __post_init__(self):
        groups = tuple(_read_only(as_matrix(g, f"group {i}")) for i, g in enumerate(self.groups))
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

    @cached_property
    def r_factors(self) -> np.ndarray:
        return _r_stack(self.groups, self.ell, self.d)

    @cached_property
    def stacked_r(self) -> np.ndarray:
        # each R_i up to its last nonzero row, so the padding never widens the sketch
        R, d = self.r_factors, self.d
        nonzero = R.any(axis=2)
        rows = np.where(nonzero.any(axis=1), d - np.argmax(nonzero[:, ::-1], axis=1),
                        np.minimum([g.shape[0] for g in self.groups], d))
        return np.linalg.qr(R[np.arange(d) < rows[:, None]], mode="r")

    @cached_property
    def tail_energies(self) -> np.ndarray:
        s = np.linalg.svd(self.r_factors, compute_uv=False)
        tails = np.zeros((self.ell, self.d + 1))
        tails[:, : self.d] = np.cumsum(s[:, ::-1] ** 2, axis=1)[:, ::-1]
        tails.flags.writeable = False
        return tails


@dataclass(frozen=True)
class GroupedLabels:
    """Per-group regression targets b_1..b_ell paired with a GroupedMatrix.

    ``augmented_r(data)`` is computed on first use and cached for the last
    ``data`` it was called with (matched by identity, as ``r_factors`` is).
    The targets are held by reference, as read-only views of the caller's
    arrays, so the cache goes stale if those arrays change: build a new
    GroupedLabels after changing the data.
    """

    targets: tuple

    def __post_init__(self):
        targets = tuple(_read_only(as_vector(t, f"target {i}")) for i, t in enumerate(self.targets))
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

    def augmented_r(self, data: GroupedMatrix) -> np.ndarray:
        """The (ell, d+1, d+1) stack of R factors of [A_i b_i], each zero-padded to d+1 rows.

        ||A_i x - b_i|| = ||R_i [x; -1]|| for every x, so every L2 regression
        cost, and the stacked least-squares fit, is the same on the stack.
        """
        cached_data, R = getattr(self, "_augmented", (None, None))
        if cached_data is not data:
            self.validate_against(data)
            blocks = (np.column_stack([A, b]) for A, b in zip(data.groups, self.targets))
            R = _r_stack(blocks, data.ell, data.d + 1)
            object.__setattr__(self, "_augmented", (data, R))
        return R


def fair_lra_group_costs(data: GroupedMatrix, V, squared: bool = False) -> np.ndarray:
    """Per-group residual ||A_i - A_i pinv(V) V||_F (squared if requested), on R_i."""
    V = as_matrix(V, "V")
    if V.shape[1] != data.d:
        raise ValueError(f"V has {V.shape[1]} columns, data has {data.d}")
    R = data.r_factors
    E = R - (R @ pseudoinverse(V)) @ V
    out = np.sum(E * E, axis=(1, 2))
    return out if squared else np.sqrt(out)


def fair_lra_cost(data: GroupedMatrix, V, squared: bool = False) -> float:
    """Worst-group projection residual for a shared right factor V."""
    return float(np.max(fair_lra_group_costs(data, V, squared=squared)))


def fair_css_cost(data: GroupedMatrix, indices, factors) -> float:
    """Worst-group residual ||A_i[:, S] M_i - A_i||_F for selected columns S.

    ``factors`` holds one M_i of shape (len(indices), d) per group. The
    residual is evaluated on R_i, which has the same column Gram matrix as A_i.
    """
    idx = np.asarray(list(indices), dtype=int)
    if idx.size == 0:
        raise ValueError("column index set must be non-empty")
    if idx.min() < 0 or idx.max() >= data.d:
        raise ValueError(f"column index out of range [0, {data.d})")
    factors = [as_matrix(M, f"factor {i}") for i, M in enumerate(factors)]
    if len(factors) != data.ell:
        raise ValueError(f"{len(factors)} factors for {data.ell} groups")
    for M in factors:
        if M.shape != (idx.size, data.d):
            raise ValueError(f"factor shape {M.shape}, expected {(idx.size, data.d)}")
    R = data.r_factors
    E = R[:, :, idx] @ np.stack(factors) - R
    return float(np.sqrt(np.sum(E * E, axis=(1, 2)).max()))


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
    """Ordered distinct labels and their row-index buckets (first appearance order).

    Labels compare as ``str(label)``; a numpy ``str`` array is taken as it is.
    Each bucket is an ascending index array.
    """
    if isinstance(group_col, np.ndarray) and group_col.dtype.kind == "U":
        labels = group_col
    else:
        labels = np.array([str(x) for x in group_col], dtype=object)
    if not labels.size:
        raise ValueError("cannot group an empty label column")
    distinct, first, code = np.unique(labels, return_index=True, return_inverse=True)
    rows = np.split(np.argsort(code, kind="stable"), np.cumsum(np.bincount(code))[:-1])
    by_appearance = np.argsort(first)
    order = tuple(str(distinct[i]) for i in by_appearance)
    return order, {lbl: rows[i] for lbl, i in zip(order, by_appearance)}


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
