"""Experiment harness: CSV ingestion, benchmark suites, report emission.

Every suite produces an ``ExperimentReport``: one flat record per trial plus
aggregate ratio statistics that are always recomputable from the records.
Reports are fully determined by (seed, configuration), including the sketch
draws and all subsampling. Wall times split the bicriteria run into the
sketch-and-sampling phase and the final factor-extraction phase.
"""

from __future__ import annotations

import csv
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NoReturn, Optional, Sequence

import numpy as np

from .grouped import GroupedLabels, GroupedMatrix, fair_lra_cost, group_indices, split_by_group
from .lra import BicriteriaConfig, bicriteria_fair_lra_timed, spawn_seeds, svd_baseline

REPORT_SCHEMA = "fairsketch-report/1"
CREDIT_K_SWEEP_ROWS = 1000  # rows drawn per group in each trial of the credit k-sweep

CREDIT_FETCH_INSTRUCTIONS = (
    "The Default of Credit Card Clients dataset is not bundled. Download it from the "
    "UCI Machine Learning Repository (dataset id 350, 'default of credit card clients'), "
    "export the sheet as a comma-separated CSV with one header row (30000 rows, 23 "
    "feature columns plus the id/label columns), and pass its path to this command."
)


class DataError(Exception):
    """Input data is missing, malformed, or fails validation."""


@dataclass(frozen=True)
class IngestSpec:
    """How to read a CSV: grouping column, feature columns, optional sampling."""

    path: str
    group_col: str
    feature_cols: Optional[tuple] = None
    label_col: Optional[str] = None
    subsample: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        feats = tuple(self.feature_cols) if self.feature_cols else None
        for i, name in enumerate(feats or ()):
            if name in feats[:i]:
                raise ValueError(f"feature column {name!r} is listed twice")
        if feats and self.group_col in feats:
            raise ValueError(f"group column {self.group_col!r} cannot be a feature")
        if self.label_col is not None and self.label_col in (self.group_col, *(feats or ())):
            raise ValueError(f"label column {self.label_col!r} cannot be a feature or the group column")
        if self.subsample is not None and self.subsample < 1:
            raise ValueError(f"subsample must be >= 1, got {self.subsample}")
        object.__setattr__(self, "feature_cols", feats)


@dataclass(frozen=True)
class TrialRecord:
    """One benchmark trial; field order fixes the CSV column order.

    ``time_bicrit_total`` covers the sketch, the Lewis sampling and the factor
    extraction (``time_bicrit_extract`` is the last of these). It leaves out
    the orthonormalisation of the factor and the cost evaluation.
    """

    trial: int
    seed: int
    k: int
    p: float
    g_rows: int
    h_cols: int
    lewis_samples: int
    subsample: int
    bicrit_cost: float
    baseline_cost: float
    ratio: float
    time_bicrit_total: float
    time_bicrit_extract: float
    time_svd: float


@dataclass
class ExperimentReport:
    name: str
    config: dict
    records: list = field(default_factory=list)

    def aggregates(self) -> dict:
        if not self.records:
            return {"trials": 0, "mean_ratio": None, "min_ratio": None, "max_ratio": None}
        ratios = np.array([r.ratio for r in self.records])
        return {
            "trials": len(self.records),
            "mean_ratio": float(ratios.mean()),
            "min_ratio": float(ratios.min()),
            "max_ratio": float(ratios.max()),
        }


def ingest_csv(spec: IngestSpec) -> tuple[GroupedMatrix, Optional[GroupedLabels]]:
    """Read a header CSV into a grouped matrix (and optional targets).

    The header is read with ``csv``; the body in one pass of ``np.loadtxt``,
    numpy's C reader, which makes no Python object per row but the group
    cell. Every data row is validated, also when ``subsample`` keeps only
    some: each row needs at least as many cells as the header, and every
    feature and label cell must be a finite real in numpy's syntax, which is
    Python's ``float`` syntax without digit-group underscores (``1_000``) or
    non-ASCII digits; surrounding whitespace and quotes are allowed. A
    rejected row is reported with its line in the file, counting the header
    as line 1 and blank lines too. When ``feature_cols`` is unset, every
    column except the group and label columns is used, and a column the
    spec reads must not be named twice in the header. Subsampling is
    uniform without replacement, seeded, and applied before grouping.
    """
    path = Path(spec.path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:  # drops a leading byte-order mark
            reader = csv.reader(fh)
            header = next(reader, None)
            header_lines = reader.line_num
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty file, expected a header row")

    header = [h.strip() for h in header]
    col_of = {name: i for i, name in enumerate(header)}
    if spec.group_col not in col_of:
        raise DataError(f"{path}: group column {spec.group_col!r} not in header {header}")
    if spec.label_col is not None and spec.label_col not in col_of:
        raise DataError(f"{path}: label column {spec.label_col!r} not in header {header}")
    feature_cols = spec.feature_cols or tuple(
        name for name in header if name != spec.group_col and name != spec.label_col
    )
    for name in feature_cols:
        if name not in col_of:
            raise DataError(f"{path}: feature column {name!r} not in header {header}")
    if not feature_cols:
        raise DataError(f"{path}: no feature columns left after excluding group/label")
    checks = (feature_cols, (spec.label_col,)) if spec.label_col is not None else (feature_cols,)
    real_cols = sum(checks, ())
    for name in (spec.group_col, *real_cols):
        if header.count(name) > 1:
            raise DataError(f"{path}: column {name!r} is named {header.count(name)} times in the header")

    # reading the header's last column makes numpy reject every row shorter than the header
    usecols = [col_of[name] for name in real_cols] + [col_of[spec.group_col]]
    fields = [("reals", np.float64, (len(real_cols),)), ("group", object)]
    if len(header) - 1 not in usecols:
        usecols.append(len(header) - 1)
        fields.append(("last", "U1"))
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(path, dtype=np.dtype(fields), delimiter=",", skiprows=header_lines,
                               comments=None, quotechar='"', encoding="utf-8", usecols=usecols, ndmin=1)
    except ValueError as exc:
        _locate_bad_row(path, header, checks, str(exc))
    if not table.size:
        raise DataError(f"{path}: no data rows")
    if not np.isfinite(table["reals"]).all():
        _locate_bad_row(path, header, checks, "numpy read a non-finite value")

    if spec.subsample is not None and spec.subsample < len(table):
        rng = np.random.default_rng(spec.seed)
        table = table[np.sort(rng.choice(len(table), size=spec.subsample, replace=False))]
    reals = table["reals"]
    group_labels = table["group"].astype(str)
    data = split_by_group(reals[:, :len(feature_cols)], group_labels)

    targets = None
    if spec.label_col is not None:
        _, buckets = group_indices(group_labels)
        targets = GroupedLabels.from_arrays(tuple(reals[buckets[lbl], -1] for lbl in data.labels))
    return data, targets


def _numpy_real(cell: str) -> Optional[float]:
    """``cell`` as ``np.loadtxt`` reads a float64, or None where it rejects the cell."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _locate_bad_row(path: Path, header: list, checks: Sequence, reason: str) -> NoReturn:
    """Raise the DataError that names the first row of ``path`` numpy rejects.

    Runs only after the body failed to load or held a non-finite value, and
    re-reads the file with ``csv`` for its line numbers. Each check runs on
    every row before the next starts: the row length, then for each name
    tuple in ``checks`` (the features, then the label) the parse and the
    finiteness of its cells. Raises with ``reason`` if no row fails.
    """
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows = [(reader.line_num, row) for row in reader if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from None
    for line, row in rows:
        if len(row) < len(header):
            raise DataError(f"{path}: row {line} has {len(row)} cells, the header has {len(header)}")
    for names in checks:
        cells = [(line, name, row[header.index(name)]) for line, row in rows for name in names]
        values = [_numpy_real(cell) for _, _, cell in cells]
        for (line, name, cell), value in zip(cells, values):
            if value is None:
                raise DataError(f"{path}: row {line}, column {name!r}: cannot parse {cell!r} as a real")
        for (line, name, cell), value in zip(cells, values):
            if not math.isfinite(value):
                raise DataError(f"{path}: row {line}, column {name!r}: {cell!r} is not a finite real")
    raise DataError(f"{path}: {reason}")


def synthetic_pair() -> GroupedMatrix:
    """Two 2x4 groups whose fair and group-blind optima differ by ~2x."""
    a1 = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
    a2 = np.array([[0.0, 0.0, 1.99, 0.0], [0.0, 0.0, 0.0, 1.99]])
    return GroupedMatrix.from_arrays((a1, a2), ("first", "second"))


def proof_of_concept_groups() -> GroupedMatrix:
    """Four single-row groups in the plane: one on e1, three on e2."""
    rows = [np.array([[1.0, 0.0]])] + [np.array([[0.0, 1.0]]) for _ in range(3)]
    return GroupedMatrix.from_arrays(tuple(rows), ("a", "b", "c", "d"))


def _bicrit_vs_baseline(
    data: GroupedMatrix, cfg: BicriteriaConfig, trial: int, subsample: int
) -> TrialRecord:
    sol, times = bicriteria_fair_lra_timed(data, cfg)
    t0 = time.perf_counter()
    v_base = svd_baseline(data, cfg.k)
    t1 = time.perf_counter()
    bicrit = fair_lra_cost(data, sol.v_tilde, squared=True)
    base = fair_lra_cost(data, v_base, squared=True)
    return TrialRecord(
        trial=trial,
        seed=cfg.seed,
        k=cfg.k,
        p=sol.p,
        g_rows=cfg.g_rows,
        h_cols=cfg.h_cols,
        lewis_samples=cfg.sample_count(),
        subsample=subsample,
        bicrit_cost=bicrit,
        baseline_cost=base,
        ratio=bicrit / base if base > 0 else float("inf"),
        time_bicrit_total=times["time_total"],
        time_bicrit_extract=times["time_extract"],
        time_svd=t1 - t0,
    )


def _run_cell(
    report: ExperimentReport, data: GroupedMatrix, cfg: BicriteriaConfig, trials: int,
    subsample: Optional[int] = None,
) -> None:
    """Append the seeded trials of one grid cell to ``report``.

    Trial t runs ``cfg`` with the t-th seed derived from ``cfg.seed``. With
    ``subsample`` set, each trial first draws that many rows per group using
    its own seed.
    """
    for ts in spawn_seeds(cfg.seed, trials):
        sub = data if subsample is None else _subsample_groups(data, subsample, np.random.default_rng(ts))
        report.records.append(_bicrit_vs_baseline(sub, replace(cfg, seed=ts), len(report.records), subsample or 0))


def run_dataset_lra(data: GroupedMatrix, cfg: BicriteriaConfig, trials: int = 1) -> ExperimentReport:
    """Seeded bicriteria-vs-baseline trials of ``cfg`` on caller-supplied grouped data."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    report = ExperimentReport(
        name="dataset",
        config={"k": cfg.k, "trials": trials, "seed": cfg.seed, "p": cfg.p, "c": cfg.c,
                "g_rows": cfg.g_rows, "h_cols": cfg.h_cols,
                "lewis_iterations": cfg.lewis_iterations, "lewis_samples": cfg.lewis_samples},
    )
    _run_cell(report, data, cfg, trials)
    return report


def run_synthetic_lra(
    trials: int,
    sketch_dims: Sequence[int] = (3,),
    ps: Sequence[float] = tuple(range(1, 11)),
    k: int = 2,
    seed: int = 0,
) -> ExperimentReport:
    """Bicriteria-vs-baseline squared-cost ratios on the fixed synthetic pair.

    Runs ``trials`` seeded trials for every requested (sketch dimension, p)
    grid cell at the shared rank parameter k; the Lewis row budget equals k,
    so both algorithms produce equally ranked factors.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    data = synthetic_pair()
    report = ExperimentReport(
        name="synthetic",
        config={
            "trials": trials,
            "sketch_dims": list(sketch_dims),
            "ps": [float(p) for p in ps],
            "k": k,
            "seed": seed,
        },
    )
    cells = [(dim, float(p)) for dim in sketch_dims for p in ps]
    for cell_idx, (dim, p) in enumerate(cells):
        cfg = BicriteriaConfig(k=k, p=p, g_rows=dim, h_cols=dim, lewis_samples=k, seed=seed + cell_idx)
        _run_cell(report, data, cfg, trials)
    return report


def run_proof_of_concept() -> ExperimentReport:
    """Fair-optimal vs group-blind factor on the four-group toy instance.

    Evaluates the balanced diagonal direction against the majority axis and
    reports the squared-cost ratio (0.5: the fair factor halves the
    worst-group loss). Timing fields hold the evaluation wall times.
    """
    data = proof_of_concept_groups()
    v_fair = np.array([[np.sqrt(0.5), np.sqrt(0.5)]])
    v_std = np.array([[0.0, 1.0]])
    t0 = time.perf_counter()
    fair_cost = fair_lra_cost(data, v_fair, squared=True)
    t1 = time.perf_counter()
    std_cost = fair_lra_cost(data, v_std, squared=True)
    t2 = time.perf_counter()
    report = ExperimentReport(name="proof-of-concept", config={"k": 1})
    report.records.append(
        TrialRecord(
            trial=0, seed=0, k=1, p=1.0, g_rows=0, h_cols=0, lewis_samples=0, subsample=0,
            bicrit_cost=fair_cost, baseline_cost=std_cost, ratio=fair_cost / std_cost,
            time_bicrit_total=t2 - t0, time_bicrit_extract=t1 - t0, time_svd=t2 - t1,
        )
    )
    return report


def _subsample_groups(data: GroupedMatrix, per_group: int, rng: np.random.Generator) -> GroupedMatrix:
    groups = []
    for g in data.groups:
        if per_group < g.shape[0]:
            chosen = np.sort(rng.choice(g.shape[0], size=per_group, replace=False))
            groups.append(g[chosen])
        else:
            groups.append(g)
    return GroupedMatrix.from_arrays(tuple(groups), data.labels)


def run_credit_lra(
    spec: IngestSpec,
    s_grid: Sequence[int] = tuple(range(2, 22)),
    k_grid: Sequence[int] = tuple(range(1, 9)),
    trials: int = 100,
    seed: int = 0,
    validate_shape: bool = True,
) -> ExperimentReport:
    """Credit-dataset sweeps: subsample sizes at k=1, then ranks at s=1000.

    The s-sweep draws s rows from each group per trial and compares the
    bicriteria factor (row budget k) against the stacked-SVD baseline at
    k=1, p=1. The k-sweep fixes ``CREDIT_K_SWEEP_ROWS`` rows per group and
    permits the bicriteria factor twice the baseline rank (row budget 2k).
    The sketch keeps ``BicriteriaConfig``'s default dimensions and Lewis
    iterations.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    data, _ = ingest_csv(spec)
    if validate_shape and (data.total_rows != 30000 or data.d < 17):
        raise DataError(
            f"unexpected dataset shape {data.total_rows} x {data.d} "
            f"(expected 30000 rows and >= 17 numeric features). "
            + CREDIT_FETCH_INSTRUCTIONS
        )
    base = BicriteriaConfig(k=1, p=1.0, lewis_samples=1, seed=seed)
    report = ExperimentReport(
        name="credit",
        config={
            "path": spec.path, "s_grid": list(s_grid), "k_grid": list(k_grid),
            "trials": trials, "seed": seed, "s_for_k": CREDIT_K_SWEEP_ROWS,
            "g_rows": base.g_rows, "h_cols": base.h_cols, "lewis_iterations": base.lewis_iterations,
        },
    )
    for cell_idx, s in enumerate(s_grid):
        _run_cell(report, data, replace(base, seed=seed + cell_idx), trials, subsample=s)
    for cell_idx, k in enumerate(k_grid):
        cfg = replace(base, k=k, lewis_samples=2 * k, seed=seed + 10_000 + cell_idx)
        _run_cell(report, data, cfg, trials, subsample=CREDIT_K_SWEEP_ROWS)
    return report


def emit_report(report: ExperimentReport, path, fmt: str = "csv") -> None:
    """Write a report as CSV (rows + aggregate block) or versioned JSON."""
    path = Path(path)
    fields = [f for f in TrialRecord.__dataclass_fields__]
    try:
        if fmt == "csv":
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(fields)
                for rec in report.records:
                    row = asdict(rec)
                    writer.writerow([repr(row[f]) if isinstance(row[f], float) else row[f] for f in fields])
                if report.records:
                    for key, value in report.aggregates().items():
                        writer.writerow(["aggregate", key, repr(value) if isinstance(value, float) else value] + [""] * (len(fields) - 3))
        elif fmt == "json":
            payload = {
                "schema": REPORT_SCHEMA,
                "name": report.name,
                "config": report.config,
                "records": [asdict(r) for r in report.records],
                "aggregates": report.aggregates(),
            }
            path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise DataError(f"cannot write report to {path}: {exc}") from exc


def parse_report_json(path) -> ExperimentReport:
    """Read back a JSON report; inverse of ``emit_report(..., fmt='json')``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("schema") != REPORT_SCHEMA:
        raise DataError(f"unexpected report schema {payload.get('schema')!r}")
    report = ExperimentReport(name=payload["name"], config=payload["config"])
    report.records = [TrialRecord(**rec) for rec in payload["records"]]
    return report


def parse_report_csv(path) -> list:
    """Read back the trial rows of a CSV report (aggregate block skipped)."""
    fields = list(TrialRecord.__dataclass_fields__)
    records = []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != fields:
            raise DataError(f"unexpected CSV header {header}")
        for row in reader:
            if not row or row[0] == "aggregate":
                continue
            kwargs = {}
            for name, cell in zip(fields, row):
                typ = TrialRecord.__dataclass_fields__[name].type
                kwargs[name] = float(cell) if typ == "float" else int(cell)
            records.append(TrialRecord(**kwargs))
    return records
