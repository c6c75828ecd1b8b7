import csv
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsketch.cli import main
from fairsketch.experiments import (
    DataError,
    ExperimentReport,
    IngestSpec,
    TrialRecord,
    emit_report,
    ingest_csv,
    parse_report_csv,
    parse_report_json,
    proof_of_concept_groups,
    run_credit_lra,
    run_dataset_lra,
    run_proof_of_concept,
    run_synthetic_lra,
    synthetic_pair,
)
from fairsketch.grouped import fair_lra_cost
from fairsketch.lra import BicriteriaConfig


def write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n")
    return str(path)


@pytest.fixture
def small_csv(tmp_path):
    header = ["f1", "f2", "sex", "y"]
    rows = [
        [1.0, 2.0, "a", 0.5],
        [3.0, 4.0, "b", 1.5],
        [5.0, 6.0, "a", 2.5],
        [7.0, 8.0, "b", 3.5],
    ]
    return write_csv(tmp_path / "small.csv", header, rows)


class TestIngest:
    def test_two_groups(self, small_csv):
        data, targets = ingest_csv(IngestSpec(path=small_csv, group_col="sex", label_col="y"))
        assert data.ell == 2
        assert data.labels == ("a", "b")
        assert data.d == 2
        assert np.allclose(data.groups[0], [[1, 2], [5, 6]])
        assert np.allclose(targets.targets[0], [0.5, 2.5])
        assert np.allclose(targets.targets[1], [1.5, 3.5])

    def test_feature_selection(self, small_csv):
        data, _ = ingest_csv(IngestSpec(path=small_csv, group_col="sex", feature_cols=("f2",)))
        assert data.d == 1
        assert np.allclose(data.groups[0], [[2], [6]])

    def test_missing_group_column(self, small_csv):
        with pytest.raises(DataError, match="nope"):
            ingest_csv(IngestSpec(path=small_csv, group_col="nope"))

    def test_missing_file(self):
        with pytest.raises(DataError, match="not found"):
            ingest_csv(IngestSpec(path="/does/not/exist.csv", group_col="sex"))

    def test_unparseable_cell_located(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["f1", "g"], [[1.0, "a"], ["oops", "b"]])
        with pytest.raises(DataError, match=r"row 3.*'f1'.*'oops'"):
            ingest_csv(IngestSpec(path=path, group_col="g"))

    @pytest.mark.parametrize("subsample", [None, 3])
    @pytest.mark.parametrize("line6, message", [
        ("oops,b", r"row 6, column 'f1'"),
        ("nan,b", r"row 6, column 'f1'"),
        ("3.0", r"row 6 has 1 cells"),
    ], ids=["parse", "non-finite", "short-row"])
    def test_error_names_file_line(self, tmp_path, line6, message, subsample):
        # line 3 is blank; a subsample of 3 with seed 1 keeps the last row
        path = tmp_path / "gap.csv"
        path.write_text(f"f1,g\n1.0,a\n\n2.0,b\n3.0,a\n{line6}\n")
        with pytest.raises(DataError, match=message):
            ingest_csv(IngestSpec(path=str(path), group_col="g", subsample=subsample, seed=1))

    def test_subsample(self, tmp_path):
        header = ["f1", "g"]
        rows = [[float(i), "a" if i % 2 else "b"] for i in range(20)]
        path = write_csv(tmp_path / "many.csv", header, rows)
        sub1, _ = ingest_csv(IngestSpec(path=path, group_col="g", subsample=6, seed=3))
        sub2, _ = ingest_csv(IngestSpec(path=path, group_col="g", subsample=6, seed=3))
        assert sub1.total_rows == 6
        for a, b in zip(sub1.groups, sub2.groups):
            assert np.array_equal(a, b)

    def test_group_feature_overlap_rejected(self):
        with pytest.raises(ValueError):
            IngestSpec(path="x.csv", group_col="g", feature_cols=("g", "f"))

    def test_repeated_feature_rejected(self):
        with pytest.raises(ValueError, match="feature column 'a' is listed twice"):
            IngestSpec(path="x.csv", group_col="g", feature_cols=("a", "b", "a"))

    def test_label_as_feature_or_group_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="label column 'y'"):
            IngestSpec(path="x.csv", group_col="g", feature_cols=("f", "y"), label_col="y")
        with pytest.raises(ValueError, match="label column 'g'"):
            IngestSpec(path="x.csv", group_col="g", label_col="g")
        # with the features unset, every column but the group and the label is a feature
        path = write_csv(tmp_path / "lab.csv", ["f", "g", "y"], [[float(i), "ab"[i % 2], 2.0 * i] for i in range(6)])
        data, labels = ingest_csv(IngestSpec(path=path, group_col="g", label_col="y"))
        assert data.d == 1
        assert np.array_equal(np.concatenate(labels.targets), 2.0 * np.concatenate(data.groups)[:, 0])

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with U+FEFF, which used to stay in the first column name
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfSEX,a,b\n1,1.0,2.0\n2,3.0,1.0\n")
        data, _ = ingest_csv(IngestSpec(path=str(path), group_col="SEX"))
        assert data.labels == ("1", "2")
        assert np.array_equal(np.vstack(data.groups), [[1.0, 2.0], [3.0, 1.0]])

    def test_repeated_header_name_rejected(self, tmp_path):
        # a repeated feature name used to keep only its last column, a repeated group name the last group
        path = tmp_path / "dup.csv"
        path.write_text("a,a,g\n1,10,x\n2,20,y\n3,30,x\n")
        with pytest.raises(DataError, match=r"column 'a' is named 2 times in the header"):
            ingest_csv(IngestSpec(path=str(path), group_col="g"))
        path.write_text("f,g,g\n1,x,p\n2,y,q\n")
        with pytest.raises(DataError, match=r"column 'g' is named 2 times in the header"):
            ingest_csv(IngestSpec(path=str(path), group_col="g"))
        # a repeated column the spec does not read is harmless
        path.write_text("f,g,note,note\n1,x,p,q\n2,y,p,q\n")
        data, _ = ingest_csv(IngestSpec(path=str(path), group_col="g", feature_cols=("f",)))
        assert data.labels == ("x", "y")


def _reference_ingest(path, group_col, label_col, subsample, seed):
    """The grouped arrays of a valid CSV, parsed cell by cell with ``csv`` and ``float``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = [row for row in reader if row]
    if subsample is not None and subsample < len(rows):
        chosen = np.sort(np.random.default_rng(seed).choice(len(rows), size=subsample, replace=False))
        rows = [rows[i] for i in chosen]
    features = [name for name in header if name not in (group_col, label_col)]
    order = list(dict.fromkeys(row[header.index(group_col)] for row in rows))
    members = [[row for row in rows if row[header.index(group_col)] == lbl] for lbl in order]
    groups = [np.array([[float(row[header.index(f)]) for f in features] for row in m]) for m in members]
    targets = label_col and [np.array([float(row[header.index(label_col)]) for row in m]) for m in members]
    return tuple(order), groups, targets


@st.composite
def valid_csvs(draw):
    """CSV text with blank lines, CRLF, quoted and padded numbers, string or integer
    group labels, rows longer than the header, and an optional label column."""
    d = draw(st.integers(1, 4))
    names = [f"x{j}" for j in range(d)] + ["grp"]
    label_col = draw(st.sampled_from([None, "y"]))
    if label_col:
        names.append(label_col)
    names = draw(st.permutations(names))
    int_labels = draw(st.booleans())
    label_text = st.integers(-3, 3).map(str) if int_labels else st.sampled_from(["a", "b b", " c", '"q,r"', "D"])
    real = st.floats(-1e300, 1e300)  # bounded, so "{:.3e}" cannot round up to inf
    spelled = st.tuples(real, st.sampled_from(["{!r}", " {!r} ", '"{!r}"', "{:.3e}", "{:.0f}"])).map(
        lambda t: t[1].format(t[0]))
    n = draw(st.integers(1, 12))
    lines = [",".join(names)]
    for _ in range(n):
        cells = [draw(label_text) if name == "grp" else draw(spelled) for name in names]
        cells += ["extra"] * draw(st.integers(0, 2))
        lines.extend([""] * draw(st.integers(0, 1)))
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    subsample = draw(st.one_of(st.none(), st.integers(1, n + 1)))
    return newline.join(lines) + newline, label_col, subsample, draw(st.integers(0, 99))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(valid_csvs())
def test_ingest_matches_a_per_cell_reference(tmp_path_factory, case):
    text, label_col, subsample, seed = case
    path = tmp_path_factory.mktemp("csv") / "valid.csv"
    path.write_bytes(text.encode("utf-8"))
    order, groups, targets = _reference_ingest(path, "grp", label_col, subsample, seed)
    data, labels = ingest_csv(IngestSpec(path=str(path), group_col="grp", label_col=label_col,
                                         subsample=subsample, seed=seed))
    assert data.labels == order
    assert all(np.array_equal(a, b) for a, b in zip(data.groups, groups, strict=True))
    if label_col:
        assert all(np.array_equal(a, b) for a, b in zip(labels.targets, targets, strict=True))
    else:
        assert labels is None


def _seed_keeping_only_the_first(rows: int, n_rows: int, size: int) -> int:
    """A seed whose subsample of ``size`` of ``n_rows`` rows keeps only rows among the first ``rows``."""
    return next(s for s in range(1000)
                if np.random.default_rng(s).choice(n_rows, size=size, replace=False).max() < rows)


# body lines under the header "f1,f2,g,y"; the first bad row is the 4th data row (file line 5)
GOOD = ["1.0,2.0,a,0.5", "3.0,4.0,b,1.5", "5.0,6.0,a,2.5"]
MALFORMED = {
    "feature-unparseable": (GOOD + ["7.0,oops,b,3.5"], r"row 5, column 'f2': cannot parse 'oops'"),
    "label-unparseable": (GOOD + ["7.0,8.0,b,bad"], r"row 5, column 'y': cannot parse 'bad'"),
    "feature-nan": (GOOD + ["nan,8.0,b,3.5"], r"row 5, column 'f1': 'nan' is not a finite real"),
    "label-inf": (GOOD + ["7.0,8.0,b,inf"], r"row 5, column 'y': 'inf' is not a finite real"),
    "hex": (GOOD + ["0x10,8.0,b,3.5"], r"row 5, column 'f1': cannot parse '0x10'"),
    "empty-cell": (GOOD + ["7.0,,b,3.5"], r"row 5, column 'f2': cannot parse ''"),
    "overflow": (GOOD + ["7.0,1e500,b,3.5"], r"row 5, column 'f2': '1e500' is not a finite real"),
    "underscore": (GOOD + ["1_000,8.0,b,3.5"], r"row 5, column 'f1': cannot parse '1_000'"),
    "short-row": (GOOD + ["7.0,8.0"], r"row 5 has 2 cells, the header has 4"),
    "whitespace-line": (GOOD + ["   "], r"row 5 has 1 cells, the header has 4"),
    "nan-before-bad-label": (GOOD + ["nan,8.0,b,3.5", "9.0,1.0,a,bad"], r"row 5, column 'f1': 'nan'"),
    "bad-label-before-nan": (GOOD + ["7.0,8.0,b,bad", "nan,1.0,a,4.5"], r"row 6, column 'f1': 'nan'"),
    "header-only": ([], r"no data rows"),
}


@pytest.mark.parametrize("subsample", [False, True], ids=["all-rows", "subsample-drops-it"])
@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_csv_is_located_on_every_row(tmp_path, capsys, name, subsample):
    body, message = MALFORMED[name]
    path = tmp_path / f"{name}.csv"
    path.write_text("\n".join(["f1,f2,g,y", *body]) + "\n")
    # the subsample keeps two of the three good rows; every row is still validated
    size, seed = 2, _seed_keeping_only_the_first(len(GOOD), len(body) or len(GOOD), 2)
    spec_args = dict(subsample=size, seed=seed) if subsample else {}
    with pytest.raises(DataError, match=message):
        ingest_csv(IngestSpec(path=str(path), group_col="g", feature_cols=("f1", "f2"), label_col="y", **spec_args))
    argv = ["regress", str(path), "--group-col", "g", "--features", "f1,f2", "--label-col", "y"]
    assert main(argv + (["--s", str(size), "--seed", str(seed)] if subsample else [])) == 3
    assert re.search(message, capsys.readouterr().err)


class TestSyntheticSuite:
    def test_golden_baseline_in_records(self):
        report = run_synthetic_lra(trials=3, sketch_dims=(3,), ps=(1.0,), seed=0)
        assert len(report.records) == 3
        for rec in report.records:
            assert rec.baseline_cost == pytest.approx(7.9202, abs=1e-9)
            assert rec.ratio == pytest.approx(rec.bicrit_cost / rec.baseline_cost)

    def test_deterministic_given_seed(self):
        a = run_synthetic_lra(trials=4, sketch_dims=(2, 3), ps=(1.0, 2.0), seed=7)
        b = run_synthetic_lra(trials=4, sketch_dims=(2, 3), ps=(1.0, 2.0), seed=7)
        assert [r.bicrit_cost for r in a.records] == [r.bicrit_cost for r in b.records]
        assert a.aggregates() == b.aggregates()
        c = run_synthetic_lra(trials=4, sketch_dims=(2, 3), ps=(1.0, 2.0), seed=8)
        assert [r.bicrit_cost for r in a.records] != [r.bicrit_cost for r in c.records]

    def test_timing_split(self):
        report = run_synthetic_lra(trials=5, sketch_dims=(3,), ps=(1.0,), seed=1)
        for rec in report.records:
            assert 0.0 < rec.time_bicrit_extract < rec.time_bicrit_total
            assert rec.time_svd > 0.0


class TestProofOfConcept:
    def test_ratio_is_half(self):
        report = run_proof_of_concept()
        rec = report.records[0]
        assert rec.ratio == pytest.approx(0.5, abs=1e-9)
        assert rec.bicrit_cost == pytest.approx(0.5, abs=1e-12)
        assert rec.baseline_cost == pytest.approx(1.0, abs=1e-12)

    def test_axis_factors(self):
        data = proof_of_concept_groups()
        assert fair_lra_cost(data, np.array([[1.0, 0.0]]), squared=True) == pytest.approx(1.0)
        assert fair_lra_cost(data, np.array([[0.0, 1.0]]), squared=True) == pytest.approx(1.0)


class TestCreditSuite:
    def make_credit_like(self, tmp_path, rows=60, feats=4):
        rng = np.random.default_rng(0)
        header = [f"x{i}" for i in range(feats)] + ["SEX"]
        body = [
            list(np.round(rng.standard_normal(feats), 6)) + [1 + (i % 2)]
            for i in range(rows)
        ]
        return write_csv(tmp_path / "credit.csv", header, body)

    def test_shape_validation(self, tmp_path):
        path = self.make_credit_like(tmp_path)
        spec = IngestSpec(path=path, group_col="SEX")
        with pytest.raises(DataError, match="UCI"):
            run_credit_lra(spec, s_grid=(2,), k_grid=(), trials=1)

    def test_sweeps_on_small_stand_in(self, tmp_path):
        path = self.make_credit_like(tmp_path)
        spec = IngestSpec(path=path, group_col="SEX")
        report = run_credit_lra(
            spec, s_grid=(3, 5), k_grid=(1, 2), trials=2, seed=0, validate_shape=False,
        )
        assert len(report.records) == 2 * 2 + 2 * 2
        for rec in report.records[:4]:
            assert rec.k == 1
            assert rec.lewis_samples == 1
            assert rec.g_rows == 30 and rec.h_cols == 30
        for rec in report.records[4:]:
            assert rec.lewis_samples == 2 * rec.k
        for rec in report.records:
            assert 0.0 < rec.time_bicrit_extract < rec.time_bicrit_total

    def test_missing_dataset_mentions_fetch(self):
        spec = IngestSpec(path="/nowhere/credit.csv", group_col="SEX")
        with pytest.raises(DataError, match="not found"):
            run_credit_lra(spec, s_grid=(2,), k_grid=(), trials=1)


class TestEmit:
    def test_empty_report_header_only(self, tmp_path):
        report = ExperimentReport(name="empty", config={})
        out = tmp_path / "empty.csv"
        emit_report(report, out, fmt="csv")
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("trial,seed,k,p,")

    def test_single_trial_row(self, tmp_path):
        report = run_synthetic_lra(trials=1, sketch_dims=(3,), ps=(1.0,), seed=0)
        out = tmp_path / "one.csv"
        emit_report(report, out, fmt="csv")
        records = parse_report_csv(out)
        assert len(records) == 1
        assert records[0] == report.records[0]

    def test_json_round_trip_exact(self, tmp_path):
        report = run_synthetic_lra(trials=5, sketch_dims=(3,), ps=(1.0, 2.0), seed=3)
        out = tmp_path / "r.json"
        emit_report(report, out, fmt="json")
        back = parse_report_json(out)
        assert back.records == report.records
        assert back.aggregates() == report.aggregates()
        payload = json.loads(out.read_text())
        assert payload["schema"] == "fairsketch-report/1"

    def test_csv_reparse_reproduces_aggregates(self, tmp_path):
        report = run_synthetic_lra(trials=4, sketch_dims=(2,), ps=(1.0,), seed=9)
        out = tmp_path / "r.csv"
        emit_report(report, out, fmt="csv")
        records = parse_report_csv(out)
        clone = ExperimentReport(name=report.name, config=report.config, records=records)
        assert clone.aggregates() == report.aggregates()

    def test_unwritable_path(self):
        report = ExperimentReport(name="x", config={})
        with pytest.raises(DataError, match="cannot write"):
            emit_report(report, "/nonexistent-dir/report.csv", fmt="csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(ExperimentReport(name="x", config={}), tmp_path / "x.xml", fmt="xml")


def test_run_dataset_lra_direct():
    data = synthetic_pair()
    report = run_dataset_lra(data, BicriteriaConfig(k=2, p=1.0, g_rows=3, h_cols=3, lewis_samples=2, seed=4), trials=5)
    assert len(report.records) == 5
    assert report.aggregates()["mean_ratio"] < 1.5
    again = run_dataset_lra(data, BicriteriaConfig(k=2, p=1.0, g_rows=3, h_cols=3, lewis_samples=2, seed=4), trials=5)
    assert [r.ratio for r in report.records] == [r.ratio for r in again.records]
