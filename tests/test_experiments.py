import json

import numpy as np
import pytest

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
