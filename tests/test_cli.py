import re

import numpy as np
import pytest

from fairsketch import lra
from fairsketch.cli import _config, build_parser, main
from fairsketch.experiments import IngestSpec, ingest_csv
from fairsketch.grouped import fair_regression_group_costs
from fairsketch.lra import BicriteriaConfig, bicriteria_fair_lra
from fairsketch.regression import stacked_least_squares


@pytest.fixture
def grouped_csv(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["a,b,c,grp,y"]
    for i in range(12):
        vals = np.round(rng.standard_normal(3), 4)
        y = round(float(vals.sum() + 0.1 * rng.standard_normal()), 4)
        lines.append(f"{vals[0]},{vals[1]},{vals[2]},{'m' if i % 2 else 'f'},{y}")
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_lra_command(grouped_csv, capsys):
    rc = main(["lra", grouped_csv, "--group-col", "grp", "--features", "a,b,c",
               "--k", "1", "--g-rows", "5", "--h-cols", "5", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ratio:" in out
    assert "groups: 2" in out


def test_lra_trials_report(grouped_csv, tmp_path, capsys):
    out_path = tmp_path / "lra.csv"
    rc = main(["lra", grouped_csv, "--group-col", "grp", "--k", "1",
               "--g-rows", "5", "--h-cols", "5", "--trials", "4",
               "--seed", "2", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mean ratio:" in out
    assert out_path.exists()


def test_css_command(grouped_csv, capsys):
    rc = main(["css", grouped_csv, "--group-col", "grp", "--k", "2",
               "--g-rows", "5", "--h-cols", "5", "--squared"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "selected columns:" in out


def test_regress_command(grouped_csv, capsys):
    for norm in ("l2", "l1"):
        rc = main(["regress", grouped_csv, "--group-col", "grp", "--label-col", "y",
                   "--method", "subgradient", "--norm", norm])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max cost:" in out
        values = dict(line.split(": ", 1) for line in out.splitlines() if line.startswith(("max cost", "certified")))
        assert 0.0 <= float(values["certified lower bound"]) <= float(values["max cost"]), norm

    rc = main(["regress", grouped_csv, "--group-col", "grp", "--label-col", "y", "--method", "stacked"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max cost:" in out and "certified lower bound" not in out


def test_stacked_regress_reports_the_requested_norm(tmp_path, capsys):
    path = tmp_path / "two_groups.csv"
    path.write_text("a,b,grp\n1.0,2.0,x\n2.0,1.0,x\n3.0,5.0,y\n4.0,3.0,y\n")
    data, labels = ingest_csv(IngestSpec(path=str(path), group_col="grp", label_col="b", feature_cols=["a"]))
    x = stacked_least_squares(data, labels).x
    costs = {norm: fair_regression_group_costs(data, labels, x, norm) for norm in ("l1", "l2")}
    assert f"{costs['l1'].max():.6g}" != f"{costs['l2'].max():.6g}"  # so the prints tell the norms apart
    for norm, want in costs.items():
        rc = main(["regress", str(path), "--group-col", "grp", "--features", "a", "--label-col", "b",
                   "--method", "stacked", "--norm", norm])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"method: stacked ({norm})" in out
        assert f"group x: cost {want[0]:.6g}" in out and f"group y: cost {want[1]:.6g}" in out
        assert f"max cost: {want.max():.6g}" in out


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_regress_is_unmoved_by_a_tiny_feature_scale(tmp_path, capsys, norm):
    # the default box was once clipped to 1e6: with a scaled by 1e-7, L2 printed 5.16236 for 2.86121, L1 6.7 for 3.7
    printed = []
    for a in (("1.0", "3.0", "2.0", "4.0"), ("1e-07", "3e-07", "2e-07", "4e-07")):
        path = tmp_path / "two_groups.csv"
        path.write_text("a,b,grp\n" + "".join(f"{v},{b},{g}\n" for v, b, g in zip(a, "2153", "mfmf")))
        rc = main(["regress", str(path), "--group-col", "grp", "--features", "a", "--label-col", "b",
                   "--norm", norm, "--eps", "1e-9"])
        assert rc == 0
        printed.append([line for line in capsys.readouterr().out.splitlines() if line.startswith("max cost:")])
    assert printed[0] == printed[1] and len(printed[0]) == 1


def test_regress_is_unmoved_by_a_near_collinear_feature(tmp_path, capsys):
    # b = a + 1e-8 c spans the plane of (a, c) at a condition near 4e8: the normal equations printed 13.0651
    rng = np.random.default_rng(0)
    A = np.round(rng.uniform(0.0, 5.0, (12, 2)), 1)
    y = np.round(A @ np.array([1.0, -2.0]) + rng.standard_normal(12) * np.where(np.arange(12) < 6, 3.0, 0.1), 2)
    printed = []
    for second in (A[:, 1], A[:, 0] + 1e-8 * A[:, 1]):
        path = tmp_path / "collinear.csv"
        rows = zip(A[:, 0].tolist(), second.tolist(), y.tolist(), "m" * 6 + "f" * 6)
        path.write_text("a,b,y,grp\n" + "".join(f"{a!r},{b!r},{t!r},{g}\n" for a, b, t, g in rows))
        rc = main(["regress", str(path), "--group-col", "grp", "--features", "a,b", "--label-col", "y", "--eps", "1e-9"])
        assert rc == 0
        printed.append([line for line in capsys.readouterr().out.splitlines() if line.startswith("max cost:")])
    assert printed[0] == printed[1] == ["max cost: 3.11639"]


def test_lra_prints_the_solution_cost(grouped_csv, capsys):
    data, _ = ingest_csv(IngestSpec(path=grouped_csv, group_col="grp", seed=4))
    sol = bicriteria_fair_lra(data, BicriteriaConfig(k=1, seed=4))
    argv = ["lra", grouped_csv, "--group-col", "grp", "--k", "1", "--seed", "4"]
    for squared in (False, True):
        rc = main(argv + ["--squared"] * squared)
        out = capsys.readouterr().out
        assert rc == 0
        assert f"bicriteria cost: {sol.cost ** 2 if squared else sol.cost:.6g} (rank {sol.t})" in out


@pytest.mark.parametrize("flag", ["--c", "--lewis-iters"])
@pytest.mark.parametrize("command", ["lra", "css"])
def test_removed_sketch_flags_are_usage_errors(grouped_csv, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, grouped_csv, "--group-col", "grp", flag, "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert not re.search(rf"{flag}\b", capsys.readouterr().out)


@pytest.mark.parametrize("command", ["lra", "css"])
def test_k_above_feature_count_rejected_before_the_sketch(grouped_csv, capsys, monkeypatch, command):
    def pipeline_ran(*args, **kwargs):
        raise AssertionError("the sketch ran before k was checked")

    monkeypatch.setattr(lra, "_pipeline_once", pipeline_ran)
    rc = main([command, grouped_csv, "--group-col", "grp", "--features", "a,b,c", "--k", "99"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "k=99 exceeds feature count 3" in err


def test_sketch_flags_default_to_the_library_config(grouped_csv):
    args = build_parser().parse_args(["lra", grouped_csv, "--group-col", "grp"])
    assert _config(args) == BicriteriaConfig(k=2, seed=args.seed)


def test_regress_export(grouped_csv, tmp_path, capsys):
    out_path = tmp_path / "model.lp"
    rc = main(["regress", grouped_csv, "--group-col", "grp", "--label-col", "y",
               "--export", "l1", "--threshold", "2.5", "--out", str(out_path)])
    assert rc == 0
    text = out_path.read_text()
    assert text.startswith("\\")
    assert "Subject To" in text and text.rstrip().endswith("End")


def test_experiment_poc(capsys):
    rc = main(["experiment", "poc"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mean ratio: 0.5" in out


def test_experiment_synthetic_with_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc = main(["experiment", "synthetic", "--trials", "3", "--dims", "3",
               "--p-grid", "1", "--seed", "0", "--out", str(out_path), "--format", "json"])
    assert rc == 0
    assert out_path.exists()


def test_data_error_exit_code(tmp_path, capsys):
    rc = main(["lra", str(tmp_path / "missing.csv"), "--group-col", "g"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "data error" in err


def test_usage_error_exit_code(grouped_csv, capsys):
    rc = main(["lra", grouped_csv, "--group-col", "grp", "--k", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "usage error" in err


@pytest.mark.parametrize("eps", ["nan", "inf", "0"])
@pytest.mark.parametrize("method", ["subgradient", "binary-search"])
def test_non_finite_regress_eps_is_usage_error(grouped_csv, capsys, method, eps):
    rc = main(["regress", grouped_csv, "--group-col", "grp", "--features", "a,b", "--label-col", "y",
               "--method", method, "--eps", eps])
    assert rc == 2
    assert "usage error: eps must be" in capsys.readouterr().err


def test_label_among_features_is_usage_error(grouped_csv, capsys):
    # the target as a feature would fit itself exactly
    rc = main(["regress", grouped_csv, "--group-col", "grp", "--features", "a,y",
               "--label-col", "y", "--method", "stacked"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "label column 'y'" in err


@pytest.mark.parametrize("argv", [
    ["lra", "--features", "a,a", "--k", "1"],
    ["regress", "--features", "a,a,b", "--label-col", "y"],
], ids=["lra", "regress"])
def test_repeated_feature_is_usage_error(grouped_csv, capsys, argv):
    # a copied column makes the design rank-deficient, and lra would report a ratio of rounding noise
    rc = main([argv[0], grouped_csv, "--group-col", "grp", *argv[1:]])
    err = capsys.readouterr().err
    assert rc == 2
    assert "feature column 'a' is listed twice" in err


def test_missing_credit_csv_exit_code(capsys):
    rc = main(["experiment", "credit"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "UCI" in err


def test_short_row_is_data_error(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("a,b,grp\n1.0,2.0,m\n3.0,f\n")
    rc = main(["lra", str(path), "--group-col", "grp", "--k", "1"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "row 3" in err and "2 cells" in err


@pytest.mark.parametrize("cell", ["nan", "inf"])
@pytest.mark.parametrize("column", ["b", "y"])
def test_non_finite_cell_is_data_error(tmp_path, capsys, cell, column):
    rows = [["1.0", "2.0", "m", "0.5"], ["3.0", "4.0", "f", "1.5"], ["5.0", "6.0", "m", "2.5"]]
    rows[1][{"b": 1, "y": 3}[column]] = cell
    path = tmp_path / "bad.csv"
    path.write_text("a,b,grp,y\n" + "".join(",".join(r) + "\n" for r in rows))
    rc = main(["regress", str(path), "--group-col", "grp", "--features", "a,b", "--label-col", "y"])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"row 3, column '{column}'" in err and repr(cell) in err


@pytest.mark.parametrize("argv", [
    ["lra", "{csv}", "--group-col", "grp", "--trials", "0"],
    ["lra", "{csv}", "--group-col", "grp", "--trials", "-2"],
    ["experiment", "synthetic", "--trials", "0"],
    ["experiment", "credit", "{csv}", "--group-col", "grp", "--trials", "0"],
])
def test_trials_below_one_is_usage_error(grouped_csv, capsys, argv):
    rc = main([a.format(csv=grouped_csv) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert "trials must be >= 1" in err


@pytest.mark.parametrize("size", ["0", "-3"])
@pytest.mark.parametrize("command", ["lra", "css", "regress"])
def test_subsample_below_one_is_usage_error(grouped_csv, capsys, command, size):
    argv = [command, grouped_csv, "--group-col", "grp", "--s", size]
    rc = main(argv + (["--label-col", "y"] if command == "regress" else []))
    err = capsys.readouterr().err
    assert rc == 2
    assert f"subsample must be >= 1, got {size}" in err


def test_rank_deficient_badly_scaled_regress_runs(tmp_path, capsys):
    # three rows in R^5 at scales 1e-2 and 1e3: the removed barrier stopped here with "usage error: Singular matrix"
    rng = np.random.default_rng(3)
    groups = [1e-2 * rng.standard_normal((2, 5)), 1e3 * rng.standard_normal((1, 5))]
    targets = [1e2 * rng.standard_normal(2), 1e-2 * rng.standard_normal(1)]
    lines = ["a,b,c,d,e,grp,y"]
    for name, A, b in zip("mf", groups, targets):
        lines += [",".join(map(repr, row.tolist())) + f",{name},{y!r}" for row, y in zip(A, b.tolist())]
    path = tmp_path / "rank.csv"
    path.write_text("\n".join(lines) + "\n")
    rc = main(["regress", str(path), "--group-col", "grp", "--label-col", "y"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "method: dual-newton (l2)" in out and "certified lower bound" in out


def test_regress_ends_at_a_vertex_optimum_in_few_points(tmp_path, capsys):
    # group f's one row leaves it cheaper at group m's own fit: the dual's maximiser is m's vertex,
    # which bisection approached in 28 solves
    path = tmp_path / "short_group.csv"
    path.write_text("a,b,c,grp\n1.0,2.0,3.0,m\n3.0,1.0,2.0,f\n2.0,5.0,1.0,m\n4.0,3.0,0.5,m\n")
    rc = main(["regress", str(path), "--group-col", "grp", "--features", "a,b", "--label-col", "c", "--eps", "1e-9"])
    out = capsys.readouterr().out
    assert rc == 0
    (iterations,) = re.findall(r"method: dual-newton \(l2\), iterations: (\d+)", out)
    assert int(iterations) <= 4
    assert "max cost: 2.44972" in out and "certified lower bound: 2.44972" in out


def test_regress_finds_the_smallest_ball_about_five_points(tmp_path, capsys):
    # group i is the point c_i as rows (1, 0 | x) and (0, 1 | y): A_i = I and b_i = c_i, so the solve finds the
    # smallest ball about the unit square's corners and centre, from the vertex start (ell = 5 > d + 1)
    points = {"m1": (0, 0), "m2": (1, 0), "m3": (0, 1), "m4": (1, 1), "m5": (0.5, 0.5)}
    rows = [f"1,0,{x},{name}\n0,1,{y},{name}" for name, (x, y) in points.items()]
    path = tmp_path / "ball.csv"
    path.write_text("a,b,y,grp\n" + "\n".join(rows) + "\n")
    rc = main(["regress", str(path), "--group-col", "grp", "--features", "a,b", "--label-col", "y", "--eps", "1e-9"])
    out = capsys.readouterr().out
    assert rc == 0
    (iterations,) = re.findall(r"method: dual-newton \(l2\), iterations: (\d+)", out)
    assert int(iterations) <= 4
    assert "max cost: 0.707107" in out and "certified lower bound: 0.707107" in out


def test_byte_order_mark_csv_runs(tmp_path, capsys):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfSEX,a,b\n1,1.0,2.0\n2,3.0,1.0\n")
    rc = main(["lra", str(path), "--group-col", "SEX", "--k", "1"])
    assert rc == 0
    assert "groups: 2" in capsys.readouterr().out


def test_repeated_header_name_is_data_error(tmp_path, capsys):
    # the repeated 'a' used to be read as two copies of its last column, and lra exited 0
    path = tmp_path / "dup.csv"
    path.write_text("a,a,g\n1,10,x\n2,20,y\n3,30,x\n")
    rc = main(["lra", str(path), "--group-col", "g", "--k", "1"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "column 'a' is named 2 times in the header" in err
