import numpy as np
import pytest

from fairsketch.cli import main


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
    rc = main(["regress", grouped_csv, "--group-col", "grp", "--label-col", "y",
               "--method", "subgradient", "--norm", "l2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max cost:" in out


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
