"""Command-line interface.

Subcommands: ``lra``, ``css``, ``regress`` operate on a CSV with a group
column; ``experiment`` runs the benchmark suites (synthetic | credit | poc).
Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from .css import bicriteria_fair_css
from .experiments import (
    CREDIT_FETCH_INSTRUCTIONS,
    DataError,
    IngestSpec,
    emit_report,
    ingest_csv,
    run_credit_lra,
    run_dataset_lra,
    run_proof_of_concept,
    run_synthetic_lra,
)
from .grouped import fair_lra_cost
from .linalg import NumericError
from .lra import BicriteriaConfig, bicriteria_fair_lra, svd_baseline
from .regression import (
    binary_search_fair_regression,
    export_l1_feasibility,
    export_l2_feasibility,
    minmax_subgradient,
    stacked_least_squares,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _add_ingest_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("csv", help="input CSV file with a header row")
    p.add_argument("--group-col", required=True, help="sensitive-attribute column")
    p.add_argument("--features", help="comma-separated numeric feature columns (default: all others)")
    p.add_argument("--label-col", help="regression target column")
    p.add_argument("--s", type=int, help="uniform row subsample size")
    p.add_argument("--seed", type=int, default=0)


def _add_sketch_flags(p: argparse.ArgumentParser) -> None:
    default = {f.name: f.default for f in dataclasses.fields(BicriteriaConfig)}
    p.add_argument("--k", type=int, default=2, help="rank / column parameter")
    p.add_argument("--p", type=float, help="Lewis sampling exponent override")
    p.add_argument("--c", type=float, default=default["c"], help="trade-off parameter in (0,1)")
    p.add_argument("--g-rows", type=int, default=default["g_rows"])
    p.add_argument("--h-cols", type=int, default=default["h_cols"])
    p.add_argument("--lewis-iters", type=int, default=default["lewis_iterations"])
    p.add_argument("--lewis-samples", type=int, help="row budget of the Lewis sampler (default k)")
    p.add_argument("--squared", action="store_true", help="report squared costs")


def _lists(args, **flags) -> dict:
    """Comma-separated flags as lists, from parameter=(flag attribute, item type); unset flags are left out."""
    return {param: [cast(x.strip()) for x in getattr(args, attr).split(",")]
            for param, (attr, cast) in flags.items() if getattr(args, attr)}


def _ingest(args) -> tuple:
    spec = IngestSpec(
        path=args.csv,
        group_col=args.group_col,
        label_col=getattr(args, "label_col", None),
        subsample=args.s,
        seed=args.seed,
        **_lists(args, feature_cols=("features", str)),
    )
    return ingest_csv(spec)


def _config(args) -> BicriteriaConfig:
    return BicriteriaConfig(
        k=args.k, c=args.c, p=args.p, g_rows=args.g_rows, h_cols=args.h_cols,
        lewis_iterations=args.lewis_iters, lewis_samples=args.lewis_samples, seed=args.seed,
    )


def _cmd_lra(args) -> int:
    data, _ = _ingest(args)
    print(f"groups: {data.ell} ({', '.join(data.labels)}), features: {data.d}, rows: {data.total_rows}")
    if args.trials != 1 or args.out:
        report = run_dataset_lra(data, _config(args), trials=args.trials)
        agg = report.aggregates()
        print(f"trials: {agg['trials']}, mean ratio: {agg['mean_ratio']:.6g}, "
              f"min: {agg['min_ratio']:.6g}, max: {agg['max_ratio']:.6g}")
        if args.out:
            emit_report(report, args.out, fmt=args.format)
            print(f"report written to {args.out} ({args.format})")
        return EXIT_OK
    sol = bicriteria_fair_lra(data, _config(args))
    base = svd_baseline(data, args.k)
    bic = fair_lra_cost(data, sol.v_tilde, squared=args.squared)
    ref = fair_lra_cost(data, base, squared=args.squared)
    print(f"bicriteria cost: {bic:.6g} (rank {sol.t})")
    print(f"baseline cost:   {ref:.6g} (rank {args.k})")
    print(f"ratio:           {bic / ref if ref else float('nan'):.6g}")
    return EXIT_OK


def _cmd_css(args) -> int:
    data, _ = _ingest(args)
    sol = bicriteria_fair_css(data, _config(args), refit=args.refit)
    print(f"selected columns: {list(sol.indices)}")
    cost = sol.cost ** 2 if args.squared else sol.cost
    print(f"fair reconstruction cost: {cost:.6g}")
    return EXIT_OK


def _cmd_regress(args) -> int:
    data, targets = _ingest(args)
    if targets is None:
        raise DataError("regress requires --label-col")
    if args.export:
        export = export_l1_feasibility if args.export == "l1" else export_l2_feasibility
        model = export(data, targets, args.threshold)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(model.text)
            print(f"wrote {model.norm} feasibility model ({model.variable_count} variables, "
                  f"{model.constraint_count} constraints) to {args.out}")
        else:
            sys.stdout.write(model.text)
        return EXIT_OK
    if args.method == "stacked":
        sol = stacked_least_squares(data, targets)
    elif args.method == "subgradient":
        sol = minmax_subgradient(data, targets, norm=args.norm, eps=args.eps)
    else:
        sol = binary_search_fair_regression(data, targets, norm=args.norm, eps=args.eps)
    np.set_printoptions(precision=6, suppress=True)
    print(f"method: {sol.method} ({sol.norm}), iterations: {sol.iterations}")
    print(f"x: {sol.x}")
    for lbl, cst in zip(data.labels, sol.per_group_costs):
        print(f"group {lbl}: cost {cst:.6g}")
    print(f"max cost: {sol.max_cost:.6g}")
    if math.isfinite(sol.gap):
        print(f"certified lower bound: {sol.max_cost - sol.gap:.6g}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.suite == "synthetic":
        grids = _lists(args, sketch_dims=("dims", int), ps=("p_grid", float))
        report = run_synthetic_lra(trials=args.trials, k=args.k, seed=args.seed, **grids)
    elif args.suite == "poc":
        report = run_proof_of_concept()
    else:
        if not args.csv:
            raise DataError("experiment credit requires a CSV path. " + CREDIT_FETCH_INSTRUCTIONS)
        spec = IngestSpec(path=args.csv, group_col=args.group_col or "SEX", seed=args.seed,
                          **_lists(args, feature_cols=("features", str)))
        grids = _lists(args, s_grid=("s_grid", int), k_grid=("k_grid", int))
        report = run_credit_lra(spec, trials=args.trials, seed=args.seed, **grids)
    agg = report.aggregates()
    print(f"suite: {report.name}, trials: {agg['trials']}")
    if agg["trials"]:
        print(f"mean ratio: {agg['mean_ratio']:.6g}, min: {agg['min_ratio']:.6g}, max: {agg['max_ratio']:.6g}")
    if args.out:
        emit_report(report, args.out, fmt=args.format)
        print(f"report written to {args.out} ({args.format})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairsketch",
        description="Socially fair low-rank approximation, column selection, and regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lra = sub.add_parser("lra", help="bicriteria fair low-rank approximation vs SVD baseline")
    _add_ingest_flags(p_lra)
    _add_sketch_flags(p_lra)
    p_lra.add_argument("--trials", type=int, default=1, help="seeded repetitions (reported as a ratio summary)")
    p_lra.add_argument("--out", help="report output path (with --trials)")
    p_lra.add_argument("--format", choices=["csv", "json"], default="csv")
    p_lra.set_defaults(func=_cmd_lra)

    p_css = sub.add_parser("css", help="bicriteria fair column subset selection")
    _add_ingest_flags(p_css)
    _add_sketch_flags(p_css)
    p_css.add_argument("--refit", action="store_true", help="least-squares refit per group")
    p_css.set_defaults(func=_cmd_css)

    p_reg = sub.add_parser("regress", help="min-max fair regression")
    _add_ingest_flags(p_reg)
    p_reg.add_argument("--method", choices=["stacked", "subgradient", "binary-search"], default="subgradient")
    p_reg.add_argument("--norm", choices=["l1", "l2"], default="l2")
    p_reg.add_argument("--eps", type=float, default=0.05,
                       help="subgradient: absolute tolerance on the worst-group cost gap; "
                            "binary-search: relative step, L shrinks by (1 + eps)")
    p_reg.add_argument("--export", choices=["l1", "l2"], help="emit a feasibility model instead of solving")
    p_reg.add_argument("--threshold", type=float, default=1.0, help="threshold L for --export")
    p_reg.add_argument("--out", help="output file for --export")
    p_reg.set_defaults(func=_cmd_regress)

    p_exp = sub.add_parser("experiment", help="benchmark suites")
    p_exp.add_argument("suite", choices=["synthetic", "credit", "poc"])
    p_exp.add_argument("csv", nargs="?", help="dataset path (credit suite)")
    p_exp.add_argument("--group-col", help="sensitive-attribute column (credit suite)")
    p_exp.add_argument("--features", help="comma-separated feature columns (credit suite)")
    p_exp.add_argument("--trials", type=int, default=100)
    p_exp.add_argument("--k", type=int, default=2)
    p_exp.add_argument("--dims", help="comma-separated Gaussian sketch dimensions (synthetic)")
    p_exp.add_argument("--p-grid", help="comma-separated Lewis exponents (synthetic)")
    p_exp.add_argument("--s-grid", help="comma-separated subsample sizes (credit)")
    p_exp.add_argument("--k-grid", help="comma-separated ranks (credit)")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", help="report output path")
    p_exp.add_argument("--format", choices=["csv", "json"], default="csv")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
