"""Command-line front end: approx | experiment | plot | matgen.

Exit codes: 0 success, 1 validation error, 2 iteration budget exhausted,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import arnoldi as arn
from . import experiments as exp
from . import linalg, matgen, plotting
from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    KrylovSqrtError,
    NonFiniteEntry,
    TooLarge,
    UnsupportedContext,
)
from .matrixmarket import read_matrix_market, write_matrix_market

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BUDGET = 2
EXIT_NUMERICAL = 3

_VALIDATION_ERRORS = (ConfigError, DomainError, DimensionMismatch, TooLarge,
                      UnsupportedContext, NonFiniteEntry, FileNotFoundError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a validation error; 2 means budget here
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="krylov-sqrt",
        description="Arnoldi matrix square-root actions with certified error bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_approx = sub.add_parser("approx", help="approximate f(M) b adaptively")
    p_approx.add_argument("--matrix-file", required=True, help="MatrixMarket matrix")
    p_approx.add_argument("--rhs-file", help="MatrixMarket vector (default: ones)")
    p_approx.add_argument("--f", default="sqrt", choices=("sqrt", "invsqrt", "inverse"))
    p_approx.add_argument("--stop", default="residual", choices=("residual", "bound"))
    p_approx.add_argument("--tol", type=float, default=1e-2)
    p_approx.add_argument("--kmax", type=int, default=200)
    p_approx.add_argument("--check-every", type=int, default=1,
                          help="steps between checks of --stop residual")
    p_approx.add_argument("--out", default=".", help="output directory")

    p_exp = sub.add_parser("experiment", help="run a configured experiment")
    p_exp.add_argument("--config", required=True, help="JSON experiment config")
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--tol", type=float, help="override stopping tolerance")
    p_exp.add_argument("--kmax", type=int)
    p_exp.add_argument("--out", help="output directory override")
    p_exp.add_argument("--no-oracle", action="store_true",
                       help="drop the reference-oracle error column")
    p_exp.add_argument("--jobs", type=int)

    p_plot = sub.add_parser("plot", help="render an experiment CSV to SVG")
    p_plot.add_argument("--csv", required=True)
    p_plot.add_argument("--kind", required=True, choices=sorted(plotting.PLOT_KINDS))
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.add_argument("--summary", help="summary JSON for annotations")

    p_gen = sub.add_parser("matgen", help="generate a test matrix")
    p_gen.add_argument("--kind", required=True,
                       choices=("convdiff", "uniform", "clustered"))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--eta", type=float, default=0.1)
    p_gen.add_argument("--convention", default="interior", choices=("interior", "full"))
    p_gen.add_argument("--lo", type=float, default=1.0)
    p_gen.add_argument("--hi", type=float, default=1000.0)
    p_gen.add_argument("--cluster-center", type=float, default=10.0)
    p_gen.add_argument("--cluster-std", type=float, default=1.0)
    p_gen.add_argument("--cluster-fraction", type=float, default=0.99)
    p_gen.add_argument("--outlier-center", type=float, default=1000.0)
    p_gen.add_argument("--outlier-std", type=float, default=100.0)
    p_gen.add_argument("--skew", action="store_true",
                       help="add a random skew-symmetric part")
    p_gen.add_argument("--skew-scale", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=1234)
    p_gen.add_argument("--out", required=True, help="output MatrixMarket path")
    return parser


def _cmd_approx(args) -> int:
    a = read_matrix_market(args.matrix_file)
    M = linalg.DenseMatrix(a)
    if args.rhs_file:
        b = read_matrix_market(args.rhs_file).ravel()
    else:
        b = np.ones(M.shape[0])
    rule = arn.ResidualRelative if args.stop == "residual" else arn.BoundAbsolute
    stop = rule(args.tol)
    result = arn.run_adaptive(M, b, f=args.f, stop=stop, k_max=args.kmax,
                              check_every=args.check_every)
    os.makedirs(args.out, exist_ok=True)
    write_matrix_market(os.path.join(args.out, "result.mtx"), result.result,
                        comment=f"f={args.f} k={result.k}")
    rows = [dataclasses.asdict(r) for r in result.history]
    exp.write_csv(os.path.join(args.out, "history.csv"), rows)
    final = result.history[-1]
    print(f"stopped at k = {result.k} (breakdown: {result.breakdown})")
    if isinstance(stop, arn.BoundAbsolute):
        print(f"final posterior_ritz = {final.posterior_ritz:.6e}")
    else:
        print(f"final relative residual = {final.residual_norm / np.linalg.norm(b):.6e}")
        if args.f == "sqrt" and np.isfinite(final.posterior_ritz):
            print(f"certified sqrt-error bound (posterior_ritz) = {final.posterior_ritz:.6e}")
    if not result.converged:
        print("stopping rule NOT satisfied within k_max", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_experiment(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for key, value in (("seed", args.seed), ("k_max", args.kmax), ("jobs", args.jobs)):
        if value is not None:
            raw[key] = value
    if args.no_oracle:
        raw["oracle"] = False
    if args.tol is not None:
        if not isinstance(raw.get("stopping"), dict):
            raise ConfigError("--tol override needs a stopping rule in the config")
        raw["stopping"] = dict(raw["stopping"], tol=args.tol)
    cfg = exp.config_from_dict(raw)  # the overrides are validated with the file
    rows, summary, csv_path = exp.run_experiment(cfg, output_dir=args.out)
    print(f"wrote {csv_path} ({len(rows)} rows)")
    for key, value in sorted(summary.items()):
        if key != "experiment":
            print(f"  {key}: {value}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    plotting.render_plot(args.csv, args.kind, args.out, summary_path=args.summary)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_matgen(args) -> int:
    if args.kind == "convdiff":
        m = matgen.convection_diffusion(args.n, args.eta, args.convention)
        comment = f"convection-diffusion n={args.n} eta={args.eta} ({args.convention})"
    else:
        if args.kind == "uniform":
            spec = matgen.SpectrumSpec.uniform(args.n, args.lo, args.hi)
        else:
            spec = matgen.SpectrumSpec.clustered(
                args.n, args.cluster_center, args.cluster_std,
                args.cluster_fraction, args.outlier_center, args.outlier_std)
        sm = matgen.spectrum_matrix(spec, args.seed)
        a = sm.matrix.array
        if args.skew:
            a = a + matgen.skew_part(args.n, args.seed + 1, scale=args.skew_scale)
        m = linalg.DenseMatrix(a)
        comment = f"{args.kind} spectrum n={args.n} seed={args.seed} skew={args.skew}"
    write_matrix_market(args.out, m, comment=comment)
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "approx": _cmd_approx,
        "experiment": _cmd_experiment,
        "plot": _cmd_plot,
        "matgen": _cmd_matgen,
    }
    try:
        return handlers[args.command](args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except KrylovSqrtError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
