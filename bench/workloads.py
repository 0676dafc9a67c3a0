"""The benchmark's workloads, the timed loop, and the output checks.

A workload's set-up turns the seed into one *round*: a fixed list of
operations that call the package's public entry points.  The timed phase
runs whole rounds, one operation after another (a closed loop with one
client), until the requested seconds have passed.  Every attempt's output
is then checked, outside the timed phase, against :mod:`oracles` and
against properties the method must have.

This module imports ``krylov_sqrt``; the caller puts the package on
``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles
import speed
import tracing
from krylov_sqrt import cli, experiments, matgen, matrixmarket, plotting

SETUP_REPS = 3

# convdiff-table: points of the paper's iteration-count table.
CONVDIFF_N = (1000, 1200)
CONVDIFF_ETA = 0.1
CONVDIFF_TOL = 0.05

# dense-cli: `krylov-sqrt approx` on two fixed order-600 matrices.  The
# power iteration inside `approx` takes 878 to 8,262 steps over matrix seeds
# 1-11 at this order, so the matrices are fixed and the seed draws the
# right-hand sides.  Spectrum seed 8 with skew seed 9 takes the median count.
DENSE_N = 600
DENSE_TOL = 1e-6
DENSE_SPECTRUM_SEED = 8
DENSE_SKEW_SEED = 9

# bound-sweep: small instances through `bounds_vs_k` / `hermitian_compare`.
SWEEP_N = (40, 200)
SWEEP_K_MAX = 30
SWEEP_SLOTS = 20
# k_stop of a sweep instance: first k with posterior_ritz <= SWEEP_RTOL ||b||
# (k_max + 1 when no sampled k gets there).
SWEEP_RTOL = 1e-2
# The smallest of n uniform draws on [lo, 1000] sets how fast an instance
# converges; with lo = 1 it varies 25-fold at n = 40 and dominated the
# seed-to-seed spread of k_stop, with lo = 10 it varies 3.5-fold.
UNIFORM = {"type": "spectrum", "kind": "uniform", "lo": 10.0, "hi": 1000.0}
# Half the spectrum at 10 +- 1, half at 500 +- 100.  Outliers five standard
# deviations clear of zero: a negative draw is clamped to 1e-6 by matgen and
# turns one instance into a near-singular one.
CLUSTERED = {"type": "spectrum", "kind": "clustered", "cluster_center": 10.0,
             "cluster_std": 1.0, "cluster_fraction": 0.5,
             "outlier_center": 500.0, "outlier_std": 100.0}
SWEEP_KINDS = (
    ("bounds_vs_k", UNIFORM, False, None),
    ("bounds_vs_k", UNIFORM, True, None),
    ("bounds_vs_k", CLUSTERED, False, None),
    ("bounds_vs_k", CLUSTERED, True, None),
    ("hermitian_compare", CLUSTERED, False, {"kind": "eig_average", "count": SWEEP_N[1]}),
)

# An error recomputed here and the program's own error column must agree to
# this relative tolerance plus ERROR_ATOL * ||reference||.
ERROR_RTOL = 1e-5
ERROR_ATOL = 1e-12
# The bounds are exact-arithmetic statements.  Sweep rows whose true error is
# below ROUNDING_RTOL * ||reference|| are where rounding sets both the error
# and the bound, so they are not held to error <= bound (see README).
ROUNDING_RTOL = 1e-10


class CheckFailed(Exception):
    """An operation's output broke a property or disagreed with an oracle."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation of a round.

    ``run`` takes a fresh output directory and returns what ``check``
    inspects; ``check`` returns (k_stop, [bound / true error, ...]) or raises
    CheckFailed.
    """

    key: str
    run: Callable[[str], object]
    check: Callable[[object], tuple]


def _read_csv(path: str) -> list:
    """Rows of a CSV as dicts of float (None for an empty cell)."""
    with open(path, newline="", encoding="ascii") as fh:
        return [{key: (float(cell) if cell else None) for key, cell in row.items()}
                for row in csv.DictReader(fh)]


def _read_mtx_vector(path: str) -> np.ndarray:
    """A MatrixMarket ``array`` vector, real or complex."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        lines = [ln.split() for ln in fh if ln.strip() and not ln.startswith("%")]
    _require(header[2] == "array", f"{path}: expected array format")
    rows, cols = (int(v) for v in lines[0])
    vals = np.array(lines[1:], dtype=float)
    _require(vals.shape[0] == rows * cols, f"{path}: wrong entry count")
    return vals[:, 0] + 1j * vals[:, 1] if header[3] == "complex" else vals[:, 0]


# ---------------------------------------------------------------------------
# convdiff-table


def convdiff_table(seed: int, work_dir: str) -> list:
    """The round is the table points in CONVDIFF_N; the inputs are the
    paper's and do not depend on the seed, which only sets their order."""
    ns = list(CONVDIFF_N)
    if seed % 2:
        ns.reverse()
    return [_convdiff_op(n) for n in ns]


def _convdiff_op(n: int) -> Op:
    cfg = experiments.config_from_dict({
        "experiment": "convdiff_table", "n_values": [n], "eta": CONVDIFF_ETA,
        "convention": "interior", "oracle": True, "jobs": 1,
        "stopping": {"rule": "bound", "tol": CONVDIFF_TOL, "bound_kind": "posterior_ritz"},
    })

    def run(out_dir):
        rows, _, _ = experiments.run_experiment(cfg, output_dir=out_dir)
        return rows

    b = np.ones(n - 1)
    reference = functools.cache(lambda: oracles.convdiff_sqrt_action(n, CONVDIFF_ETA, b))

    approximations = {}

    def check(rows):
        _require(len(rows) == 1, f"n={n}: expected one table row, got {len(rows)}")
        row = rows[0]
        k, bound = int(row["k_stop"]), row["bound_at_stop"]
        ref = reference()
        if k not in approximations:
            matvec = oracles.tridiagonal_matvec(n, CONVDIFF_ETA)
            approximations[k] = oracles.arnoldi_sqrt(matvec, b, k)
        err = float(np.linalg.norm(approximations[k] - ref))
        paper_cond, paper_k, paper_err = oracles.PAPER_TABLE[n]
        rtol_cond, rtol_k, rtol_err = oracles.PAPER_RTOL
        _require(bound <= CONVDIFF_TOL, f"n={n}: bound at stop {bound} > tol {CONVDIFF_TOL}")
        _require(err <= bound, f"n={n}: true error {err} > posterior_ritz {bound}")
        _require(abs(row["error"] - err) <= ERROR_RTOL * err + ERROR_ATOL * np.linalg.norm(ref),
                 f"n={n}: program error {row['error']} vs independent {err}")
        _require(abs(row["cond"] - paper_cond) <= rtol_cond * paper_cond,
                 f"n={n}: cond {row['cond']} vs paper {paper_cond}")
        _require(abs(k - paper_k) <= rtol_k * paper_k, f"n={n}: k_stop {k} vs paper {paper_k}")
        _require(abs(err - paper_err) <= rtol_err * paper_err,
                 f"n={n}: error {err} vs paper {paper_err}")
        return k, [bound / err]

    return Op(f"convdiff-n{n}", run, check)


# ---------------------------------------------------------------------------
# dense-cli


def dense_cli(seed: int, work_dir: str) -> list:
    """Writes the two matrices and two seeded right-hand sides as
    MatrixMarket files; the round is one `approx` call on each."""
    n = DENSE_N
    uniform = matgen.spectrum_matrix(matgen.SpectrumSpec.uniform(n, 1.0, 1000.0),
                                     DENSE_SPECTRUM_SEED)
    skewed = uniform.matrix.array.real + matgen.skew_part(n, DENSE_SKEW_SEED)
    clustered = matgen.spectrum_matrix(
        matgen.SpectrumSpec.clustered(n, 10.0, 1.0, 0.99, 1000.0, 100.0), DENSE_SPECTRUM_SEED)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ops = []
    for name, a, hermitian in (("nonhermitian", skewed, False),
                               ("hermitian", np.array(clustered.matrix.array.real), True)):
        b = rng.uniform(0.5, 1.5, n)
        matrix_path = os.path.join(work_dir, f"{name}.mtx")
        rhs_path = os.path.join(work_dir, f"{name}-rhs.mtx")
        matrixmarket.write_matrix_market(matrix_path, a)
        matrixmarket.write_matrix_market(rhs_path, b)
        ops.append(_dense_op(name, a, b, hermitian, matrix_path, rhs_path))
    return ops


def _dense_op(name, a, b, hermitian, matrix_path, rhs_path) -> Op:
    argv = ["approx", "--matrix-file", matrix_path, "--rhs-file", rhs_path,
            "--stop", "bound", "--tol", repr(DENSE_TOL), "--kmax", str(a.shape[0])]

    def run(out_dir):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", out_dir])
        return code, out_dir

    reference = functools.cache(lambda: oracles.eig_sqrt_action(a, b, hermitian))

    def check(output):
        code, out_dir = output
        _require(code == 0, f"{name}: exit code {code}")
        last = _read_csv(os.path.join(out_dir, "history.csv"))[-1]
        k, bound = int(last["k"]), last["posterior_ritz"]
        x = _read_mtx_vector(os.path.join(out_dir, "result.mtx"))
        err = float(np.linalg.norm(x - reference()))
        _require(bound <= DENSE_TOL, f"{name}: bound at stop {bound} > tol {DENSE_TOL}")
        _require(err <= bound, f"{name}: true error {err} > posterior_ritz {bound}")
        return k, [bound / err]

    return Op(f"dense-{name}", run, check)


# ---------------------------------------------------------------------------
# bound-sweep


def bound_sweep(seed: int, work_dir: str) -> list:
    """SWEEP_SLOTS seeded instances: slot s runs kind s mod 5 at an order
    drawn from the s-th of SWEEP_SLOTS equal strata of [40, 200]."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    lo, hi = SWEEP_N
    width = (hi - lo + 1) / SWEEP_SLOTS
    ops = []
    for slot in range(SWEEP_SLOTS):
        experiment, matrix, skew, rhs = SWEEP_KINDS[slot % len(SWEEP_KINDS)]
        n = lo + int((slot + rng.random()) * width)
        raw = {"experiment": experiment, "seed": int(rng.integers(2**31)),
               "matrix": dict(matrix, n=n, skew=skew), "k_max": SWEEP_K_MAX,
               "oracle": True, "jobs": 1}
        if rhs is not None:
            raw["rhs"] = rhs
        ops.append(_sweep_op(f"sweep-{slot}-n{n}", experiments.config_from_dict(raw)))
    return ops


def _sweep_instance(cfg):
    """(A, b) of a spectrum config, built as `experiments.build_matrix` and
    `build_rhs` document it: skew part seeded with seed + 1."""
    spec = {k: v for k, v in cfg.matrix.items() if k not in ("type", "skew", "skew_scale")}
    sm = matgen.spectrum_matrix(matgen.SpectrumSpec(**spec), cfg.seed)
    a = np.array(sm.matrix.array.real)
    if cfg.matrix["skew"]:
        a = a + matgen.skew_part(a.shape[0], cfg.seed + 1, scale=cfg.matrix.get("skew_scale", 1.0))
    if cfg.rhs is None:
        return a, np.ones(a.shape[0])
    count = min(cfg.rhs["count"], a.shape[0])
    top = np.argsort(-np.abs(sm.eigenvalues))[:count]
    avg = sm.eigenvectors[:, top].mean(axis=1)
    return a, avg / np.linalg.norm(avg)


def _sweep_op(key: str, cfg) -> Op:
    def run(out_dir):
        rows, _, csv_path = experiments.run_experiment(cfg, output_dir=out_dir)
        svg_path = os.path.join(out_dir, "plot.svg")
        plotting.render_plot(csv_path, cfg.experiment, svg_path)
        return rows, svg_path

    @functools.cache
    def reference():
        a, b = _sweep_instance(cfg)
        ref = oracles.eig_sqrt_action(a, b, hermitian=not cfg.matrix["skew"])
        q, h, beta = oracles.arnoldi_basis(lambda v: a @ v, b, cfg.k_max)
        approx = {k: beta * (q[:, :k] @ oracles.hessenberg_sqrt_e1(h[:k, :k]))
                  for k in range(2, cfg.k_max + 1)}
        return b, ref, approx

    label = f"{key} ({cfg.experiment}, seed={cfg.seed})"

    def check(output):
        rows, svg_path = output
        with open(svg_path, encoding="ascii") as fh:
            _require(fh.read().rstrip().endswith("</svg>"), f"{label}: truncated SVG")
        b, ref, approx = reference()
        b_norm, ref_norm = float(np.linalg.norm(b)), float(np.linalg.norm(ref))
        ratios, k_stop, prev_lambda_bar = [], cfg.k_max + 1, math.inf
        for row in (r for r in rows if r["k"] >= 2):
            k, ritz = int(row["k"]), row["posterior_ritz"]
            err = float(np.linalg.norm(approx[k] - ref))
            where = f"{label} k={k}"
            _require(abs(row["error_norm"] - err) <= ERROR_RTOL * err + ERROR_ATOL * ref_norm,
                     f"{where}: program error {row['error_norm']} vs independent {err}")
            if err > ROUNDING_RTOL * ref_norm:
                _require(err <= ritz, f"{where}: true error {err} > posterior_ritz {ritz}")
                ratios.append(ritz / err)
            _require(ritz <= row["posterior_modulus"] <= row["apriori_gamma"],
                     f"{where}: chain ritz {ritz} <= modulus {row['posterior_modulus']}"
                     f" <= gamma {row['apriori_gamma']} broken")
            if row["hermitian_jensen"] is not None:
                _require(row["hermitian_jensen"] <= row["hermitian_loose"],
                         f"{where}: hermitian_jensen > hermitian_loose")
                _require(row["lambda_bar"] < prev_lambda_bar,
                         f"{where}: lambda_bar not strictly decreasing")
                prev_lambda_bar = row["lambda_bar"]
            if ritz <= SWEEP_RTOL * b_norm:
                k_stop = min(k_stop, k)
        _require(bool(ratios), f"{label}: no row with an error above rounding")
        return k_stop, ratios

    return Op(key, run, check)


WORKLOADS = {
    "convdiff-table": convdiff_table,
    "dense-cli": dense_cli,
    "bound-sweep": bound_sweep,
}
# Workloads whose timings are scaled by the machine-speed probe (speed.py).
# convdiff-table is not: its LAPACK-bound round varied 7 % raw over 13 runs
# in 90 minutes while the probe, whose drift tracks the interpreter- and
# matvec-bound work of the other two, moved by a third and made it worse.
SCALED = {"dense-cli", "bound-sweep"}


# ---------------------------------------------------------------------------
# running a workload


def _import_seconds(src_dir: str) -> float:
    """Wall time of a fresh interpreter importing the package."""
    code = f"import sys; sys.path.insert(0, {src_dir!r}); import krylov_sqrt"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 src_dir: str, out_dir: str) -> dict:
    """Set up, run the timed phase, check every attempt; return the result
    object the entry point prints."""
    work_dir = os.path.join(out_dir, name)
    shutil.rmtree(work_dir, ignore_errors=True)
    input_dir = os.path.join(work_dir, "inputs")
    os.makedirs(input_dir)

    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    probe = speed.Probe() if name in SCALED else None
    before = probe.sample() if probe else None
    setup_times = []
    for _ in range(SETUP_REPS):
        t_import = _import_seconds(src_dir)
        t0 = time.perf_counter()
        ops = WORKLOADS[name](seed, input_dir)
        raw = t_import + time.perf_counter() - t0
        after = probe.sample(raw) if probe else None
        setup_times.append(speed.scaled(raw, before, after) if probe else raw)
        before = after

    # attempts: (op, output, error, raw seconds, scaled seconds)
    attempts, raw_rounds, scaled_rounds = [], [], []
    start = time.perf_counter()
    while not raw_rounds or time.perf_counter() - start < seconds:
        raw_rounds.append(0.0)
        scaled_rounds.append(0.0)
        for op in ops:
            attempt_dir = os.path.join(work_dir, f"attempt-{len(attempts)}")
            if tracer is not None:
                tracer.op_id = len(attempts)
            t0 = time.perf_counter()
            try:
                output, error = op.run(attempt_dir), None
            except Exception:  # an operation that raises is counted as failed
                output, error = None, traceback.format_exc()
            raw = time.perf_counter() - t0
            after = probe.sample(raw) if probe else None
            attempts.append((op, output, error, raw,
                             speed.scaled(raw, before, after) if probe else raw))
            raw_rounds[-1] += raw
            scaled_rounds[-1] += attempts[-1][4]
            before = after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    check_start = time.perf_counter()
    failed, correct, k_stop, ratios = 0, True, 0, []
    for index, (op, output, error, _, _) in enumerate(attempts):
        if error is None:
            try:
                k, op_ratios = op.check(output)
            except CheckFailed as exc:
                error, correct = f"check failed: {exc}", False
        if error is not None:
            failed += 1
            print(f"[{name}] attempt {index} ({op.key}) failed: {error}", file=sys.stderr)
        elif index < len(ops):  # every round repeats the first one's inputs
            k_stop += k
            ratios.extend(op_ratios)

    if failed == len(attempts):
        raise RuntimeError(f"{name}: every operation failed; there is nothing to measure")
    print(f"[{name}] rounds of {', '.join(f'{t:.2f}' for t in raw_rounds)} s, scaled "
          f"{', '.join(f'{t:.2f}' for t in scaled_rounds)} s; checks took "
          f"{time.perf_counter() - check_start:.1f} s", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(scaled_rounds), "s"),
            "op_s": (_typical_op_seconds(attempts), "s"),
            "k_stop": (k_stop, "count"),
            "bound_ratio": (statistics.median(ratios), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracing.run_metrics(tracer.spans, SETUP_REPS, len(raw_rounds),
                                      sum(raw_rounds))
        tracer.write_jsonl(os.path.join(out_dir, f"trace-{name}-seed{seed}.jsonl"))
    return {
        "correct": correct,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }


def _typical_op_seconds(attempts) -> float:
    """Median over a round's operations of each one's median time across
    rounds.  A plain median over all attempts would fall between the two
    kinds of operation that convdiff-table and dense-cli alternate."""
    times = {}
    for op, _, _, _, seconds in attempts:
        times.setdefault(op.key, []).append(seconds)
    return statistics.median(statistics.median(t) for t in times.values())
