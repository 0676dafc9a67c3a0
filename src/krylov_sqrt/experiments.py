"""Experiment harness: configuration, sweeps, and CSV emission.

Each experiment is a pure function of (config, seed) and emits rows of
finite floats (or the literal ``inf``).  Sweep points are independent and
may run in parallel; rows are sorted before writing so the output does
not depend on scheduling.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import arnoldi as arn
from . import bounds as bnd
from . import linalg, matgen
from .arnoldi import find_stop_k
from .errors import ConfigError, DomainError
from .matrixmarket import read_matrix_market

__all__ = ["ExperimentConfig", "config_from_dict", "run_experiment", "find_stop_k",
           "fit_loglog_slope", "write_csv", "read_csv", "read_json", "EXPERIMENTS"]

# A true error below this fraction of ||M^{1/2} b|| is set by rounding, and
# the bounds, exact-arithmetic statements, can fall below it there.
ROUNDING_FLOOR_RTOL = 1e-10


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, declarative description of one experiment run."""

    experiment: str
    seed: int = 1234
    output_dir: str = "."
    quadrature: bnd.QuadratureConfig = field(default_factory=bnd.QuadratureConfig)
    matrix: dict | None = None
    rhs: dict | None = None
    stopping: dict | None = None
    k_max: int | None = None
    k_samples: int = 40
    n_values: tuple = ()
    eta: float = 0.1
    convention: str = "interior"
    k_values: tuple = ()
    fit_window: tuple = (0.25, 1.0)
    eps_values: tuple = ()
    instances: int = 10
    n: int | None = None
    oracle: bool = True
    jobs: int = 1


_COMMON_KEYS = {"version", "experiment", "seed", "output_dir", "quadrature",
                "oracle", "jobs"}
# The (required, optional) keys of each experiment besides _COMMON_KEYS.
_SCHEMA = {
    "bounds_vs_k": (("matrix", "k_max"), ("rhs", "k_samples")),
    "hermitian_compare": (("matrix", "k_max"), ("rhs", "k_samples")),
    "convdiff_table": (("n_values", "stopping"), ("eta", "convention", "k_max")),
    "scaling_vs_k": (("n_values", "stopping"),
                     ("eta", "convention", "k_samples", "fit_window", "k_max")),
    "scaling_vs_sigma": (("n_values", "k_values"), ("eta", "convention")),
    "perturbed_validity": (("eps_values", "k_max"), ("matrix", "n", "instances", "rhs")),
}
EXPERIMENTS = tuple(_SCHEMA)
_MATRIX_KEYS = {
    "spectrum": {"type", "kind", "n", "lo", "hi", "cluster_center", "cluster_std",
                 "cluster_fraction", "outlier_center", "outlier_std", "skew",
                 "skew_scale"},
    "convdiff": {"type", "n", "eta", "convention"},
    "file": {"type", "path"},
}
_RHS_KEYS = {"kind", "count"}
_STOPPING_KEYS = {"rule", "tol", "bound_kind"}
_QUAD_KEYS = {"rel_tol", "abs_tol", "max_subdivisions"}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# (keys, test, what a value must be).  A dotted key names a value inside
# an object-valued key, whose rule comes first.
_VALUE_RULES = (
    (("matrix", "rhs", "stopping", "quadrature"), lambda v: isinstance(v, dict), "an object"),
    (("k_max", "jobs", "k_samples", "instances", "n", "matrix.n", "rhs.count",
      "quadrature.max_subdivisions"), lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    (("seed",), lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    (("eta", "matrix.eta", "matrix.lo", "matrix.hi", "matrix.cluster_center",
      "matrix.cluster_std", "matrix.cluster_fraction", "matrix.outlier_center",
      "matrix.outlier_std", "matrix.skew_scale", "quadrature.rel_tol", "quadrature.abs_tol"),
     _is_number, "a number"),
    (("stopping.tol",), lambda v: _is_number(v) and v > 0, "a positive number"),  # NaN fails
    (("stopping.bound_kind",), lambda v: v == "posterior_ritz", "'posterior_ritz'"),
    (("oracle", "matrix.skew"), lambda v: isinstance(v, bool), "true or false"),
    (("output_dir", "matrix.path"), lambda v: isinstance(v, str), "a string"),
    (("n_values", "k_values"), lambda v: isinstance(v, (list, tuple))
     and all(type(x) is int for x in v), "an array of integers"),
    (("eps_values",),
     lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)), "an array of numbers"),
    (("fit_window",), lambda v: isinstance(v, (list, tuple)) and len(v) == 2
     and all(map(_is_number, v)), "an array of two numbers"),
)


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Schema-validate a raw config dict; unknown keys are rejected."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if raw.get("version", 1) != 1:
        raise ConfigError(f"unsupported config version {raw.get('version')!r}")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    required, optional = _SCHEMA[experiment]
    _reject_unknown(raw, _COMMON_KEYS.union(required, optional), f"{experiment} config")

    for keys, valid, what in _VALUE_RULES:
        for key in keys:
            parent, _, name = key.rpartition(".")
            obj = raw.get(parent, {}) if parent else raw
            if name in obj and not valid(obj[name]):
                raise ConfigError(f"{key} must be {what}, got {obj[name]!r}")

    kwargs: dict = {"experiment": experiment}
    for key in ("seed", "output_dir", "k_max", "k_samples", "eta", "convention",
                "instances", "n", "oracle", "jobs"):
        if key in raw:
            kwargs[key] = raw[key]
    for key in ("n_values", "k_values", "eps_values", "fit_window"):
        if key in raw:
            kwargs[key] = tuple(raw[key])

    if "quadrature" in raw:
        _reject_unknown(raw["quadrature"], _QUAD_KEYS, "quadrature")
        kwargs["quadrature"] = bnd.QuadratureConfig(**raw["quadrature"])
    if "matrix" in raw:
        m = raw["matrix"]
        mtype = m.get("type")
        if mtype not in _MATRIX_KEYS:
            raise ConfigError(f"matrix.type must be one of {sorted(_MATRIX_KEYS)}")
        _reject_unknown(m, _MATRIX_KEYS[mtype], "matrix")
        kwargs["matrix"] = dict(m)
    if "rhs" in raw:
        _reject_unknown(raw["rhs"], _RHS_KEYS, "rhs")
        if raw["rhs"].get("kind") not in ("ones", "eig_average"):
            raise ConfigError("rhs.kind must be 'ones' or 'eig_average'")
        kwargs["rhs"] = dict(raw["rhs"])
    if "stopping" in raw:
        stop = raw["stopping"]
        _reject_unknown(stop, _STOPPING_KEYS, "stopping")
        if stop.get("rule") != "bound":
            raise ConfigError("stopping.rule must be 'bound'; no experiment runs a residual stop")
        if "tol" not in stop:
            raise ConfigError("stopping.tol is required")
        kwargs["stopping"] = dict(stop)

    cfg = ExperimentConfig(**kwargs)
    for key in required:
        if getattr(cfg, key) in (None, ()):
            raise ConfigError(f"{experiment} requires {key!r}")
    if experiment == "perturbed_validity" and cfg.k_max < 2:
        raise ConfigError(f"k_max must be >= 2 for perturbed_validity, whose rows start at "
                          f"k = 2, got {cfg.k_max}")
    return cfg


# ---------------------------------------------------------------------------
# matrix/rhs construction from config


@dataclass(frozen=True)
class MatrixContext:
    """A built matrix, its label and, for a spectrum matrix, the spectrum
    it was built from (before any skew part)."""

    operator: object            # an operator of linalg.as_operator
    label: str
    spectrum: matgen.SpectrumMatrix | None = None


def build_matrix(mcfg: dict, seed: int) -> MatrixContext:
    mtype = mcfg["type"]
    if mtype == "spectrum":
        spec_kwargs = {k: v for k, v in mcfg.items()
                       if k not in ("type", "skew", "skew_scale")}
        spec = matgen.SpectrumSpec(**spec_kwargs)
        sm = matgen.spectrum_matrix(spec, seed)
        m, label = sm.matrix, f"spectrum-{mcfg['kind']}"
        if mcfg.get("skew", False):
            k = matgen.skew_part(spec.n, seed + 1, scale=mcfg.get("skew_scale", 1.0))
            m, label = linalg.DenseMatrix(m.array + k), label + "-skew"
        return MatrixContext(m, label, sm)
    if mtype == "convdiff":
        tri = matgen.convection_diffusion(
            mcfg["n"], mcfg.get("eta", 0.1), mcfg.get("convention", "interior"))
        return MatrixContext(tri, f"convdiff-n{mcfg['n']}")
    if mtype == "file":
        a = read_matrix_market(mcfg["path"])
        return MatrixContext(linalg.DenseMatrix(a), os.path.basename(mcfg["path"]))
    raise ConfigError(f"unknown matrix type {mtype!r}")


def build_rhs(rcfg: dict | None, ctx: MatrixContext) -> np.ndarray:
    rcfg = rcfg or {"kind": "ones"}
    if rcfg["kind"] == "ones":
        return matgen.rhs_vector("ones", ctx.operator.shape[0])
    if ctx.spectrum is None:
        raise ConfigError("eig_average rhs needs a spectrum-known matrix")
    return matgen.rhs_vector("eig_average", ctx.spectrum, count=rcfg.get("count", 100))


# ---------------------------------------------------------------------------
# sampling and fits


def sample_ks(k_reached: int, samples: int, k_min: int = 2) -> np.ndarray:
    """Geometrically spaced evaluation points in [k_min, k_reached]."""
    if k_reached <= k_min:
        return np.array([k_reached])
    return np.unique(np.geomspace(k_min, k_reached, samples).round().astype(int))


def fit_loglog_slope(ks, values, window=(0.25, 1.0)) -> float:
    """Least-squares slope of log(values) against log(ks) over the window
    given as fractions of the largest k."""
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window[0] * ks.max(), window[1] * ks.max()
    sel = (ks >= lo) & (ks <= hi) & (values > 0)
    if sel.sum() < 2:
        raise DomainError("not enough points in the slope-fit window")
    return float(np.polyfit(np.log(ks[sel]), np.log(values[sel]), 1)[0])


# ---------------------------------------------------------------------------
# experiments


def run_bounds_vs_k(cfg: ExperimentConfig):
    """Every bound at sampled k; the Hermitian columns are filled where
    :func:`linalg.is_hermitian` holds for M, from the known spectrum of a
    spectrum matrix, else in the computable mode.  ``hermitian_compare``
    is the same run, refused for a matrix that is not exactly Hermitian."""
    ctx = build_matrix(cfg.matrix, cfg.seed)
    M = ctx.operator
    hermitian = linalg.is_hermitian(M)
    if cfg.experiment == "hermitian_compare" and not hermitian:
        raise ConfigError("hermitian_compare needs an exactly Hermitian matrix")
    b = build_rhs(cfg.rhs, ctx)
    n = M.shape[0]
    k_max = min(cfg.k_max, n)
    sigma = linalg.sigma_max(M)
    x_exact = M.solve(b)
    reference = linalg.reference_sqrt_action(M, b) if cfg.oracle else None
    known = ctx.spectrum.eigenvalues if hermitian and ctx.spectrum is not None else None

    state = arn.arnoldi(M, b, k_max)
    reports = arn.prefix_reports(state, sample_ks(state.k, cfg.k_samples), x_exact, sigma,
                                 cfg.quadrature, hermitian, known_spectrum=known,
                                 reference=reference)
    rows = [rep.row() for rep in reports]
    floor_k = None
    if reference is not None:
        floor = ROUNDING_FLOOR_RTOL * np.linalg.norm(reference)
        floor_k = next((r["k"] for r in rows if r["error_norm"] < floor), None)
    summary = {"experiment": cfg.experiment, "label": ctx.label, "n": n,
               "sigma_max": sigma, "hermitian": hermitian, "k_reached": state.k,
               "breakdown": state.breakdown, "rounding_floor_k": floor_k}
    return rows, summary


def _map_points(point, cfg: ExperimentConfig) -> list:
    """[point(cfg, n) for n in cfg.n_values], on ``cfg.jobs`` worker
    processes when > 1."""
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            return list(pool.map(point, [cfg] * len(cfg.n_values), cfg.n_values))
    return [point(cfg, n) for n in cfg.n_values]


def _search(cfg: ExperimentConfig, n: int):
    """The convection-diffusion matrix at n, b = ones, and the
    :func:`find_stop_k` search of the config's bound stop on them, capped
    at ``cfg.k_max``: (tri, b, state, k_stop, bound at k_stop, x_exact)."""
    tri = matgen.convection_diffusion(n, cfg.eta, cfg.convention)
    b = np.ones(tri.shape[0])
    return (tri, b) + find_stop_k(tri, b, float(cfg.stopping["tol"]),
                                  quad_cfg=cfg.quadrature, k_max=cfg.k_max)


def _convdiff_point(cfg: ExperimentConfig, n: int):
    tri, b, state, k_stop, val, x_exact = _search(cfg, n)
    m = tri.shape[0]
    sigma = linalg.sigma_max(tri)
    sigma_min = linalg.sigma_min(tri)
    reference = linalg.reference_sqrt_action(tri, b) if cfg.oracle else None
    rep = arn.fom_reports(state, [k_stop], x_exact, reference)[0]
    row = {
        "n": n, "matrix_order": m, "sigma_max": sigma, "sigma_min": sigma_min,
        "cond": sigma / sigma_min, "k_stop": k_stop,
        "bound_at_stop": val, "xi_norm": rep.xi_norm,
        "residual_rel": rep.residual_norm / math.sqrt(m),
    }
    if cfg.oracle:
        row["error"] = rep.error_norm
    return row, state.k


def run_convdiff_table(cfg: ExperimentConfig):
    out = _map_points(_convdiff_point, cfg)
    rows = sorted((row for row, _ in out), key=lambda r: r["n"])
    summary = {"experiment": cfg.experiment, "eta": cfg.eta,
               "convention": cfg.convention, "tol": float(cfg.stopping["tol"]),
               "bound_kind": "posterior_ritz",
               "arnoldi_steps": {str(row["n"]): steps for row, steps in out},
               "table_column_note": (
                   "cond = sigma_max/sigma_min reproduces the reference table's "
                   "'condition number' column; sigma_max itself is about twice it")}
    return rows, summary


def _scaling_point(cfg: ExperimentConfig, n: int):
    tri, b, state, k_stop, _, x_exact = _search(cfg, n)
    reference = linalg.reference_sqrt_action(tri, b)
    reports = arn.fom_reports(state, sample_ks(k_stop, cfg.k_samples, k_min=4), x_exact,
                              reference)
    rows = [{"n": n, "k": rep.k, "error": rep.error_norm, "xi_norm": rep.xi_norm,
             "scaling_term": bnd.scaling_term(rep.error_norm, rep.xi_norm, rep.k)}
            for rep in reports]
    slope = fit_loglog_slope([r["k"] for r in rows],
                             [r["scaling_term"] for r in rows], cfg.fit_window)
    return rows, {"n": n, "k_stop": k_stop, "slope": slope, "arnoldi_steps": state.k}


def run_scaling_vs_k(cfg: ExperimentConfig):
    out = _map_points(_scaling_point, cfg)
    rows = [r for point_rows, _ in out for r in point_rows]
    rows.sort(key=lambda r: (r["n"], r["k"]))
    slopes = {str(s["n"]): s["slope"] for _, s in out}
    mean_slope = float(np.mean([s["slope"] for _, s in out]))
    summary = {"experiment": cfg.experiment, "eta": cfg.eta, "tol": float(cfg.stopping["tol"]),
               "fit_window": list(cfg.fit_window), "slopes": slopes,
               "fitted_slope": mean_slope,
               "k_stop": {str(s["n"]): s["k_stop"] for _, s in out},
               "arnoldi_steps": {str(s["n"]): s["arnoldi_steps"] for _, s in out}}
    return rows, summary


def run_scaling_vs_sigma(cfg: ExperimentConfig):
    ks = sorted(cfg.k_values)
    rows = []
    for n in cfg.n_values:
        tri = matgen.convection_diffusion(n, cfg.eta, cfg.convention)
        b = np.ones(tri.shape[0])
        state = arn.arnoldi(tri, b, min(max(ks), tri.shape[0]))
        x_exact = tri.solve(b)
        reference = linalg.reference_sqrt_action(tri, b)
        sigma = linalg.sigma_max(tri)
        reports = arn.fom_reports(state, [k for k in ks if k <= state.k], x_exact, reference)
        rows += [{"k": rep.k, "n": n, "sigma_max": sigma,
                  "scaling_term": bnd.scaling_term(rep.error_norm, rep.xi_norm, rep.k)}
                 for rep in reports]
    slopes = {}
    for k in ks:
        pts = [(r["sigma_max"], r["scaling_term"]) for r in rows if r["k"] == k]
        if len(pts) >= 2:
            xs, ys = zip(*pts)
            slopes[str(k)] = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
    summary = {"experiment": cfg.experiment, "slopes_vs_sigma": slopes,
               "theoretical_exponent": 1.5}
    return rows, summary


def run_perturbed_validity(cfg: ExperimentConfig):
    base = cfg.matrix or {"type": "spectrum", "kind": "uniform",
                          "n": cfg.n or 120, "lo": 1.0, "hi": 1000.0,
                          "skew": True}
    rows = []
    # instance seeds derive arithmetically so sweep points stay independent
    for inst in range(cfg.instances):
        inst_seed = cfg.seed + 1000 * inst
        ctx = build_matrix(base, inst_seed)
        a = linalg.as_array(ctx.operator)
        b = build_rhs(cfg.rhs, ctx)
        sigma = linalg.sigma_max(ctx.operator)
        reference = linalg.reference_sqrt_action(a, b)
        for eps in cfg.eps_values:
            pert = matgen.perturb_matrix(a, matgen.PerturbationSpec(eps=eps), inst_seed + 17)
            state = arn.arnoldi(pert.matrix, b, cfg.k_max)
            x_exact = pert.matrix.solve(b)
            for rep in arn.fom_reports(state, range(2, state.k + 1), x_exact, reference):
                bound = bnd.bound_perturbed(sigma, pert.mu1, pert.mu2,
                                            pert.achieved_eps, float(np.linalg.norm(b)),
                                            rep.k, rep.xi_norm)
                rows.append({"instance": inst, "eps": pert.achieved_eps, "k": rep.k,
                             "error": rep.error_norm, "bound": bound,
                             "ratio": rep.error_norm / bound})
    rows.sort(key=lambda r: (r["instance"], r["eps"], r["k"]))
    worst = max(r["ratio"] for r in rows)
    summary = {"experiment": cfg.experiment, "instances": cfg.instances,
               "eps_values": list(cfg.eps_values), "worst_ratio": worst,
               "all_valid": bool(worst <= 1.0)}
    return rows, summary


_RUNNERS = {
    "bounds_vs_k": run_bounds_vs_k,
    "hermitian_compare": run_bounds_vs_k,
    "convdiff_table": run_convdiff_table,
    "scaling_vs_k": run_scaling_vs_k,
    "scaling_vs_sigma": run_scaling_vs_sigma,
    "perturbed_validity": run_perturbed_validity,
}


# ---------------------------------------------------------------------------
# CSV output


_ERROR_DOC = ("true error of the Arnoldi sqrt action vs the reference action "
              "(closed form for Toeplitz tridiagonal, Hermitian eigendecomposition "
              "for exactly Hermitian dense, else dense Schur)")
_COLUMN_DOCS = {
    "k": "Arnoldi iteration count",
    "n": "problem-size parameter (grid count for convection-diffusion)",
    "matrix_order": "actual matrix dimension",
    "residual_norm": "FOM residual norm ||r_0^k||",
    "residual_rel": "FOM residual norm relative to ||b||",
    "xi_norm": "FOM error norm ||xi_0^k|| from the exact solve",
    "error_norm": _ERROR_DOC,
    "error": _ERROR_DOC,
    "posterior_ritz": "a posteriori Ritz-product bound (inf at k=1)",
    "posterior_modulus": "a posteriori modulus bound (inf at k=1)",
    "apriori_gamma": "a priori Gamma-constant bound in sigma_max and k",
    "hermitian_loose": "Hermitian bound with lambda_max",
    "hermitian_jensen": "Hermitian bound sharpened with lambda_bar",
    "lambda_bar": "averaged eigenvalue (top-k plus lambda_max)/(k+1)",
    "sigma_max_used": "largest singular value used by the a priori bound",
    "sigma_max": ("largest singular value (exact: banded, Hermitian "
                  "eigendecomposition or dense SVD)"),
    "sigma_min": "smallest singular value (inverse iteration)",
    "cond": "2-norm condition number sigma_max/sigma_min",
    "k_stop": "first k satisfying the stopping rule",
    "bound_at_stop": "stopping bound value at k_stop",
    "scaling_term": "error normalized by the a priori bound constant",
    "instance": "seeded instance index",
    "eps": "achieved relative perturbation norm",
    "bound": "perturbed-matrix bound value",
    "ratio": "true error / bound (validity requires <= 1)",
}


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if math.isinf(v):
            return "inf"
        return format(float(v), ".17g")
    return str(v)


def write_csv(path: str, rows: list) -> list:
    """RFC-4180 CSV of the columns of the first row, with 17-significant-
    digit floats, plus a sidecar ``<name>.columns.json`` documenting every
    column."""
    if not rows:
        raise DomainError("refusing to write an empty CSV")
    columns = list(rows[0].keys())
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(c)) for c in columns])
    docs = {c: _COLUMN_DOCS.get(c, "") for c in columns}
    with open(_sidecar_path(path), "w", encoding="ascii") as fh:
        json.dump({"version": 1, "columns": docs}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return columns


def _sidecar_path(csv_path: str) -> str:
    stem, _ = os.path.splitext(csv_path)
    return stem + ".columns.json"


def read_csv(path: str):
    """Read back a harness CSV: '' -> None, 'inf' -> math.inf."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        try:
            records = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: not an ASCII CSV: {exc}") from exc
    if not records:
        raise DomainError(f"{path} is empty")
    columns, rows = records[0], []
    for rec in records[1:]:
        row = {}
        for c, cell in zip(columns, rec):
            if cell == "":
                row[c] = None
            elif cell == "inf":
                row[c] = math.inf
            else:
                try:
                    row[c] = float(cell)
                except ValueError:
                    row[c] = cell
        rows.append(row)
    return columns, rows


def read_json(path: str) -> dict:
    """The JSON object in a file, else ConfigError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            value = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: not a JSON object")
    return value


def run_experiment(cfg: ExperimentConfig, output_dir: str | None = None):
    """Dispatch an experiment and write ``<experiment>.csv`` plus
    ``<experiment>_summary.json`` into the output directory.

    Returns (rows, summary, csv_path).
    """
    out_dir = output_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    rows, summary = _RUNNERS[cfg.experiment](cfg)
    csv_path = os.path.join(out_dir, f"{cfg.experiment}.csv")
    write_csv(csv_path, rows)
    summary_path = os.path.join(out_dir, f"{cfg.experiment}_summary.json")
    with open(summary_path, "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return rows, summary, csv_path
