"""Experiment harness: configuration, sweeps, and CSV emission.

Each experiment is a pure function of (config, seed) and emits rows of
finite floats (or the literal ``inf``).  Sweep points are independent and
may run in parallel; rows are sorted before writing so the output does
not depend on scheduling.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import arnoldi as arn
from . import bounds as bnd
from . import linalg, matgen
from .errors import ConfigError, DomainError
from .matrixmarket import read_matrix_market

__all__ = ["ExperimentConfig", "config_from_dict", "load_config", "run_experiment",
           "find_stop_k", "fit_loglog_slope", "write_csv", "read_csv", "EXPERIMENTS"]

EXPERIMENTS = (
    "bounds_vs_k",
    "hermitian_compare",
    "convdiff_table",
    "scaling_vs_k",
    "scaling_vs_sigma",
    "perturbed_validity",
)

# Iteration budget/tolerance used for the extremal singular-value
# estimators inside experiments; convection-diffusion top singular values
# cluster, so the default 10n cap is far too small here.
SIGMA_MAX_ITER = 2_000_000
SIGMA_TOL = 1e-10


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
_EXPERIMENT_KEYS = {
    "bounds_vs_k": {"matrix", "rhs", "k_max", "k_samples"},
    "hermitian_compare": {"matrix", "rhs", "k_max", "k_samples"},
    "convdiff_table": {"n_values", "eta", "convention", "stopping", "k_max"},
    "scaling_vs_k": {"n_values", "eta", "convention", "stopping", "k_samples",
                     "fit_window", "k_max"},
    "scaling_vs_sigma": {"n_values", "eta", "convention", "k_values"},
    "perturbed_validity": {"matrix", "n", "eps_values", "instances", "k_max", "rhs"},
}
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
    _reject_unknown(raw, _COMMON_KEYS | _EXPERIMENT_KEYS[experiment], f"{experiment} config")

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
        _reject_unknown(raw["stopping"], _STOPPING_KEYS, "stopping")
        if raw["stopping"].get("rule") not in ("residual", "bound"):
            raise ConfigError("stopping.rule must be 'residual' or 'bound'")
        kwargs["stopping"] = dict(raw["stopping"])

    try:
        cfg = ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    _check_requirements(cfg)
    return cfg


def _check_requirements(cfg: ExperimentConfig) -> None:
    need = {
        "bounds_vs_k": ("matrix", "k_max"),
        "hermitian_compare": ("matrix", "k_max"),
        "convdiff_table": ("n_values", "stopping"),
        "scaling_vs_k": ("n_values", "stopping"),
        "scaling_vs_sigma": ("n_values", "k_values"),
        "perturbed_validity": ("eps_values", "k_max"),
    }[cfg.experiment]
    for key in need:
        value = getattr(cfg, key)
        if value is None or value == ():
            raise ConfigError(f"{cfg.experiment} requires {key!r}")


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# matrix/rhs construction from config


@dataclass(frozen=True)
class MatrixContext:
    """A built matrix plus whatever side information the bounds can use."""

    operator: object            # matvec/solve-capable matrix object
    hermitian: bool
    label: str
    spectrum: matgen.SpectrumMatrix | None = None
    known_eigs: np.ndarray | None = None


def build_matrix(mcfg: dict, seed: int) -> MatrixContext:
    mtype = mcfg["type"]
    if mtype == "spectrum":
        spec_kwargs = {k: v for k, v in mcfg.items()
                       if k not in ("type", "skew", "skew_scale")}
        spec = matgen.SpectrumSpec(**spec_kwargs)
        sm = matgen.spectrum_matrix(spec, seed)
        if mcfg.get("skew", False):
            k = matgen.skew_part(spec.n, seed + 1, scale=mcfg.get("skew_scale", 1.0))
            m = linalg.DenseMatrix(sm.matrix.array + k)
            return MatrixContext(operator=m, hermitian=False,
                                 label=f"spectrum-{mcfg['kind']}-skew",
                                 spectrum=sm, known_eigs=None)
        return MatrixContext(operator=sm.matrix, hermitian=True,
                             label=f"spectrum-{mcfg['kind']}",
                             spectrum=sm, known_eigs=sm.eigenvalues)
    if mtype == "convdiff":
        tri = matgen.convection_diffusion(
            mcfg["n"], mcfg.get("eta", 0.1), mcfg.get("convention", "interior"))
        return MatrixContext(operator=tri, hermitian=False,
                             label=f"convdiff-n{mcfg['n']}")
    if mtype == "file":
        a = read_matrix_market(mcfg["path"])
        m = linalg.DenseMatrix(a)
        return MatrixContext(operator=m, hermitian=linalg.is_hermitian(a),
                             label=os.path.basename(mcfg["path"]))
    raise ConfigError(f"unknown matrix type {mtype!r}")


def build_rhs(rcfg: dict | None, ctx: MatrixContext) -> np.ndarray:
    rcfg = rcfg or {"kind": "ones"}
    if rcfg["kind"] == "ones":
        n = ctx.operator.shape[0] if hasattr(ctx.operator, "shape") else ctx.operator.rows
        return matgen.rhs_vector("ones", n)
    if ctx.spectrum is None:
        raise ConfigError("eig_average rhs needs a spectrum-known matrix")
    return matgen.rhs_vector("eig_average", ctx.spectrum, count=rcfg.get("count", 100))


# ---------------------------------------------------------------------------
# stopping search


_STOP_KINDS = ("posterior_ritz", "posterior_modulus", "apriori_gamma")

# Guided probes allowed to leave the search open before every other probe
# becomes a plain bisection step (keeps the worst case at O(log k) probes).
GUIDED_PROBES = 3


def _bound_value(sub: arn.ArnoldiDecomposition, xi: float, sigma: float,
                 quad_cfg, kind: str) -> float:
    """The stopping bound of kind ``kind`` at one prefix with FOM error xi."""
    if kind == "apriori_gamma":
        return bnd.bound_apriori_sqrt(sigma, sub.k, xi)
    ritz = linalg.hessenberg_eigenvalues(sub.hessenberg)
    if kind == "posterior_ritz":
        return bnd.bound_posterior_ritz(ritz, xi, quad_cfg)
    return bnd.bound_posterior_modulus(ritz, xi, quad_cfg)


def find_stop_k(M, b, tol: float, bound_kind: str = "posterior_ritz",
                quad_cfg: bnd.QuadratureConfig | None = None,
                k_max: int | None = None, sigma: float | None = None):
    """First k with the chosen bound <= tol on one growing decomposition,
    located by probes that the cheap FOM error guides.

    Every stopping bound is xi_k * C_k: xi_k = ||x_exact - x_FOM|| costs
    one k x k LU, while C_k (the Ritz integral over pi, or the a priori
    constant) needs a Ritz solve and drifts slowly with k.  Each probe
    evaluates the true bound at one k and records C = bound/xi there.

    - Checkpoints double (2, 4, 8, ..., the cap) until a probe is <= tol.
      When xi(checkpoint) * C already says the crossing lies below the
      checkpoint, the probe goes to the guided point instead.
    - The guided point is the first k in the bracket with xi(k) * C <= tol,
      found by bisection on xi alone and kept strictly inside a verified
      bracket.
    - After GUIDED_PROBES guided probes that leave the search open, every
      other probe is the bracket midpoint, so the worst case stays at
      O(log k) probes.

    The result is an exact crossing: the bound is <= tol at k_stop and
    > tol at k_stop - 1 (or k_stop = 1).  A happy breakdown at step k
    counts as a crossing with bound 0 at k (the action is exact there),
    so the bracket below it is still searched.  Equivalent to checking
    every k whenever the bound crosses tol once.  When no k up to the cap
    reaches tol, returns the cap and the bound there.
    Returns (state, k_stop, bound_at_stop, x_exact).
    """
    if bound_kind not in _STOP_KINDS:
        raise DomainError(f"unsupported stopping bound {bound_kind!r}")
    matvec, n = arn.as_operator(M)
    k_cap = min(k_max or n, n)
    x_exact = arn._solve_with(M, np.asarray(b))
    if sigma is None and bound_kind == "apriori_gamma":
        sigma = linalg.sigma_max(M, tol=SIGMA_TOL, max_iter=SIGMA_MAX_ITER)
    sigma = sigma if sigma is not None else 0.0

    state = arn.arnoldi_start(b, capacity=min(64, k_cap))

    @functools.cache
    def xi(k: int) -> float:
        return arn.fom_error(state.prefix(k), x_exact)

    def guided(lo: int, hi: int) -> int:
        """First k in (lo, hi] with xi(k) * scale <= tol, by bisection."""
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if xi(mid) * scale <= tol:
                hi = mid
            else:
                lo = mid
        return hi

    # bracket (k_lo, k_hi]: bound > tol at k_lo, <= tol at k_hi once found
    k_lo, k_hi, val_hi = 1, None, None
    k_top = 2           # doubling checkpoint while no crossing is verified
    scale = None        # bound / xi at the latest probe
    misses = 0          # guided probes after which the search went on
    was_guided = False
    while k_hi is None or k_hi - k_lo > 1:
        if k_hi is None and state.k < k_top:
            state = arn.arnoldi_extend((matvec, n), state, k_top - state.k)
            if state.breakdown:
                k_hi, val_hi = state.k, 0.0
                continue
        may_guide = scale is not None and (misses < GUIDED_PROBES or not was_guided)
        was_guided = False
        if k_hi is None:
            k = k_top
            if may_guide and xi(k_top) * scale <= tol:
                k, was_guided = guided(k_lo, k_top), True
        elif may_guide:
            k, was_guided = min(guided(k_lo, k_hi), k_hi - 1), True
        else:
            k = (k_lo + k_hi) // 2

        val = _bound_value(state.prefix(k), xi(k), sigma, quad_cfg, bound_kind)
        if xi(k) > 0.0:
            scale = val / xi(k)
        if val <= tol:
            k_hi, val_hi = k, val
        else:
            k_lo = k
            if k == k_top and k_hi is None:
                if k_top >= k_cap:
                    return state, state.k, val, x_exact  # budget exhausted
                k_top = min(2 * k_top, k_cap)
        misses += was_guided
    return state, k_hi, val_hi, x_exact


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
    ctx = build_matrix(cfg.matrix, cfg.seed)
    b = build_rhs(cfg.rhs, ctx)
    M = ctx.operator
    n = M.shape[0] if hasattr(M, "shape") else M.rows
    k_max = min(cfg.k_max, n)
    sigma = linalg.sigma_max(M, tol=SIGMA_TOL, max_iter=SIGMA_MAX_ITER)
    x_exact = arn._solve_with(M, b)
    reference = linalg.reference_sqrt_action(M, b) if cfg.oracle else None

    state = arn.arnoldi(M, b, k_max)
    rows = []
    for k in sample_ks(state.k, cfg.k_samples):
        rep = arn.prefix_report(state.prefix(int(k)), x_exact, sigma, cfg.quadrature,
                                ctx.hermitian, known_spectrum=ctx.known_eigs,
                                reference=reference)
        rows.append(_report_row(rep))
    summary = {"experiment": cfg.experiment, "label": ctx.label, "n": n,
               "sigma_max": sigma, "hermitian": ctx.hermitian, "k_reached": state.k,
               "breakdown": state.breakdown}
    return rows, summary


def run_hermitian_compare(cfg: ExperimentConfig):
    if cfg.matrix.get("skew", False) or cfg.matrix.get("type") != "spectrum":
        raise ConfigError("hermitian_compare needs a symmetric spectrum matrix")
    return run_bounds_vs_k(cfg)


def _convdiff_point(args):
    (n, eta, convention, tol, bound_kind, quad_cfg, oracle, k_max) = args
    tri = matgen.convection_diffusion(n, eta, convention)
    m = tri.shape[0]
    b = np.ones(m)
    sigma = linalg.sigma_max(tri, tol=SIGMA_TOL, max_iter=SIGMA_MAX_ITER)
    sigma_min = linalg.sigma_min(tri, tol=SIGMA_TOL, max_iter=SIGMA_MAX_ITER)
    state, k_stop, bound_at_stop, x_exact = find_stop_k(
        tri, b, tol, bound_kind, quad_cfg, k_max=k_max or m)
    at_stop = state.prefix(k_stop)
    xi = arn.fom_error(at_stop, x_exact)
    residual, _ = arn.fom_residual_norm(at_stop)
    row = {
        "n": n, "matrix_order": m, "sigma_max": sigma, "sigma_min": sigma_min,
        "cond": sigma / sigma_min, "k_stop": k_stop, "bound_at_stop": bound_at_stop,
        "xi_norm": xi, "residual_rel": residual / math.sqrt(m),
    }
    if oracle:
        reference = linalg.reference_sqrt_action(tri, b)
        action = arn.arnoldi_fun_action(at_stop, "sqrt")
        row["error"] = float(np.linalg.norm(reference - action))
    return row


def run_convdiff_table(cfg: ExperimentConfig):
    tol = float(cfg.stopping["tol"])
    bound_kind = cfg.stopping.get("bound_kind", "posterior_ritz")
    if cfg.stopping["rule"] != "bound":
        raise ConfigError("convdiff_table uses the bound stopping rule")
    args = [(n, cfg.eta, cfg.convention, tol, bound_kind, cfg.quadrature,
             cfg.oracle, cfg.k_max) for n in cfg.n_values]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = list(pool.map(_convdiff_point, args))
    else:
        rows = [_convdiff_point(a) for a in args]
    rows.sort(key=lambda r: r["n"])
    summary = {"experiment": cfg.experiment, "eta": cfg.eta,
               "convention": cfg.convention, "tol": tol, "bound_kind": bound_kind,
               "table_column_note": (
                   "cond = sigma_max/sigma_min reproduces the reference table's "
                   "'condition number' column; sigma_max itself is about twice it")}
    return rows, summary


def _scaling_point(args):
    (n, eta, convention, tol, bound_kind, quad_cfg, k_samples, window) = args
    tri = matgen.convection_diffusion(n, eta, convention)
    m = tri.shape[0]
    b = np.ones(m)
    state, k_stop, _, x_exact = find_stop_k(tri, b, tol, bound_kind, quad_cfg, k_max=m)
    reference = linalg.reference_sqrt_action(tri, b)
    rows = []
    for k in sample_ks(k_stop, k_samples, k_min=4):
        sub = state.prefix(int(k))
        xi = arn.fom_error(sub, x_exact)
        err = float(np.linalg.norm(reference - arn.arnoldi_fun_action(sub, "sqrt")))
        rows.append({"n": n, "k": int(k), "error": err, "xi_norm": xi,
                     "scaling_term": bnd.scaling_term(err, xi, int(k))})
    slope = fit_loglog_slope([r["k"] for r in rows],
                             [r["scaling_term"] for r in rows], window)
    return rows, {"n": n, "k_stop": k_stop, "slope": slope}


def run_scaling_vs_k(cfg: ExperimentConfig):
    tol = float(cfg.stopping["tol"])
    bound_kind = cfg.stopping.get("bound_kind", "posterior_ritz")
    args = [(n, cfg.eta, cfg.convention, tol, bound_kind, cfg.quadrature,
             cfg.k_samples, tuple(cfg.fit_window)) for n in cfg.n_values]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            out = list(pool.map(_scaling_point, args))
    else:
        out = [_scaling_point(a) for a in args]
    rows = [r for point_rows, _ in out for r in point_rows]
    rows.sort(key=lambda r: (r["n"], r["k"]))
    slopes = {str(s["n"]): s["slope"] for _, s in out}
    mean_slope = float(np.mean([s["slope"] for _, s in out]))
    summary = {"experiment": cfg.experiment, "eta": cfg.eta, "tol": tol,
               "fit_window": list(cfg.fit_window), "slopes": slopes,
               "fitted_slope": mean_slope,
               "k_stop": {str(s["n"]): s["k_stop"] for _, s in out}}
    return rows, summary


def run_scaling_vs_sigma(cfg: ExperimentConfig):
    ks = sorted(int(k) for k in cfg.k_values)
    per_n = {}
    for n in cfg.n_values:
        tri = matgen.convection_diffusion(n, cfg.eta, cfg.convention)
        m = tri.shape[0]
        b = np.ones(m)
        state = arn.arnoldi(tri, b, min(max(ks), m))
        x_exact = tri.solve(b)
        reference = linalg.reference_sqrt_action(tri, b)
        sigma = linalg.sigma_max(tri, tol=SIGMA_TOL, max_iter=SIGMA_MAX_ITER)
        per_n[n] = (state, x_exact, reference, sigma)
    rows = []
    for n in cfg.n_values:
        state, x_exact, reference, sigma = per_n[n]
        for k in ks:
            if k > state.k:
                continue
            sub = state.prefix(k)
            xi = arn.fom_error(sub, x_exact)
            err = float(np.linalg.norm(reference - arn.arnoldi_fun_action(sub, "sqrt")))
            rows.append({"k": k, "n": n, "sigma_max": sigma,
                         "scaling_term": bnd.scaling_term(err, xi, k)})
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
        sigma = float(np.linalg.norm(a, 2))
        reference = linalg.reference_sqrt_action(a, b)
        for eps in cfg.eps_values:
            pert = matgen.perturb_matrix(a, matgen.PerturbationSpec(eps=eps), inst_seed + 17)
            at = pert.matrix.array
            state = arn.arnoldi(at, b, cfg.k_max)
            x_exact = arn._solve_with(at, b)
            worst = 0.0
            for k in range(2, state.k + 1):
                sub = state.prefix(k)
                xi = arn.fom_error(sub, x_exact)
                err = float(np.linalg.norm(reference - arn.arnoldi_fun_action(sub, "sqrt")))
                bound = bnd.bound_perturbed(sigma, pert.mu1, pert.mu2,
                                            pert.achieved_eps, float(np.linalg.norm(b)),
                                            k, xi)
                ratio = err / bound
                worst = max(worst, ratio)
                rows.append({"instance": inst, "eps": pert.achieved_eps, "k": k,
                             "error": err, "bound": bound, "ratio": ratio})
    rows.sort(key=lambda r: (r["instance"], r["eps"], r["k"]))
    worst = max(r["ratio"] for r in rows)
    summary = {"experiment": cfg.experiment, "instances": cfg.instances,
               "eps_values": list(cfg.eps_values), "worst_ratio": worst,
               "all_valid": bool(worst <= 1.0)}
    return rows, summary


_RUNNERS = {
    "bounds_vs_k": run_bounds_vs_k,
    "hermitian_compare": run_hermitian_compare,
    "convdiff_table": run_convdiff_table,
    "scaling_vs_k": run_scaling_vs_k,
    "scaling_vs_sigma": run_scaling_vs_sigma,
    "perturbed_validity": run_perturbed_validity,
}


# ---------------------------------------------------------------------------
# CSV output


_COLUMN_DOCS = {
    "k": "Arnoldi iteration count",
    "n": "problem-size parameter (grid count for convection-diffusion)",
    "matrix_order": "actual matrix dimension",
    "residual_norm": "FOM residual norm ||r_0^k||",
    "residual_rel": "FOM residual norm relative to ||b||",
    "xi_norm": "FOM error norm ||xi_0^k|| from the exact solve",
    "error_norm": ("true error of the Arnoldi sqrt action vs the reference action "
                   "(closed form for Toeplitz tridiagonal, else dense Schur)"),
    "error": ("true error of the Arnoldi sqrt action vs the reference action "
              "(closed form for Toeplitz tridiagonal, else dense Schur)"),
    "posterior_ritz": "a posteriori Ritz-product bound (inf at k=1)",
    "posterior_modulus": "a posteriori modulus bound (inf at k=1)",
    "apriori_gamma": "a priori Gamma-constant bound in sigma_max and k",
    "hermitian_loose": "Hermitian bound with lambda_max",
    "hermitian_jensen": "Hermitian bound sharpened with lambda_bar",
    "lambda_bar": "averaged eigenvalue (top-k plus lambda_max)/(k+1)",
    "sigma_max_used": "largest singular value used by the a priori bound",
    "sigma_max": ("largest singular value (exact (banded or dense SVD) at desk scale, "
                  "else power iteration)"),
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


def _report_row(rep: bnd.BoundReport) -> dict:
    return {
        "k": rep.k,
        "residual_norm": rep.residual_norm,
        "xi_norm": rep.xi_norm,
        "error_norm": rep.error_norm,
        "posterior_ritz": rep.posterior_ritz,
        "posterior_modulus": rep.posterior_modulus,
        "apriori_gamma": rep.apriori_gamma,
        "hermitian_loose": rep.hermitian_loose,
        "hermitian_jensen": rep.hermitian_jensen,
        "lambda_bar": rep.lambda_bar,
        "sigma_max_used": rep.sigma_max_used,
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


def write_csv(path: str, rows: list, columns: list | None = None) -> list:
    """RFC-4180 CSV with 17-significant-digit floats plus a sidecar
    ``<name>.columns.json`` documenting every column."""
    if not rows:
        raise DomainError("refusing to write an empty CSV")
    if columns is None:
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
        reader = csv.reader(fh)
        columns = next(reader)
        rows = []
        for rec in reader:
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
