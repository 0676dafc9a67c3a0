"""Acceptance suite: the reference experiments, end to end.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The convection-diffusion table (criterion 1) and
the slope study (criterion 2) dominate the runtime: several minutes of
Arnoldi sweeps and dense square-root oracles at n up to 2000.
"""

import math
import warnings

import numpy as np
import pytest
from helpers import shifted_fom_quantities
from scipy.special import beta

from krylov_sqrt import arnoldi as arn
from krylov_sqrt import bounds as bnd
from krylov_sqrt import experiments as exp
from krylov_sqrt import linalg, matgen

# reference values for the convection-diffusion run at eta = 0.1,
# b = ones, bound-based stopping at tol = 0.05
TABLE_N = (1000, 1200, 1400, 1600, 1800, 2000)
TABLE_COND = (202320.64, 291138.58, 396074.49, 517128.36, 654300.20, 807590.00)
TABLE_K = (889, 1071, 1253, 1435, 1617, 1800)
TABLE_ERR = (0.03083, 0.03053, 0.03061, 0.03090, 0.03132, 0.03132)

# orders of the criterion-3 instances whose clustered draw has one
# eigenvalue clamped to matgen.POSITIVITY_FLOOR (cond about 1e9); the chain
# check covers them on purpose, and each must say so with its warning
CLAMPED_N = (200, 134, 197, 73, 180, 164, 118, 149)

QUAD = bnd.QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13)


def _report(name: str, failures: list, detail: str = ""):
    status = "PASS" if not failures else "FAIL"
    tail = f" {detail}" if detail else ""
    print(f"\n[acceptance] {name}: {status}{tail}")
    assert not failures, f"{name}: " + "; ".join(str(f) for f in failures)


@pytest.fixture(scope="module")
def convdiff_table():
    cfg = exp.config_from_dict({
        "experiment": "convdiff_table",
        "n_values": list(TABLE_N),
        "eta": 0.1,
        "convention": "interior",
        "stopping": {"rule": "bound", "tol": 0.05, "bound_kind": "posterior_ritz"},
    })
    return exp.run_convdiff_table(cfg)


def test_criterion_1_convdiff_table(convdiff_table):
    rows, summary = convdiff_table
    failures = []
    for row, cond_ref, k_ref, err_ref in zip(rows, TABLE_COND, TABLE_K, TABLE_ERR):
        n = row["n"]
        # the table's spectral column is the 2-norm condition number (its
        # header says so; sigma_max itself is ~2x these values)
        if abs(row["cond"] - cond_ref) > 1e-3 * cond_ref:
            failures.append(f"n={n}: cond {row['cond']:.2f} vs {cond_ref} (0.1%)")
        if abs(row["k_stop"] - k_ref) > 0.02 * k_ref:
            failures.append(f"n={n}: k {row['k_stop']} vs {k_ref} (2%)")
        if abs(row["error"] - err_ref) > 0.10 * err_ref:
            failures.append(f"n={n}: error {row['error']:.5f} vs {err_ref} (10%)")
        if not row["bound_at_stop"] <= 0.05:
            failures.append(f"n={n}: stopping bound {row['bound_at_stop']} > 0.05")
    detail = " ".join(
        f"n={r['n']}:cond={r['cond']:.1f},k={r['k_stop']},err={r['error']:.5f}"
        for r in rows)
    _report("criterion 1 (convection-diffusion table, interior convention)",
            failures, detail)


def test_criterion_2_slope_law():
    cfg = exp.config_from_dict({
        "experiment": "scaling_vs_k",
        "n_values": [1000, 1200],
        "eta": 0.1,
        "k_samples": 22,
        "fit_window": [0.25, 1.0],
        "stopping": {"rule": "bound", "tol": 0.05, "bound_kind": "posterior_ritz"},
    })
    _, summary = exp.run_scaling_vs_k(cfg)
    slope = summary["fitted_slope"]
    failures = [] if abs(slope - (-0.75)) <= 0.15 else [f"slope {slope:.4f}"]
    _report("criterion 2 (scaling-term decay ~ k^(-3/4))", failures,
            f"fitted slope {slope:.4f}, per-n {summary['slopes']}")


def test_criterion_3_bound_chain_validity():
    rng_sizes = np.random.default_rng(2024)
    failures = []
    checked = 0
    clamped = []
    for i in range(100):
        n = int(rng_sizes.integers(40, 201))
        kind = ("uniform", "clustered")[i % 2]
        skew = (i % 4) < 2
        spec = (matgen.SpectrumSpec.uniform(n, 1.0, 1000.0) if kind == "uniform"
                else matgen.SpectrumSpec.clustered(n, 1000.0, 100.0, 0.95, 10.0, 5.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sm = matgen.spectrum_matrix(spec, 9000 + i)
        if any(issubclass(w.category, UserWarning) and "clamped" in str(w.message)
               for w in caught):
            clamped.append(n)
        a = sm.matrix.array.real + (matgen.skew_part(n, 9500 + i) if skew else 0.0)
        b = np.ones(n)
        sigma = float(np.linalg.norm(a, 2))  # oracle constant for the chain
        reference = linalg.reference_sqrt_action(a, b)
        x_exact = linalg.lu_solve(a, b)
        state = arn.arnoldi(a, b, min(30, n))
        for k in range(2, state.k + 1):
            sub = state.prefix(k)
            xi = float(np.linalg.norm(x_exact - arn.fom_iterate(sub)))
            ritz = linalg.hessenberg_eigenvalues(sub.hessenberg)
            err = float(np.linalg.norm(reference - arn.arnoldi_fun_action(sub, "sqrt")))
            b_ritz = bnd.bound_posterior_ritz(ritz, xi, QUAD)
            b_mod = bnd.bound_posterior_modulus(ritz, xi, QUAD)
            b_gamma = bnd.bound_apriori_sqrt(sigma, k, xi)
            checked += 1
            if err > b_ritz + 1e-8:
                failures.append(f"inst {i} k {k}: err {err:.3e} > ritz {b_ritz:.3e}")
            if b_ritz > b_mod + 1e-8:
                failures.append(f"inst {i} k {k}: ritz > modulus")
            if b_mod > b_gamma + 1e-8:
                failures.append(f"inst {i} k {k}: modulus > gamma")
    if tuple(clamped) != CLAMPED_N:
        failures.append(f"clamp warnings at n = {clamped}, expected {list(CLAMPED_N)}")
    _report("criterion 3 (true error <= ritz <= modulus <= gamma on 100 instances)",
            failures[:10], f"{checked} (instance, k) points checked")


def test_criterion_4_hermitian_sharpening():
    spec = matgen.SpectrumSpec.clustered(500, 10.0, 1.0, 0.99, 1000.0, 100.0)
    sm = matgen.spectrum_matrix(spec, 77)
    a = sm.matrix.array.real
    b = matgen.rhs_vector("eig_average", sm, count=100)
    x_exact = linalg.lu_solve(a, b)
    state = arn.arnoldi(a, b, 80)
    lam_max = sm.eigenvalues[0]
    failures = []
    prev_bar = None
    worst_ratio = 0.0
    for k in range(1, 81):
        sub = state.prefix(k)
        xi = float(np.linalg.norm(x_exact - arn.fom_iterate(sub)))
        lam_bar = bnd.lambda_bar(sm.eigenvalues[:k], lam_max, k)
        loose = bnd.bound_hermitian_loose(lam_max, k, xi)
        jensen = bnd.bound_hermitian_jensen(lam_bar, k, xi)
        if jensen > loose + 1e-12:
            failures.append(f"k={k}: jensen > loose")
        if prev_bar is not None and not lam_bar < prev_bar:
            failures.append(f"k={k}: lambda_bar not strictly decreasing")
        prev_bar = lam_bar
        if k >= 50:
            ratio = jensen / loose
            worst_ratio = max(worst_ratio, ratio)
            if not ratio < 0.1:
                failures.append(f"k={k}: ratio {ratio:.4f} >= 0.1")
            if not math.isclose(ratio, (lam_bar / lam_max) ** 1.5, rel_tol=1e-9):
                failures.append(f"k={k}: ratio is not (lambda_bar/lambda_max)^1.5")
    _report("criterion 4 (Hermitian sharpening on clustered spectrum)",
            failures[:10], f"max jensen/loose ratio for k >= 50: {worst_ratio:.4f}")


def test_criterion_5_quadrature_oracles():
    failures = []
    out = bnd.quad_semi_infinite(lambda x: np.sqrt(x) / (1.0 + x) ** 2)
    if abs(out.value - math.pi / 2) > 1e-6 * (math.pi / 2):
        failures.append(f"sqrt(x)/(1+x)^2: {out.value}")
    out = bnd.quad_semi_infinite(lambda x: np.sqrt(x) / (1.0 + x * x))
    if abs(out.value - math.pi / math.sqrt(2)) > 1e-6 * (math.pi / math.sqrt(2)):
        failures.append(f"sqrt(x)/(1+x^2): {out.value}")
    for sigma, k in ((1.0, 4), (2.0, 4), (5.0, 7)):
        want = sigma**1.5 / 2.0 * beta(0.75, (2 * k - 3) / 4.0)
        got = bnd.quad_semi_infinite(
            lambda x: np.sqrt(x) * sigma**k / (sigma**2 + x * x) ** (k / 2.0)).value
        if abs(got - want) > 1e-6 * want:
            failures.append(f"beta identity sigma={sigma} k={k}: {got} vs {want}")
    _report("criterion 5 (closed-form quadrature oracles)", failures)


def test_criterion_6_exactness_oracles():
    failures = []

    # full-space exactness at k = n
    for seed, n in ((1, 10), (2, 30), (3, 50)):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n))
        a = g @ g.T + n * np.eye(n) + matgen.skew_part(n, seed + 50)
        b = rng.standard_normal(n)
        state = arn.arnoldi(a, b, n)
        want = linalg.reference_sqrt_action(a, b)
        got = arn.arnoldi_fun_action(state, "sqrt")
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        if rel > 1e-8:
            failures.append(f"k=n exactness seed {seed}: rel {rel:.2e}")

    # breakdown exactness on an invariant coordinate block
    rng = np.random.default_rng(6)
    blk = rng.standard_normal((4, 4))
    rest = rng.standard_normal((8, 8))
    a = np.zeros((12, 12))
    a[:4, :4] = blk @ blk.T + 4 * np.eye(4)
    a[4:, 4:] = rest @ rest.T + 8 * np.eye(8)
    b = np.concatenate([rng.standard_normal(4), np.zeros(8)])
    state = arn.arnoldi(a, b, 12)
    if not (state.breakdown and state.k == 4):
        failures.append(f"breakdown expected at k=4, got k={state.k}")
    want = linalg.reference_sqrt_action(a, b)
    got = arn.arnoldi_fun_action(state, "sqrt")
    if np.linalg.norm(got - want) > 1e-8 * np.linalg.norm(want):
        failures.append("breakdown action not exact")

    # determinant-formula residual and shift identities on small instances
    for seed, n, k in ((11, 20, 2), (12, 35, 6), (13, 50, 10)):
        sm = matgen.spectrum_matrix(matgen.SpectrumSpec.uniform(n, 1.0, 1000.0), seed)
        a = sm.matrix.array.real + matgen.skew_part(n, seed + 1)
        b = np.ones(n)
        state = arn.arnoldi(a, b, k)
        norm, coef = arn.fom_residual_norm(state)
        direct = b - a @ arn.fom_iterate(state)
        if abs(norm - np.linalg.norm(direct)) > 1e-8 * np.linalg.norm(direct):
            failures.append(f"determinant residual formula seed {seed}")
        for z in (-1.0, 2j, 0.5 - 0.8j):
            q = shifted_fom_quantities(state, a, b, z)
            r_rel = (np.linalg.norm(q.residual_formula - q.residual_direct)
                     / np.linalg.norm(q.residual_direct))
            e_rel = (np.linalg.norm(q.error_formula - q.error_direct)
                     / np.linalg.norm(q.error_direct))
            if r_rel > 1e-8 or e_rel > 1e-8:
                failures.append(f"shift identity seed {seed} z={z}")
    _report("criterion 6 (exactness, residual formula, shift identities)", failures)


def test_criterion_7_perturbed_bound_validity():
    cfg = exp.config_from_dict({
        "experiment": "perturbed_validity",
        "seed": 3000,
        "n": 120,
        "instances": 10,
        "eps_values": [1e-4, 1e-3, 1e-2],
        "k_max": 20,
    })
    rows, summary = exp.run_perturbed_validity(cfg)
    failures = [] if summary["all_valid"] else [
        r for r in rows if r["ratio"] > 1.0][:5]
    _report("criterion 7 (perturbed-matrix bound validity, 30 triples)",
            failures, f"worst error/bound ratio {summary['worst_ratio']:.4f}")


def test_criterion_8_out_of_scope_note():
    # Particulate-suspension simulations (hierarchical mobility matrices,
    # time stepping) are explicitly out of scope at desk scale; criterion 7
    # covers the same perturbed-matrix corollary property-style.
    _report("criterion 8 (large-scale suspension runs excluded by design)", [])
