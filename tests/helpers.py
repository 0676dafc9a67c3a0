"""Shared fixtures-in-spirit: seeded instances and independent oracles."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from krylov_sqrt import arnoldi as arn
from krylov_sqrt import bounds as bnd
from krylov_sqrt import matgen


def make_pd_matrix(seed: int, n: int, kind: str = "uniform", skew: bool = True):
    """Seeded positive-definite test matrix (ndarray) plus its prescribed
    symmetric-part eigenvalues."""
    if kind == "uniform":
        spec = matgen.SpectrumSpec.uniform(n, 1.0, 1000.0)
    else:
        spec = matgen.SpectrumSpec.clustered(n, 1000.0, 100.0, 0.95, 10.0, 5.0)
    sm = matgen.spectrum_matrix(spec, seed)
    a = sm.matrix.array.real.copy()
    if skew:
        a = a + matgen.skew_part(n, seed + 1)
    return a, sm.eigenvalues, sm


def record_quad_batches(monkeypatch) -> list:
    """Record every batch of adaptive quadratures run from here on (each
    bound, ``quad_semi_infinite`` call and report batch is one), as
    [integrand calls, one QuadResult per integral]."""
    log, plain = [], bnd._quad_batch

    def recorded(integrand, count, cfg=None, floor=None):
        entry = [0, None]
        log.append(entry)

        def counted(x, owner):
            entry[0] += 1
            return integrand(x, owner)

        entry[1] = plain(counted, count, cfg, floor)
        return entry[1]

    monkeypatch.setattr(bnd, "_quad_batch", recorded)
    return log


def record_hyman_sweeps(monkeypatch) -> list:
    """Record (k, m) of every Hyman sweep (``bounds._hyman`` call) from
    here on: one back-substitution over the k rows of an order-k H for m
    shifts, so a sweep makes k row steps however many shifts it takes."""
    calls, plain = [], bnd._hyman
    monkeypatch.setattr(bnd, "_hyman",
                        lambda h, shifts: calls.append((h.shape[0], shifts.size))
                        or plain(h, shifts))
    return calls


def record_fun_coefficients(monkeypatch) -> list:
    """Record (k, f) of every action computed from here on, whatever the
    path: a ``sqrt``/``invsqrt`` ``arnoldi.fun_coefficients`` call, or a k
    of a Hessenberg LU solve (``_HessenbergLU.solve_e1``, which serves every
    ``inverse``) as (k, "inverse")."""
    calls, plain, solve = [], arn.fun_coefficients, arn._HessenbergLU.solve_e1
    monkeypatch.setattr(arn, "fun_coefficients",
                        lambda d, f="sqrt": (f != "inverse" and calls.append((d.k, f)))
                        or plain(d, f))
    monkeypatch.setattr(arn._HessenbergLU, "solve_e1", lambda lu, ks, *args: calls.extend(
        (int(k), "inverse") for k in ks) or solve(lu, ks, *args))
    return calls


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients (monic, highest power first)
    from sums of principal minors computed by LU determinants.

    Exponential in n; intended for n <= 8 oracle work only.
    """
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    idx = range(n)
    for j in range(1, n + 1):
        minors = 0.0 + 0.0j
        for rows in combinations(idx, j):
            sub = a[np.ix_(rows, rows)]
            minors += np.linalg.det(sub)
        coeffs[j] = (-1.0) ** j * minors
    return coeffs


def durand_kerner(coeffs: np.ndarray, iterations: int = 300) -> np.ndarray:
    """All roots of a monic polynomial by Weierstrass simultaneous
    iteration; independent of any LAPACK eigensolver."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    n = coeffs.size - 1
    # distinct, non-real starting points on a spiral scaled to the
    # coefficient magnitude so huge-modulus roots still converge
    radius = 1.0 + np.max(np.abs(coeffs[1:])) ** (1.0 / n)
    roots = radius * (0.4 + 0.9j) ** np.arange(1, n + 1)
    for _ in range(iterations):
        shifted = roots[:, None] - roots[None, :]
        np.fill_diagonal(shifted, 1.0)
        denom = np.prod(shifted, axis=1)
        delta = np.polyval(coeffs, roots) / denom
        roots = roots - delta
        if np.max(np.abs(delta)) < 1e-14 * max(1.0, np.max(np.abs(roots))):
            break
    return roots


@dataclass(frozen=True)
class ShiftedFomQuantities:
    """Both sides of the shift identities of the FOM residual and error,
    for direct comparison.

    The formula side scales the unshifted quantities by the determinant
    ratio det(H_k)/det(H_k - zI); the direct side recomputes residual and
    error from scratch at the shift.
    """

    residual_formula: np.ndarray
    residual_direct: np.ndarray
    error_formula: np.ndarray
    error_direct: np.ndarray


def shifted_fom_quantities(decomp, a: np.ndarray, b: np.ndarray,
                           z: complex) -> ShiftedFomQuantities:
    """The shift identities at z for the FOM residual and error of an
    Arnoldi decomposition of the dense matrix ``a``: the unshifted side is
    the package's (residual from the last FOM coefficient, FOM iterate),
    while the determinants come from ``np.linalg.slogdet`` and every
    shifted or dense solve from ``np.linalg.solve``, not from the
    package's Hessenberg LU."""
    k, n = decomp.k, a.shape[0]
    h_z = decomp.hessenberg - z * np.eye(k)
    sign_h, log_h = np.linalg.slogdet(decomp.hessenberg)
    sign_hz, log_hz = np.linalg.slogdet(h_z)
    ratio = np.exp(log_h - log_hz) * sign_h / sign_hz

    _, coef = arn.fom_residual_norm(decomp)
    r0 = coef * decomp.basis[:, k]
    xi0 = np.linalg.solve(a, b) - arn.fom_iterate(decomp)

    a_z = a - z * np.eye(n)
    x_z = decomp.basis_k @ np.linalg.solve(h_z, decomp.b_norm * np.eye(k)[:, 0])
    return ShiftedFomQuantities(
        residual_formula=ratio * r0,
        residual_direct=b - a_z @ x_z,
        error_formula=ratio * np.linalg.solve(a_z, a @ xi0),
        error_direct=np.linalg.solve(a_z, b) - x_z,
    )


def eig_sqrt_action(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Square-root action through a symmetric eigendecomposition; the
    independent oracle for SPD matrices."""
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(w)) @ (v.T @ b)
