"""Dense, deterministic, desk-scale linear-algebra kernels.

Factorizations and small-matrix eigenvalue/square-root evaluation are
delegated to LAPACK through numpy/scipy; this module owns input
validation, the error contracts, and the extremal singular-value
estimators (largest: exact for tridiagonal input and for dense input
at desk scale, power iteration otherwise; smallest: inverse power
iteration), and the error oracle (closed form for tridiagonal Toeplitz
input, dense Schur square root otherwise).  Everything here is a pure
function of its inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionMismatch,
    InvalidSpectrum,
    NoConvergence,
    NonFiniteEntry,
    SingularMatrix,
    SpectrumOnBranchCut,
    TooLarge,
)

# Guard for dense reference computations (full-matrix square roots).
DENSE_ORACLE_MAX_N = 5000

# Largest cond(D) for which the tridiagonal Toeplitz oracle uses its
# closed form.  It loses about log10(cond(D)) digits: against Schur sqrtm
# at m = 100/300/1000 it agrees to 1.5e-12/5.8e-12/1.4e-11 relative at
# cond(D) = 1e4, and to 1.4e-11/1.5e-11/4.7e-10 at 1e5.
TOEPLITZ_MAX_COND_D = 1e4

# A pivot below PIVOT_RTOL times the largest row norm is treated as zero.
PIVOT_RTOL = 1e-14

# |Im(lambda)| below this (relative to max(1, |lambda|)) counts as real.
BRANCH_CUT_IMAG_TOL = 1e-12


@dataclass(frozen=True)
class DenseMatrix:
    """Dense complex-entry matrix value.

    Real matrices are carried as complex with zero imaginary parts.  The
    entries are validated to be finite on construction, so downstream
    kernels can skip the check.
    """

    array: np.ndarray

    def __post_init__(self):
        a = np.array(self.array, dtype=np.complex128, order="C", copy=True)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise DimensionMismatch(f"expected a 2-D matrix, got shape {a.shape}")
        if not np.isfinite(a.real).all() or not np.isfinite(a.imag).all():
            raise NonFiniteEntry("matrix entries must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]


@dataclass(frozen=True)
class RitzSpectrum:
    """Eigenvalues of a projected matrix H_k, sorted by descending modulus.

    Ties are broken by descending real part, then descending imaginary
    part, so the order is deterministic.
    """

    values: np.ndarray
    k: int

    @classmethod
    def from_unsorted(cls, values) -> "RitzSpectrum":
        v = np.asarray(values, dtype=np.complex128).ravel()
        order = np.lexsort((-v.imag, -v.real, -np.abs(v)))
        v = np.array(v[order], copy=True)
        v.flags.writeable = False
        return cls(values=v, k=v.size)


def as_array(M) -> np.ndarray:
    """Unwrap a DenseMatrix (or banded matrix with ``to_dense``) to ndarray."""
    if isinstance(M, DenseMatrix):
        return M.array
    if hasattr(M, "to_dense"):
        return M.to_dense()
    return np.asarray(M)


def _is_tridiagonal(M) -> bool:
    """True for a banded tridiagonal matrix (``lower``/``diag``/``upper``)."""
    return hasattr(M, "lower") and hasattr(M, "upper")


def _square_array(M) -> np.ndarray:
    a = as_array(M)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def lu_factor_quiet(a: np.ndarray):
    """LU factorization with scipy's exact-zero-pivot warning silenced;
    singularity is handled by the callers' own pivot checks."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        return sla.lu_factor(a, check_finite=False)


def lu_solve(A, b) -> np.ndarray:
    """Solve A x = b by LU with partial pivoting.

    Raises SingularMatrix when a pivot falls below ``PIVOT_RTOL`` times the
    largest row norm of A.
    """
    a = _square_array(A)
    rhs = np.asarray(b)
    if rhs.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs length {rhs.shape[0]} != matrix order {a.shape[0]}")
    lu, piv = lu_factor_quiet(a)
    pivots = np.abs(np.diag(lu))
    scale = float(np.max(np.linalg.norm(a, axis=1)))
    if scale == 0.0 or np.min(pivots) <= PIVOT_RTOL * scale:
        raise SingularMatrix("pivot below threshold; matrix is numerically singular")
    return sla.lu_solve((lu, piv), rhs, check_finite=False)


def hessenberg_eigenvalues(H) -> RitzSpectrum:
    """All eigenvalues of an upper Hessenberg matrix, sorted by modulus.

    Computed by the LAPACK shifted-QR algorithm (real input uses the
    Francis double-shift path, producing exact conjugate pairs).
    """
    h = _square_array(H)
    k = h.shape[0]
    if k > 2 and np.any(np.tril(h, -2) != 0):
        raise DimensionMismatch("matrix has nonzeros below the first subdiagonal")
    try:
        vals = sla.eigvals(h, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(f"QR iteration failed to deflate: {exc}") from exc
    return RitzSpectrum.from_unsorted(vals)


def dense_sqrt(A) -> np.ndarray:
    """Principal square root of a square matrix via Schur decomposition
    plus the triangular square-root recurrence.

    The spectrum must avoid the closed negative real axis; eigenvalues
    with nonpositive real part and (relatively) zero imaginary part raise
    SpectrumOnBranchCut.  Every eigenvalue has real part at least the
    smallest eigenvalue of the Hermitian part (Bendixson), so a positive
    :func:`min_symmetric_eig` certifies the spectrum and the general
    eigenvalue solve runs only when that value is <= 0.
    """
    a = _square_array(A)
    if min_symmetric_eig(a) <= 0.0:
        eigs = sla.eigvals(a, check_finite=False)
        on_cut = (eigs.real <= 0.0) & (
            np.abs(eigs.imag) <= BRANCH_CUT_IMAG_TOL * np.maximum(1.0, np.abs(eigs))
        )
        if np.any(on_cut):
            raise SpectrumOnBranchCut(
                f"eigenvalue {eigs[on_cut][0]} lies on the closed negative real axis"
            )
    return sla.sqrtm(a)


def reference_sqrt_action(M, b) -> np.ndarray:
    """Error oracle: M^{1/2} b, the principal square root applied to b.

    A tridiagonal M with constant bands, sub * sup > 0 and cond(D) at most
    ``TOEPLITZ_MAX_COND_D`` takes the O(n log n) closed form of
    :func:`_toeplitz_sqrt_action`, at any n.  Any other M goes through the
    dense Schur square root, guarded to n <= DENSE_ORACLE_MAX_N, and must
    be positive definite in the Re(x*Mx) > 0 sense.
    """
    bands = _toeplitz_bands(M)
    if bands is not None:
        return _toeplitz_sqrt_action(*bands, M.shape[0], b)
    a = _square_array(M)
    n = a.shape[0]
    if n > DENSE_ORACLE_MAX_N:
        raise TooLarge(f"n = {n} exceeds the dense-oracle guard {DENSE_ORACLE_MAX_N}")
    if min_symmetric_eig(a) <= 0.0:
        raise InvalidSpectrum("matrix is not positive definite (Hermitian part)")
    rhs = np.asarray(b)
    if rhs.shape[0] != n:
        raise DimensionMismatch("rhs length does not match matrix order")
    # the positive Hermitian part already keeps the spectrum off the
    # branch cut, which is all dense_sqrt would check again
    return sla.sqrtm(a) @ rhs


def _toeplitz_bands(M):
    """(sub, dia, sup) when M is tridiagonal Toeplitz and the closed form
    is trusted for it (sub * sup > 0, cond(D) <= TOEPLITZ_MAX_COND_D),
    else None."""
    if not _is_tridiagonal(M) or M.diag.shape[0] < 2:
        return None
    sub, dia, sup = M.lower[0], M.diag[0], M.upper[0]
    if np.any(M.lower != sub) or np.any(M.diag != dia) or np.any(M.upper != sup):
        return None
    if not sub * sup > 0:
        return None
    # cond(D) = max(r, 1/r)^((m-1)/2) with r = sub/sup, compared in logs
    log_cond_d = 0.5 * (M.diag.shape[0] - 1) * abs(math.log(sub / sup))
    if log_cond_d > math.log(TOEPLITZ_MAX_COND_D):
        return None
    return float(sub), float(dia), float(sup)


def _toeplitz_sqrt_action(sub: float, dia: float, sup: float, m: int, b) -> np.ndarray:
    """M^{1/2} b for M = tridiag(sub, dia, sup) of order m, sub * sup > 0.

    M = D S D^{-1} with D = diag(r^{i/2}), r = sub/sup, and S the
    symmetric tridiagonal Toeplitz matrix with off-diagonal
    sign(sub) sqrt(sub sup).  S has the DST-I sine vectors as eigenvectors
    and eigenvalues lambda_j = dia + 2 off cos(j pi/(m+1)), so
    M^{1/2} b = D DST(sqrt(lambda) * DST(D^{-1} b)) (Noschese, Pasquini
    and Reichel, "Tridiagonal Toeplitz matrices", NLAA 20, 2013).
    """
    import scipy.fft  # about 0.1 s to import, so only on this path

    off = math.copysign(math.sqrt(sub * sup), sub)
    lam = dia + 2.0 * off * np.cos(np.arange(1, m + 1) * (math.pi / (m + 1)))
    if lam.min() <= 0.0:
        raise InvalidSpectrum("tridiagonal Toeplitz matrix has a nonpositive eigenvalue")
    rhs = np.asarray(b)
    if rhs.shape != (m,):
        raise DimensionMismatch("rhs must be a vector of the matrix order")
    # centred exponents, so neither end of D overflows
    d = np.exp(0.5 * math.log(sub / sup) * (np.arange(m) - 0.5 * (m - 1)))
    w = scipy.fft.dst(rhs / d, type=1, norm="ortho")
    return d * scipy.fft.dst(np.sqrt(lam) * w, type=1, norm="ortho")


def sigma_max(M, tol: float = 1e-8, max_iter: int | None = None) -> float:
    """Largest singular value.

    Exact at desk scale: for a real tridiagonal matrix
    (``diag``/``lower``/``upper`` bands) the square root of the largest
    eigenvalue of the pentadiagonal MᵀM, from a banded symmetric
    eigensolver; for an ndarray or DenseMatrix of order at most
    ``DENSE_ORACLE_MAX_N`` the leading value of a dense SVD.  ``tol`` and
    ``max_iter`` are unused there.

    Any other input (an operator with matvec/rmatvec/shape, or a larger
    dense matrix) runs power iteration on MᴴM from a deterministic
    all-ones start; the estimate is the Rayleigh-quotient square root
    ||Mv||, which is monotone nondecreasing, so it is a lower estimate.
    Convergence is declared when the estimate's per-step relative change
    drops below ``tol``; for matrices with clustered top singular values
    this stalls close to (but slightly below) the true value, so tighten
    ``tol`` and raise ``max_iter`` when sharp accuracy is needed.
    """
    if _is_tridiagonal(M):
        return _tridiagonal_sigma_max(M.lower, M.diag, M.upper)
    if hasattr(M, "matvec") and hasattr(M, "rmatvec"):
        matvec, rmatvec, n = M.matvec, M.rmatvec, M.shape[0]
    else:
        a = _square_array(M)
        n = a.shape[0]
        if n <= DENSE_ORACLE_MAX_N:
            if np.iscomplexobj(a) and not a.imag.any():
                a = a.real  # a real matrix carried as complex: half the SVD cost
            return float(sla.svdvals(a, check_finite=False)[0])
        ah = a.conj().T
        matvec, rmatvec = (lambda v: a @ v), (lambda v: ah @ v)
    if max_iter is None:
        max_iter = 10 * n
    v = np.ones(n) / np.sqrt(n)
    sigma = 0.0
    for _ in range(max_iter):
        u = matvec(v)
        sigma_new = float(np.linalg.norm(u))
        if sigma_new == 0.0:
            raise NoConvergence("iterate annihilated; M appears to be zero")
        w = rmatvec(u)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            # v is a maximal singular vector of a nilpotent-like M.
            return sigma_new
        v = w / nw
        if sigma_new - sigma <= tol * sigma_new and sigma > 0.0:
            return sigma_new
        sigma = sigma_new
    raise NoConvergence(f"sigma_max power iteration did not settle in {max_iter} steps")


def _tridiagonal_sigma_max(lower, diag, upper) -> float:
    """sqrt(lambda_max(MᵀM)) for M = tridiag(lower, diag, upper), real.

    MᵀM is pentadiagonal: its diagonal is the squared column norms of M,
    its first and second subdiagonals are d_i u_i + l_i d_{i+1} and
    l_i u_{i+1}; it is passed to LAPACK in lower banded storage.
    """
    m = diag.shape[0]
    ab = np.zeros((3, m))
    ab[0] = diag**2
    ab[0, 1:] += upper**2
    ab[0, :-1] += lower**2
    ab[1, :-1] = diag[:-1] * upper + lower * diag[1:]
    ab[2, :-2] = lower[:-1] * upper[1:]
    top = sla.eigvals_banded(ab, lower=True, select="i", select_range=(m - 1, m - 1),
                             check_finite=False)
    return float(np.sqrt(top[0]))


def _solver_pair(M):
    """Return (solve, rsolve) callables for M, factoring once."""
    if hasattr(M, "solve"):
        return (lambda v: M.solve(v)), (lambda v: M.solve(v, adjoint=True))
    a = _square_array(M)
    lu, piv = lu_factor_quiet(a)
    pivots = np.abs(np.diag(lu))
    scale = float(np.max(np.linalg.norm(a, axis=1)))
    if scale == 0.0 or np.min(pivots) <= PIVOT_RTOL * scale:
        raise SingularMatrix("matrix numerically singular; cannot estimate sigma_min")
    trans = 2 if np.iscomplexobj(lu) else 1
    return (
        lambda v: sla.lu_solve((lu, piv), v, check_finite=False),
        lambda v: sla.lu_solve((lu, piv), v, trans=trans, check_finite=False),
    )


def sigma_min(M, tol: float = 1e-10, max_iter: int | None = None) -> float:
    """Smallest singular value by inverse power iteration on (MᴴM)⁻¹.

    Companion to :func:`sigma_max`; together they give the 2-norm
    condition number reported by the experiment harness.
    """
    solve, rsolve = _solver_pair(M)
    n = M.shape[0] if hasattr(M, "shape") else _square_array(M).shape[0]
    if max_iter is None:
        max_iter = 10 * n
    v = np.ones(n) / np.sqrt(n)
    sigma = np.inf
    for _ in range(max_iter):
        u = rsolve(v)
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            raise NoConvergence("inverse iterate vanished")
        sigma_new = 1.0 / nu
        w = solve(u)
        nw = np.linalg.norm(w)
        v = w / nw
        if sigma - sigma_new <= tol * sigma_new and np.isfinite(sigma):
            return sigma_new
        sigma = sigma_new
    raise NoConvergence(f"sigma_min inverse iteration did not settle in {max_iter} steps")


def is_hermitian(M, rtol: float = 1e-12) -> bool:
    """Route-to-Hermitian-bounds test: ||M - Mᴴ||_F <= rtol * ||M||_F.

    No symmetrization is ever applied; this is detection only.
    """
    if _is_tridiagonal(M):
        scale = np.linalg.norm(np.concatenate([M.diag, M.lower, M.upper]))
        return np.linalg.norm(M.lower - M.upper) <= rtol * scale
    a = _square_array(M)
    return np.linalg.norm(a - a.conj().T) <= rtol * np.linalg.norm(a)


def min_symmetric_eig(M) -> float:
    """Smallest eigenvalue of the Hermitian part (M + Mᴴ)/2.

    A positive result certifies positive-definiteness in the
    Re(x*Mx) > 0 sense.
    """
    a = _square_array(M)
    herm = (a + a.conj().T) / 2.0
    try:
        vals = sla.eigvalsh(herm, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from exc
    return float(vals[0])
