"""The operator protocol and the dense, deterministic, desk-scale kernels.

Every matrix enters through :func:`as_operator`, the one place that looks
at the input's type.  An operator has five members, ``shape``,
``matvec``, ``solve(rhs)``, ``to_dense()`` and ``bands``
(``(lower, diag, upper)`` or None), and is a :class:`DenseMatrix`, a
:class:`TridiagonalMatrix` or a :class:`MatvecOperator`; the exact
:func:`is_hermitian` is built on them.

Factorizations and small-matrix eigenvalue/square-root evaluation are
delegated to LAPACK through numpy/scipy; this module owns input
validation, the error contracts, the extremal singular values (largest:
exact, and refused for a matvec-only operator; smallest: inverse power
iteration) and the error oracles.  Every kernel is a pure function of
its inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidSpectrum,
    NoConvergence,
    NonFiniteEntry,
    SingularMatrix,
    SpectrumOnBranchCut,
    TooLarge,
    UnsupportedContext,
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

# Relative change in sigma_min's estimate that stops it (within 5-7 steps
# on convection-diffusion matrices, against a cap of 10n).
SIGMA_MIN_RTOL = 1e-10


def require_int(name: str, value, least: int) -> int:
    """``value`` as an int, if it is a Python or NumPy integer >= least;
    else DomainError naming it.  Every count an entry point takes (an
    operator's order, and k, steps, capacity, k_max of the Arnoldi
    drivers) passes here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_pivots(pivots, row_norm) -> None:
    """The one singularity rule of every solve: SingularMatrix when the
    smallest |pivot| of U is at most ``PIVOT_RTOL`` times the largest row
    norm of the matrix factored (elementwise over arrays of both)."""
    if np.any(pivots <= PIVOT_RTOL * row_norm):
        raise SingularMatrix("pivot below threshold; matrix is numerically singular")


class DenseMatrix:
    """Square dense matrix in its native dtype.

    Real entries are stored as float64 and complex entries as complex128,
    in a read-only array: a writable input is copied, a read-only one of
    that dtype is shared.  The entries are validated to be finite on
    construction, so downstream kernels can skip the check.  The LU
    factors are computed on the first :meth:`solve` and kept, and so is
    the eigendecomposition of :meth:`eigh`.
    """

    bands = None

    def __init__(self, array):
        a = np.asarray(array)
        a = np.array(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64,
                     copy=True if a.flags.writeable else None)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise NonFiniteEntry("matrix entries must be finite")
        a.flags.writeable = False
        self.array, self.shape = a, a.shape
        self._lu = None
        self._eigh = None

    def matvec(self, v) -> np.ndarray:
        return self.array @ v

    def solve(self, rhs) -> np.ndarray:
        """Solve M x = rhs by LU with partial pivoting.

        Raises SingularMatrix by :func:`check_pivots`.
        """
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.shape[0]:
            raise DimensionMismatch(f"rhs length {rhs.shape[0]} != matrix order {self.shape[0]}")
        if self._lu is None:
            lu, piv = lu_factor_quiet(self.array)
            check_pivots(np.min(np.abs(np.diag(lu))),
                         float(np.max(np.linalg.norm(self.array, axis=1))))
            self._lu = (lu, piv)
        return sla.lu_solve(self._lu, rhs, check_finite=False)

    def eigh(self):
        """(lambda ascending, V) with M = V diag(lambda) Vᴴ when the stored
        array is exactly Hermitian, else None; the square-root oracle and
        :func:`sigma_max` both read it (Higham, *Functions of Matrices*,
        2008, §6.1)."""
        if self._eigh is None:
            self._eigh = ()
            if is_hermitian(self):
                try:
                    self._eigh = np.linalg.eigh(self.array)
                except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
                    raise NoConvergence(f"symmetric eigensolver failed: {exc}") from exc
        return self._eigh or None

    def to_dense(self) -> np.ndarray:
        return self.array


class TridiagonalMatrix:
    """Real tridiagonal matrix in banded storage.

    Solves follow the contract of :meth:`DenseMatrix.solve`; ``to_dense``
    builds the full matrix for the dense kernels.  A complex band raises
    DomainError naming it.
    """

    def __init__(self, lower, diag, upper):
        for name, band in (("lower", lower), ("diag", diag), ("upper", upper)):
            if np.iscomplexobj(band):
                raise DomainError(f"the {name} band of a TridiagonalMatrix must be real")
        self.lower = np.asarray(lower, dtype=float)
        self.diag = np.asarray(diag, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        m = self.diag.shape[0]
        if self.lower.shape[0] != m - 1 or self.upper.shape[0] != m - 1:
            raise DimensionMismatch("band lengths must be (m-1, m, m-1)")
        self.shape = (m, m)
        self.bands = (self.lower, self.diag, self.upper)
        if not all(np.isfinite(band).all() for band in self.bands):
            raise NonFiniteEntry("band entries must be finite")

    def matvec(self, v):
        w = self.diag * v
        w[1:] += self.lower * v[:-1]
        w[:-1] += self.upper * v[1:]
        return w

    def solve(self, rhs):
        """Solve M x = rhs by LU with partial pivoting (LAPACK ?gtsv, the
        bands cast to the rhs's dtype, no factor kept).  Raises
        SingularMatrix by :func:`check_pivots`, as the dense solve."""
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.shape[0]:
            raise DimensionMismatch(f"rhs length {rhs.shape[0]} != matrix order {self.shape[0]}")
        if self.shape[0] == 1:  # SciPy's ?gtsv wrapper rejects order 1
            u, x = self.diag, (rhs / self.diag[0] if self.diag[0] else None)
        else:  # a zero u_ii (info > 0) is refused below
            gtsv = sla.get_lapack_funcs("gtsv", (self.diag, rhs))
            _, u, _, x, _ = gtsv(self.lower, self.diag, self.upper, rhs)
        rows = self.diag**2 + np.append(0.0, self.lower**2) + np.append(self.upper**2, 0.0)
        check_pivots(np.min(np.abs(u)), np.sqrt(np.max(rows)))
        return x

    def to_dense(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.lower, -1) + np.diag(self.upper, 1)


class MatvecOperator:
    """A matrix seen only through its products with vectors.

    Whatever needs the entries or an exact solve raises
    UnsupportedContext.  The order n must be an integer >= 1
    (:func:`require_int`).
    """

    bands = None

    def __init__(self, matvec, n: int):
        n = require_int("the operator order", n, 1)
        self.matvec = matvec
        self.shape = (n, n)

    def solve(self, rhs):
        raise UnsupportedContext("an exact solve is needed, and a matvec-only operator has none")

    def to_dense(self):
        raise UnsupportedContext("a matvec-only operator has no dense form")


@dataclass(frozen=True)
class RitzSpectrum:
    """Eigenvalues of a projected matrix H_k, sorted by descending modulus.

    Ties are broken by descending real part, then descending imaginary
    part, so the order is deterministic.  ``schur`` is (T, Z) with
    H_k = Z T Zᴴ when :func:`hessenberg_eigenvalues` was asked for it.
    """

    values: np.ndarray
    k: int
    schur: tuple | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_unsorted(cls, values, schur=None) -> "RitzSpectrum":
        v = np.asarray(values, dtype=np.complex128).ravel()
        v = v[np.lexsort((-v.imag, -v.real, -np.abs(v)))]  # a copy
        v.flags.writeable = False
        return cls(values=v, k=v.size, schur=schur)


def as_operator(M):
    """Normalize a matrix to the operator protocol.

    Accepts an operator of this module, ``(callable, n)``, an object with
    ``matvec`` and ``shape``, or anything ``np.asarray`` turns into a
    square matrix.  A SciPy sparse matrix or array raises
    UnsupportedContext (``scipy.sparse`` is looked up, not imported: an
    input of its classes has loaded it).
    """
    if isinstance(M, (DenseMatrix, TridiagonalMatrix, MatvecOperator)):
        return M
    import sys  # loaded by the interpreter: no import time

    sparse = sys.modules.get("scipy.sparse")
    if sparse is not None and sparse.issparse(M):
        raise UnsupportedContext(f"a SciPy sparse {type(M).__name__} is not supported; pass "
                                 "M.toarray() or a (matvec, n) operator")
    if isinstance(M, tuple) and len(M) == 2 and callable(M[0]):
        return MatvecOperator(M[0], M[1])
    if hasattr(M, "matvec"):
        return MatvecOperator(M.matvec, M.shape[0])
    if callable(M):
        raise DimensionMismatch("bare callables must be passed as (callable, n)")
    return DenseMatrix(M)


def as_array(M) -> np.ndarray:
    """The dense form of M as an ndarray."""
    return as_operator(M).to_dense()


def lu_factor_quiet(a: np.ndarray):
    """LU factorization with scipy's exact-zero-pivot warning silenced;
    singularity is handled by the callers' own pivot checks."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        return sla.lu_factor(a, check_finite=False)


def lu_solve(A, b) -> np.ndarray:
    """Solve A x = b with the operator's exact solve: for a dense A, LU
    with partial pivoting and the pivot check of :meth:`DenseMatrix.solve`.
    """
    return as_operator(A).solve(b)


def _schur(a: np.ndarray, vectors: bool = True):
    """(T, Z, eigenvalues) with a = Z T Zᴴ by LAPACK ?gees, T real for real
    a; Z is a placeholder without ``vectors``.  Its default minimal
    workspace keeps the Hessenberg reduction unblocked, which is nearly
    free on Hessenberg input."""
    gees = sla.lapack.zgees if np.iscomplexobj(a) else sla.lapack.dgees
    out = gees(lambda *_: None, a, compute_v=int(vectors))
    if out[-1] != 0:  # pragma: no cover - LAPACK failure
        raise NoConvergence(f"QR iteration failed to deflate (info = {out[-1]})")
    return out[0], out[-3], (out[2] if gees is sla.lapack.zgees else out[2] + 1j * out[3])


def hessenberg_eigenvalues(H, schur: bool = False) -> RitzSpectrum:
    """All eigenvalues of an upper Hessenberg matrix, sorted by modulus;
    with ``schur``, also the Schur form (T, Z) they were read from.

    Computed by the LAPACK shifted-QR algorithm (real input uses the
    Francis double-shift path, producing exact conjugate pairs).  Without
    Schur vectors the QR iteration does less work.  H is read as an
    ndarray in place (``?gees`` works on a copy); it must be square,
    finite and upper Hessenberg.
    """
    h = np.asarray(H)
    h = h.astype(np.complex128 if np.iscomplexobj(h) else np.float64, copy=False)
    if h.ndim != 2 or h.shape[0] < 1 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise NonFiniteEntry("matrix entries must be finite")
    if np.tril(h, -2).any():
        raise DimensionMismatch("matrix has nonzeros below the first subdiagonal")
    t, z, w = _schur(h, vectors=schur)
    return RitzSpectrum.from_unsorted(w, schur=(t, z) if schur else None)


def bendixson_order(H) -> int:
    """Largest j whose leading j x j block of H has a positive definite
    Hermitian part, from one Cholesky factorization (?potrf) of H + Hᴴ: its
    ``info`` is the first order that is not.

    By Bendixson's theorem every eigenvalue of such a block has real part
    at least the smallest eigenvalue of its Hermitian part, so every
    leading block up to order j has its spectrum in the open right
    half-plane.
    """
    a = np.asarray(H)
    potrf = sla.lapack.zpotrf if np.iscomplexobj(a) else sla.lapack.dpotrf
    s = np.conjugate(a.T, order="F")  # the one k x k temporary, in ?potrf's order
    s += a
    info = potrf(s, clean=0, overwrite_a=1)[1]
    return a.shape[0] if info == 0 else info - 1  # info < 0 cannot occur here


def schur_sqrt(t: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    """T^{1/2} for a Schur factor T with eigenvalues ``eigs``, by the
    recurrence of Higham (LAA 1987) blocked by Deadman, Higham and Ralha
    (2013).  An eigenvalue with nonpositive real part and (relatively) zero
    imaginary part raises SpectrumOnBranchCut."""
    left = eigs.real <= 0.0
    if left.any():
        on_cut = left & (np.abs(eigs.imag) <= BRANCH_CUT_IMAG_TOL * np.maximum(1.0, np.abs(eigs)))
        if on_cut.any():
            raise SpectrumOnBranchCut(f"eigenvalue {eigs[on_cut][0]} lies on the closed "
                                      "negative real axis")
    return sla.sqrtm(t)


def dense_sqrt(A) -> np.ndarray:
    """Principal square root Z T^{1/2} Zᴴ of a square matrix with Schur
    form Z T Zᴴ (see :func:`schur_sqrt`)."""
    t, z, w = _schur(as_array(A))
    return z @ schur_sqrt(t, w) @ z.conj().T


def reference_sqrt_action(M, b) -> np.ndarray:
    """Error oracle: M^{1/2} b, the principal square root applied to b.

    A tridiagonal M with constant bands, sub * sup > 0 and cond(D) at most
    ``TOEPLITZ_MAX_COND_D`` takes the O(n log n) closed form of
    :func:`_toeplitz_fun_action`, at any n.  Any other M is dense, guarded
    to n <= DENSE_ORACLE_MAX_N, and must be positive definite in the
    Re(x*Mx) > 0 sense.  An exactly Hermitian M takes V sqrt(lambda) Vᴴ b
    from its kept :meth:`DenseMatrix.eigh`, whose smallest eigenvalue is
    the definiteness check; any other M takes the Schur square root after
    the check of :func:`min_symmetric_eig`.
    """
    return _reference_action(M, b, inverse=False)


def reference_invsqrt_action(M, b) -> np.ndarray:
    """Error oracle: M^{-1/2} b, by the closed form, the Hermitian
    eigendecomposition or the Schur square root (then one LU solve) of
    :func:`reference_sqrt_action`."""
    return _reference_action(M, b, inverse=True)


def _reference_action(M, b, inverse: bool) -> np.ndarray:
    op = as_operator(M)
    n = op.shape[0]
    if np.shape(b) != (n,):  # before any O(n^3) work
        raise DimensionMismatch("rhs must be a vector of the matrix order")
    rhs = np.asarray(b)
    fn = (lambda lam: 1.0 / np.sqrt(lam)) if inverse else np.sqrt
    bands = _toeplitz_bands(op)
    if bands is not None:
        return _toeplitz_fun_action(*bands, n, rhs, fn)
    if n > DENSE_ORACLE_MAX_N:
        raise TooLarge(f"n = {n} exceeds the dense-oracle guard {DENSE_ORACLE_MAX_N}")
    dense = op if isinstance(op, DenseMatrix) else DenseMatrix(op.to_dense())
    eig = dense.eigh()
    if (eig[0][0] if eig else min_symmetric_eig(dense.array)) <= 0.0:
        raise InvalidSpectrum("matrix is not positive definite (Hermitian part)")
    if eig:
        lam, v = eig
        return v @ (fn(lam) * (v.conj().T @ rhs))
    # the positive Hermitian part already keeps the spectrum off the
    # branch cut, which is all dense_sqrt would check again
    root = sla.sqrtm(dense.array)
    return DenseMatrix(root).solve(rhs) if inverse else root @ rhs


def _toeplitz_bands(op):
    """(sub, dia, sup) when the operator is tridiagonal Toeplitz and the
    closed form is trusted for it (sub * sup > 0,
    cond(D) <= TOEPLITZ_MAX_COND_D), else None."""
    if op.bands is None or op.shape[0] < 2:
        return None
    lower, diag, upper = op.bands
    sub, dia, sup = lower[0], diag[0], upper[0]
    if np.any(lower != sub) or np.any(diag != dia) or np.any(upper != sup):
        return None
    if not sub * sup > 0:
        return None
    # cond(D) = max(r, 1/r)^((m-1)/2) with r = sub/sup, compared in logs
    log_cond_d = 0.5 * (diag.shape[0] - 1) * abs(math.log(sub / sup))
    if log_cond_d > math.log(TOEPLITZ_MAX_COND_D):
        return None
    return float(sub), float(dia), float(sup)


def _toeplitz_fun_action(sub: float, dia: float, sup: float, m: int, b, fn) -> np.ndarray:
    """f(M) b for M = tridiag(sub, dia, sup) of order m, sub * sup > 0, an
    m-vector b, and ``fn`` the map lambda -> f(lambda) on its (positive)
    eigenvalues.

    M = D S D^{-1} with D = diag(r^{i/2}), r = sub/sup, and S the
    symmetric tridiagonal Toeplitz matrix with off-diagonal
    sign(sub) sqrt(sub sup).  S has the DST-I sine vectors as eigenvectors
    and eigenvalues lambda_j = dia + 2 off cos(j pi/(m+1)), so
    f(M) b = D DST(f(lambda) * DST(D^{-1} b)) (Noschese, Pasquini and
    Reichel, "Tridiagonal Toeplitz matrices", NLAA 20, 2013).
    """
    import scipy.fft  # about 0.1 s to import, so only on this path

    off = math.copysign(math.sqrt(sub * sup), sub)
    lam = dia + 2.0 * off * np.cos(np.arange(1, m + 1) * (math.pi / (m + 1)))
    if lam.min() <= 0.0:
        raise InvalidSpectrum("tridiagonal Toeplitz matrix has a nonpositive eigenvalue")
    # centred exponents, so neither end of D overflows
    d = np.exp(0.5 * math.log(sub / sup) * (np.arange(m) - 0.5 * (m - 1)))
    w = scipy.fft.dst(b / d, type=1, norm="ortho")
    return d * scipy.fft.dst(fn(lam) * w, type=1, norm="ortho")


def sigma_max(M) -> float:
    """Largest singular value, exact: for a tridiagonal matrix (``bands``)
    from the pentadiagonal MᵀM; for a dense matrix, max |lambda| from the
    kept :meth:`DenseMatrix.eigh` when it is exactly Hermitian, else from a
    dense SVD.  A matvec-only operator raises UnsupportedContext: an
    iterative estimate is a lower one, and the a priori bound needs an
    upper one."""
    op = as_operator(M)
    if op.bands is not None:
        return _tridiagonal_sigma_max(*op.bands)
    if not isinstance(op, DenseMatrix):
        raise UnsupportedContext("a matvec-only operator has no exact sigma_max")
    eig = op.eigh()
    if eig:
        return float(np.max(np.abs(eig[0])))
    return float(sla.svdvals(op.array, check_finite=False)[0])


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


def sigma_min(M) -> float:
    """Smallest singular value by inverse power iteration on (MᴴM)⁻¹; the
    adjoint is an operator of its own: the banded Mᵀ of a tridiagonal M,
    else a second LU of the dense Mᴴ.

    Companion to :func:`sigma_max`; together they give the 2-norm
    condition number reported by the experiment harness.
    """
    op = as_operator(M)
    if op.bands is not None:
        lower, diag, upper = op.bands
        adjoint = TridiagonalMatrix(upper, diag, lower)
    else:
        adjoint = DenseMatrix(op.to_dense().conj().T)
    n = op.shape[0]
    v = np.ones(n) / np.sqrt(n)
    sigma = np.inf
    for _ in range(10 * n):
        u = adjoint.solve(v)
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            raise NoConvergence("inverse iterate vanished")
        sigma_new = 1.0 / nu
        w = op.solve(u)
        nw = np.linalg.norm(w)
        v = w / nw
        if sigma - sigma_new <= SIGMA_MIN_RTOL * sigma_new and np.isfinite(sigma):
            return sigma_new
        sigma = sigma_new
    raise NoConvergence(f"sigma_min inverse iteration did not settle in {10 * n} steps")


def is_hermitian(M) -> bool:
    """Whether M == Mᴴ exactly (lower == upper for a real tridiagonal M,
    else on the dense form, which a matvec-only operator lacks): the route
    to the Hermitian bounds and :meth:`DenseMatrix.eigh`.  No
    symmetrization is ever applied."""
    op = as_operator(M)
    if op.bands is not None:
        return bool(np.array_equal(op.bands[0], op.bands[2]))
    a = op.to_dense()
    return bool(np.array_equal(a, a.conj().T))


def min_symmetric_eig(M) -> float:
    """Smallest eigenvalue of the Hermitian part (M + Mᴴ)/2.

    A positive result certifies positive-definiteness in the
    Re(x*Mx) > 0 sense.
    """
    a = as_array(M)
    herm = (a + a.conj().T) / 2.0
    try:
        vals = sla.eigvalsh(herm, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from exc
    return float(vals[0])
