"""Arnoldi process, matrix-function actions, and FOM quantities.

Every step orthogonalizes twice with classical Gram-Schmidt (CGS2); the
second pass removes what rounding left of the first, so the basis stays
orthogonal to working precision and a happy breakdown shows as an
h_{j+1,j} at rounding level.  A decomposition is append-only: only its
newest snapshot can be extended, extension never rewrites completed
columns, and every older snapshot stays valid as a read-only view.

The per-prefix quantities are array-valued over a list of k:
:func:`fom_reports` reads the kept LU factor of the Hessenberg matrix once
and gives every k's FOM residual from cumulative sums over its pivots, the
FOM coefficients of every prefix from one triangular solve, and the FOM
error xi and the true error of an action from one product with the basis.
:func:`prefix_reports` adds the bounds; :func:`fom_residual_norm` and
:func:`fom_error` are the one-k cases of the same code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from . import bounds as bnd
from . import linalg
from .errors import (
    DimensionMismatch,
    DomainError,
    KrylovSqrtError,
    NoConvergence,
    NonFiniteEntry,
    SingularMatrix,
    SingularProjectedMatrix,
)

# h_{j+1,j} at or below this fraction of ||M q_j|| is a happy breakdown.
BREAKDOWN_RTOL = 1e-14

# Square-root actions of an H_k of order above this take the shifted-solve
# quadrature when the Hermitian part of H_k is positive definite.  On one
# BLAS thread the paths cost the same near k = 80-95 (skewed dense first,
# convection-diffusion last); the quadrature takes 5.5-6.5x the Schur time
# at k = 30, 0.3x at k = 298.  Lower, it would move the k <= 200 errors.
SHIFTED_ACTION_MIN_K = 200
# Its quadrature: relative tolerance 1e-13 on the norm of H_k^{-1/2} e_1,
# and a budget of intervals (about 20 are used) that keeps the d x nodes
# values of one pass small.
SHIFTED_ACTION_QUAD = bnd.QuadratureConfig(rel_tol=1e-13, abs_tol=np.finfo(float).tiny,
                                           max_subdivisions=128)


class _Workspace:
    """Growable append-only storage for the basis and Hessenberg matrix."""

    def __init__(self, q1: np.ndarray, capacity: int):
        n = q1.shape[0]
        capacity = max(capacity, 1)
        self.Q = np.zeros((n, capacity + 1), dtype=q1.dtype)
        self.H = np.zeros((capacity + 1, capacity), dtype=q1.dtype)
        self.Q[:, 0] = q1
        self.k = 0  # completed Arnoldi steps
        self.lu, self.coefficients = _HessenbergLU(), {}  # fun_coefficients by (k, f)
        # H_j + H_jᴴ is positive definite for j <= pd_order; known for j <= pd_checked
        self.pd_order = self.pd_checked = 0

    @property
    def capacity(self) -> int:
        return self.H.shape[1]

    def grow(self, capacity: int):
        if capacity <= self.capacity:
            return
        Q = np.zeros((self.Q.shape[0], capacity + 1), dtype=self.Q.dtype)
        H = np.zeros((capacity + 1, capacity), dtype=self.H.dtype)
        Q[:, : self.k + 1] = self.Q[:, : self.k + 1]
        H[: self.k + 1, : self.k] = self.H[: self.k + 1, : self.k]
        self.Q, self.H = Q, H

    def promote_complex(self):
        if not np.iscomplexobj(self.Q):
            self.Q = self.Q.astype(np.complex128)
            self.H = self.H.astype(np.complex128)

    def factor(self) -> "_HessenbergLU":
        """The LU factor of H, brought up to the completed steps."""
        self.lu.extend(self.H, self.k)
        return self.lu

    def bendixson_order(self, k: int) -> int:
        """:func:`linalg.bendixson_order` of H_k for k <= self.k.  One
        ?potrf of the whole H_{self.k} answers every k up to self.k; it runs
        again only for a k above that order while the order was certified."""
        if k > self.pd_checked and self.pd_order == self.pd_checked:
            self.pd_order = linalg.bendixson_order(self.H[: self.k, : self.k])
            self.pd_checked = self.k
        return min(self.pd_order, k)


class _HessenbergLU:
    """LU factors, with partial pivoting, of every leading block H_k of an
    upper Hessenberg matrix, from one pass; its methods answer a list of k
    at once, by indexing arrays that the pass fills.

    Column j has nonzeros in rows j and j+1 only, so pivot step j swaps at
    most those two rows and leaves the rows above final.  The factors of
    H_k are the first k-1 steps (``mult``, ``swap``) plus the diagonal of
    row k-1 before its own step (``pivots``).  U and every per-step and
    per-k array live in buffers whose capacity doubles, so an extension
    copies no earlier column.  Entry k-1 of a per-k array describes H_k:
    ``pivots[k-1]``, ``row_norms[k-1]`` (the largest row norm of H_k) and,
    over the first k-1 diagonal entries u_ii of U, the running minimum and
    maximum of |u_ii|, the cumulative sum of log|u_ii / h_{i+1,i}|, the
    product of the phases u_ii/|u_ii| and the parity of the row swaps.
    """

    # per-step and per-k arrays of the factor's dtype, and of their own
    _TYPED = ("_mult", "_pivots", "_phase")
    _FIXED = (("_swap", bool), ("_parity", bool), ("_row_norms", float), ("_lo", float),
              ("_hi", float), ("_log_ratio", float))

    def __init__(self):
        self._k = 0  # factored columns
        self._buf = np.zeros((0, 0))
        self._row_sq = np.zeros(0)  # squared row norms of the factored columns
        self._grow(0, self._buf.dtype)

    U = property(lambda self: self._buf[: self._k, : self._k])
    mult = property(lambda self: self._mult[: max(self._k - 1, 0)])
    swap = property(lambda self: self._swap[: max(self._k - 1, 0)])
    pivots = property(lambda self: self._pivots[: self._k])
    row_norms = property(lambda self: self._row_norms[: self._k])

    def _grow(self, size: int, dtype):
        """Move U and every array to buffers of capacity ``size``, U and
        the typed arrays in ``dtype`` (the factor's)."""
        k0 = self._k
        buf = np.zeros((size, size), dtype=dtype)
        buf[:k0, :k0] = self.U
        self._buf = buf
        for name, kind in [(name, dtype) for name in self._TYPED] + list(self._FIXED):
            grown = np.zeros(size, dtype=kind)
            if k0:
                grown[:k0] = getattr(self, name)[:k0]
            setattr(self, name, grown)

    def extend(self, H: np.ndarray, K: int):
        """Factor the leading K columns of H (at least K rows): the new
        columns take the earlier steps, then the steps go on, and the per-k
        arrays are carried on from entry k0-1 by one accumulation each."""
        k0 = self._k
        if K <= k0:
            return
        dtype = np.result_type(self._buf, H)
        if K > self._buf.shape[0] or dtype != self._buf.dtype:
            self._grow(min(max(K, 2 * self._buf.shape[0]), H.shape[1]), dtype)
        U = self._buf
        U[:K, k0:K] = H[:K, k0:K]
        if k0:
            U[k0, k0 - 1] = H[k0, k0 - 1]
        self._extend_row_norms(H, k0, K)
        for j in range(k0 - 1):
            self._step(U, j, k0, K)
        for j in range(max(k0 - 1, 0), K - 1):
            if j >= k0:
                self._pivots[j] = U[j, j]
            top, low = U[j, j], U[j + 1, j]
            swap = bool(abs(low) > abs(top))
            top, low = (low, top) if swap else (top, low)
            self._swap[j] = swap
            self._mult[j] = low / top if top != 0.0 else 0.0
            self._step(U, j, j, K)
        self._pivots[K - 1] = U[K - 1, K - 1]
        self._k = K
        if k0 == 0:
            self._lo[0], self._hi[0], self._log_ratio[0], self._phase[0] = np.inf, 0.0, 0.0, 1.0
        # entries s..K-1 from u_ii, i = s-1..K-2; step i leaves |u_ii / h_{i+1,i}|
        # = 1 after a swap and 1/|mult_i| otherwise
        s = max(k0, 1)
        d, swap = np.diagonal(U)[s - 1 : K - 1], self._swap[s - 1 : K - 1]
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero pivot: singular
            self._lo[s:K] = self._hi[s:K] = np.abs(d)
            self._log_ratio[s:K] = np.where(swap, 0.0, -np.log(np.abs(self._mult[s - 1 : K - 1])))
            self._phase[s:K] = d / np.abs(d)
            self._parity[s:K] = swap
            for ufunc, table in ((np.minimum, self._lo), (np.maximum, self._hi),
                                 (np.add, self._log_ratio), (np.multiply, self._phase),
                                 (np.logical_xor, self._parity)):
                ufunc.accumulate(table[s - 1 : K], out=table[s - 1 : K])

    def _step(self, U: np.ndarray, j: int, lo: int, hi: int):
        """Pivot step j on columns lo:hi: rows j and j+1 swap when
        ``swap[j]``, then row j+1 loses mult[j] times row j."""
        top, low = U[j, lo:hi], U[j + 1, lo:hi]
        if self._swap[j]:
            new_low = top - self._mult[j] * low
            top[:] = low
            low[:] = new_low
        else:
            low -= self._mult[j] * top

    def _extend_row_norms(self, H: np.ndarray, k0: int, K: int):
        """Fill the largest row norm of H_k for k = k0+1..K, carrying the
        squared row norms of the columns before k0."""
        rows = min(K + 1, H.shape[0])
        sq = np.cumsum(np.abs(H[:rows, k0:K]) ** 2, axis=1)
        sq[: self._row_sq.size] += self._row_sq[:rows, None]
        in_block = np.arange(rows)[:, None] < np.arange(k0 + 1, K + 1)  # row i of H_k: i < k
        self._row_norms[k0:K] = np.sqrt(np.max(np.where(in_block, sq, 0.0), axis=0))
        self._row_sq = sq[:, -1]

    def _pivots_of(self, ks: np.ndarray):
        """(lo, hi, pivot k) for each k in ks: lo and hi are the smallest
        and largest |d| over the factor diagonal d of H_k (the first k-1
        diagonal entries of U, then pivot k)."""
        p = self._pivots[ks - 1]
        return np.minimum(self._lo[ks - 1], np.abs(p)), np.maximum(self._hi[ks - 1], np.abs(p)), p

    def log_det_ratios(self, ks, exempt=False):
        """For each k in ks (ascending): log|det H_k| - sum_{i<k}
        log|h_{i+1,i}| and the unit-modulus phase of det H_k.  Raises
        SingularProjectedMatrix when the smallest |pivot| of an H_k not
        ``exempt`` is at most 1e-14 times its largest.

        The first is the cumulative sum of log|u_ii / h_{i+1,i}| (each at
        least 0, so no difference of two sums of about 10^4 at k ~ 1000)
        plus log|pivot k|; the sign of the row swaps is their parity."""
        ks = np.asarray(ks)
        lo, hi, p = self._pivots_of(ks)
        if np.any((lo <= 1e-14 * hi) & ~np.asarray(exempt)):
            raise SingularProjectedMatrix("projected matrix is numerically singular")
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero pivot: singular
            ratio = self._log_ratio[ks - 1] + np.log(np.abs(p))
            phase = self._phase[ks - 1] * (p / np.abs(p))
        return ratio, np.where(self._parity[ks - 1], -phase, phase)

    def solve_e1(self, ks, scale: float, order: int | None = None) -> np.ndarray:
        """The K x m array whose column j is y with H_k y = scale e_1 for
        k = ks[j] (ascending), zero below row k, from one triangular solve
        (LAPACK ?trtrs on U's buffer, in place) with U_{K-1}, K = ``order``
        (at least ks[-1], the default).  Raises SingularMatrix when a pivot
        of some H_k is at most ``linalg.PIVOT_RTOL`` times the largest row
        norm of H_k."""
        ks = np.asarray(ks)
        K, m = order or int(ks[-1]), ks.size
        lo, _, p = self._pivots_of(ks)
        if np.any(lo <= linalg.PIVOT_RTOL * self._row_norms[ks - 1]):
            raise SingularMatrix("pivot below threshold; matrix is numerically singular")
        # the steps carry scale e_1 down; row j keeps the carry unless swapped
        swap = self._swap[: K - 1]
        carry = np.cumprod(np.append(scale, np.where(swap, 1.0, -self._mult[: K - 1])))
        last = carry[ks - 1] / p  # row k-1 of each y
        rhs = np.where(swap, 0.0, carry[:-1])[:, None] - self._buf[: K - 1, ks - 1] * last
        y = np.zeros((K, m), dtype=np.result_type(rhs, last))
        if K > 1:  # rows at or below k-1 of column j are zero, and stay zero
            # the rows of the C-ordered buffer are the columns of Uᵀ, read
            # in Fortran order with the capacity as leading dimension
            trtrs = sla.lapack.ztrtrs if np.iscomplexobj(self._buf) else sla.lapack.dtrtrs
            y[:-1], info = trtrs(self._buf[: K - 1].T,
                                 np.where(np.arange(K - 1)[:, None] < ks - 1, rhs, 0.0),
                                 lower=1, trans=1)
            if info:
                raise SingularMatrix("zero pivot in the Hessenberg factor")
        y[ks - 1, np.arange(m)] = last
        return y


def _readonly(a: np.ndarray) -> np.ndarray:
    v = a.view()
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class ArnoldiDecomposition:
    """Snapshot of an Arnoldi decomposition after k steps.

    Satisfies M Q_k = Q_k H_k + h_{k+1,k} q_{k+1} e_kᵀ with q_1 = b/||b||.
    On breakdown the basis has k columns (no q_{k+1}) and subdiag is the
    vanishing h_{k+1,k}.
    """

    b_norm: float
    k: int
    breakdown: bool
    _ws: _Workspace = field(repr=False)

    @property
    def n(self) -> int:
        return self._ws.Q.shape[0]

    @property
    def basis(self) -> np.ndarray:
        """All stored basis vectors: n x (k+1), or n x k after breakdown."""
        return _readonly(self._ws.Q[:, : self.k + (not self.breakdown)])

    @property
    def basis_k(self) -> np.ndarray:
        """The projection basis Q_k (first k columns)."""
        return _readonly(self._ws.Q[:, : self.k])

    @property
    def next_vector(self) -> np.ndarray:
        """q_{k+1}, the residual direction (absent after breakdown)."""
        if self.breakdown:
            raise DomainError("no q_{k+1} exists after a breakdown")
        return _readonly(self._ws.Q[:, self.k])

    @property
    def hessenberg(self) -> np.ndarray:
        """The k x k upper Hessenberg projection H_k."""
        return _readonly(self._ws.H[: self.k, : self.k])

    @property
    def subdiag(self) -> float:
        """h_{k+1,k} (zero or tiny at breakdown)."""
        if self.k == 0:
            return 0.0
        return float(abs(self._ws.H[self.k, self.k - 1]))

    @property
    def subdiagonals(self) -> np.ndarray:
        """h_{j+1,j} for j = 1..k as a real vector."""
        return np.abs(np.diagonal(self._ws.H, -1)[: self.k])

    def prefix(self, k: int) -> "ArnoldiDecomposition":
        """Snapshot of the first k steps (buffers are append-only, so the
        prefix shares storage with this decomposition)."""
        if not 1 <= k <= self.k:
            raise DomainError(f"prefix wants 1 <= k <= {self.k}, got {k}")
        if k == self.k:
            return self
        return ArnoldiDecomposition(b_norm=self.b_norm, k=k, breakdown=False, _ws=self._ws)

    @property
    def bendixson_order(self) -> int:
        """:func:`linalg.bendixson_order` of H_k, kept on the storage this
        snapshot shares: one ?potrf of the largest H built answers every
        prefix up to its order."""
        return self._ws.bendixson_order(self.k)

    @functools.cached_property
    def ritz(self) -> linalg.RitzSpectrum:
        """Ritz values of H_k, computed once per snapshot; they carry the
        Schur form when :attr:`ritz_schur` was computed first."""
        return linalg.hessenberg_eigenvalues(self.hessenberg)

    @functools.cached_property
    def ritz_schur(self) -> linalg.RitzSpectrum:
        """Ritz values with the Schur form (T, Z) of H_k, computed once per
        snapshot; a later :attr:`ritz` reads them instead of a new solve."""
        spec = linalg.hessenberg_eigenvalues(self.hessenberg, schur=True)
        self.__dict__.setdefault("ritz", spec)
        return spec


def arnoldi_start(b, capacity: int = 32) -> ArnoldiDecomposition:
    """Zero-step decomposition seeded with q_1 = b/||b||."""
    b = np.asarray(b)
    if b.ndim != 1 or b.shape[0] < 1:
        raise DimensionMismatch("b must be a nonempty vector")
    if not np.all(np.isfinite(np.abs(b))):
        raise NonFiniteEntry("b contains NaN/Inf")
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        raise DomainError("b must be nonzero")
    dtype = np.complex128 if np.iscomplexobj(b) else np.float64
    ws = _Workspace((b / b_norm).astype(dtype), capacity)
    return ArnoldiDecomposition(b_norm=b_norm, k=0, breakdown=False, _ws=ws)


def arnoldi_extend(apply_M, state: ArnoldiDecomposition, steps: int) -> ArnoldiDecomposition:
    """Extend a decomposition by ``steps`` iterations of classical
    Gram-Schmidt applied twice (CGS2).

    Stops early with the breakdown flag set when h_{j+1,j} falls at or
    below BREAKDOWN_RTOL * ||M q_j||.  Only the newest snapshot of a
    decomposition can be extended (any older one raises DomainError); it
    stays valid, and the returned snapshot reflects the extended state.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if state.breakdown:
        return state
    op = linalg.as_operator(apply_M)
    n = op.shape[0]
    if n != state.n:
        raise DimensionMismatch(f"operator dimension {n} != basis dimension {state.n}")

    ws = state._ws
    if ws.k != state.k:
        raise DomainError(f"only the newest snapshot (k = {ws.k}) of a decomposition can be "
                          f"extended, not the one at k = {state.k}")
    needed = state.k + steps
    if needed > ws.capacity:
        ws.grow(max(needed, min(2 * ws.capacity, n)))  # no more than n steps exist

    Q, H = ws.Q, ws.H
    breakdown = False
    j = state.k
    for _ in range(steps):
        w = np.asarray(op.matvec(Q[:, j].copy()))
        if w.shape != (state.n,):
            raise DimensionMismatch("operator returned a vector of wrong shape")
        if not np.all(np.isfinite(np.abs(w))):
            raise NonFiniteEntry("operator returned NaN/Inf")
        if np.iscomplexobj(w) and not np.iscomplexobj(Q):
            ws.promote_complex()
            Q, H = ws.Q, ws.H
        w = w.astype(Q.dtype, copy=True)
        w_scale = np.linalg.norm(w)
        basis = Q[:, : j + 1]
        for _ in range(2):
            c = (w.conj() @ basis).conj()  # basis^H w
            H[: j + 1, j] += c
            w -= basis @ c
        h_next = np.linalg.norm(w)
        H[j + 1, j] = h_next
        j += 1
        if h_next <= BREAKDOWN_RTOL * w_scale:
            breakdown = True
            break
        Q[:, j] = w / h_next

    ws.k = j
    return ArnoldiDecomposition(b_norm=state.b_norm, k=j, breakdown=breakdown, _ws=ws)


def arnoldi(M, b, steps: int) -> ArnoldiDecomposition:
    """Run ``steps`` Arnoldi iterations from scratch."""
    state = arnoldi_start(b, capacity=steps)
    return arnoldi_extend(M, state, steps)


def _shifted_invsqrt_e1(h: np.ndarray, log_det_ratio: float) -> np.ndarray:
    """H^{-1/2} e_1 = (1/pi) int_0^inf s^{-1/2} (H + sI)^{-1} e_1 ds, with
    the shifted solves of :func:`bounds.shifted_solve_e1`, over s = c x^3:
    c = |det H|^{1/k} (``log_det_ratio`` = log|det H| - sum_i
    log|h_{i+1,i}|, see :meth:`_HessenbergLU.log_det_ratios`) centres the integrand
    3 sqrt(c x) (H + c x^3 I)^{-1} e_1 on the eigenvalues' geometric mean
    (Hale, Higham and Trefethen, SINUM 2008).  A missed tolerance raises
    NoConvergence."""
    c = np.exp((log_det_ratio + np.log(np.abs(np.diagonal(h, -1))).sum()) / h.shape[0])
    q = bnd.quad_semi_infinite(lambda x: 3.0 * np.sqrt(c * x) * bnd.shifted_solve_e1(h, c * x**3),
                               SHIFTED_ACTION_QUAD)
    if not q.tolerance_met:
        raise NoConvergence(f"shifted-solve action missed its tolerance (estimated error "
                            f"{q.estimated_error:.3e} on norm {np.linalg.norm(q.value):.6e})")
    return q.value / np.pi


def fun_coefficients(decomp: ArnoldiDecomposition, f: str = "sqrt") -> np.ndarray:
    """The k-vector ||b|| f(H_k) e_1 of :func:`arnoldi_fun_action`.

    The inverse comes from the Hessenberg LU factor.  For the square roots
    of an H_k of order above ``SHIFTED_ACTION_MIN_K`` whose Hermitian part
    is positive definite (:attr:`ArnoldiDecomposition.bendixson_order`),
    H_k^{-1/2} e_1 is the quadrature of shifted solves
    (:func:`_shifted_invsqrt_e1`), O(k^2) per node, and H_k^{1/2} e_1 is
    H_k times it.  The certificate keeps every H_k + sI nonsingular, with
    ||(H_k + sI)^{-1}|| <= 1/(mu + s) for mu the smallest eigenvalue of the
    Hermitian part.  Any other H_k takes one Schur form with vectors
    (``decomp.ritz_schur``) and the square root of its triangular factor,
    O(k^3), which raises SpectrumOnBranchCut for an eigenvalue on the
    closed negative real axis.
    """
    if decomp.k == 0:
        raise DomainError("decomposition has no completed steps")
    if f == "inverse":
        return decomp._ws.factor().solve_e1([decomp.k], decomp.b_norm)[:, 0]
    if f not in ("sqrt", "invsqrt"):
        raise DomainError(f"unknown function tag {f!r}")
    h = decomp.hessenberg
    if decomp.k > SHIFTED_ACTION_MIN_K and decomp.bendixson_order == decomp.k:
        log_det_ratio = decomp._ws.factor().log_det_ratios([decomp.k])[0][0]
        y = decomp.b_norm * _shifted_invsqrt_e1(h, log_det_ratio)
        return h @ y if f == "sqrt" else y
    spec = decomp.ritz_schur
    t, z = spec.schur
    s = linalg.schur_sqrt(t, spec.values)
    e = decomp.b_norm * z[0].conj()  # Zᴴ (||b|| e_1)
    return z @ (s @ e if f == "sqrt" else linalg.lu_solve(s, e))


def _coefficients(subs: list, f: str) -> np.ndarray:
    """The K x m array whose column j is ||b|| f(H_k) e_1 of the snapshot
    subs[j] (ascending k, all of one decomposition), zero below row k, K
    the largest k.  Columns are computed once per k and f for all prefix
    snapshots: the missing inverse ones from one triangular solve of order
    K (:meth:`_HessenbergLU.solve_e1`; BLAS rounds a zero-padded order
    apart, so the order is the list's, not that of the missing ks), any
    other from :func:`fun_coefficients`."""
    if subs[0].k == 0:
        raise DomainError("decomposition has no completed steps")
    ws = subs[-1]._ws
    cache = ws.coefficients
    missing = [sub for sub in subs if (sub.k, f) not in cache]
    if f != "inverse":
        for sub in missing:
            cache[sub.k, f] = fun_coefficients(sub, f)
    elif missing:
        y = ws.factor().solve_e1([sub.k for sub in missing], subs[-1].b_norm, subs[-1].k)
        cache.update(((sub.k, f), y[: sub.k, j]) for j, sub in enumerate(missing))
    columns = [cache[sub.k, f] for sub in subs]
    out = np.zeros((subs[-1].k, len(subs)), dtype=np.result_type(*columns))
    for j, c in enumerate(columns):
        out[: c.size, j] = c
    return out


def _distances(subs: list, target, f: str) -> list:
    """||target - ||b|| Q_k f(H_k) e_1|| for each snapshot in ``subs``
    (ascending k): the actions are one product of Q_K, K the largest k,
    with the coefficient columns, an n x m temporary no larger than Q_K."""
    diff = np.asarray(target)[:, None] - subs[-1].basis_k @ _coefficients(subs, f)
    return [float(np.linalg.norm(col)) for col in diff.T]


def arnoldi_fun_action(decomp: ArnoldiDecomposition, f: str = "sqrt") -> np.ndarray:
    """The Arnoldi approximation ||b|| Q_k f(H_k) e_1.

    f is one of ``sqrt`` (principal square root), ``invsqrt``, or
    ``inverse`` (the FOM iterate for M x = b).  The square roots of a
    large H_k with a positive definite Hermitian part come from a
    quadrature of shifted Hessenberg solves, any other from a Schur form
    (see :func:`fun_coefficients`), once per k and f for all prefix snapshots.
    """
    return decomp.basis_k @ _coefficients([decomp], f)[:, 0]


def _residuals(decomp: ArnoldiDecomposition, ks):
    """FOM residual norms and coefficients at each k in ks (ascending) by
    the determinant formula: the residual for M x = b at step k is
    coefficient * q_{k+1} with coefficient
    = (-1)^k (prod_j h_{j+1,j}) ||b|| / det(H_k), accumulated in log
    space as h_{k+1,k} ||b|| over the ratio form of log|det H_k|.  A zero
    subdiagonal up to h_{k+1,k} gives residual 0."""
    ks = np.asarray(ks)
    subs = decomp.subdiagonals
    zero = np.logical_or.accumulate(subs == 0.0)[ks - 1]
    ratio, phase = decomp._ws.factor().log_det_ratios(ks, exempt=zero)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = (-1.0) ** ks * np.exp(np.log(subs[ks - 1]) + np.log(decomp.b_norm) - ratio)
        coef = np.where(zero, 0.0, coef * np.conj(phase))
    return np.abs(coef), coef


def fom_residual_norm(decomp: ArnoldiDecomposition):
    """FOM residual via the determinant formula; returns (norm, coefficient).

    The residual for M x = b at step k is coefficient * q_{k+1} with
    coefficient = (-1)^k (prod_j h_{j+1,j}) ||b|| / det(H_k); the products
    are accumulated in log space.  The one-k case of the residuals of
    :func:`fom_reports`.
    """
    if decomp.k == 0:
        raise DomainError("decomposition has no completed steps")
    norm, coef = _residuals(decomp, [decomp.k])
    return float(norm[0]), complex(coef[0])


def fom_iterate(decomp: ArnoldiDecomposition) -> np.ndarray:
    """The FOM approximation to M⁻¹ b at the current step."""
    return arnoldi_fun_action(decomp, "inverse")


def fom_error(decomp: ArnoldiDecomposition, x_exact) -> float:
    """||xi_0^k|| = ||x_exact - x_FOM|| for a precomputed x_exact = M⁻¹ b.

    This is the FOM error norm that enters every square-root bound; it
    costs one O(k²) solve with the shared Hessenberg LU factor and one
    basis product, no Ritz values.  The one-k case of the errors of
    :func:`fom_reports`.
    """
    return _distances([decomp], x_exact, "inverse")[0]


def fom_error_surrogate(decomp: ArnoldiDecomposition, min_sym_eig: float | None = None) -> float:
    """Solve-free stand-in for ||xi_0^k||, from the residual alone.

    With ``min_sym_eig`` = smallest eigenvalue mu of the Hermitian part of
    M, returns ||r_0^k||/mu, a valid upper bound (||M^-1|| <= 1/mu for
    positive definite M).  Without it, returns the bare residual norm,
    which is NOT certified: it can undershoot the true error by the
    conditioning of M.  Prefer :func:`fom_error` wherever an exact solve
    is affordable.
    """
    norm, _ = fom_residual_norm(decomp)
    if min_sym_eig is not None:
        if min_sym_eig <= 0:
            raise DomainError("min_sym_eig must be positive")
        return norm / min_sym_eig
    return norm


def _reports(subs: list, x_exact, reference, f: str) -> list:
    """The bound-free BoundReports of the snapshots ``subs`` (ascending k)
    of one decomposition.  On any failure the snapshots are retried one
    at a time, so the error raised is the one of the smallest failing k."""
    try:
        errors = ([None] * len(subs) if reference is None
                  else _distances(subs, reference, f))
        residuals = _residuals(subs[-1], [sub.k for sub in subs])[0]
        xis = _distances(subs, x_exact, "inverse")
    except KrylovSqrtError:
        if len(subs) > 1:
            for sub in subs:
                _reports([sub], x_exact, reference, f)
        raise
    return [bnd.BoundReport(sub.k, float(r), xi, e)
            for sub, r, xi, e in zip(subs, residuals, xis, errors)]


def _prefix_snapshots(decomp: ArnoldiDecomposition, ks, x_exact, reference, f):
    """(the bound-free reports of ks in their order, the snapshot of each k).
    An ``x_exact`` or ``reference`` that is not an n-vector raises
    DimensionMismatch."""
    for name, v in (("x_exact", x_exact), ("reference", reference)):
        if v is not None and np.shape(v) != (decomp.n,):
            raise DimensionMismatch(f"{name} must be a vector of length {decomp.n}, "
                                    f"got shape {np.shape(v)}")
    subs = {k: decomp.prefix(k) for k in sorted({int(k) for k in ks})}
    rows = dict(zip(subs, _reports(list(subs.values()), x_exact, reference, f))) if subs else {}
    return [rows[int(k)] for k in ks], subs


def fom_reports(decomp: ArnoldiDecomposition, ks, x_exact, reference=None,
                f: str = "sqrt") -> list:
    """The BoundReports of the prefixes k in ``ks`` without bounds: the FOM
    residual, the FOM error xi against ``x_exact`` and, with a
    ``reference`` action, the true error of the f-action.

    One pass over the kept Hessenberg LU factor serves every k: the
    residuals are cumulative sums over its pivots
    (:meth:`_HessenbergLU.log_det_ratios`), the FOM coefficients one
    triangular solve, and xi and the error one product with Q_K each, K
    the largest k of the list.  The f-action coefficients are computed
    once per k and f (see :func:`arnoldi_fun_action`).  A failure raises
    the error of the smallest failing k, as the list of that k alone would.
    """
    return _prefix_snapshots(decomp, ks, x_exact, reference, f)[0]


def prefix_reports(decomp: ArnoldiDecomposition, ks, x_exact, sigma_max_used: float | None,
                   quad_cfg=None, hermitian: bool = False, known_spectrum=None,
                   reference=None, f: str = "sqrt") -> list:
    """BoundReports for the prefixes k in ``ks`` of an Arnoldi decomposition.

    The residuals and errors are those of :func:`fom_reports`, the bounds
    come from the Ritz values of each H_k (the Schur form's, when the
    action made one).  The bound fields bound the sqrt action only: for
    any other ``f`` they stay None, with no Ritz solve or quadrature.  The
    bound integrals of all prefixes are one batch of adaptive quadratures
    (:func:`bounds.build_bound_report`), as many passes as the hardest.
    """
    reports, subs = _prefix_snapshots(decomp, ks, x_exact, reference, f)
    if f != "sqrt":
        return [replace(rep, sigma_max_used=sigma_max_used) for rep in reports]
    return bnd.build_bound_report(reports, [subs[int(k)].ritz for k in ks], sigma_max_used,
                                  quad_cfg, hermitian, known_spectrum)


# ---------------------------------------------------------------------------
# stopping


# Guided probes allowed to leave the search open before every other probe
# becomes a plain bisection step (keeps the worst case at O(log k) probes).
GUIDED_PROBES = 3
# The decomposition grows toward a checkpoint in chunks of 1/GROWTH_CHUNKS of
# the open interval below it, and stops growing once the guide puts the
# crossing inside what is built.
GROWTH_CHUNKS = 8


def _require_tol(tol: float) -> None:
    if not tol > 0:  # NaN fails too
        raise DomainError(f"the stopping tolerance must be positive, got {tol!r}")


def find_stop_k(M, b, tol: float, *, quad_cfg: bnd.QuadratureConfig | None = None,
                k_max: int | None = None):
    """First k with the a posteriori Ritz-product bound <= tol on one
    growing decomposition, located by probes that the cheap FOM error
    guides; the driver of every bound stop.  The modulus and a priori
    bounds lie above it on every certified prefix, so a stop on them would
    come later and certify nothing more.

    The bound is xi_k * C_k: xi_k = ||x_exact - x_FOM|| costs one O(k²)
    solve with the shared Hessenberg LU factor, while C_k (the bound
    integral over pi) costs a quadrature and drifts slowly with k.  Each
    probe evaluates the true bound at one k and records C = bound/xi there.

    A probe takes the integral from determinants of the shifted H_k,
    O(k²) per node (:func:`bounds.bound_posterior_det`), which cannot see
    whether every Ritz value lies in the open right half-plane, as the
    bound needs.  A probe above the order certified so far runs one
    Cholesky factorization of H_K + H_Kᴴ for the whole decomposition built
    (:attr:`ArnoldiDecomposition.bendixson_order`), which certifies every
    k up to the largest order whose leading block is positive definite,
    and the action at k_stop reads the same certificate.  A probe above
    that order computes the Ritz values for the check, and InvalidSpectrum
    is raised as by :func:`bounds.bound_posterior_ritz`.

    - Checkpoints double (2, 4, 8, ..., the cap) until a probe is <= tol.
      The decomposition grows toward the checkpoint in chunks of
      1/GROWTH_CHUNKS of the open interval below it.  While guided probes
      are allowed, it stops growing as soon as xi(top built) * C <= tol,
      and the probe goes to the guided point instead of the checkpoint.
    - The guided point is the first k in the bracket with xi(k) * C <= tol,
      found by bisection on xi alone and kept strictly inside a verified
      bracket.
    - After GUIDED_PROBES guided probes that leave the search open, every
      other probe is the bracket midpoint (or the checkpoint, built in
      full), so the worst case stays at O(log k) probes.

    The result is an exact crossing: the bound is <= tol at k_stop and
    > tol at k_stop - 1 (or k_stop = 1).  A happy breakdown at step k
    counts as a crossing with bound 0 at k (the action is exact there),
    so the bracket below it is still searched.  Equivalent to checking
    every k whenever the bound crosses tol once.  When no k up to the cap,
    min(k_max, n) (n when k_max is None), reaches tol, returns the cap and
    the bound there; a k_max below 2 raises DomainError.

    Returns (state, k_stop, bound_at_stop, x_exact); the action at k_stop
    is ``arnoldi_fun_action(state.prefix(k_stop))``.
    """
    _require_tol(tol)
    if k_max is not None and k_max < 2:
        raise DomainError("k_max must be >= 2")
    op = linalg.as_operator(M)
    n = op.shape[0]
    k_cap = n if k_max is None else min(k_max, n)
    x_exact = op.solve(b)

    state = arnoldi_start(b, capacity=min(64, k_cap))

    @functools.cache
    def xi(k: int) -> float:
        return fom_error(state.prefix(k), x_exact)

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
        may_guide = scale is not None and (misses < GUIDED_PROBES or not was_guided)
        was_guided = False
        if k_hi is None:
            chunk = max(1, (k_top - k_lo) // GROWTH_CHUNKS)
            while state.k < k_top and not (
                    may_guide and state.k > k_lo and xi(state.k) * scale <= tol):
                state = arnoldi_extend(op, state, min(chunk, k_top - state.k))
                if state.breakdown:
                    break
            if state.breakdown:
                k_hi, val_hi = state.k, 0.0
                continue
            k = state.k  # the checkpoint, unless the guide stopped the growth
            if may_guide and xi(k) * scale <= tol:
                k, was_guided = guided(k_lo, k), True
        elif may_guide:
            k, was_guided = min(guided(k_lo, k_hi), k_hi - 1), True
        else:
            k = (k_lo + k_hi) // 2

        sub = state.prefix(k)
        if sub.bendixson_order < k:
            bnd.require_right_half_plane(sub.ritz.values)
        val = bnd.bound_posterior_det(sub.hessenberg, xi(k), quad_cfg,
                                      sub._ws.factor().log_det_ratios([k])[0][0])
        if xi(k) > 0.0:
            scale = val / xi(k)
        if val <= tol:
            k_hi, val_hi = k, val
        else:
            k_lo = k
            if k == k_top and k_hi is None:
                if k_top >= k_cap:
                    k_hi, val_hi = state.k, val  # budget exhausted
                    break
                k_top = min(2 * k_top, k_cap)
        misses += was_guided
    return state, k_hi, val_hi, x_exact


@dataclass(frozen=True)
class ResidualRelative:
    """Stop when ||r_0^k|| / ||b|| <= tol."""

    tol: float

    def __post_init__(self):
        _require_tol(self.tol)


@dataclass(frozen=True)
class BoundAbsolute:
    """Stop at the first k whose a posteriori Ritz-product bound is <= tol
    (:func:`find_stop_k`); the bound diverges at k = 1."""

    tol: float

    def __post_init__(self):
        _require_tol(self.tol)


# The true-error oracle of each f: the reference action f(M) b.
_ORACLES = {"sqrt": linalg.reference_sqrt_action, "invsqrt": linalg.reference_invsqrt_action,
            "inverse": lambda op, b: op.solve(b)}


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of an adaptive run.

    ``converged`` is False when k_max was exhausted before the stopping
    rule fired (the result vector is still the k_max approximation).
    """

    result: np.ndarray
    history: list
    k: int
    converged: bool
    breakdown: bool


def run_adaptive(
    M,
    b,
    f: str = "sqrt",
    stop=None,
    k_max: int = 100,
    quad_cfg=None,
    check_every: int = 1,
    error_oracle: bool = False,
) -> AdaptiveResult:
    """The action f(M) b at the first k where the stopping rule holds, with
    a BoundReport history.

    A ``BoundAbsolute`` rule runs :func:`find_stop_k`, with no Ritz solve
    per step; ``f`` other than ``sqrt`` (the bounds bound the sqrt action)
    or ``check_every`` other than 1 raises DomainError.  Its history is the
    :func:`fom_reports` row of k with ``posterior_ritz`` set to the
    value the search compared with tol (0 at a happy breakdown); every
    other bound field is None.  A ``ResidualRelative`` rule extends Arnoldi
    ``check_every`` steps at a time and stops on the FOM residual alone; a
    happy breakdown stops it, the action being exact on the invariant
    subspace.  Its history reports every checked k, built after the loop
    by :func:`prefix_reports` (one batch of bound quadratures).  Neither
    stop computes sigma_max, so ``apriori_gamma``, ``sigma_max_used`` and
    the Hermitian fields stay None.

    M must have an exact solve (dense or tridiagonal) because the bounds
    consume the exact FOM error norm; a matvec-only operator raises
    UnsupportedContext.  The true error of ``error_oracle``, in both
    rules, is against one reference action computed before the run:
    :func:`linalg.reference_sqrt_action` for ``sqrt``,
    :func:`linalg.reference_invsqrt_action` for ``invsqrt`` (closed form
    for tridiagonal Toeplitz M, else dense at desk scale) and the exact
    solve for ``inverse``.
    """
    stop = stop if stop is not None else ResidualRelative(1e-2)
    if k_max < 2:
        raise DomainError("k_max must be >= 2")
    if check_every < 1:
        raise DomainError("check_every must be >= 1")
    if f not in _ORACLES:
        raise DomainError(f"unknown function tag {f!r}")
    if isinstance(stop, BoundAbsolute):
        if f != "sqrt":
            raise DomainError(f"the stopping bounds bound the sqrt action, not f = {f!r}")
        if check_every != 1:
            raise DomainError("check_every applies to a residual stop; a bound stop "
                              "probes the k it needs")
    elif not isinstance(stop, ResidualRelative):
        raise DomainError(f"unknown stopping rule {stop!r}")
    op = linalg.as_operator(M)
    k_max = min(k_max, op.shape[0])
    rhs = np.asarray(b, dtype=np.complex128 if np.iscomplexobj(b) else np.float64)
    reference = _ORACLES[f](op, rhs) if error_oracle else None

    if isinstance(stop, BoundAbsolute):
        state, k, bound, x_exact = find_stop_k(op, rhs, stop.tol, quad_cfg=quad_cfg,
                                               k_max=k_max)
        state = state.prefix(k)
        report = replace(fom_reports(state, [k], x_exact, reference)[0], posterior_ritz=bound)
        return AdaptiveResult(result=arnoldi_fun_action(state, f), history=[report], k=k,
                              converged=bound <= stop.tol, breakdown=state.breakdown)

    x_exact = op.solve(rhs)
    state = arnoldi_start(rhs, capacity=min(k_max, 256))
    checked: list = []
    converged = False
    while not converged and state.k < k_max:
        state = arnoldi_extend(op, state, min(check_every, k_max - state.k))
        checked.append(state.k)
        converged = state.breakdown or fom_residual_norm(state)[0] / state.b_norm <= stop.tol
    # the action first: a Schur form it computes gives the last row its Ritz values
    result = arnoldi_fun_action(state, f)
    history = prefix_reports(state, checked, x_exact, None, quad_cfg, reference=reference, f=f)
    return AdaptiveResult(result=result, history=history, k=state.k,
                          converged=converged, breakdown=state.breakdown)
