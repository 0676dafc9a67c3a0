"""Arnoldi process, matrix-function actions, and FOM quantities.

Every step orthogonalizes twice with classical Gram-Schmidt (CGS2); the
second pass removes what rounding left of the first, so the basis stays
orthogonal to working precision and a happy breakdown shows as an
h_{j+1,j} at rounding level.  Between
extension calls a decomposition behaves like an immutable value: the
exposed basis/Hessenberg arrays are read-only views, extension never
rewrites completed columns, and extending a stale snapshot transparently
copies the underlying buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bounds as bnd
from . import linalg
from .errors import (
    DimensionMismatch,
    DomainError,
    NonFiniteEntry,
    SingularMatrix,
    SingularProjectedMatrix,
    SingularShift,
)

# h_{j+1,j} at or below this fraction of ||M q_j|| is a happy breakdown.
BREAKDOWN_RTOL = 1e-14


class _Workspace:
    """Growable append-only storage for the basis and Hessenberg matrix."""

    def __init__(self, q1: np.ndarray, capacity: int):
        n = q1.shape[0]
        capacity = max(capacity, 1)
        self.Q = np.zeros((n, capacity + 1), dtype=q1.dtype)
        self.H = np.zeros((capacity + 1, capacity), dtype=q1.dtype)
        self.Q[:, 0] = q1
        self.k = 0          # completed Arnoldi steps
        self.ncols = 1      # stored basis columns
        self.breakdown = False

    @property
    def capacity(self) -> int:
        return self.H.shape[1]

    def grow(self, capacity: int):
        if capacity <= self.capacity:
            return
        Q = np.zeros((self.Q.shape[0], capacity + 1), dtype=self.Q.dtype)
        H = np.zeros((capacity + 1, capacity), dtype=self.H.dtype)
        Q[:, : self.ncols] = self.Q[:, : self.ncols]
        H[: self.k + 1, : self.k] = self.H[: self.k + 1, : self.k]
        self.Q, self.H = Q, H

    def promote_complex(self):
        if not np.iscomplexobj(self.Q):
            self.Q = self.Q.astype(np.complex128)
            self.H = self.H.astype(np.complex128)

    def clone_at(self, k: int, ncols: int) -> "_Workspace":
        ws = _Workspace.__new__(_Workspace)
        ws.Q = self.Q[:, : max(ncols, 1)].copy()
        ws.H = self.H[: k + 1, :k].copy()
        ws.k = k
        ws.ncols = ncols
        ws.breakdown = False
        return ws


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
    _ncols: int = field(repr=False)

    @property
    def n(self) -> int:
        return self._ws.Q.shape[0]

    @property
    def basis(self) -> np.ndarray:
        """All stored basis vectors: n x (k+1), or n x k after breakdown."""
        return _readonly(self._ws.Q[:, : self._ncols])

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
        h = self._ws.H
        return np.array([abs(h[j + 1, j]) for j in range(self.k)])

    def prefix(self, k: int) -> "ArnoldiDecomposition":
        """Snapshot of the first k steps (buffers are append-only, so the
        prefix shares storage with this decomposition)."""
        if not 1 <= k <= self.k:
            raise DomainError(f"prefix wants 1 <= k <= {self.k}, got {k}")
        if k == self.k:
            return self
        return ArnoldiDecomposition(
            b_norm=self.b_norm, k=k, breakdown=False, _ws=self._ws, _ncols=k + 1
        )


def as_operator(M):
    """Normalize a matrix-like object or callable to (matvec, n).

    Accepts DenseMatrix, ndarray, banded matrices with ``matvec``, or a
    bare callable paired with an explicit dimension via (callable, n).
    """
    if isinstance(M, tuple) and len(M) == 2 and callable(M[0]):
        return M[0], int(M[1])
    if hasattr(M, "matvec"):
        return M.matvec, M.shape[0]
    if callable(M):
        raise DimensionMismatch("bare callables must be passed as (callable, n)")
    a = linalg.as_array(M)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"operator must be square, got shape {a.shape}")
    return (lambda v: a @ v), a.shape[0]


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
    return ArnoldiDecomposition(b_norm=b_norm, k=0, breakdown=False, _ws=ws, _ncols=1)


def arnoldi_extend(apply_M, state: ArnoldiDecomposition, steps: int) -> ArnoldiDecomposition:
    """Extend a decomposition by ``steps`` iterations of classical
    Gram-Schmidt applied twice (CGS2).

    Stops early with the breakdown flag set when h_{j+1,j} falls at or
    below BREAKDOWN_RTOL * ||M q_j||.  The input snapshot stays valid; the
    returned snapshot reflects the extended state.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if state.breakdown:
        return state
    matvec, n = as_operator(apply_M)
    if n != state.n:
        raise DimensionMismatch(f"operator dimension {n} != basis dimension {state.n}")

    ws = state._ws
    if ws.k != state.k or ws.breakdown:
        # extending a stale snapshot: give it its own buffers
        ws = ws.clone_at(state.k, state._ncols)
    needed = state.k + steps
    if needed > ws.capacity:
        ws.grow(max(needed, 2 * ws.capacity))

    Q, H = ws.Q, ws.H
    breakdown = False
    j = state.k
    for _ in range(steps):
        w = np.asarray(matvec(Q[:, j].copy()))
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
    ws.ncols = j if breakdown else j + 1
    ws.breakdown = breakdown
    return ArnoldiDecomposition(
        b_norm=state.b_norm, k=j, breakdown=breakdown, _ws=ws, _ncols=ws.ncols
    )


def arnoldi(M, b, steps: int) -> ArnoldiDecomposition:
    """Run ``steps`` Arnoldi iterations from scratch."""
    state = arnoldi_start(b, capacity=steps)
    return arnoldi_extend(M, state, steps)


def arnoldi_fun_action(decomp: ArnoldiDecomposition, f: str = "sqrt") -> np.ndarray:
    """The Arnoldi approximation ||b|| Q_k f(H_k) e_1.

    f is one of ``sqrt`` (principal square root), ``invsqrt`` (computed as
    a solve against H_k^{1/2}, one fewer matrix function), or ``inverse``
    (the FOM iterate for M x = b).
    """
    if decomp.k == 0:
        raise DomainError("decomposition has no completed steps")
    H = decomp.hessenberg
    e1 = np.zeros(decomp.k, dtype=H.dtype)
    e1[0] = decomp.b_norm
    if f == "sqrt":
        y = linalg.dense_sqrt(H)[:, 0] * decomp.b_norm
    elif f == "invsqrt":
        y = linalg.lu_solve(linalg.dense_sqrt(H), e1)
    elif f == "inverse":
        y = linalg.lu_solve(H, e1)
    else:
        raise DomainError(f"unknown function tag {f!r}")
    return decomp.basis_k @ y


def _logdet_lu(a: np.ndarray):
    """(log|det|, unit-modulus phase) via LU with log-magnitude accumulation."""
    lu, piv = linalg.lu_factor_quiet(a)
    d = np.diag(lu)
    mag = np.abs(d)
    if np.min(mag) == 0.0 or np.min(mag) <= 1e-14 * np.max(mag):
        raise SingularProjectedMatrix("projected matrix is numerically singular")
    swaps = int(np.sum(piv != np.arange(len(piv)))) % 2
    phase = complex(np.prod(d / mag)) * (-1.0 if swaps else 1.0)
    return float(np.sum(np.log(mag))), phase


def fom_residual_norm(decomp: ArnoldiDecomposition):
    """FOM residual via the determinant formula; returns (norm, coefficient).

    The residual for M x = b at step k is coefficient * q_{k+1} with
    coefficient = (-1)^k (prod_j h_{j+1,j}) ||b|| / det(H_k); the products
    are accumulated in log space.
    """
    if decomp.k == 0:
        raise DomainError("decomposition has no completed steps")
    subs = decomp.subdiagonals
    if np.any(subs == 0.0):
        return 0.0, 0.0 + 0.0j
    log_mag, phase = _logdet_lu(decomp.hessenberg)
    log_coef = float(np.sum(np.log(subs))) + np.log(decomp.b_norm) - log_mag
    coef = (-1.0) ** decomp.k * np.exp(log_coef) * np.conj(phase)
    return float(abs(coef)), complex(coef)


def _solve_with(M, rhs: np.ndarray) -> np.ndarray:
    if hasattr(M, "solve"):
        return M.solve(rhs)
    return linalg.lu_solve(M, rhs)


def fom_iterate(decomp: ArnoldiDecomposition) -> np.ndarray:
    """The FOM approximation to M⁻¹ b at the current step."""
    return arnoldi_fun_action(decomp, "inverse")


def fom_error(decomp: ArnoldiDecomposition, x_exact) -> float:
    """||xi_0^k|| = ||x_exact - x_FOM|| for a precomputed x_exact = M⁻¹ b.

    This is the FOM error norm that enters every square-root bound; it
    costs one k x k LU solve and one basis product, no Ritz values.
    """
    return float(np.linalg.norm(x_exact - fom_iterate(decomp)))


def fom_error_norm(decomp: ArnoldiDecomposition, M, b) -> float:
    """:func:`fom_error` with M⁻¹ b from an exact desk-scale solve."""
    return fom_error(decomp, _solve_with(M, np.asarray(b)))


def fom_error_surrogate(decomp: ArnoldiDecomposition, min_sym_eig: float | None = None) -> float:
    """Solve-free stand-in for ||xi_0^k||, from the residual alone.

    With ``min_sym_eig`` = smallest eigenvalue mu of the Hermitian part of
    M, returns ||r_0^k||/mu, a valid upper bound (||M^-1|| <= 1/mu for
    positive definite M).  Without it, returns the bare residual norm,
    which is NOT certified: it can undershoot the true error by the
    conditioning of M.  Prefer :func:`fom_error_norm` wherever a dense
    solve is affordable.
    """
    norm, _ = fom_residual_norm(decomp)
    if min_sym_eig is not None:
        if min_sym_eig <= 0:
            raise DomainError("min_sym_eig must be positive")
        return norm / min_sym_eig
    return norm


@dataclass(frozen=True)
class ShiftedFomQuantities:
    """Both sides of the shift identities, for direct comparison.

    The formula side scales the unshifted quantities by the determinant
    ratio det(H_k)/det(H_k - zI); the direct side recomputes residual and
    error from scratch at the shift.
    """

    residual_formula: np.ndarray
    residual_direct: np.ndarray
    error_formula: np.ndarray
    error_direct: np.ndarray


def shifted_fom_quantities(decomp: ArnoldiDecomposition, M, b, z: complex) -> ShiftedFomQuantities:
    if decomp.breakdown:
        raise DomainError("shifted quantities need q_{k+1}; breakdown occurred")
    a = linalg.as_array(M)
    k = decomp.k
    n = a.shape[0]
    rhs = np.asarray(b)
    H = decomp.hessenberg
    Ik = np.eye(k, dtype=np.complex128)
    In = np.eye(n, dtype=np.complex128)
    try:
        log_h, ph_h = _logdet_lu(np.asarray(H, dtype=np.complex128))
        log_hz, ph_hz = _logdet_lu(H - z * Ik)
        ratio = np.exp(log_h - log_hz) * ph_h * np.conj(ph_hz)

        _, coef = fom_residual_norm(decomp)
        r0 = coef * decomp.next_vector.astype(np.complex128)
        xi0 = linalg.lu_solve(a, rhs) - fom_iterate(decomp)

        a_z = a - z * In
        e1 = np.zeros(k, dtype=np.complex128)
        e1[0] = decomp.b_norm
        x_z = decomp.basis_k @ linalg.lu_solve(H - z * Ik, e1)
        xi_direct = linalg.lu_solve(a_z, rhs) - x_z
        r_direct = rhs - a_z @ x_z

        xi_formula = ratio * linalg.lu_solve(a_z, a @ xi0)
        r_formula = ratio * r0
    except (SingularMatrix, SingularProjectedMatrix) as exc:
        raise SingularShift(f"singular shifted system at z = {z}") from exc
    return ShiftedFomQuantities(
        residual_formula=r_formula,
        residual_direct=r_direct,
        error_formula=xi_formula,
        error_direct=xi_direct,
    )


def prefix_report(decomp: ArnoldiDecomposition, x_exact, sigma_max_used: float,
                  quad_cfg=None, hermitian: bool = False, known_spectrum=None,
                  reference=None, f: str = "sqrt") -> bnd.BoundReport:
    """BoundReport for one (prefix of an) Arnoldi decomposition.

    Computes the per-prefix quantities every bound consumes: the FOM
    residual, the FOM error against ``x_exact``, the Ritz values of H_k
    and, with a ``reference`` action, the true error of the f-action.
    """
    residual_norm, _ = fom_residual_norm(decomp)
    error_norm = None
    if reference is not None:
        error_norm = float(np.linalg.norm(reference - arnoldi_fun_action(decomp, f)))
    return bnd.build_bound_report(
        k=decomp.k,
        ritz=linalg.hessenberg_eigenvalues(decomp.hessenberg),
        residual_norm=residual_norm,
        xi_norm=fom_error(decomp, x_exact),
        sigma_max_used=sigma_max_used,
        cfg=quad_cfg,
        hermitian=hermitian,
        known_spectrum=known_spectrum,
        error_norm=error_norm,
    )


@dataclass(frozen=True)
class ResidualRelative:
    """Stop when ||r_0^k|| / ||b|| <= tol."""

    tol: float


@dataclass(frozen=True)
class BoundAbsolute:
    """Stop when the chosen bound drops to tol; inert until k = 2 where
    the posterior integrals converge."""

    tol: float
    bound_kind: str = "posterior_ritz"

    _KINDS = ("posterior_ritz", "posterior_modulus", "apriori_gamma",
              "hermitian_loose", "hermitian_jensen")

    def __post_init__(self):
        if self.bound_kind not in self._KINDS:
            raise DomainError(f"unknown bound kind {self.bound_kind!r}")


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of a bound-driven adaptive run.

    ``converged`` is False when k_max was exhausted before the stopping
    rule fired (the result vector is still the k_max approximation).
    """

    result: np.ndarray
    history: list
    k: int
    converged: bool
    breakdown: bool


def _rule_satisfied(stop, report, b_norm: float) -> bool:
    if isinstance(stop, ResidualRelative):
        return report.residual_norm / b_norm <= stop.tol
    if isinstance(stop, BoundAbsolute):
        value = getattr(report, stop.bound_kind)
        return value is not None and value <= stop.tol
    raise DomainError(f"unknown stopping rule {stop!r}")


def run_adaptive(
    M,
    b,
    f: str = "sqrt",
    stop=None,
    k_max: int = 100,
    quad_cfg=None,
    check_every: int = 1,
    sigma_max_val: float | None = None,
    known_spectrum=None,
    hermitian: bool | None = None,
    error_oracle: bool = False,
) -> AdaptiveResult:
    """Iterate Arnoldi, evaluating the stopping rule every ``check_every``
    steps, and return the function action at the stopping k plus the
    per-k BoundReport history.

    M must be solvable (dense or banded) because the bounds consume the
    exact FOM error norm.  A happy breakdown stops immediately: the
    approximation is exact on the invariant subspace.  With
    ``error_oracle`` the history also carries the true error against the
    reference action (:func:`linalg.reference_sqrt_action` for ``sqrt``:
    closed form for tridiagonal Toeplitz M, else dense at desk scale).
    """
    stop = stop if stop is not None else ResidualRelative(1e-2)
    if k_max < 2:
        raise DomainError("k_max must be >= 2")
    if check_every < 1:
        raise DomainError("check_every must be >= 1")
    matvec, n = as_operator(M)
    k_max = min(k_max, n)
    herm = linalg.is_hermitian(M) if hermitian is None else hermitian
    if sigma_max_val is None:
        sigma_max_val = linalg.sigma_max(M, tol=1e-10, max_iter=max(200 * n, 20_000))
    rhs = np.asarray(b, dtype=np.complex128 if np.iscomplexobj(b) else np.float64)
    x_exact = _solve_with(M, rhs)

    reference = None
    if error_oracle:
        if f == "sqrt":
            reference = linalg.reference_sqrt_action(M, rhs)
        elif f == "invsqrt":
            reference = linalg.lu_solve(linalg.dense_sqrt(linalg.as_array(M)), rhs)
        elif f == "inverse":
            reference = x_exact

    state = arnoldi_start(rhs, capacity=min(k_max, 256))
    history: list = []
    converged = False
    while state.k < k_max:
        steps = min(check_every, k_max - state.k)
        state = arnoldi_extend((matvec, n), state, steps)
        report = prefix_report(state, x_exact, sigma_max_val, quad_cfg, herm,
                               known_spectrum, reference, f)
        history.append(report)
        if state.breakdown:
            converged = True  # invariant subspace: the action is exact
            break
        if _rule_satisfied(stop, report, state.b_norm):
            converged = True
            break
    result = arnoldi_fun_action(state, f)
    return AdaptiveResult(
        result=result,
        history=history,
        k=state.k,
        converged=converged,
        breakdown=state.breakdown,
    )
