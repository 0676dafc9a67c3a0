"""Reference computations made apart from the package under test.

Nothing here imports ``krylov_sqrt``: every value the benchmark checks the
program against comes from NumPy/SciPy primitives and closed forms.

- :func:`convdiff_sqrt_action` gives ``M^{1/2} b`` for the upwind
  convection-diffusion operator in O(n log n).  The tridiagonal Toeplitz
  matrix M (sub ``a``, diagonal ``d``, super ``c`` with ``a c > 0``) is
  ``D S D^-1`` with ``D = diag((a/c)^{i/2})`` and S symmetric tridiagonal
  Toeplitz, whose eigenvectors are the DST-I sines, so the action takes two
  DST-I transforms (Noschese, Pasquini and Reichel, "Tridiagonal Toeplitz
  matrices: properties and novel applications", NLAA 20, 2013).
- :func:`eig_sqrt_action` gives ``A^{1/2} b`` by ``eigh`` (Hermitian input)
  or ``eig`` (otherwise), and checks its own residual ``||S(S b) - A b||``.
- :func:`arnoldi_sqrt` is a plain Arnoldi (classical Gram-Schmidt, two
  passes) with ``sqrt(H_k)`` by eigendecomposition, used to rebuild an
  approximation the program does not return.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft

# Paper's convection-diffusion table: eta = 0.1, b = ones, tol = 0.05,
# posterior Ritz stopping, interior grid (order n - 1).  Columns: the 2-norm
# condition number, the stopping iteration and the true error at stop.
PAPER_TABLE = {
    1000: (202320.64, 889, 0.03083),
    1200: (291138.58, 1071, 0.03053),
    1400: (396074.49, 1253, 0.03061),
    1600: (517128.36, 1435, 0.03090),
    1800: (654300.20, 1617, 0.03132),
    2000: (807590.00, 1800, 0.03132),
}
# Relative tolerances on (cond, k_stop, error) against PAPER_TABLE.
PAPER_RTOL = (1e-3, 0.02, 0.10)

# The closed form loses about log10(cond(D)) digits; refuse beyond this.
MAX_COND_D = 1e8

# Relative residual ||S(S b) - A b|| / ||A b|| an eig-based reference must meet.
REFERENCE_RESIDUAL_RTOL = 1e-9


class OracleError(RuntimeError):
    """A reference computation could not vouch for its own accuracy."""


def convdiff_stencil(n: int, eta: float):
    """(order, sub, diag, super) of the interior upwind operator for
    -eta u'' + u' on (0, 1) with spacing h = 1/n."""
    h = 1.0 / n
    return n - 1, -eta / h**2 - 1.0 / h, 2.0 * eta / h**2 + 1.0 / h, -eta / h**2


def convdiff_cond_d(n: int, eta: float) -> float:
    """cond(D) = (a/c)^{(m-1)/2} of the symmetrizing diagonal similarity."""
    m, sub, _, sup = convdiff_stencil(n, eta)
    return math.exp(0.5 * (m - 1) * math.log(sub / sup))


def convdiff_sqrt_action(n: int, eta: float, b) -> np.ndarray:
    """M^{1/2} b for the interior upwind operator by two DST-I transforms."""
    m, sub, dia, sup = convdiff_stencil(n, eta)
    if not sub * sup > 0:
        raise OracleError("closed form needs sub * super > 0")
    if convdiff_cond_d(n, eta) > MAX_COND_D:
        raise OracleError(f"cond(D) = {convdiff_cond_d(n, eta):.3g} exceeds {MAX_COND_D:g}")
    b = np.asarray(b, dtype=float)
    # d_i = (sub/sup)^{i/2}, centred so neither end overflows
    log_d = 0.5 * math.log(sub / sup) * (np.arange(m) - 0.5 * (m - 1))
    d = np.exp(log_d)
    off = -math.sqrt(sub * sup)  # off-diagonal of S (sub, sup < 0)
    lam = dia + 2.0 * off * np.cos(np.arange(1, m + 1) * math.pi / (m + 1))
    if np.any(lam <= 0):
        raise OracleError("symmetrized operator is not positive definite")
    w = scipy.fft.dst(b / d, type=1, norm="ortho")
    return d * scipy.fft.dst(np.sqrt(lam) * w, type=1, norm="ortho")


def eig_sqrt_action(a, b, hermitian: bool) -> np.ndarray:
    """A^{1/2} b through an eigendecomposition of A, residual-checked.

    The spectrum must avoid the closed negative real axis.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if hermitian:
        lam, v = np.linalg.eigh(a)
        root = np.sqrt(lam.astype(complex))
        apply = lambda x: v @ (root * (v.conj().T @ x))  # noqa: E731
    else:
        lam, v = np.linalg.eig(a)
        root = np.sqrt(lam.astype(complex))
        apply = lambda x: v @ (root * np.linalg.solve(v, x))  # noqa: E731
    if np.any((lam.real <= 0) & (np.abs(lam.imag) <= 1e-12 * np.abs(lam))):
        raise OracleError("spectrum touches the closed negative real axis")
    y = apply(b)
    ab = a @ b
    resid = np.linalg.norm(apply(y) - ab) / np.linalg.norm(ab)
    if not resid <= REFERENCE_RESIDUAL_RTOL:
        raise OracleError(f"reference residual {resid:.3e} > {REFERENCE_RESIDUAL_RTOL:g}")
    if np.isrealobj(a) and np.isrealobj(b):
        return y.real
    return y


def arnoldi_basis(matvec, b, k: int):
    """k Arnoldi steps (classical Gram-Schmidt, two passes) from b.

    Returns (Q with k columns, the k x k Hessenberg matrix, ||b||).
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    beta = float(np.linalg.norm(b))
    q = np.zeros((k + 1, n))  # row-major basis: q[j] is the j-th vector
    h = np.zeros((k + 1, k))
    q[0] = b / beta
    for j in range(k):
        w = matvec(q[j])
        for _ in range(2):
            c = q[: j + 1] @ w
            h[: j + 1, j] += c
            w = w - c @ q[: j + 1]
        h[j + 1, j] = np.linalg.norm(w)
        if h[j + 1, j] == 0.0:
            raise OracleError(f"exact breakdown at step {j + 1}")
        q[j + 1] = w / h[j + 1, j]
    return q[:k].T, h[:k, :k], beta


def hessenberg_sqrt_e1(h) -> np.ndarray:
    """sqrt(H) e_1 by eigendecomposition of the small projected matrix."""
    lam, v = np.linalg.eig(h)
    e1 = np.zeros(h.shape[0])
    e1[0] = 1.0
    y = v @ (np.sqrt(lam.astype(complex)) * np.linalg.solve(v, e1))
    return y.real


def arnoldi_sqrt(matvec, b, k: int) -> np.ndarray:
    """The Arnoldi approximation ||b|| Q_k sqrt(H_k) e_1 after k steps."""
    q, h, beta = arnoldi_basis(matvec, b, k)
    return beta * (q @ hessenberg_sqrt_e1(h))


def tridiagonal_matvec(n: int, eta: float):
    """Matrix-vector product with the interior upwind operator, O(n)."""
    _, sub, dia, sup = convdiff_stencil(n, eta)

    def matvec(v):
        w = dia * v
        w[1:] += sub * v[:-1]
        w[:-1] += sup * v[1:]
        return w

    return matvec
