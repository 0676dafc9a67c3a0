"""Seeded construction of test matrices and right-hand sides.

Randomness comes from numpy's PCG64 ``default_rng``; every generator
derives its own independent streams with ``SeedSequence(seed).spawn``, so
adding draws to one construction step never shifts another.  All
constructions are pure functions of (spec, seed).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import linalg
from .errors import DimensionMismatch, DomainError, PositivityLost, UnsupportedContext
from .linalg import DenseMatrix

# Gaussian tails can push a prescribed eigenvalue negative; clamp here.
POSITIVITY_FLOOR = 1e-6


@dataclass(frozen=True)
class SpectrumSpec:
    """Declarative description of a prescribed spectrum.

    kind ``uniform``: eigenvalues uniform on [lo, hi].
    kind ``clustered``: a fraction ``cluster_fraction`` drawn from
    N(cluster_center, cluster_std^2), the rest from
    N(outlier_center, outlier_std^2).
    """

    kind: str
    n: int
    lo: float | None = None
    hi: float | None = None
    cluster_center: float | None = None
    cluster_std: float | None = None
    cluster_fraction: float | None = None
    outlier_center: float | None = None
    outlier_std: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("spectrum dimension must be >= 1")
        if self.kind == "uniform":
            if self.lo is None or self.hi is None or not 0 < self.lo <= self.hi:
                raise DomainError("uniform spectrum needs 0 < lo <= hi")
        elif self.kind == "clustered":
            needed = (self.cluster_center, self.cluster_std, self.cluster_fraction,
                      self.outlier_center, self.outlier_std)
            if any(v is None for v in needed):
                raise DomainError("clustered spectrum is missing parameters")
            if not 0.0 <= self.cluster_fraction <= 1.0:
                raise DomainError("cluster_fraction must lie in [0, 1]")
        else:
            raise DomainError(f"unknown spectrum kind {self.kind!r}")

    @classmethod
    def uniform(cls, n: int, lo: float, hi: float) -> "SpectrumSpec":
        return cls(kind="uniform", n=n, lo=lo, hi=hi)

    @classmethod
    def clustered(cls, n: int, cluster_center: float, cluster_std: float,
                  cluster_fraction: float, outlier_center: float,
                  outlier_std: float) -> "SpectrumSpec":
        return cls(kind="clustered", n=n, cluster_center=cluster_center,
                   cluster_std=cluster_std, cluster_fraction=cluster_fraction,
                   outlier_center=outlier_center, outlier_std=outlier_std)


@dataclass(frozen=True)
class PerturbationSpec:
    """Relative spectral-norm perturbation budget and symmetry class."""

    eps: float
    mode: str = "hermitian-random"

    def __post_init__(self):
        if self.eps < 0:
            raise DomainError("eps must be nonnegative")
        if self.mode not in ("hermitian-random", "skew-random"):
            raise DomainError(f"unknown perturbation mode {self.mode!r}")


def _orthogonal_from_rng(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def random_orthogonal(n: int, seed: int) -> np.ndarray:
    """Real orthogonal matrix: QR of a seeded Gaussian with the R diagonal
    sign-fixed, which makes Q the unique Haar representative per seed."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return _orthogonal_from_rng(np.random.default_rng(np.random.SeedSequence(seed)), n)


def draw_eigenvalues(spec: SpectrumSpec, rng) -> np.ndarray:
    """Eigenvalue sample per spec, clamped to the positivity floor and
    sorted in descending order.

    A clamp makes the matrix nearly singular, so it emits a UserWarning
    with the number of clamped draws.
    """
    if spec.kind == "uniform":
        eigs = rng.uniform(spec.lo, spec.hi, size=spec.n)
    else:
        n_cluster = int(round(spec.cluster_fraction * spec.n))
        cluster = spec.cluster_center + spec.cluster_std * rng.standard_normal(n_cluster)
        outlier = spec.outlier_center + spec.outlier_std * rng.standard_normal(spec.n - n_cluster)
        eigs = np.concatenate([cluster, outlier])
    clamped = int(np.count_nonzero(eigs < POSITIVITY_FLOOR))
    if clamped:
        warnings.warn(f"{clamped} of {spec.n} eigenvalue draws fell below "
                      f"POSITIVITY_FLOOR = {POSITIVITY_FLOOR:g} and were clamped to it",
                      UserWarning, stacklevel=2)
    return np.sort(np.maximum(eigs, POSITIVITY_FLOOR))[::-1]


@dataclass(frozen=True)
class SpectrumMatrix:
    """Symmetric positive definite M0 = Q diag(eigs) Qᵀ with its spectrum
    and eigenvector basis kept for spectrum-known bounds and right-hand
    sides."""

    matrix: DenseMatrix
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def spectrum_matrix(spec: SpectrumSpec, seed: int) -> SpectrumMatrix:
    """Build M0 = Q diag(eigs) Qᵀ from independent eigenvalue/basis streams.

    Eigenvalues are returned sorted descending; columns of the basis are
    ordered to match.
    """
    eig_seq, q_seq = np.random.SeedSequence(seed).spawn(2)
    eigs = draw_eigenvalues(spec, np.random.default_rng(eig_seq))
    q = _orthogonal_from_rng(np.random.default_rng(q_seq), spec.n)
    m0 = (q * eigs) @ q.T
    m0 = (m0 + m0.T) / 2.0
    return SpectrumMatrix(matrix=DenseMatrix(m0), eigenvalues=eigs, eigenvectors=q)


def skew_part(n: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Exactly skew-symmetric K = (R - Rᵀ)/2 from a seeded Gaussian R.

    Each (i, j) difference is computed once, so K = -Kᵀ holds bitwise.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    r = scale * rng.standard_normal((n, n))
    upper = np.triu((r - r.T) / 2.0, k=1)
    return upper - upper.T


class TridiagonalMatrix:
    """Real tridiagonal matrix in banded storage with a dense-view adapter.

    Exposes matvec/rmatvec for the Arnoldi operator interface and
    solve/adjoint-solve backed by banded LU, so the same object serves the
    iteration, the FOM error solve, and the extremal singular-value
    estimators.
    """

    def __init__(self, lower, diag, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.diag = np.asarray(diag, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        m = self.diag.shape[0]
        if self.lower.shape[0] != m - 1 or self.upper.shape[0] != m - 1:
            raise DimensionMismatch("band lengths must be (m-1, m, m-1)")
        self.shape = (m, m)
        self.dtype = np.dtype(float)

    def matvec(self, v):
        w = self.diag * v
        w[1:] += self.lower * v[:-1]
        w[:-1] += self.upper * v[1:]
        return w

    def rmatvec(self, v):
        w = self.diag * v
        w[1:] += self.upper * v[:-1]
        w[:-1] += self.lower * v[1:]
        return w

    def _banded(self, adjoint: bool):
        m = self.shape[0]
        ab = np.zeros((3, m))
        if adjoint:
            ab[0, 1:], ab[1, :], ab[2, :-1] = self.lower, self.diag, self.upper
        else:
            ab[0, 1:], ab[1, :], ab[2, :-1] = self.upper, self.diag, self.lower
        return ab

    def solve(self, rhs, adjoint: bool = False):
        return sla.solve_banded((1, 1), self._banded(adjoint), rhs, check_finite=False)

    def to_dense(self) -> np.ndarray:
        return (
            np.diag(self.diag)
            + np.diag(self.lower, -1)
            + np.diag(self.upper, 1)
        )


def convection_diffusion(n: int, eta: float, convention: str = "interior") -> TridiagonalMatrix:
    """Upwind finite-difference matrix for -eta u'' + u' on (0, 1) with
    homogeneous Dirichlet ends and grid spacing h = 1/n.

    Stencil per row: sub = -eta/h^2 - 1/h, diag = 2 eta/h^2 + 1/h,
    super = -eta/h^2; non-Hermitian and positive definite for eta > 0.
    ``convention`` picks the matrix order: "interior" for the n-1 interior
    unknowns (the validated default) or "full" for n unknowns.
    """
    if n < 3:
        raise DomainError("n must be >= 3")
    if eta <= 0:
        raise DomainError("eta must be positive")
    if convention not in ("interior", "full"):
        raise DomainError(f"unknown grid convention {convention!r}")
    h = 1.0 / n
    m = n - 1 if convention == "interior" else n
    sub = -eta / h**2 - 1.0 / h
    dia = 2.0 * eta / h**2 + 1.0 / h
    sup = -eta / h**2
    return TridiagonalMatrix(
        lower=np.full(m - 1, sub), diag=np.full(m, dia), upper=np.full(m - 1, sup)
    )


@dataclass(frozen=True)
class PerturbedMatrix:
    """Perturbed matrix plus the measured quantities that the perturbed
    bound consumes: the achieved relative perturbation and the square
    roots mu1, mu2 of the Hermitian-part lower bounds of M and M~."""

    matrix: DenseMatrix
    achieved_eps: float
    mu1: float
    mu2: float


def perturb_matrix(M, spec: PerturbationSpec, seed: int) -> PerturbedMatrix:
    """M~ = M + E with ||E|| = eps' ||M||, eps' <= spec.eps, E drawn from the
    requested symmetry class and rescaled by its measured spectral norm.

    If positive definiteness of M~ fails, eps' is halved up to three
    times before PositivityLost is raised.
    """
    a = linalg.as_array(M)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("M must be square")
    n = a.shape[0]
    mu1_sq = linalg.min_symmetric_eig(a)
    if mu1_sq <= 0:
        raise DomainError("M must be positive definite")
    mu1 = float(np.sqrt(mu1_sq))

    if spec.eps == 0.0:
        return PerturbedMatrix(matrix=DenseMatrix(a), achieved_eps=0.0, mu1=mu1, mu2=mu1)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    g = rng.standard_normal((n, n))
    if spec.mode == "hermitian-random":
        e0 = (g + g.T) / 2.0
    else:
        upper = np.triu((g - g.T) / 2.0, k=1)
        e0 = upper - upper.T
    norm_m = float(np.linalg.norm(a, 2))
    norm_e0 = float(np.linalg.norm(e0, 2))

    eps = spec.eps
    for _ in range(4):
        perturbed = a + (eps * norm_m / norm_e0) * e0
        mu2_sq = linalg.min_symmetric_eig(perturbed)
        if mu2_sq > 0:
            return PerturbedMatrix(
                matrix=DenseMatrix(perturbed),
                achieved_eps=eps,
                mu1=mu1,
                mu2=float(np.sqrt(mu2_sq)),
            )
        eps /= 2.0
    raise PositivityLost("perturbation destroyed positive definiteness after 3 halvings")


def rhs_vector(kind: str, context=None, count: int = 100) -> np.ndarray:
    """Right-hand sides used by the experiments.

    kind ``ones``: the all-ones vector (context is the dimension or a
    matrix).  kind ``eig_average``: the average of the eigenvectors of the
    ``count`` largest-magnitude eigenvalues, normalized to unit length;
    needs a SpectrumMatrix context because the eigenvectors must be known.
    """
    if kind == "ones":
        if isinstance(context, (int, np.integer)):
            return np.ones(int(context))
        if isinstance(context, SpectrumMatrix):
            return np.ones(context.matrix.rows)
        if hasattr(context, "shape"):
            return np.ones(context.shape[0])
        if isinstance(context, DenseMatrix):
            return np.ones(context.rows)
        raise UnsupportedContext("cannot infer dimension for the ones vector")
    if kind == "eig_average":
        if not isinstance(context, SpectrumMatrix):
            raise UnsupportedContext("eig_average needs a spectrum-known matrix")
        count = min(count, context.eigenvalues.size)
        if count < 1:
            raise DomainError("eig_average needs count >= 1")
        order = np.argsort(-np.abs(context.eigenvalues))
        avg = context.eigenvectors[:, order[:count]].mean(axis=1)
        return avg / np.linalg.norm(avg)
    raise DomainError(f"unknown rhs kind {kind!r}")
