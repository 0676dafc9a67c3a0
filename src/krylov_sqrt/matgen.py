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

from . import linalg
from .errors import DomainError, PositivityLost, UnsupportedContext
from .linalg import DenseMatrix, TridiagonalMatrix

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
        for name in ("lo", "hi", "cluster_center", "cluster_std", "cluster_fraction",
                     "outlier_center", "outlier_std"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
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


def _orthogonal_from_rng(rng, n: int) -> np.ndarray:
    """Real orthogonal matrix: QR of a Gaussian with the R diagonal
    sign-fixed, which makes Q the unique Haar representative per draw."""
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


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
    if not np.isfinite(scale):
        raise DomainError(f"skew scale must be finite, got {scale!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    r = scale * rng.standard_normal((n, n))
    upper = np.triu((r - r.T) / 2.0, k=1)
    return upper - upper.T


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
    if not 0 < eta < np.inf:  # NaN fails too
        raise DomainError(f"eta must be positive and finite, got {eta!r}")
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


def perturb_matrix(M, eps: float, seed: int) -> PerturbedMatrix:
    """M~ = M + E with ||E|| = eps' ||M||, eps' <= eps, E = (G + Gᵀ)/2 for a
    seeded Gaussian G, rescaled by its measured spectral norm.  A negative
    or NaN eps raises DomainError.

    If positive definiteness of M~ fails, eps' is halved up to three
    times before PositivityLost is raised.
    """
    if not eps >= 0:  # NaN fails too
        raise DomainError(f"eps must be nonnegative, got {eps!r}")
    a = linalg.as_array(M)
    n = a.shape[0]
    mu1_sq = linalg.min_symmetric_eig(a)
    if mu1_sq <= 0:
        raise DomainError("M must be positive definite")
    mu1 = float(np.sqrt(mu1_sq))

    if eps == 0.0:
        return PerturbedMatrix(matrix=DenseMatrix(a), achieved_eps=0.0, mu1=mu1, mu2=mu1)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    g = rng.standard_normal((n, n))
    e0 = (g + g.T) / 2.0
    norm_m = float(np.linalg.norm(a, 2))
    norm_e0 = float(np.linalg.norm(e0, 2))
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
            context = context.matrix
        return np.ones(linalg.as_operator(context).shape[0])
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
