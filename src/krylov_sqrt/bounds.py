"""Error bounds for Arnoldi square-root (and inverse square-root) actions.

Two a posteriori bounds driven by the Ritz values of H_k, a closed-form
a priori bound in sigma_max(M) and k, sharpened Hermitian variants using
the averaged eigenvalue lambda_bar, the perturbed-matrix bound, and the
semi-infinite quadrature these need.  All Ritz products are accumulated
in log space so hundreds of factors neither overflow nor underflow.

A batch of bound integrals (:func:`bound_posterior_batch`) costs its
arithmetic: a quadrature pass updates all integrals with a few array
operations, and a block of nodes sums the log factors only up to the
largest k among its integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DivergentIntegral,
    DomainError,
    InvalidSpectrum,
    NoConvergence,
    NonFiniteIntegrand,
)
from .linalg import RitzSpectrum

# QUADPACK qk21 (Piessens et al. 1983): the 21 Kronrod nodes on [-1, 1],
# their weights, and the weights of the embedded 10-point Gauss rule
# (zero on the Kronrod-only nodes).
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK21_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK21_KRONROD = np.concatenate([_WGK, _WGK[-2::-1]])
_GK21_GAUSS = np.zeros(21)
_GK21_GAUSS[1:10:2] = _WG
_GK21_GAUSS[11:20:2] = _WG[::-1]

# Largest Ritz-values-by-nodes temporary a bound integrand builds, in elements.
_BLOCK_ELEMENTS = 1 << 15
# Largest order-by-nodes Hyman block, in elements: each block costs one
# Python pass over the k rows, so it is larger than the Ritz one.
_HYMAN_BLOCK_ELEMENTS = 1 << 20
# A shift's Hyman vector is scaled down once an entry passes this.
_HYMAN_RESCALE = 1e100


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the semi-infinite bound integrals; ``max_subdivisions``
    is the budget of Gauss-Kronrod intervals."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):  # NaN fails too
            raise DomainError(f"quadrature tolerances must be positive: rel_tol {self.rel_tol!r}, "
                              f"abs_tol {self.abs_tol!r}")
        if not isinstance(self.max_subdivisions, int) or self.max_subdivisions < 1:
            raise DomainError(f"max_subdivisions must be an integer >= 1, not "
                              f"{self.max_subdivisions!r}")


@dataclass(frozen=True)
class QuadResult:
    """Quadrature value (a vector for a vector integrand) plus the
    achieved-error flag."""

    value: float | np.ndarray
    estimated_error: float
    tolerance_met: bool


def _gauss_kronrod_21(g, owner: np.ndarray, left: np.ndarray, width: np.ndarray):
    """21-point Gauss-Kronrod sums of ``g`` on the intervals
    [left, left + width] of the integrals ``owner``, with the QUADPACK
    ``qk21`` error estimate.

    ``g`` is evaluated once, on all nodes of all intervals.  For a vector
    integrand (values with a leading component axis) every absolute value
    in the estimate is the 2-norm over the components.  Returns the
    per-interval (integral, estimated error), the interval axis first.
    """
    half = 0.5 * width
    vals = g((left + half)[:, None] + half[:, None] * _GK21_NODES, owner)
    size = np.abs if vals.ndim == 2 else (lambda a: np.linalg.norm(a, axis=0))
    kronrod = vals @ _GK21_KRONROD
    err = size(half * (kronrod - vals @ _GK21_GAUSS))
    resabs = half * (size(vals) @ _GK21_KRONROD)
    resasc = half * (size(vals - 0.5 * kronrod[..., None]) @ _GK21_KRONROD)
    ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err), where=resasc > 0.0)
    err = resasc * np.minimum(1.0, ratio**1.5)
    return (half * kronrod).T, np.maximum(err, 50.0 * np.finfo(float).eps * resabs)


def _quad_batch(integrand, count: int, cfg: QuadratureConfig | None = None) -> list:
    """One QuadResult per integral of :func:`quad_semi_infinite` for
    ``count`` independent integrals; ``integrand(x, owner)`` also gets the
    index of the integral each abscissa belongs to.  Each integral keeps
    its own intervals, tolerance and ``max_subdivisions`` budget, and
    closes when a pass bisects none of its intervals; a pass evaluates the
    new nodes of all open integrals in one integrand call, and a few array
    operations update every integral's total, error, tolerance and share:
    a total sums a zero-padded intervals-by-integrals array in interval
    order, so a lone integral's is that of its intervals, bit for bit."""
    cfg = cfg or QuadratureConfig()

    def by_integral(a: np.ndarray, slot: tuple, shape: tuple) -> np.ndarray:
        padded = np.zeros(shape + a.shape[1:], dtype=a.dtype)
        padded[slot] = a
        return padded.sum(axis=0)

    def transformed(t: np.ndarray, owner: np.ndarray) -> np.ndarray:
        one_minus = 1.0 - t
        u = t / one_minus
        vals = np.asarray(integrand((u * u).ravel(), np.repeat(owner, t.shape[1])))
        if not np.isfinite(vals).all():
            raise NonFiniteIntegrand("integrand returned a non-finite value")
        return vals.reshape(vals.shape[:-1] + t.shape) * (2.0 * u / (one_minus * one_minus))

    # intervals, grouped by integral: owner is sorted
    halves = min(2, cfg.max_subdivisions)
    owner = np.repeat(np.arange(count), halves)
    left, width = np.tile(np.arange(halves) / halves, count), np.full(owner.size, 1.0 / halves)
    value, err = _gauss_kronrod_21(transformed, owner, left, width)
    size = np.abs if value.ndim == 1 else (lambda v: np.linalg.norm(v, axis=1))
    is_open = np.ones(count, dtype=bool)  # the integrals bisected in the last pass
    while True:
        intervals = np.bincount(owner, minlength=count)
        slot = (np.arange(owner.size) - (np.cumsum(intervals) - intervals)[owner], owner)
        total, total_err = (by_integral(a, slot, (intervals.max(), count)) for a in (value, err))
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * size(total))
        # error above which an interval is bisected
        share = np.where(is_open & (total_err > tol), tol / intervals, np.inf)
        worst = np.flatnonzero(err > share[owner])
        worst = worst[np.argsort(err[worst])[::-1]]
        worst = worst[np.argsort(owner[worst], kind="stable")]  # by integral, largest first
        rank = np.arange(worst.size) - np.searchsorted(owner[worst], owner[worst])
        worst = worst[rank < (cfg.max_subdivisions - intervals)[owner[worst]]]
        if worst.size == 0:
            break
        is_open = np.bincount(owner[worst], minlength=count) > 0
        keep = np.ones(err.size, dtype=bool)
        keep[worst] = False
        half = 0.5 * width[worst]
        child = (np.tile(owner[worst], 2), np.concatenate([left[worst], left[worst] + half]),
                 np.concatenate([half, half]))
        child += _gauss_kronrod_21(transformed, *child)
        regroup = np.argsort(np.concatenate([owner[keep], child[0]]), kind="stable")
        owner, left, width, value, err = (np.concatenate([a[keep], c])[regroup] for a, c in
                                          zip((owner, left, width, value, err), child))
    values = total.tolist() if total.ndim == 1 else total
    return [QuadResult(value=v, estimated_error=e, tolerance_met=m) for v, e, m in
            zip(values, total_err.tolist(), (total_err <= tol).tolist())]


def quad_semi_infinite(integrand, cfg: QuadratureConfig | None = None) -> QuadResult:
    """Globally adaptive Gauss-Kronrod integration of ``integrand`` over (0, inf).

    ``integrand`` maps an ndarray of m abscissae to m values, or, for a
    vector integrand, to a d x m array (one row per component); the value
    is then a d-vector and the error the 2-norm of the Gauss-Kronrod error
    over the components.  The change of variable x = (t/(1-t))^2 maps the
    half line onto (0, 1); for an x^{-3/2} tail the transformed integrand
    stays bounded at t = 1, which plain bisection needs (no extrapolation
    is used).  The first pass takes the halves (0, 1/2) and (1/2, 1) (just
    (0, 1) when ``max_subdivisions`` is 1), as a pass on (0, 1) that
    bisects would.  Each later pass bisects every interval whose error
    estimate exceeds its equal share of max(abs_tol, rel_tol |value|),
    evaluating all new nodes in one integrand call.  ``max_subdivisions``
    caps the number of intervals; when it runs out first ``tolerance_met``
    is unset.  The one-integral case of the batch kernel behind
    :func:`bound_posterior_batch`, where each integral is bisected as here.
    """
    return _quad_batch(lambda x, _: integrand(x), 1, cfg)[0]


def _ritz_values(ritz) -> np.ndarray:
    if isinstance(ritz, RitzSpectrum):
        return np.asarray(ritz.values, dtype=np.complex128)
    return np.asarray(ritz, dtype=np.complex128).ravel()


def _certified_integrals(log_gamma, k: int, block: int, xi_norms, label,
                         cfg: QuadratureConfig | None) -> list:
    """(I_j + estimated error) * xi_j / pi for each integral j of a batch, I_j
    the integral over (0, inf) of sqrt(x) |gamma_j(x)|, with
    ``log_gamma(x, owner)`` mapping a block of nodes to log|gamma| there;
    blocks keep its temporary of at most k rows at ``block`` elements.  A
    missed tolerance raises NoConvergence naming integral j by ``label(j)``."""
    step = max(1, block // k)

    def integrand(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        for s in range(0, x.size, step):
            xb = x[s:s + step]
            out[s:s + step] = np.sqrt(xb) * np.exp(log_gamma(xb, owner[s:s + step]))
        return out

    results = _quad_batch(integrand, len(xi_norms), cfg)
    for j, q in enumerate(results):
        if not q.tolerance_met:
            raise NoConvergence(f"{label(j)} missed its tolerance (estimated error "
                                f"{q.estimated_error:.3e} on {q.value:.6e})")
    return [(q.value + q.estimated_error) / math.pi * xi for q, xi in zip(results, xi_norms)]


def _product_factors(items):
    """(k_j, 1/|l_i|^2, linear_i) of each (kind, ritz, _) item, the factors
    zero-padded to the largest k in k-by-items arrays, for the integrand
    sqrt(x) prod_i (1 + x (linear_i + x/|l_i|^2))^{-1/2} of the ``kind``
    bound: linear_i is 2 Re l_i/|l_i|^2 for ``posterior_ritz``, 0 for
    ``posterior_modulus``.  Every item is checked at once; the first that
    fails raises its error."""
    lams = [_ritz_values(ritz) for _, ritz, _ in items]
    orders = np.array([lam.size for lam in lams])
    lam = np.concatenate(lams)
    owner = np.repeat(np.arange(len(items)), orders)
    ritz_kind = np.array([kind == "posterior_ritz" for kind, _, _ in items])
    mod2 = np.abs(lam) ** 2
    bad = np.bincount(owner, np.where(ritz_kind[owner], lam.real <= 0.0, mod2 == 0.0),
                      minlength=len(items))
    ok = (orders >= 2) & (bad == 0) & (ritz_kind | [kind == "posterior_modulus"
                                                    for kind, _, _ in items])
    if not ok.all():
        j = int(np.argmin(ok))
        kind, lam = items[j][0], lams[j]
        if lam.size < 2:
            raise DivergentIntegral(f"{kind} bound integral diverges for k < 2")
        if kind == "posterior_ritz":
            require_right_half_plane(lam)
        if kind != "posterior_modulus":
            raise DomainError(f"unknown posterior bound kind {kind!r}")
        raise InvalidSpectrum("all Ritz values must be nonzero")
    inv_mod2, linear = np.zeros((2, orders.max(), len(items)))
    pad = np.arange(orders.max()) < orders[:, None]  # items by k, as lam is ordered
    inv = 1.0 / mod2
    inv_mod2.T[pad] = inv
    linear.T[pad] = np.where(ritz_kind[owner], 2.0 * lam.real * inv, 0.0)
    return orders, inv_mod2, linear


def bound_posterior_batch(items, cfg: QuadratureConfig | None = None) -> list:
    """The bound of each (kind, ritz, xi_norm) item, kind ``posterior_ritz``
    or ``posterior_modulus``, every integral adaptive on its own in one batch
    (see :func:`quad_semi_infinite`).  A block of nodes sums the log factors
    of its integrals up to the largest k among them, the shorter ones
    zero-padded (log1p(0) adds exactly 0), so an item's bound equals its
    one-item call to rounding.  A missed tolerance raises NoConvergence
    naming the kind and k of the integral."""
    orders, inv_mod2, linear = _product_factors(items)

    def log_gamma(xb: np.ndarray, ob: np.ndarray) -> np.ndarray:
        rows = orders[ob].max()
        t = inv_mod2[:rows, ob]
        t *= xb
        t += linear[:rows, ob]
        t *= xb
        return -0.5 * np.log1p(t, out=t).sum(axis=0)

    return _certified_integrals(log_gamma, int(orders.max()), _BLOCK_ELEMENTS,
                                [xi for _, _, xi in items],
                                lambda j: f"{items[j][0]} integral at k = {orders[j]}", cfg)


def require_right_half_plane(lam: np.ndarray) -> None:
    """Raise InvalidSpectrum unless every value has positive real part."""
    if np.any(lam.real <= 0.0):
        raise InvalidSpectrum("all Ritz values must have positive real part")


def bound_posterior_ritz(ritz, xi_norm: float, cfg: QuadratureConfig | None = None) -> float:
    """A posteriori bound (1/pi) * int_0^inf sqrt(x) prod_i |l_i/(l_i+x)| dx * xi.

    Needs k >= 2 (the integrand decays like x^{1/2-k}) and Ritz values in
    the open right half-plane.  |l/(l+x)|^2 = 1/(1 + x (2 Re l + x)/|l|^2).
    The quadrature's estimated error is added to the integral, and a
    missed tolerance raises NoConvergence.  A one-item :func:`bound_posterior_batch`.
    """
    return bound_posterior_batch([("posterior_ritz", ritz, xi_norm)], cfg)[0]


def _hyman(h: np.ndarray, shifts: np.ndarray):
    """Hyman's method (Wilkinson, The Algebraic Eigenvalue Problem, 1965,
    ch. 7) for an unreduced upper Hessenberg H and each shift x.

    With X_k = 1, rows k..2 of (H + xI) X = alpha e_1 give X_{k-1}, ...,
    X_1 by back-substitution, all shifts in one product per row, and row 1
    gives alpha.  So X / alpha = (H + xI)^{-1} e_1, and
    |det(H + xI)| = |alpha| prod_i |h_{i+1,i}|.  A shift whose X passes
    ``_HYMAN_RESCALE`` is scaled down, the log of the scale carried.
    Returns (X, alpha, log_scale), one column or entry per shift.
    """
    if np.any(np.diagonal(h, -1) == 0.0):
        raise DomainError("Hyman's method needs an unreduced Hessenberg matrix")
    k = h.shape[0]
    X = np.zeros((k, shifts.size), dtype=np.result_type(h, shifts))
    X[-1] = 1.0
    log_scale = np.zeros(shifts.size)
    neg_sub = (-np.diagonal(h, -1)).tolist()
    for r in range(k - 1, 0, -1):
        row = np.multiply(shifts, X[r], out=X[r - 1])
        row += np.dot(h[r, r:], X[r:])
        row /= neg_sub[r - 1]
        if not np.vdot(row, row).real <= _HYMAN_RESCALE**2:  # some entry may pass it, or NaN
            big = np.abs(row) > _HYMAN_RESCALE
            scale = np.abs(row[big])  # the older entries are at most 1e100
            X[r - 1:, big] /= scale
            log_scale[big] += np.log(scale)
    return X, h[0] @ X + shifts * X[0], log_scale


def _hyman_log_alpha(h: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """log|det(H + xI)| - sum_i log|h_{i+1,i}| for each shift x (see
    :func:`_hyman`)."""
    _, alpha, log_scale = _hyman(h, shifts)
    return np.log(np.abs(alpha)) + log_scale


def shifted_logdet(H, shifts) -> np.ndarray:
    """log|det(H + xI)| for each shift x of an unreduced upper Hessenberg
    H (see :func:`_hyman`); each shift costs O(k^2)."""
    h = np.asarray(H)
    log_alpha = _hyman_log_alpha(h, np.asarray(shifts, dtype=float))
    return log_alpha + np.log(np.abs(np.diagonal(h, -1))).sum()


def shifted_solve_e1(H, shifts) -> np.ndarray:
    """The k x m array whose column j is (H + x_j I)^{-1} e_1, for the
    shifts x_j of an unreduced upper Hessenberg H of order k, from the
    same back-substitution as :func:`shifted_logdet`; each shift costs
    O(k^2), on blocks of shifts of bounded size.  Every row equation is
    met to rounding, so the solve is backward stable; H + xI must be
    nonsingular."""
    h, x = np.asarray(H), np.asarray(shifts, dtype=float)
    step = max(1, _HYMAN_BLOCK_ELEMENTS // h.shape[0])
    blocks = [_hyman(h, x[i:i + step]) for i in range(0, x.size, step)]
    if not blocks:
        return np.zeros((h.shape[0], 0), dtype=np.result_type(h, x))
    return np.concatenate([X / alpha for X, alpha, _ in blocks], axis=1)


def bound_posterior_det(H, xi_norm: float, cfg: QuadratureConfig | None = None,
                        log_det_ratio: float | None = None) -> float:
    """:func:`bound_posterior_ritz` of the Ritz values of H, from
    determinants instead: prod_i |l_i/(l_i+x)| = |det H / det(H + xI)|,
    evaluated by Hyman's method for all nodes of a quadrature pass at once.

    H is an unreduced upper Hessenberg matrix of order k >= 2 whose
    eigenvalues lie in the open right half-plane.  The determinants do not
    show that, so the caller must certify it, as ``find_stop_k`` does with
    :func:`linalg.bendixson_order`.  A ``log_det_ratio``
    = log|det H| - sum_i log|h_{i+1,i}| that the caller has (from an LU
    factor) saves the Hyman sweep at x = 0.
    """
    h = np.asarray(H)
    if h.shape[0] < 2:
        raise DivergentIntegral("posterior bound integral diverges for k < 2")
    log_det0 = _hyman_log_alpha(h, np.zeros(1))[0] if log_det_ratio is None else log_det_ratio
    return _certified_integrals(lambda xb, _: log_det0 - _hyman_log_alpha(h, xb),
                                h.shape[0], _HYMAN_BLOCK_ELEMENTS, [xi_norm],
                                lambda _: f"determinant bound integral at k = {h.shape[0]}",
                                cfg)[0]


def bound_posterior_modulus(ritz, xi_norm: float, cfg: QuadratureConfig | None = None) -> float:
    """Intermediate bound with |l_i|/sqrt(|l_i|^2 + x^2) in place of the
    exact factors; depends on the Ritz moduli only and dominates
    :func:`bound_posterior_ritz` pointwise.  Quadrature error is counted
    as there.  A one-item :func:`bound_posterior_batch`."""
    return bound_posterior_batch([("posterior_modulus", ritz, xi_norm)], cfg)[0]


def bound_apriori_sqrt(sigma_max: float, k: int, xi_norm: float) -> float:
    """A priori bound G(3/4)/(2^{1/4} pi) * 2k/(2k-3) * sigma^{3/2} k^{-3/4} * xi."""
    if k < 2:
        raise DomainError("the a priori square-root bound requires k >= 2")
    if sigma_max <= 0 or xi_norm < 0:
        raise DomainError("sigma_max must be positive and xi_norm nonnegative")
    const = math.gamma(0.75) / (2.0 ** 0.25 * math.pi)
    return const * (2.0 * k / (2.0 * k - 3.0)) * sigma_max ** 1.5 * k ** -0.75 * xi_norm


def lambda_bar(top_eigs, lambda_max: float, k: int) -> float:
    """Averaged eigenvalue (sum of the k largest eigenvalues plus
    lambda_max) / (k+1); never exceeds lambda_max.

    Two usages: spectrum-known mode feeds the true top-k eigenvalues of M,
    computable mode feeds the Ritz values of H_k with a lambda_max
    estimate (no larger, by interlacing).
    """
    eigs = np.asarray(top_eigs, dtype=float).ravel()
    if eigs.size != k or k < 1:
        raise DomainError(f"expected {k} leading eigenvalues, got {eigs.size}")
    if (eigs <= 0.0).any() or lambda_max <= 0.0:
        raise DomainError("eigenvalues must be positive")
    if (eigs[1:] > eigs[:-1]).any():
        raise DomainError("top_eigs must be sorted in descending order")
    if lambda_max < eigs[0] * (1.0 - 1e-12):
        raise DomainError("lambda_max must dominate the leading eigenvalue")
    return float((eigs.sum() + lambda_max) / (k + 1.0))


def _hermitian_sqrt_bound(level: float, k: int, xi_norm: float) -> float:
    if k < 1:
        raise DomainError("Hermitian square-root bounds require k >= 1")
    if level <= 0 or xi_norm < 0:
        raise DomainError("spectral level must be positive and xi_norm nonnegative")
    const = 1.0 / (2.0 * math.sqrt(math.pi))
    return const * (2.0 * k / (2.0 * k - 1.0)) * level ** 1.5 * k ** -1.5 * xi_norm


def bound_hermitian_loose(lambda_max: float, k: int, xi_norm: float) -> float:
    """Hermitian bound 1/(2 sqrt(pi)) * 2k/(2k-1) * lambda_max^{3/2} k^{-3/2} * xi."""
    return _hermitian_sqrt_bound(lambda_max, k, xi_norm)


def bound_hermitian_jensen(lambda_bar_val: float, k: int, xi_norm: float) -> float:
    """Sharpened Hermitian bound with lambda_bar in place of lambda_max."""
    return _hermitian_sqrt_bound(lambda_bar_val, k, xi_norm)


def bound_apriori_invsqrt(sigma_max: float, k: int, xi_norm: float) -> float:
    """Inverse-square-root a priori bound
    G(1/4)/(2^{3/4} pi) * 2k/(2k-1) * sigma^{1/2} k^{-1/4} * xi."""
    if k < 1:
        raise DomainError("the inverse-square-root bound requires k >= 1")
    if sigma_max <= 0 or xi_norm < 0:
        raise DomainError("sigma_max must be positive and xi_norm nonnegative")
    const = math.gamma(0.25) / (2.0 ** 0.75 * math.pi)
    return const * (2.0 * k / (2.0 * k - 1.0)) * math.sqrt(sigma_max) * k ** -0.25 * xi_norm


def bound_hermitian_invsqrt(lambda_bar_val: float, k: int, xi_norm: float) -> float:
    """Hermitian inverse-square-root bound
    (1/sqrt(pi)) * (2k+2)/(2k+1) * lambda_bar^{1/2} (k+1)^{-1/2} * xi."""
    if k < 1:
        raise DomainError("the Hermitian inverse-square-root bound requires k >= 1")
    if lambda_bar_val <= 0 or xi_norm < 0:
        raise DomainError("lambda_bar must be positive and xi_norm nonnegative")
    return (
        (1.0 / math.sqrt(math.pi))
        * ((2.0 * k + 2.0) / (2.0 * k + 1.0))
        * math.sqrt(lambda_bar_val)
        * (k + 1.0) ** -0.5
        * xi_norm
    )


def bound_perturbed(
    sigma_max_M: float,
    mu1: float,
    mu2: float,
    eps: float,
    b_norm: float,
    k: int,
    xi_norm: float,
) -> float:
    """Two-term bound for running Arnoldi on a perturbed matrix.

    eps sigma_max(M)/(mu1+mu2) ||b||  +  (1+eps)^{3/2} times the a priori
    square-root bound.  xi_norm is the FOM error for the *perturbed*
    system (the Arnoldi process runs on the perturbed matrix).
    """
    if mu1 <= 0 or mu2 <= 0:
        raise DomainError("mu1 and mu2 must be positive")
    if eps < 0 or b_norm < 0:
        raise DomainError("eps and b_norm must be nonnegative")
    first = eps * sigma_max_M / (mu1 + mu2) * b_norm
    return first + (1.0 + eps) ** 1.5 * bound_apriori_sqrt(sigma_max_M, k, xi_norm)


def scaling_term(error_norm: float, xi_norm: float, k: int) -> float:
    """Error normalized by the a priori bound's constant:
    (2^{1/4} pi / G(3/4)) * (2k-3)/(2k) * error/xi.

    Its log-log slope against k (and against sigma_max) exposes the
    k^{-3/4} and sigma^{3/2} dependencies.
    """
    if k < 2:
        raise DomainError("scaling term requires k >= 2")
    if xi_norm <= 0 or error_norm < 0:
        raise DomainError("xi_norm must be positive and error_norm nonnegative")
    const = 2.0 ** 0.25 * math.pi / math.gamma(0.75)
    return const * ((2.0 * k - 3.0) / (2.0 * k)) * error_norm / xi_norm


@dataclass(frozen=True)
class BoundReport:
    """Per-iteration record of the bounds that were computed; its fields,
    in order, are the columns of a bound CSV.

    posterior/a-priori fields are +inf at k = 1, where the bound
    integrals diverge.  A field stays None where it was not computed:
    ``error_norm`` without an oracle, every bound field in a
    :func:`arnoldi.fom_reports` row (which computes none), ``sigma_max_used``
    and ``apriori_gamma`` without a sigma_max, the Hermitian fields for
    non-Hermitian inputs or without a lambda_max.
    """

    k: int
    residual_norm: float
    xi_norm: float
    error_norm: float | None = None
    posterior_ritz: float | None = None
    posterior_modulus: float | None = None
    apriori_gamma: float | None = None
    hermitian_loose: float | None = None
    hermitian_jensen: float | None = None
    lambda_bar: float | None = None
    sigma_max_used: float | None = None

    def row(self) -> dict:
        """The fields by name, in column order: a shallow dict (where
        ``dataclasses.asdict`` would deep-copy every value)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def build_bound_report(reports, ritz, sigma_max_used: float | None,
                       cfg: QuadratureConfig | None = None, hermitian: bool = False,
                       known_spectrum=None) -> list:
    """The prefix ``reports`` (of :func:`arnoldi.fom_reports`) with their
    bound fields filled from ``ritz``, the Ritz values of each H_k.  The
    posterior integrals of every prefix with k >= 2 are one
    :func:`bound_posterior_batch`.

    For Hermitian inputs lambda_bar uses the true spectrum when
    ``known_spectrum`` (eigenvalues of M) is given, otherwise the
    computable Ritz-based mode with lambda_max = sigma_max_used, exact for
    Hermitian positive definite M.  With ``sigma_max_used`` None,
    ``apriori_gamma`` stays None, and so do the computable-mode Hermitian
    fields.
    """
    lams = [_ritz_values(r) for r in ritz]
    big = [j for j, rep in enumerate(reports) if rep.k >= 2]
    items = [(kind, lams[j], reports[j].xi_norm)
             for kind in ("posterior_ritz", "posterior_modulus") for j in big]
    vals = bound_posterior_batch(items, cfg) if items else []
    posterior = {j: (vals[i], vals[i + len(big)]) for i, j in enumerate(big)}
    if known_spectrum is not None:
        eigs = np.sort(np.asarray(known_spectrum, dtype=float))[::-1]
    out = []
    for j, rep in enumerate(reports):
        k, xi_norm = rep.k, rep.xi_norm
        gamma = None if sigma_max_used is None else (
            bound_apriori_sqrt(sigma_max_used, k, xi_norm) if k >= 2 else math.inf)
        loose = jensen = lam_bar = None
        if hermitian:
            if known_spectrum is not None:
                lam_max, top = float(eigs[0]), eigs[:k]
            else:
                lam_max = sigma_max_used
                top = (None if lam_max is None
                       else np.sort(np.minimum(lams[j].real, lam_max))[::-1][:k])
            if top is not None:
                lam_bar = lambda_bar(top, lam_max, k)
                loose = bound_hermitian_loose(lam_max, k, xi_norm)
                jensen = bound_hermitian_jensen(lam_bar, k, xi_norm)
        ritz_bound, modulus = posterior.get(j, (math.inf, math.inf))
        out.append(BoundReport(k, rep.residual_norm, xi_norm, rep.error_norm,
                               posterior_ritz=ritz_bound, posterior_modulus=modulus,
                               apriori_gamma=gamma, hermitian_loose=loose, hermitian_jensen=jensen,
                               lambda_bar=lam_bar, sigma_max_used=sigma_max_used))
    return out
