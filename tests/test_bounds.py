"""Bound formulas, special functions, and the semi-infinite quadrature.

High-precision oracle: mpmath (50 digits).  Closed forms for the
quadrature come from Beta/Mellin identities, and the bound integrals are
checked against scalar QUADPACK calls; the chain and validity
properties run on seeded Ritz spectra and, through hypothesis, on
random positive-definite matrices.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from helpers import make_pd_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from krylov_sqrt import arnoldi as arn
from krylov_sqrt import bounds as bnd
from krylov_sqrt import linalg, matgen
from krylov_sqrt.errors import (
    DivergentIntegral,
    DomainError,
    InvalidSpectrum,
    NoConvergence,
    NonFiniteIntegrand,
)

mpmath.mp.dps = 50

TIGHT = bnd.QuadratureConfig(rel_tol=1e-11, abs_tol=1e-14)


class TestGammaBeta:
    def test_gamma_one(self):
        assert bnd.gamma_fn(1.0) == 1.0

    def test_gamma_half(self):
        assert bnd.gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_gamma_three_quarters_vs_mpmath(self):
        want = float(mpmath.gamma(mpmath.mpf(3) / 4))
        assert bnd.gamma_fn(0.75) == pytest.approx(want, rel=1e-12)
        assert bnd.gamma_fn(0.75) == pytest.approx(1.225416702465178, rel=1e-12)

    @pytest.mark.parametrize("x", [0.1, 1.5, 7.0, 23.0, 50.0])
    def test_gamma_range_vs_mpmath(self, x):
        assert bnd.gamma_fn(x) == pytest.approx(float(mpmath.gamma(x)), rel=1e-12)

    def test_beta_definition_identity(self):
        want = bnd.gamma_fn(0.75) * bnd.gamma_fn(1.25) / bnd.gamma_fn(2.0)
        assert bnd.beta_fn(0.75, 1.25) == pytest.approx(want, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bnd.gamma_fn(0.0)
        with pytest.raises(DomainError):
            bnd.beta_fn(-1.0, 2.0)
        with pytest.raises(DomainError):
            bnd.beta_fn(1.0, 0.0)


class TestQuadSemiInfinite:
    def test_beta_closed_form(self):
        # int_0^inf sqrt(x)/(1+x)^2 dx = B(3/2, 1/2) = pi/2
        out = bnd.quad_semi_infinite(lambda x: np.sqrt(x) / (1.0 + x) ** 2)
        assert out.tolerance_met
        assert out.value == pytest.approx(math.pi / 2.0, rel=1e-6)

    def test_mellin_closed_form(self):
        # int_0^inf sqrt(x)/(1+x^2) dx = (pi/2)/sin(3 pi/4) = pi/sqrt(2)
        out = bnd.quad_semi_infinite(lambda x: np.sqrt(x) / (1.0 + x * x))
        assert out.value == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-6)

    @pytest.mark.parametrize("sigma,k", [(1.0, 4), (2.0, 4), (5.0, 7)])
    def test_apriori_proof_beta_identity(self, sigma, k):
        # int_0^inf sqrt(x) sigma^k / (sigma^2+x^2)^{k/2} dx
        #   = sigma^{3/2}/2 * B(3/4, (2k-3)/4)
        def integrand(x):
            return np.sqrt(x) * sigma**k / (sigma**2 + x * x) ** (k / 2.0)

        want = sigma**1.5 / 2.0 * bnd.beta_fn(0.75, (2 * k - 3) / 4.0)
        assert bnd.quad_semi_infinite(integrand).value == pytest.approx(want, rel=1e-6)

    def test_budget_flag(self):
        out = bnd.quad_semi_infinite(
            lambda x: np.sqrt(x) / (1.0 + x) ** 2,
            bnd.QuadratureConfig(rel_tol=1e-13, abs_tol=1e-300, max_subdivisions=1),
        )
        assert not out.tolerance_met

    def test_nonfinite_integrand(self):
        with pytest.raises(NonFiniteIntegrand):
            bnd.quad_semi_infinite(lambda x: float("nan"))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            bnd.QuadratureConfig(rel_tol=0.0)


class TestPosteriorRitz:
    def test_pair_of_ones(self):
        assert bnd.bound_posterior_ritz([1.0, 1.0], 1.0) == pytest.approx(0.5, rel=1e-7)

    def test_scaling_closed_form(self):
        # {c, c} gives c^{3/2}/2 by the substitution x -> c x
        assert bnd.bound_posterior_ritz([4.0, 4.0], 1.0) == pytest.approx(4.0, rel=1e-7)

    def test_k_one_diverges(self):
        with pytest.raises(DivergentIntegral):
            bnd.bound_posterior_ritz([1.0], 1.0)

    def test_left_halfplane_rejected(self):
        with pytest.raises(InvalidSpectrum):
            bnd.bound_posterior_ritz([1.0, -0.5 + 1e-6j], 1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_scale_covariance(self, seed):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(1.0, 50.0, size=6) + 1j * rng.uniform(-5.0, 5.0, size=6)
        c = 7.5
        base = bnd.bound_posterior_ritz(lam, 1.0, TIGHT)
        scaled = bnd.bound_posterior_ritz(c * lam, 1.0, TIGHT)
        assert scaled == pytest.approx(c**1.5 * base, rel=1e-8)

    def test_log_space_survives_500_factors(self):
        lam = np.full(500, 1e3)
        val = bnd.bound_posterior_ritz(lam, 1.0)
        assert np.isfinite(val) and val > 0.0

    def test_xi_scales_linearly(self):
        one = bnd.bound_posterior_ritz([2.0, 3.0], 1.0)
        assert bnd.bound_posterior_ritz([2.0, 3.0], 0.25) == pytest.approx(0.25 * one)


class TestPosteriorModulus:
    def test_pair_of_ones(self):
        want = 1.0 / math.sqrt(2.0)
        assert bnd.bound_posterior_modulus([1.0, 1.0], 1.0) == pytest.approx(want, rel=1e-7)

    def test_depends_on_modulus_only(self):
        c = 3.7
        real = bnd.bound_posterior_modulus([c, c], 1.0, TIGHT)
        rotated = bnd.bound_posterior_modulus([1j * c, -1j * c], 1.0, TIGHT)
        assert rotated == pytest.approx(real, rel=1e-10)

    def test_dominates_ritz_bound(self):
        ritz = bnd.bound_posterior_ritz([1.0, 1.0], 1.0)
        mod = bnd.bound_posterior_modulus([1.0, 1.0], 1.0)
        assert ritz <= mod + 1e-8
        assert ritz == pytest.approx(0.5, rel=1e-6)
        assert mod == pytest.approx(0.70711, rel=1e-4)

    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    def test_chain_on_seeded_spectra(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 12))
        lam = rng.uniform(0.5, 900.0, size=k) + 1j * rng.uniform(-100.0, 100.0, size=k)
        xi = float(rng.uniform(0.1, 2.0))
        ritz = bnd.bound_posterior_ritz(lam, xi, TIGHT)
        mod = bnd.bound_posterior_modulus(lam, xi, TIGHT)
        gamma = bnd.bound_apriori_sqrt(float(np.max(np.abs(lam))), k, xi)
        assert ritz <= mod + 1e-8
        assert mod <= gamma + 1e-8

    def test_zero_value_rejected(self):
        with pytest.raises(InvalidSpectrum):
            bnd.bound_posterior_modulus([0.0, 1.0], 1.0)

    def test_k_one_diverges(self):
        with pytest.raises(DivergentIntegral):
            bnd.bound_posterior_modulus([1.0], 1.0)


def quadpack_bound(lam, modulus: bool) -> float:
    """Independent oracle: the bound integral over pi by scalar QUADPACK
    calls on (0, 1) and (1, inf), with the factors written directly."""
    lam = np.asarray(lam, dtype=np.complex128)

    def integrand(x):
        if modulus:
            logs = np.log(np.abs(lam)) - 0.5 * np.log(np.abs(lam) ** 2 + x * x)
        else:
            logs = np.log(np.abs(lam)) - np.log(np.abs(lam + x))
        return math.sqrt(x) * math.exp(np.sum(logs))

    head = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=500)[0]
    tail = quad(integrand, 1.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=500)[0]
    return (head + tail) / math.pi


@pytest.fixture(scope="module")
def skewed_ritz():
    """Ritz spectra of H_k, k = 2..30, for a skewed order-120 matrix."""
    a, _, _ = make_pd_matrix(3, 120)
    state = arn.arnoldi(a, np.ones(120), 30)
    return {k: linalg.hessenberg_eigenvalues(state.prefix(k).hessenberg)
            for k in range(2, 31)}


@pytest.fixture(scope="module")
def convdiff_ritz():
    """Ritz spectrum of H_300 for the upwind convection-diffusion operator."""
    tri = matgen.convection_diffusion(1000, 0.1)
    state = arn.arnoldi(tri, np.ones(tri.shape[0]), 300)
    return linalg.hessenberg_eigenvalues(state.hessenberg)


@pytest.fixture
def quad_log(monkeypatch):
    """Record every quad_semi_infinite call the bounds make, as
    [integrand calls, QuadResult]."""
    log = []
    plain = bnd.quad_semi_infinite

    def recorded(integrand, cfg=None):
        entry = [0, None]
        log.append(entry)

        def counted(x):
            entry[0] += 1
            return integrand(x)

        entry[1] = plain(counted, cfg)
        return entry[1]

    monkeypatch.setattr(bnd, "quad_semi_infinite", recorded)
    return log


def assert_matches_quadpack(ritz):
    for bound, modulus in ((bnd.bound_posterior_ritz, False),
                           (bnd.bound_posterior_modulus, True)):
        want = quadpack_bound(ritz.values, modulus)
        assert bound(ritz, 1.0, TIGHT) == pytest.approx(want, rel=1e-9)


class TestBoundQuadrature:
    @pytest.mark.parametrize("k", range(2, 31))
    def test_matches_quadpack_skewed(self, skewed_ritz, k):
        assert_matches_quadpack(skewed_ritz[k])

    def test_matches_quadpack_convdiff(self, convdiff_ritz):
        assert_matches_quadpack(convdiff_ritz)

    def test_estimated_error_is_counted(self, skewed_ritz, quad_log):
        got = bnd.bound_posterior_ritz(skewed_ritz[12], 0.3)
        q = quad_log[0][1]
        assert q.estimated_error > 0.0
        assert got == pytest.approx((q.value + q.estimated_error) / math.pi * 0.3, rel=1e-15)
        assert got > q.value / math.pi * 0.3

    def test_few_vectorized_calls(self, skewed_ritz, convdiff_ritz, quad_log):
        for ritz in (skewed_ritz[2], skewed_ritz[30], convdiff_ritz):
            bnd.bound_posterior_ritz(ritz, 1.0)
            bnd.bound_posterior_modulus(ritz, 1.0)
        assert len(quad_log) == 6
        assert max(calls for calls, _ in quad_log) <= 20

    def test_budget_miss_raises(self, skewed_ritz):
        cfg = bnd.QuadratureConfig(max_subdivisions=1)
        with pytest.raises(NoConvergence):
            bnd.bound_posterior_ritz(skewed_ritz[30], 1.0, cfg)
        with pytest.raises(NoConvergence):
            bnd.bound_posterior_modulus(skewed_ritz[30], 1.0, cfg)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(4, 40), k_max=st.integers(2, 12),
       skew=st.booleans())
def test_chain_property_on_random_pd(seed, n, k_max, skew):
    """err <= ritz <= modulus <= gamma on small random positive-definite
    matrices; errors at rounding level (below 1e-10 ||ref||) are exempt
    from the first link, where rounding sets both numbers."""
    a, _, _ = make_pd_matrix(seed, n, skew=skew)
    b = np.random.default_rng(seed).standard_normal(n)
    reference = sla.sqrtm(a) @ b
    x_exact = np.linalg.solve(a, b)
    sigma = float(sla.svdvals(a)[0])
    slack = 1.0 + 2.0 * bnd.QuadratureConfig().rel_tol
    state = arn.arnoldi(a, b, min(k_max, n))
    for k in range(2, state.k + 1):
        sub = state.prefix(k)
        xi = float(np.linalg.norm(x_exact - arn.fom_iterate(sub)))
        ritz = linalg.hessenberg_eigenvalues(sub.hessenberg)
        err = float(np.linalg.norm(reference - arn.arnoldi_fun_action(sub, "sqrt")))
        b_ritz = bnd.bound_posterior_ritz(ritz, xi)
        b_mod = bnd.bound_posterior_modulus(ritz, xi)
        if err > 1e-10 * np.linalg.norm(reference):
            assert err <= b_ritz
        assert b_ritz <= b_mod * slack
        assert b_mod <= bnd.bound_apriori_sqrt(sigma, k, xi) * slack


class TestAprioriSqrt:
    def test_frozen_value_k2(self):
        want = float(mpmath.gamma(0.75) / (2 ** mpmath.mpf("0.25") * mpmath.pi)
                     * 4 * 2 ** mpmath.mpf("-0.75"))
        got = bnd.bound_apriori_sqrt(1.0, 2, 1.0)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.7801, rel=1e-4)

    def test_sigma_homogeneity(self):
        one = bnd.bound_apriori_sqrt(1.0, 5, 1.0)
        assert bnd.bound_apriori_sqrt(2.0, 5, 1.0) == pytest.approx(2.0**1.5 * one)

    def test_k_below_two(self):
        with pytest.raises(DomainError):
            bnd.bound_apriori_sqrt(1.0, 1, 1.0)


class TestLambdaBar:
    def test_degenerate_spectrum(self):
        assert bnd.lambda_bar([3.0, 3.0, 3.0], 3.0, 3) == pytest.approx(3.0)

    def test_worked_example(self):
        assert bnd.lambda_bar([1000.0, 10.0, 10.0], 1000.0, 3) == pytest.approx(505.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_never_exceeds_lambda_max(self, seed):
        rng = np.random.default_rng(seed)
        eigs = np.sort(rng.uniform(1.0, 100.0, size=8))[::-1]
        assert bnd.lambda_bar(eigs, eigs[0], 8) <= eigs[0]

    def test_requires_sorted(self):
        with pytest.raises(DomainError):
            bnd.lambda_bar([1.0, 5.0], 5.0, 2)

    def test_requires_dominating_max(self):
        with pytest.raises(DomainError):
            bnd.lambda_bar([10.0, 1.0], 5.0, 2)


class TestHermitianBounds:
    def test_loose_frozen_value(self):
        got = bnd.bound_hermitian_loose(1.0, 1, 1.0)
        assert got == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)
        assert got == pytest.approx(0.5642, rel=1e-4)

    def test_jensen_frozen_value(self):
        got = bnd.bound_hermitian_jensen(4.0, 1, 1.0)
        want = float(1 / (2 * mpmath.sqrt(mpmath.pi)) * 2 * 8)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(4.514, rel=1e-3)

    def test_equal_levels_coincide(self):
        assert bnd.bound_hermitian_jensen(7.0, 4, 0.3) == bnd.bound_hermitian_loose(7.0, 4, 0.3)

    def test_jensen_dominated_for_clustered_spectrum(self):
        # 99% near 10, 1% near 1000: the averaged level collapses
        eigs = np.sort(np.concatenate([np.full(99, 10.0), np.full(1, 1000.0)]))[::-1]
        k = 50
        lam_bar = bnd.lambda_bar(eigs[:k], eigs[0], k)
        loose = bnd.bound_hermitian_loose(eigs[0], k, 1.0)
        jensen = bnd.bound_hermitian_jensen(lam_bar, k, 1.0)
        assert jensen <= loose
        assert jensen / loose == pytest.approx((lam_bar / eigs[0]) ** 1.5, rel=1e-12)
        assert jensen / loose < 0.1

    def test_lambda_homogeneity(self):
        one = bnd.bound_hermitian_loose(1.0, 3, 1.0)
        assert bnd.bound_hermitian_loose(4.0, 3, 1.0) == pytest.approx(8.0 * one)


class TestInverseSqrtBounds:
    def test_apriori_frozen_value(self):
        want = float(mpmath.gamma(mpmath.mpf(1) / 4) / (2 ** mpmath.mpf("0.75") * mpmath.pi) * 2)
        got = bnd.bound_apriori_invsqrt(1.0, 1, 1.0)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(1.3724, rel=1e-4)

    def test_sigma_homogeneity(self):
        one = bnd.bound_apriori_invsqrt(1.0, 4, 1.0)
        assert bnd.bound_apriori_invsqrt(9.0, 4, 1.0) == pytest.approx(3.0 * one)

    def test_hermitian_frozen_value(self):
        want = float(1 / mpmath.sqrt(mpmath.pi) * (4 / mpmath.mpf(3)) * 2 / mpmath.sqrt(2))
        got = bnd.bound_hermitian_invsqrt(4.0, 1, 1.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            bnd.bound_apriori_invsqrt(-1.0, 2, 1.0)
        with pytest.raises(DomainError):
            bnd.bound_hermitian_invsqrt(1.0, 0, 1.0)


class TestInverseSqrtValidity:
    @pytest.mark.parametrize("seed", [41, 42])
    def test_bounds_hold_on_spd_instances(self, seed):
        from krylov_sqrt import arnoldi as arn
        from krylov_sqrt import linalg, matgen

        sm = matgen.spectrum_matrix(matgen.SpectrumSpec.uniform(60, 1.0, 1000.0), seed)
        a = sm.matrix.array.real
        b = np.ones(60)
        # inverse-square-root oracle through the eigendecomposition
        w, v = np.linalg.eigh(a)
        reference = (v / np.sqrt(w)) @ (v.T @ b)
        x_exact = linalg.lu_solve(a, b)
        state = arn.arnoldi(a, b, 20)
        sigma = float(np.linalg.norm(a, 2))
        for k in range(1, 21):
            sub = state.prefix(k)
            xi = float(np.linalg.norm(x_exact - arn.fom_iterate(sub)))
            err = float(np.linalg.norm(reference - arn.arnoldi_fun_action(sub, "invsqrt")))
            assert err <= bnd.bound_apriori_invsqrt(sigma, k, xi) + 1e-8
            lam_bar = bnd.lambda_bar(sm.eigenvalues[:k], sm.eigenvalues[0], k)
            assert err <= bnd.bound_hermitian_invsqrt(lam_bar, k, xi) + 1e-8


class TestPerturbedBound:
    def test_eps_zero_reduces_to_apriori(self):
        got = bnd.bound_perturbed(50.0, 1.0, 1.0, 0.0, 3.0, 4, 0.7)
        assert got == bnd.bound_apriori_sqrt(50.0, 4, 0.7)

    def test_first_term_arithmetic(self):
        got = bnd.bound_perturbed(100.0, 1.0, 1.0, 0.01, 1.0, 2, 1.0)
        second = 1.01**1.5 * bnd.bound_apriori_sqrt(100.0, 2, 1.0)
        assert got == pytest.approx(0.5 + second, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            bnd.bound_perturbed(1.0, 0.0, 1.0, 0.1, 1.0, 2, 1.0)


class TestScalingTerm:
    def test_inverts_apriori_constant(self):
        sigma, k, xi = 37.0, 9, 0.2
        err = bnd.bound_apriori_sqrt(sigma, k, xi)
        assert bnd.scaling_term(err, xi, k) == pytest.approx(sigma**1.5 * k**-0.75, rel=1e-12)

    def test_frozen_value_k2(self):
        want = float(2 ** mpmath.mpf("0.25") * mpmath.pi / mpmath.gamma(0.75) / 4)
        got = bnd.scaling_term(1.0, 1.0, 2)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.7622, rel=1e-4)

    def test_monotone_in_error(self):
        assert bnd.scaling_term(2.0, 1.0, 5) > bnd.scaling_term(1.0, 1.0, 5)


class TestBoundReport:
    def test_k1_fields_infinite(self):
        rep = bnd.build_bound_report(k=1, ritz=[2.0], residual_norm=0.5, xi_norm=0.4,
                                     sigma_max_used=10.0)
        assert rep.posterior_ritz == math.inf
        assert rep.posterior_modulus == math.inf
        assert rep.apriori_gamma == math.inf
        assert rep.hermitian_loose is None

    def test_hermitian_known_vs_computable_modes(self):
        eigs = np.array([100.0, 50.0, 20.0, 10.0, 5.0])
        ritz = np.array([99.0, 48.0, 18.0])
        known = bnd.build_bound_report(k=3, ritz=ritz, residual_norm=1.0, xi_norm=1.0,
                                       sigma_max_used=100.0, hermitian=True,
                                       known_spectrum=eigs)
        computable = bnd.build_bound_report(k=3, ritz=ritz, residual_norm=1.0,
                                            xi_norm=1.0, sigma_max_used=100.0,
                                            hermitian=True)
        # Ritz values interlace below the true spectrum, so the computable
        # average cannot exceed the spectrum-known one
        assert computable.lambda_bar <= known.lambda_bar
        assert known.lambda_bar == pytest.approx((170.0 + 100.0) / 4.0)
        assert computable.hermitian_jensen <= computable.hermitian_loose
