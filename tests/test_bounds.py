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
from helpers import make_pd_matrix, record_hyman_sweeps, record_quad_batches
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta

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

        want = sigma**1.5 / 2.0 * beta(0.75, (2 * k - 3) / 4.0)
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

    def test_vector_integrand(self):
        # the Beta and Mellin closed forms above as the two components of
        # one integrand; the error is the norm over them, so it is met by
        # each component and never below the larger of the two alone
        beta = lambda x: np.sqrt(x) / (1.0 + x) ** 2  # noqa: E731
        mellin = lambda x: np.sqrt(x) / (1.0 + x * x)  # noqa: E731
        out = bnd.quad_semi_infinite(lambda x: np.stack([beta(x), 3.0j * mellin(x)]), TIGHT)
        assert out.tolerance_met and out.value.shape == (2,)
        np.testing.assert_allclose(out.value, [math.pi / 2.0, 3.0j * math.pi / math.sqrt(2.0)],
                                   rtol=1e-10)
        alone = [bnd.quad_semi_infinite(g, TIGHT).estimated_error for g in (beta, mellin)]
        assert out.estimated_error >= max(alone)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            bnd.QuadratureConfig(rel_tol=0.0)

    @pytest.mark.parametrize("kwargs", [{"rel_tol": math.nan}, {"abs_tol": math.nan},
                                        {"max_subdivisions": 2.5}, {"max_subdivisions": 0}])
    def test_config_rejects_nan_and_a_fractional_budget(self, kwargs):
        # nan <= 0 is False, so a NaN tolerance used to pass and surface
        # after the work as a missed tolerance; a budget of 2.5 ran
        with pytest.raises(DomainError, match=next(iter(kwargs))):
            bnd.QuadratureConfig(**kwargs)


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
    """Every batch of adaptive quadratures the bounds run, as
    [integrand calls, one QuadResult per integral]."""
    return record_quad_batches(monkeypatch)


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
        (q,) = quad_log[0][1]
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


KINDS = {"posterior_ritz": bnd.bound_posterior_ritz,
         "posterior_modulus": bnd.bound_posterior_modulus}


def batch_spectra() -> list:
    """Ritz value sets for k = 2..40: real, conjugate pairs, clustered, and
    spread over 1e-3..1e6."""
    rng = np.random.default_rng(41)
    out = []
    for k in range(2, 41):
        half = rng.uniform(1.0, 500.0, k // 2) + 1j * rng.uniform(0.1, 300.0, k // 2)
        out += [rng.uniform(1.0, 1000.0, k),
                np.concatenate([half, half.conj(), rng.uniform(1.0, 500.0, k % 2)]),
                10.0 + rng.normal(0.0, 1e-3, k),
                10.0 ** rng.uniform(-3.0, 6.0, k)]
    return out


class TestPosteriorBatch:
    def test_each_item_matches_its_own_call(self, quad_log):
        items = [(kind, lam, 0.5 + j % 3) for j, lam in enumerate(batch_spectra())
                 for kind in KINDS]
        got = bnd.bound_posterior_batch(items)
        batch_calls = quad_log[0][0]
        for (kind, lam, xi), value in zip(items, got):
            assert value == pytest.approx(KINDS[kind](lam, xi), rel=1e-14)
        # one integrand call per pass: the batch took the passes of its hardest item
        assert batch_calls == max(calls for calls, _ in quad_log[1:])

    def test_each_item_meets_quadpack(self):
        cfg = bnd.QuadratureConfig(rel_tol=1e-10, abs_tol=1e-300)
        items = [(kind, lam, 1.0) for lam in batch_spectra()[::7] for kind in KINDS]
        for (kind, lam, _), value in zip(items, bnd.bound_posterior_batch(items, cfg)):
            want = quadpack_bound(lam, kind == "posterior_modulus")
            assert abs(value - want) <= 2.0 * cfg.rel_tol * want

    def test_k_one_item_diverges(self):
        with pytest.raises(DivergentIntegral):
            bnd.bound_posterior_batch([("posterior_ritz", [1.0, 2.0], 1.0),
                                       ("posterior_modulus", [3.0], 1.0)])

    def test_left_half_plane_item_rejected(self):
        with pytest.raises(InvalidSpectrum):
            bnd.bound_posterior_batch([("posterior_modulus", [1.0, 2.0], 1.0),
                                       ("posterior_ritz", [1.0, -0.5 + 1e-6j], 1.0)])

    def test_budget_is_per_integral(self, skewed_ritz, quad_log):
        # three intervals each do for the two easy integrals but not for
        # k = 30, and three shared by all would not do for the easy ones;
        # the hard integral runs out alone and is the one named
        tight = bnd.QuadratureConfig(max_subdivisions=3)
        easy = [("posterior_ritz", [1.0, 1.0], 1.0), ("posterior_modulus", [4.0, 4.0], 1.0)]
        alone = bnd.bound_posterior_batch(easy, tight)
        with pytest.raises(NoConvergence, match="posterior_ritz integral at k = 30"):
            bnd.bound_posterior_batch(easy[:1] + [("posterior_ritz", skewed_ritz[30], 1.0)]
                                      + easy[1:], tight)
        first, hard, last = quad_log[-1][1]
        assert not hard.tolerance_met and first.tolerance_met and last.tolerance_met
        assert [(q.value + q.estimated_error) / math.pi for q in (first, last)] == alone

    # 24 prefixes in 2..30 with both kinds, as a prefix report batches them
    REPORT_KS = [k for k in range(2, 31) if k not in (5, 11, 17, 23, 29)]

    def report_items(self, skewed_ritz) -> list:
        return [(kind, skewed_ritz[k], 0.5 + k / 10) for kind in KINDS for k in self.REPORT_KS]

    def test_report_shaped_batch_matches_one_item_calls(self, skewed_ritz):
        items = self.report_items(skewed_ritz)
        assert len(items) == 48
        for (kind, lam, xi), value in zip(items, bnd.bound_posterior_batch(items)):
            assert value == pytest.approx(KINDS[kind](lam, xi), rel=1e-14)

    def test_blocks_stop_at_their_largest_k(self, monkeypatch, skewed_ritz):
        # every node block's k-by-nodes temporary (the array log1p takes)
        # has the rows of the largest k among its integrals, no more
        items = self.report_items(skewed_ritz)
        orders = np.array([lam.k for _, lam, _ in items])
        blocks, rows = [], []
        certified, log1p = bnd._certified_integrals, np.log1p
        monkeypatch.setattr(bnd, "_certified_integrals", lambda log_gamma, *args: certified(
            lambda xb, ob: blocks.append(ob.copy()) or log_gamma(xb, ob), *args))
        monkeypatch.setattr(np, "log1p", lambda t, **kw: rows.append(t.shape[0]) or log1p(t, **kw))
        monkeypatch.setattr(bnd, "_BLOCK_ELEMENTS", 4096)  # several blocks per pass
        bnd.bound_posterior_batch(items)
        assert rows == [orders[ob].max() for ob in blocks]
        assert min(rows) < max(rows) == 30

    def test_vector_integrands_match_their_one_integral_calls(self, convdiff_h90):
        # two shifted-solve actions of H_90 (the integrand of the action
        # above the crossover, at two centres) in one batch
        cfg = arn.SHIFTED_ACTION_QUAD
        actions = [lambda x, c=c: 3.0 * np.sqrt(c * x) * bnd.shifted_solve_e1(convdiff_h90, c * x**3)
                   for c in (0.2, 5.0)]

        def integrand(x, owner):
            out = np.empty((convdiff_h90.shape[0], x.size))
            for j, action in enumerate(actions):
                if np.any(owner == j):  # a closed integral has no new nodes
                    out[:, owner == j] = action(x[owner == j])
            return out

        for got, action in zip(bnd._quad_batch(integrand, 2, cfg), actions):
            alone = bnd.quad_semi_infinite(action, cfg)
            assert got.tolerance_met and alone.tolerance_met
            np.testing.assert_allclose(got.value, alone.value, rtol=1e-14, atol=0.0)
            assert got.estimated_error == pytest.approx(alone.estimated_error, rel=1e-14)


def start_on_one_interval(monkeypatch, cfg=None):
    """Make the next quadrature batch start on (0, 1) alone, one interval
    per integral, and bisect it, as the batch started before it took the
    two halves: every integral must miss its tolerance there (else it
    would have closed on one interval), and the halves are evaluated in
    the order bisection lists them (all left halves, then all right) and
    regrouped by integral."""
    cfg = cfg or bnd.QuadratureConfig()
    plain, done = bnd._gauss_kronrod_21, []

    def first_pass(g, owner, left, width):
        if done:
            return plain(g, owner, left, width)
        done.append(True)
        count = owner.size // 2
        ints = np.arange(count)
        value, err = plain(g, ints, np.zeros(count), np.ones(count))
        size = abs if value.ndim == 1 else np.linalg.norm
        assert all(err[j] > max(cfg.abs_tol, cfg.rel_tol * size(value[j])) for j in ints)
        value, err = plain(g, np.tile(ints, 2), np.repeat([0.0, 0.5], count),
                           np.full(2 * count, 0.5))
        regroup = np.argsort(np.tile(ints, 2), kind="stable")
        return value[regroup], err[regroup]

    monkeypatch.setattr(bnd, "_gauss_kronrod_21", first_pass)


def beta_integrand(x):
    return np.sqrt(x) / (1.0 + x) ** 2


def mellin_integrand(x):
    return np.sqrt(x) / (1.0 + x * x)


class TestTwoHalfStart:
    """The first pass takes the halves of (0, 1): bit-equal to a pass on
    (0, 1) that bisects, with one integrand pass fewer."""

    @pytest.mark.parametrize("integrand", [beta_integrand, mellin_integrand],
                             ids=["beta", "mellin"])
    def test_closed_forms(self, monkeypatch, quad_log, integrand):
        two_halves = bnd.quad_semi_infinite(integrand)
        start_on_one_interval(monkeypatch)
        assert bnd.quad_semi_infinite(integrand) == two_halves
        assert quad_log[0][0] == quad_log[1][0] - 1

    def test_posterior_batch(self, monkeypatch):
        items = [(kind, lam, 1.0) for lam in batch_spectra()[::9] for kind in KINDS]
        two_halves = bnd.bound_posterior_batch(items)
        start_on_one_interval(monkeypatch)
        assert bnd.bound_posterior_batch(items) == two_halves

    def test_determinant_bound(self, monkeypatch, convdiff_h90):
        two_halves = bnd.bound_posterior_det(convdiff_h90, 0.7)
        start_on_one_interval(monkeypatch)
        assert bnd.bound_posterior_det(convdiff_h90, 0.7) == two_halves

    def test_first_pass_intervals(self, monkeypatch):
        # (owner, left, width) of the first pass: the two halves, or (0, 1)
        # alone on a budget of one interval
        passes, plain = [], bnd._gauss_kronrod_21
        monkeypatch.setattr(bnd, "_gauss_kronrod_21", lambda g, *arrays: passes.append(
            [a.tolist() for a in arrays]) or plain(g, *arrays))
        bnd.quad_semi_infinite(beta_integrand)
        assert passes[0] == [[0, 0], [0.0, 0.5], [0.5, 0.5]]
        passes.clear()
        one = bnd.QuadratureConfig(max_subdivisions=1)
        assert not bnd.quad_semi_infinite(beta_integrand, one).tolerance_met
        assert passes == [[[0], [0.0], [1.0]]]


def mp_logdet(h: np.ndarray, x: float) -> float:
    """log|det(H + xI)| for an upper Hessenberg H in 40-digit arithmetic, by
    Gaussian elimination with partial pivoting (one row below each pivot)."""
    k = h.shape[0]
    with mpmath.workdps(40):
        a = [[mpmath.mpmathify(v) for v in row] for row in h.tolist()]
        for i in range(k):
            a[i][i] += mpmath.mpf(x)
        log_det = mpmath.mpf(0)
        for j in range(k):
            if j + 1 < k and abs(a[j + 1][j]) > abs(a[j][j]):
                a[j], a[j + 1] = a[j + 1], a[j]
            log_det += mpmath.log(abs(a[j][j]))
            if j + 1 < k:
                m = a[j + 1][j] / a[j][j]
                a[j + 1] = [a[j + 1][c] - m * a[j][c] if c >= j else a[j + 1][c]
                            for c in range(k)]
        return float(log_det)


def mp_log_det_ratio(h: np.ndarray) -> float:
    """log|det H| - sum_i log|h_{i+1,i}| for an unreduced upper Hessenberg
    H in 40-digit arithmetic: the elimination of :func:`mp_logdet` at
    x = 0, carrying only the columns not yet eliminated."""
    k = h.shape[0]
    with mpmath.workdps(40):
        top, acc = [mpmath.mpmathify(v) for v in h[0].tolist()], mpmath.mpf(0)
        for j in range(k - 1):
            low = [mpmath.mpmathify(v) for v in h[j + 1, j:].tolist()]
            acc -= mpmath.log(abs(low[0]))
            if abs(low[0]) > abs(top[0]):
                top, low = low, top
            acc += mpmath.log(abs(top[0]))
            m = low[0] / top[0]
            top = [low[c] - m * top[c] for c in range(1, k - j)]
        return float(acc + mpmath.log(abs(top[0])))


@pytest.fixture(scope="module")
def convdiff_h90():
    tri = matgen.convection_diffusion(120, 0.5)
    return np.array(arn.arnoldi(tri, np.ones(119), 90).hessenberg)


class TestShiftedLogdet:
    SHIFTS = (1e-3, 0.1, 1.0, 10.0, 100.0)

    def test_matches_mpmath(self, convdiff_h90):
        got = bnd.shifted_logdet(convdiff_h90, self.SHIFTS)
        want = [mp_logdet(convdiff_h90, x) for x in self.SHIFTS]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=2e-13)

    def test_complex_matches_mpmath(self):
        rng = np.random.default_rng(11)
        h = np.triu(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)), -1)
        got = bnd.shifted_logdet(h, self.SHIFTS)
        want = [mp_logdet(h, x) for x in self.SHIFTS]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_order_two_closed_form(self):
        a, b, c, d = 3.0, -2.0, 0.5, 1.5
        x = np.array(self.SHIFTS)
        want = np.log(np.abs((a + x) * (d + x) - b * c))
        got = bnd.shifted_logdet(np.array([[a, b], [c, d]]), x)
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_huge_shift_is_rescaled(self, convdiff_h90):
        # without rescaling the Hyman vector would reach about 1e725
        got = bnd.shifted_logdet(convdiff_h90, [1e12])[0]
        assert got == pytest.approx(mp_logdet(convdiff_h90, 1e12), rel=1e-14)

    def test_tiny_subdiagonal(self):
        rng = np.random.default_rng(5)
        h = np.triu(rng.standard_normal((10, 10)), -1) + 4.0 * np.eye(10)
        h[6, 5] = 1e-12 * np.linalg.norm(h, 2)
        got = bnd.shifted_logdet(h, self.SHIFTS)
        want = [mp_logdet(h, x) for x in self.SHIFTS]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_reduced_matrix_rejected(self):
        with pytest.raises(DomainError):
            bnd.shifted_logdet(np.diag([1.0, 2.0]), [1.0])

    def test_row_step_bit_identical_to_one_expression(self, convdiff_h90):
        # the in-place row step against each row written as one expression
        rng = np.random.default_rng(11)
        complex_h = np.triu(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)),
                            -1)
        shifts = np.append(np.geomspace(1e-6, 1e12, 19), np.nan)  # the largest ones rescale
        for h in (convdiff_h90, complex_h):
            for got, want in zip(bnd._hyman(h, shifts), hyman_one_expression(h, shifts)):
                assert np.array_equal(got, want, equal_nan=True)


def hyman_one_expression(h: np.ndarray, shifts: np.ndarray):
    """bounds._hyman with each row of the back-substitution one expression."""
    k = h.shape[0]
    X = np.zeros((k, shifts.size), dtype=np.result_type(h, shifts))
    X[-1] = 1.0
    log_scale = np.zeros(shifts.size)
    for r in range(k - 1, 0, -1):
        X[r - 1] = -(h[r, r:] @ X[r:] + shifts * X[r]) / h[r, r - 1]
        big = np.abs(X[r - 1]) > 1e100
        if big.any():
            scale = np.abs(X[r - 1, big])
            X[r - 1:, big] /= scale
            log_scale[big] += np.log(scale)
    return X, h[0] @ X + shifts * X[0], log_scale


@pytest.fixture(scope="module")
def convdiff_h888():
    tri = matgen.convection_diffusion(1000, 0.1)
    return np.array(arn.arnoldi(tri, np.ones(999), 888).hessenberg)


def assert_solves(h, shifts, rtol):
    """bounds.shifted_solve_e1 against one dense LU solve per shift."""
    got = bnd.shifted_solve_e1(h, shifts)
    assert got.shape == (h.shape[0], len(shifts))
    e1 = np.eye(h.shape[0])[0]
    for j, x in enumerate(shifts):
        want = linalg.DenseMatrix(h + x * np.eye(h.shape[0])).solve(e1)
        assert np.linalg.norm(got[:, j] - want) <= rtol * np.linalg.norm(want)


class TestShiftedSolve:
    SHIFTS = tuple(np.geomspace(1e-6, 1e7, 14))

    def test_matches_dense_solve_convdiff(self, convdiff_h90, convdiff_h888):
        assert_solves(convdiff_h90, self.SHIFTS, 1e-12)
        assert_solves(convdiff_h888, self.SHIFTS, 1e-12)

    def test_complex(self):
        rng = np.random.default_rng(11)
        h = np.triu(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)), -1)
        assert_solves(h + 6.0 * np.eye(12), self.SHIFTS, 1e-12)

    def test_orders_one_and_two_closed_form(self):
        x = np.array(self.SHIFTS)
        np.testing.assert_allclose(bnd.shifted_solve_e1(np.array([[2.5]]), x),
                                   [1.0 / (2.5 + x)], rtol=1e-15)
        a, b, c, d = 3.0, -2.0, 0.5, 1.5
        det = (a + x) * (d + x) - b * c
        np.testing.assert_allclose(bnd.shifted_solve_e1(np.array([[a, b], [c, d]]), x),
                                   [(d + x) / det, -c / det], rtol=1e-14)

    def test_tiny_subdiagonal(self):
        rng = np.random.default_rng(5)
        h = np.triu(rng.standard_normal((10, 10)), -1) + 4.0 * np.eye(10)
        h[6, 5] = 1e-12 * np.linalg.norm(h, 2)
        assert_solves(h, self.SHIFTS, 1e-12)

    def test_no_shifts(self, convdiff_h90):
        # a k x 0 array, as shifted_logdet gives shape (0,)
        for h in (convdiff_h90, convdiff_h90 + 0j):
            out = bnd.shifted_solve_e1(h, np.zeros(0))
            assert out.shape == (90, 0) and out.dtype == h.dtype
        assert bnd.shifted_logdet(convdiff_h90, np.zeros(0)).shape == (0,)

    def test_huge_shift_is_rescaled(self, convdiff_h90):
        # without rescaling the Hyman vector would reach about 1e725
        assert_solves(convdiff_h90, [1e12], 1e-12)

    def test_reduced_matrix_rejected(self):
        with pytest.raises(DomainError):
            bnd.shifted_solve_e1(np.diag([1.0, 2.0]), [1.0])


class TestDeterminantBound:
    @pytest.mark.parametrize("k", [2, 12, 30])
    def test_matches_quadpack(self, k):
        a, _, _ = make_pd_matrix(3, 120)
        h = arn.arnoldi(a, np.ones(120), k).hessenberg
        want = quadpack_bound(linalg.hessenberg_eigenvalues(h).values, False)
        assert bnd.bound_posterior_det(h, 1.0, TIGHT) == pytest.approx(want, rel=1e-9)

    def test_matches_ritz_form_convdiff(self, convdiff_h90):
        ritz = linalg.hessenberg_eigenvalues(convdiff_h90)
        got = bnd.bound_posterior_det(convdiff_h90, 0.7)
        assert got == pytest.approx(bnd.bound_posterior_ritz(ritz, 0.7), rel=1e-10)

    @pytest.mark.parametrize("fixture, rel", [("convdiff_h90", 1e-13), ("convdiff_h888", 2e-12)],
                             ids=["convdiff_h90", "convdiff_h888"])
    def test_lu_logdet_matches_sweep(self, request, monkeypatch, fixture, rel):
        # log|det H_k| - sum log|h_{i+1,i}| from a Hessenberg LU factor (the
        # ratio form) in place of Hyman's one-shift sweep at x = 0, which is
        # the one sweep it saves.  The bound moves by the difference of the
        # two constants, which is the sweep's own rounding: measured 9.1e-15
        # relative at k = 90 and 8.5e-13 at k = 888, where the ratio form is
        # 1.2e-13 from a 40-digit value (test_ratio_form_matches_mpmath)
        h = request.getfixturevalue(fixture)
        k = h.shape[0]
        lu = arn._HessenbergLU()
        lu.extend(h, k)
        log_det_ratio = lu.log_det_ratios([k])[0][0]
        sweeps = record_hyman_sweeps(monkeypatch)
        swept = bnd.bound_posterior_det(h, 0.7)
        passes = sweeps[1:]
        from_lu = bnd.bound_posterior_det(h, 0.7, log_det_ratio=log_det_ratio)
        assert from_lu == pytest.approx(swept, rel=rel, abs=0.0)
        assert sweeps[0] == (k, 1) and sweeps[len(passes) + 1:] == passes

    def test_lu_logdet_matches_mpmath(self, convdiff_h90):
        lu = arn._HessenbergLU()
        lu.extend(convdiff_h90, 90)
        log_det = lu.log_det_ratios([90])[0][0] + np.log(np.diagonal(convdiff_h90, -1)).sum()
        assert log_det == pytest.approx(mp_logdet(convdiff_h90, 0.0), rel=0.0, abs=2e-13)

    @pytest.mark.parametrize("fixture", ["convdiff_h90", "convdiff_h888"])
    def test_ratio_form_matches_mpmath(self, request, fixture):
        # the constant of the stopping search's determinant bound.  Summed
        # as log|u_ii / h_{i+1,i}| (each >= 0) plus the last pivot, it is
        # 1.2e-14 (k = 90) and 1.2e-13 (k = 888) from a 40-digit value on one
        # BLAS thread; as log|det H_k| minus the sum of log|h_{i+1,i}|, two
        # sums of about 10^4 at k = 888, it was 9.2e-14 and 8.0e-13
        h = request.getfixturevalue(fixture)
        k = h.shape[0]
        lu = arn._HessenbergLU()
        lu.extend(h, k)
        got = lu.log_det_ratios([k])[0][0]
        assert got == pytest.approx(mp_log_det_ratio(h), rel=0.0, abs=3e-13)

    def test_errors(self, convdiff_h90):
        with pytest.raises(DivergentIntegral):
            bnd.bound_posterior_det(np.array([[2.0]]), 1.0)
        with pytest.raises(DomainError):
            bnd.bound_posterior_det(np.diag([1.0, 2.0]), 1.0)
        with pytest.raises(NoConvergence):
            bnd.bound_posterior_det(convdiff_h90, 1.0, bnd.QuadratureConfig(max_subdivisions=1))


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
        (rep,) = bnd.build_bound_report([bnd.BoundReport(1, 0.5, 0.4)], ritz=[[2.0]],
                                        sigma_max_used=10.0)
        assert rep.posterior_ritz == math.inf
        assert rep.posterior_modulus == math.inf
        assert rep.apriori_gamma == math.inf
        assert rep.hermitian_loose is None

    def test_hermitian_known_vs_computable_modes(self):
        eigs = np.array([100.0, 50.0, 20.0, 10.0, 5.0])
        ritz = np.array([99.0, 48.0, 18.0])
        prefix = [bnd.BoundReport(3, 1.0, 1.0)]
        (known,) = bnd.build_bound_report(prefix, ritz=[ritz], sigma_max_used=100.0,
                                          hermitian=True, known_spectrum=eigs)
        (computable,) = bnd.build_bound_report(prefix, ritz=[ritz], sigma_max_used=100.0,
                                               hermitian=True)
        # Ritz values interlace below the true spectrum, so the computable
        # average cannot exceed the spectrum-known one
        assert computable.lambda_bar <= known.lambda_bar
        assert known.lambda_bar == pytest.approx((170.0 + 100.0) / 4.0)
        assert computable.hermitian_jensen <= computable.hermitian_loose
