"""Arnoldi process invariants, the residual/error determinant identities,
shift relations, and the adaptive runner."""

import numpy as np
import pytest

from krylov_sqrt import arnoldi as arn
from krylov_sqrt import linalg
from krylov_sqrt.errors import (
    DimensionMismatch,
    DomainError,
    NonFiniteEntry,
    SingularShift,
)

from helpers import make_pd_matrix


def check_invariants(M, state):
    """The decomposition relations, verified by direct multiplication."""
    a = linalg.as_array(M)
    k = state.k
    Q = state.basis
    Qk = state.basis_k
    H = state.hessenberg
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(Q.shape[1])) <= 1e-10 * (k + 1)
    rel = a @ Qk - Qk @ H
    if not state.breakdown:
        rel = rel - state.subdiag * np.outer(state.next_vector, np.eye(k)[k - 1])
    assert np.linalg.norm(rel) <= 1e-10 * np.linalg.norm(a)
    assert np.linalg.norm(Qk.conj().T @ a @ Qk - H) <= 1e-10 * np.linalg.norm(a)


class TestArnoldiExtend:
    def test_identity_breakdown(self):
        state = arn.arnoldi(np.eye(4), np.array([1.0, 2.0, 0.5, -1.0]), 4)
        assert state.k == 1
        assert state.breakdown
        np.testing.assert_allclose(state.hessenberg, [[1.0]], atol=1e-14)

    def test_eigenvector_breakdown(self):
        state = arn.arnoldi(np.diag([1.0, 2.0]), np.array([1.0, 0.0]), 2)
        assert state.k == 1
        assert state.breakdown
        np.testing.assert_allclose(state.hessenberg, [[1.0]])
        assert state.subdiag == 0.0

    def test_first_column_is_normalized_b(self):
        b = np.array([3.0, 4.0])
        state = arn.arnoldi(np.array([[2.0, 1.0], [0.0, 1.0]]), b, 1)
        np.testing.assert_array_equal(state.basis[:, 0], b / 5.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_invariants_nonhermitian(self, seed):
        a, _, _ = make_pd_matrix(seed, 50)
        state = arn.arnoldi(a, np.ones(50), 10)
        assert state.k == 10 and not state.breakdown
        assert np.all(state.subdiagonals > 0)
        assert state.basis.shape == (50, 11)
        check_invariants(a, state)

    def test_extension_matches_one_shot(self):
        a, _, _ = make_pd_matrix(3, 30)
        b = np.ones(30)
        s = arn.arnoldi_start(b)
        s = arn.arnoldi_extend(a, s, 3)
        s = arn.arnoldi_extend(a, s, 4)
        full = arn.arnoldi(a, b, 7)
        np.testing.assert_array_equal(s.basis, full.basis)
        np.testing.assert_array_equal(s.hessenberg, full.hessenberg)

    def test_stale_snapshot_gets_private_buffers(self):
        a, _, _ = make_pd_matrix(4, 20)
        base = arn.arnoldi(a, np.ones(20), 3)
        h3 = base.hessenberg.copy()
        tip = arn.arnoldi_extend(a, base, 2)
        again = arn.arnoldi_extend(a, base, 2)  # base is now stale
        np.testing.assert_array_equal(base.hessenberg, h3)
        np.testing.assert_array_equal(tip.hessenberg, again.hessenberg)

    def test_prefix_equals_short_run(self):
        a, _, _ = make_pd_matrix(5, 25)
        long = arn.arnoldi(a, np.ones(25), 12)
        short = arn.arnoldi(a, np.ones(25), 5)
        pre = long.prefix(5)
        np.testing.assert_array_equal(pre.hessenberg, short.hessenberg)
        np.testing.assert_array_equal(pre.basis, short.basis)

    def test_complex_operator_promotes(self):
        a = np.array([[1.0, 1j], [-1j, 2.0]])
        state = arn.arnoldi(a, np.array([1.0, 1.0]), 2)
        assert np.iscomplexobj(state.hessenberg)
        check_invariants(a, state)

    def test_nonfinite_operator_rejected(self):
        bad = (lambda v: v * np.nan, 3)
        with pytest.raises(NonFiniteEntry):
            arn.arnoldi(bad, np.ones(3), 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            arn.arnoldi(np.eye(3), np.ones(4), 2)

    def test_reorthogonalized_basis_tighter(self):
        # two Gram-Schmidt passes keep the basis orthogonal to working
        # precision; 1e-12 sits far below the ~1e-8 a single pass loses here
        a, _, _ = make_pd_matrix(6, 40)
        q = arn.arnoldi(a, np.ones(40), 30).basis
        assert np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])) <= 1e-12


class TestFunAction:
    def test_identity_sqrt(self):
        state = arn.arnoldi(np.eye(3), np.array([2.0, 0.0, 0.0]), 3)
        np.testing.assert_allclose(arn.arnoldi_fun_action(state, "sqrt"),
                                   [2.0, 0.0, 0.0], atol=1e-14)

    def test_full_space_exact_sqrt(self):
        state = arn.arnoldi(np.diag([4.0, 9.0]), np.array([1.0, 1.0]), 2)
        np.testing.assert_allclose(arn.arnoldi_fun_action(state, "sqrt"),
                                   [2.0, 3.0], atol=1e-12)

    def test_full_space_exact_invsqrt(self):
        state = arn.arnoldi(np.diag([4.0, 9.0]), np.array([1.0, 1.0]), 2)
        np.testing.assert_allclose(arn.arnoldi_fun_action(state, "invsqrt"),
                                   [0.5, 1.0 / 3.0], atol=1e-12)

    def test_inverse_is_fom_iterate(self):
        state = arn.arnoldi(np.diag([4.0, 9.0]), np.array([1.0, 1.0]), 2)
        np.testing.assert_allclose(arn.arnoldi_fun_action(state, "inverse"),
                                   [0.25, 1.0 / 9.0], atol=1e-12)

    def test_exactness_at_k_equals_n(self):
        rng = np.random.default_rng(17)
        g = rng.standard_normal((30, 30))
        a = g @ g.T + 30 * np.eye(30)
        b = rng.standard_normal(30)
        state = arn.arnoldi(a, b, 30)
        want = linalg.reference_sqrt_action(a, b)
        got = arn.arnoldi_fun_action(state, "sqrt")
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_breakdown_exactness(self):
        # b supported on a 3-dimensional invariant coordinate block; the
        # off-block zeros are preserved exactly, so breakdown fires at k = 3
        rng = np.random.default_rng(23)
        g = rng.standard_normal((3, 3))
        top = g @ g.T + 3 * np.eye(3)
        h = rng.standard_normal((7, 7))
        bottom = h @ h.T + 7 * np.eye(7)
        a = np.zeros((10, 10))
        a[:3, :3] = top
        a[3:, 3:] = bottom
        b = np.zeros(10)
        b[:3] = rng.standard_normal(3)
        state = arn.arnoldi(a, b, 10)
        assert state.breakdown and state.k == 3
        want = linalg.reference_sqrt_action(a, b)
        got = arn.arnoldi_fun_action(state, "sqrt")
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_unknown_tag(self):
        state = arn.arnoldi(np.eye(2), np.ones(2), 1)
        with pytest.raises(DomainError):
            arn.arnoldi_fun_action(state, "exp")


class TestFomResidual:
    def test_breakdown_residual_zero(self):
        state = arn.arnoldi(np.diag([1.0, 2.0]), np.array([1.0, 0.0]), 2)
        norm, coef = arn.fom_residual_norm(state)
        assert norm == 0.0 and coef == 0.0

    def test_hand_computed_2x2(self):
        b = np.array([1.0, 1.0]) / np.sqrt(2.0)
        state = arn.arnoldi(np.diag([1.0, 2.0]), b, 1)
        np.testing.assert_allclose(state.hessenberg, [[1.5]], atol=1e-15)
        assert state.subdiag == pytest.approx(0.5, abs=1e-15)
        norm, coef = arn.fom_residual_norm(state)
        assert norm == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert coef == pytest.approx(-1.0 / 3.0, rel=1e-12)
        # the coefficient times q_{k+1} is exactly the direct residual
        direct = b - np.diag([1.0, 2.0]) @ arn.fom_iterate(state)
        np.testing.assert_allclose(coef * state.next_vector, direct, atol=1e-14)

    @pytest.mark.parametrize("seed,k", [(1, 5), (2, 5), (3, 8), (4, 2), (5, 10)])
    def test_formula_vs_direct(self, seed, k):
        a, _, _ = make_pd_matrix(seed, 40)
        b = np.random.default_rng(seed + 100).standard_normal(40)
        state = arn.arnoldi(a, b, k)
        norm, coef = arn.fom_residual_norm(state)
        direct = b - a @ arn.fom_iterate(state)
        assert norm == pytest.approx(np.linalg.norm(direct), rel=1e-10)
        np.testing.assert_allclose(coef * state.next_vector, direct,
                                   atol=1e-10 * np.linalg.norm(direct))


class TestFomError:
    def test_breakdown_error_zero(self):
        state = arn.arnoldi(np.diag([1.0, 2.0]), np.array([1.0, 0.0]), 2)
        assert arn.fom_error_norm(state, np.diag([1.0, 2.0]),
                                  np.array([1.0, 0.0])) <= 1e-12

    def test_hand_computed_2x2(self):
        m = np.diag([1.0, 2.0])
        b = np.array([1.0, 1.0]) / np.sqrt(2.0)
        state = arn.arnoldi(m, b, 1)
        want = np.linalg.norm([1.0 / 3.0, -1.0 / 6.0]) / np.sqrt(2.0)
        assert arn.fom_error_norm(state, m, b) == pytest.approx(want, rel=1e-12)

    def test_full_space_error_vanishes(self):
        a, _, _ = make_pd_matrix(7, 40)
        b = np.ones(40)
        state = arn.arnoldi(a, b, 40)
        assert arn.fom_error_norm(state, a, b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_error_dominates_residual_over_sigma(self, seed):
        a, _, _ = make_pd_matrix(seed, 30)
        b = np.ones(30)
        state = arn.arnoldi(a, b, 6)
        residual_norm, _ = arn.fom_residual_norm(state)
        sigma = linalg.sigma_max(a, tol=1e-10, max_iter=100_000)
        assert arn.fom_error_norm(state, a, b) >= residual_norm / sigma * (1.0 - 1e-8)

    def test_surrogate_with_mu_is_upper_bound(self):
        a, eigs, _ = make_pd_matrix(2, 30)
        b = np.ones(30)
        state = arn.arnoldi(a, b, 6)
        exact = arn.fom_error_norm(state, a, b)
        certified = arn.fom_error_surrogate(state, min_sym_eig=eigs[-1])
        assert certified >= exact * (1.0 - 1e-10)
        # without mu the surrogate is just the residual norm (not certified)
        assert arn.fom_error_surrogate(state) == arn.fom_residual_norm(state)[0]


class TestShiftedFom:
    def test_zero_shift_is_identity(self):
        a, _, _ = make_pd_matrix(9, 20)
        b = np.ones(20)
        state = arn.arnoldi(a, b, 4)
        q = arn.shifted_fom_quantities(state, a, b, 0.0)
        np.testing.assert_allclose(q.residual_formula, q.residual_direct, atol=1e-10)
        np.testing.assert_allclose(q.error_formula, q.error_direct, atol=1e-10)

    @pytest.mark.parametrize("z", [-1.0, 2j, 0.7 - 1.3j])
    def test_shift_identities(self, z):
        a, _, _ = make_pd_matrix(10, 20)
        b = np.ones(20)
        state = arn.arnoldi(a, b, 4)
        q = arn.shifted_fom_quantities(state, a, b, z)
        scale_r = np.linalg.norm(q.residual_direct)
        scale_e = np.linalg.norm(q.error_direct)
        assert np.linalg.norm(q.residual_formula - q.residual_direct) <= 1e-8 * scale_r
        assert np.linalg.norm(q.error_formula - q.error_direct) <= 1e-8 * scale_e

    def test_singular_shift_raises(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        b = np.ones(4)
        state = arn.arnoldi(a, b, 2)
        ritz = linalg.hessenberg_eigenvalues(state.hessenberg).values
        with pytest.raises(SingularShift):
            arn.shifted_fom_quantities(state, a, b, complex(ritz[0]))


class TestRunAdaptive:
    def test_identity_stops_at_breakdown(self):
        res = arn.run_adaptive(np.eye(3), np.ones(3), k_max=3)
        assert res.k == 1 and res.breakdown and res.converged
        np.testing.assert_allclose(res.result, np.ones(3), atol=1e-14)

    def test_residual_rule_satisfied_directly(self):
        rng = np.random.default_rng(33)
        g = rng.standard_normal((100, 100))
        a = g @ g.T + 100 * np.eye(100)
        b = np.ones(100)
        res = arn.run_adaptive(a, b, stop=arn.ResidualRelative(1e-2), k_max=90)
        assert res.converged
        x = linalg.lu_solve(a, b)  # recompute the FOM iterate directly
        state = arn.arnoldi(a, b, res.k)
        direct = np.linalg.norm(b - a @ arn.fom_iterate(state))
        assert direct / np.linalg.norm(b) <= 1e-2

    def test_bound_rule_stops_and_certifies(self):
        a, _, _ = make_pd_matrix(12, 60)
        b = np.ones(60)
        res = arn.run_adaptive(a, b, stop=arn.BoundAbsolute(tol=1.0), k_max=59)
        assert res.converged
        assert res.history[-1].posterior_ritz <= 1.0
        want = linalg.reference_sqrt_action(a, b)
        assert np.linalg.norm(res.result - want) <= 1.0 + 1e-8

    def test_budget_exhausted_flag(self):
        a, _, _ = make_pd_matrix(13, 40)
        res = arn.run_adaptive(a, np.ones(40), stop=arn.ResidualRelative(1e-13), k_max=5)
        assert not res.converged
        assert res.k == 5
        assert res.result.shape == (40,)

    def test_history_reports_every_step(self):
        a, _, _ = make_pd_matrix(14, 30)
        res = arn.run_adaptive(a, np.ones(30), stop=arn.ResidualRelative(1e-14), k_max=8)
        assert [r.k for r in res.history] == list(range(1, 9))
        assert res.history[0].posterior_ritz == np.inf  # k = 1 diverges
        assert all(np.isfinite(r.posterior_ritz) for r in res.history[1:])

    def test_hermitian_reports_jensen_chain(self):
        _, eigs, sm = make_pd_matrix(15, 40, skew=False)
        a = sm.matrix.array.real
        res = arn.run_adaptive(a, np.ones(40), stop=arn.ResidualRelative(1e-12),
                               k_max=10, known_spectrum=eigs)
        for rep in res.history:
            assert rep.hermitian_jensen is not None
            assert rep.hermitian_jensen <= rep.hermitian_loose + 1e-12
            assert rep.lambda_bar <= eigs[0] + 1e-9

    def test_invalid_rule(self):
        with pytest.raises(DomainError):
            arn.BoundAbsolute(tol=0.1, bound_kind="nonsense")
