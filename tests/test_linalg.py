"""Kernels: solves, factorizations, eigenvalues, square roots, extremal
singular values.  Independent oracles: direct multiplication,
characteristic-polynomial roots (LU minors + Durand-Kerner), dense SVD,
and symmetric eigendecompositions."""

import numpy as np
import pytest
import scipy.linalg as sla

from krylov_sqrt import linalg, matgen
from krylov_sqrt.errors import (
    DimensionMismatch,
    DomainError,
    InvalidSpectrum,
    NoConvergence,
    NonFiniteEntry,
    SingularMatrix,
    SpectrumOnBranchCut,
    TooLarge,
)

from helpers import charpoly_coefficients, durand_kerner, make_pd_matrix


class TestDenseMatrix:
    def test_carries_complex(self):
        m = linalg.DenseMatrix(np.eye(2))
        assert m.array.dtype == np.complex128
        assert m.rows == m.cols == 2

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteEntry):
            linalg.DenseMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionMismatch):
            linalg.DenseMatrix(np.ones(3))

    def test_immutable(self):
        m = linalg.DenseMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0


class TestRitzSpectrum:
    def test_sort_by_modulus_then_real_then_imag(self):
        vals = [1.0 + 0j, -2.0 + 0j, 2.0 + 0j, 1j, -1j]
        spec = linalg.RitzSpectrum.from_unsorted(vals)
        assert spec.k == 5
        np.testing.assert_array_equal(
            spec.values, np.array([2.0, -2.0, 1.0, 1j, -1j], dtype=complex)
        )


class TestLuSolve:
    def test_identity(self):
        x = linalg.lu_solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0])

    def test_diagonal(self):
        x = linalg.lu_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_seeded_residual(self):
        rng = np.random.default_rng(101)
        a = rng.standard_normal((10, 10))
        b = rng.standard_normal(10)
        x = linalg.lu_solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix):
            linalg.lu_solve(a, np.ones(2))


class TestQrHouseholder:
    def test_identity(self):
        q, r = linalg.qr_householder(np.eye(3))
        np.testing.assert_allclose(np.abs(q), np.eye(3), atol=1e-15)
        np.testing.assert_allclose(q @ r, np.eye(3), atol=1e-15)

    def test_permutation(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        q, r = linalg.qr_householder(a)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(q @ r, a, atol=1e-14)

    @pytest.mark.parametrize("seed,shape", [(7, (8, 8)), (8, (12, 5)), (9, (30, 30))])
    def test_reconstruction(self, seed, shape):
        a = np.random.default_rng(seed).standard_normal(shape)
        q, r = linalg.qr_householder(a)
        cols = shape[1]
        assert np.linalg.norm(q.conj().T @ q - np.eye(cols)) <= 1e-12 * cols
        assert np.linalg.norm(a - q @ r) <= 1e-12 * np.linalg.norm(a)
        assert np.allclose(r, np.triu(r))

    def test_wide_rejected(self):
        with pytest.raises(DimensionMismatch):
            linalg.qr_householder(np.ones((2, 3)))


class TestHessenbergEigenvalues:
    def test_diagonal(self):
        spec = linalg.hessenberg_eigenvalues(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(spec.values, [3.0, 2.0, 1.0])

    def test_rotation_gives_conjugate_pair(self):
        spec = linalg.hessenberg_eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(spec.values, [1j, -1j], atol=1e-15)

    def test_seeded_vs_charpoly_roots(self):
        rng = np.random.default_rng(42)
        h = np.triu(rng.standard_normal((6, 6)), -1)
        spec = linalg.hessenberg_eigenvalues(h)
        coeffs = charpoly_coefficients(h)
        roots = durand_kerner(coeffs)
        got = np.sort_complex(spec.values)
        want = np.sort_complex(roots)
        np.testing.assert_allclose(got, want, atol=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_trace_and_det_invariants(self, seed):
        rng = np.random.default_rng(seed)
        h = np.triu(rng.standard_normal((9, 9)), -1)
        vals = linalg.hessenberg_eigenvalues(h).values
        assert abs(vals.sum() - np.trace(h)) <= 1e-10 * max(1.0, abs(np.trace(h)))
        det = np.linalg.det(h)
        assert abs(vals.prod() - det) <= 1e-8 * max(1.0, abs(det))

    def test_rejects_lower_triangle(self):
        with pytest.raises(DimensionMismatch):
            linalg.hessenberg_eigenvalues(np.ones((4, 4)))


class TestDenseSqrt:
    def test_identity(self):
        np.testing.assert_allclose(linalg.dense_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_one_by_one(self):
        np.testing.assert_allclose(linalg.dense_sqrt(np.array([[4.0]])), [[2.0]], atol=1e-15)

    def test_diagonal(self):
        x = linalg.dense_sqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(x, np.diag([2.0, 3.0]), atol=1e-13)

    def test_jordan_block_closed_form(self):
        a = np.array([[2.0, 1.0], [0.0, 2.0]])
        x = linalg.dense_sqrt(a)
        want = np.array([[np.sqrt(2.0), 1.0 / (2.0 * np.sqrt(2.0))],
                         [0.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(x, want, atol=1e-13)
        np.testing.assert_allclose(x @ x, a, atol=1e-12)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_square_idempotence(self, seed):
        a, _, _ = make_pd_matrix(seed, 25)
        x = linalg.dense_sqrt(a)
        assert np.linalg.norm(x @ x - a) <= 1e-10 * np.linalg.norm(a)

    def test_branch_cut_negative_eig(self):
        with pytest.raises(SpectrumOnBranchCut):
            linalg.dense_sqrt(np.diag([-1.0, 2.0]))

    def test_branch_cut_zero_eig(self):
        with pytest.raises(SpectrumOnBranchCut):
            linalg.dense_sqrt(np.array([[0.0, 1.0], [0.0, 1.0]]))

    def test_indefinite_hermitian_part_falls_back_to_eigenvalues(self, monkeypatch):
        # Hermitian part has eigenvalues 1 +- 5, yet both eigenvalues are 1:
        # only the general eigenvalue solve can clear this input
        calls = []
        eigvals = sla.eigvals
        monkeypatch.setattr(sla, "eigvals", lambda *a, **kw: calls.append(1) or eigvals(*a, **kw))
        a = np.array([[1.0, 10.0], [0.0, 1.0]])
        x = linalg.dense_sqrt(a)
        assert calls
        assert np.linalg.norm(x @ x - a) <= 1e-12 * np.linalg.norm(a)

    def test_positive_hermitian_part_skips_eigenvalues(self, monkeypatch):
        calls = []
        eigvals = sla.eigvals
        monkeypatch.setattr(sla, "eigvals", lambda *a, **kw: calls.append(1) or eigvals(*a, **kw))
        a, _, _ = make_pd_matrix(11, 25)
        linalg.dense_sqrt(a)
        assert not calls


class TestReferenceSqrtAction:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        np.testing.assert_allclose(linalg.reference_sqrt_action(np.eye(3), b), b)

    def test_diagonal(self):
        got = linalg.reference_sqrt_action(np.diag([1.0, 4.0, 9.0]), np.ones(3))
        np.testing.assert_allclose(got, [1.0, 2.0, 3.0], atol=1e-13)

    def test_spd_vs_eigendecomposition(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((20, 20))
        a = g @ g.T + 20 * np.eye(20)
        b = rng.standard_normal(20)
        w, v = np.linalg.eigh(a)
        want = (v * np.sqrt(w)) @ (v.T @ b)
        got = linalg.reference_sqrt_action(a, b)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_guard(self, monkeypatch):
        monkeypatch.setattr(linalg, "DENSE_ORACLE_MAX_N", 10)
        with pytest.raises(TooLarge):
            linalg.reference_sqrt_action(np.eye(11), np.ones(11))

    def test_indefinite_rejected(self):
        with pytest.raises(InvalidSpectrum):
            linalg.reference_sqrt_action(np.diag([1.0, -2.0]), np.ones(2))

    def test_hermitian_part_checked_once(self, monkeypatch):
        calls = []
        check = linalg.min_symmetric_eig
        monkeypatch.setattr(linalg, "min_symmetric_eig", lambda a: calls.append(1) or check(a))
        a, _, _ = make_pd_matrix(12, 20)
        linalg.reference_sqrt_action(a, np.ones(20))
        assert len(calls) == 1


class MatvecOnly:
    """A matrix seen only through matvec/rmatvec/shape."""

    def __init__(self, a):
        self.shape = a.shape
        self.matvec = lambda v: a @ v
        self.rmatvec = lambda v: a.conj().T @ v


class TestSigmaMax:
    def test_diagonal(self):
        assert linalg.sigma_max(np.diag([3.0, -1.0])) == pytest.approx(3.0, rel=1e-8)

    def test_nilpotent(self):
        a = np.array([[0.0, 5.0], [0.0, 0.0]])
        assert linalg.sigma_max(a) == pytest.approx(5.0, rel=1e-8)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_vs_svd(self, seed):
        a, _, _ = make_pd_matrix(seed, 60)
        want = sla.svdvals(a)[0]
        got = linalg.sigma_max(MatvecOnly(a), tol=1e-10, max_iter=200_000)
        assert got == pytest.approx(want, rel=1e-6)
        assert got <= want * (1.0 + 1e-12)  # converges from below

    def test_budget_exhausted(self):
        a, _, _ = make_pd_matrix(5, 40)
        with pytest.raises(NoConvergence):
            linalg.sigma_max(MatvecOnly(a), tol=1e-15, max_iter=3)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_dense_exact(self, seed):
        # clustered top singular values leave power iteration below these
        a, _, _ = make_pd_matrix(seed, 200)
        want = sla.svdvals(a)[0]
        assert linalg.sigma_max(a) == pytest.approx(want, rel=1e-12)
        assert linalg.sigma_max(linalg.DenseMatrix(a)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tridiagonal_exact(self, seed):
        rng = np.random.default_rng(seed)
        m = 150
        tri = matgen.TridiagonalMatrix(rng.standard_normal(m - 1), rng.standard_normal(m),
                                       rng.standard_normal(m - 1))
        want = np.linalg.norm(tri.to_dense(), 2)
        assert linalg.sigma_max(tri) == pytest.approx(want, rel=1e-12)

    def test_convection_diffusion_exact(self):
        # clustered top singular values: power iteration stalls below these
        tri = matgen.convection_diffusion(200, 0.1)
        want = np.linalg.norm(tri.to_dense(), 2)
        assert linalg.sigma_max(tri) == pytest.approx(want, rel=1e-12)


class TestSigmaMin:
    def test_diagonal(self):
        assert linalg.sigma_min(np.diag([3.0, 0.5, 10.0])) == pytest.approx(0.5, rel=1e-8)

    def test_vs_svd(self):
        a, _, _ = make_pd_matrix(6, 50)
        want = sla.svdvals(a)[-1]
        got = linalg.sigma_min(a, tol=1e-12, max_iter=100_000)
        assert got == pytest.approx(want, rel=1e-6)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            linalg.sigma_min(np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestMinSymmetricEig:
    def test_identity(self):
        assert linalg.min_symmetric_eig(np.eye(4)) == pytest.approx(1.0)

    def test_rank_one_hermitian_part(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert linalg.min_symmetric_eig(a) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_skew_invisibility(self, seed):
        a, eigs, _ = make_pd_matrix(seed, 40, skew=True)
        assert linalg.min_symmetric_eig(a) == pytest.approx(eigs[-1], rel=1e-8)


class TestIsHermitian:
    def test_detects(self):
        a, _, _ = make_pd_matrix(31, 20, skew=False)
        assert linalg.is_hermitian(a)
        assert not linalg.is_hermitian(a + 1e-6 * np.triu(np.ones((20, 20)), 1))

    def test_no_symmetrization_for_tiny_skew(self):
        a = np.eye(5)
        a[0, 1] += 1e-3
        assert not linalg.is_hermitian(a)
