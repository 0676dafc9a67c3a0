"""Kernels: solves, factorizations, eigenvalues, square roots, extremal
singular values.  Independent oracles: direct multiplication,
characteristic-polynomial roots (LU minors + Durand-Kerner), dense SVD,
and symmetric eigendecompositions."""

import inspect

import numpy as np
import pytest
import scipy.linalg as sla

from krylov_sqrt import linalg, matgen
from krylov_sqrt.errors import (
    DimensionMismatch,
    DomainError,
    InvalidSpectrum,
    NonFiniteEntry,
    SingularMatrix,
    SpectrumOnBranchCut,
    TooLarge,
    UnsupportedContext,
)

from helpers import charpoly_coefficients, durand_kerner, make_pd_matrix


class TestDenseMatrix:
    def test_keeps_native_dtype(self):
        # real input stays real, so every kernel runs in real arithmetic
        for a, want in ((np.eye(2, dtype=int), np.float64), (np.eye(2), np.float64),
                        (np.eye(2, dtype=np.complex64), np.complex128),
                        (np.eye(2) + 1j * np.ones((2, 2)), np.complex128)):
            m = linalg.DenseMatrix(a)
            assert m.array.dtype == want
            assert m.shape == (2, 2)

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteEntry):
            linalg.DenseMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionMismatch):
            linalg.DenseMatrix(np.ones(3))
        with pytest.raises(DimensionMismatch):
            linalg.DenseMatrix(np.ones((3, 2)))

    def test_immutable(self):
        m = linalg.DenseMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    def test_copies_writable_shares_readonly(self):
        a = np.eye(3)
        m = linalg.DenseMatrix(a)
        a[0, 0] = 5.0
        assert m.array[0, 0] == 1.0
        assert linalg.DenseMatrix(m.array).array is m.array


class TestTridiagonalMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("band", [0, 1, 2])
    def test_rejects_nonfinite_bands(self, band, bad):
        # a NaN band used to reach the solves, which returned NaN silently
        bands = [np.full(3, -1.0), np.full(4, 2.0), np.full(3, -0.5)]
        bands[band][1] = bad
        with pytest.raises(NonFiniteEntry):
            linalg.TridiagonalMatrix(*bands)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_solve_is_banded_lu_bit_for_bit(self, dtype):
        # LAPACK ?gtsv is what SciPy's banded solve runs for one band on
        # each side: the same bits, the bands cast for a complex rhs
        tri = matgen.convection_diffusion(201, 0.1)
        ab = np.array([np.append(0.0, tri.upper), tri.diag, np.append(tri.lower, 0.0)])
        b = np.ones(200, dtype=dtype) * (1.0 + 0.5j if dtype is complex else 1.0)
        x = tri.solve(b)
        assert x.dtype == b.dtype
        np.testing.assert_array_equal(x, sla.solve_banded((1, 1), ab, b))

    def test_complex_rhs_matches_dense_solve(self):
        rng = np.random.default_rng(5)
        tri = _random_band_tridiagonal()
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        np.testing.assert_allclose(tri.solve(b), linalg.DenseMatrix(tri.to_dense()).solve(b),
                                   rtol=1e-12)

    def test_order_one(self):
        # SciPy's ?gtsv wrapper rejects order 1: a division, under the same rule
        np.testing.assert_array_equal(linalg.TridiagonalMatrix([], [4.0], []).solve([2.0]), [0.5])
        with pytest.raises(SingularMatrix):
            linalg.TridiagonalMatrix([], [0.0], []).solve([1.0])

    def test_pivot_rule_of_the_dense_solve(self):
        # U's last diagonal entry is 4.4e-16, under PIVOT_RTOL times the
        # largest row norm (sqrt 2): refused, as the dense solve refuses it;
        # it returned +-2.25e15 when only an exact zero was refused
        tri = linalg.TridiagonalMatrix([1.0], [1.0, 1.0 + 4.5e-16], [1.0])
        for op in (tri, linalg.DenseMatrix(tri.to_dense())):
            with pytest.raises(SingularMatrix):
                op.solve([1.0, 0.0])
        with pytest.raises(SingularMatrix):
            linalg.sigma_min(tri)
        # just above the rule it solves
        tri = linalg.TridiagonalMatrix([1.0], [1.0, 1.0 + 2e-14], [1.0])
        np.testing.assert_allclose(tri.to_dense() @ tri.solve([1.0, 0.0]), [1.0, 0.0],
                                   atol=1e-12 * np.linalg.norm(tri.solve([1.0, 0.0])))

    def test_rhs_length_checked_before_any_work(self, monkeypatch):
        tri = matgen.convection_diffusion(20, 0.1)
        monkeypatch.setattr(sla, "get_lapack_funcs", lambda *a: pytest.fail("LAPACK reached"))
        with pytest.raises(DimensionMismatch):
            tri.solve(np.ones(20))


def _random_band_tridiagonal():
    rng = np.random.default_rng(7)
    return linalg.TridiagonalMatrix(rng.standard_normal(11), 4.0 + rng.standard_normal(12),
                                    rng.standard_normal(11))


def _operators():
    """(operator, its dense form) for each implementation of the protocol."""
    rng = np.random.default_rng(3)
    real = rng.standard_normal((9, 9)) + 9.0 * np.eye(9)
    cplx = real + 1j * rng.standard_normal((9, 9))
    herm = real + real.T
    tri = matgen.convection_diffusion(13, 0.1)
    band = _random_band_tridiagonal()
    return {
        "dense-real": (linalg.DenseMatrix(real), real),
        "dense-complex": (linalg.DenseMatrix(cplx), cplx),
        "dense-hermitian": (linalg.DenseMatrix(herm), herm),
        "tridiagonal-convdiff": (tri, tri.to_dense()),
        "tridiagonal-random": (band, band.to_dense()),
        "matvec-only": (linalg.as_operator((lambda v: real @ v, 9)), real),
    }


class TestOperatorProtocol:
    @pytest.mark.parametrize("name", list(_operators()))
    def test_conforms_to_dense_form(self, name):
        op, a = _operators()[name]
        assert linalg.as_operator(op) is op
        n = a.shape[0]
        assert op.shape == (n, n)
        v = np.random.default_rng(n).standard_normal(n) * (1 + 0.5j)
        np.testing.assert_allclose(op.matvec(v), a @ v, rtol=1e-13)
        if name == "matvec-only":
            assert op.bands is None
            for call in (lambda: op.solve(v), op.to_dense, lambda: linalg.is_hermitian(op),
                         lambda: linalg.sigma_min(op)):
                with pytest.raises(UnsupportedContext):
                    call()
            return
        np.testing.assert_allclose(op.solve(v), np.linalg.solve(a, v), rtol=1e-10)
        np.testing.assert_array_equal(op.to_dense(), a)
        assert linalg.is_hermitian(op) == bool(np.array_equal(a, a.conj().T))
        assert linalg.sigma_min(op) == pytest.approx(sla.svdvals(a)[-1], rel=1e-10)
        if op.bands is None:
            assert name.startswith("dense")
        else:
            lower, diag, upper = op.bands
            np.testing.assert_array_equal(np.diag(a, -1), lower)
            np.testing.assert_array_equal(np.diag(a), diag)
            np.testing.assert_array_equal(np.diag(a, 1), upper)

    def test_five_members_and_a_one_argument_solve(self):
        # what every representation must provide, and no more in common
        ops = {type(op): op for op, _ in _operators().values()}
        assert set(ops) == {linalg.DenseMatrix, linalg.TridiagonalMatrix, linalg.MatvecOperator}
        public = [{name for name in dir(op) if not name.startswith("_")} for op in ops.values()]
        assert set.intersection(*public) == {"shape", "matvec", "solve", "to_dense", "bands"}
        for op in ops.values():
            assert list(inspect.signature(op.solve).parameters) == ["rhs"]

    def test_dense_solve_factors_once(self, monkeypatch):
        calls = []
        factor = linalg.lu_factor_quiet
        monkeypatch.setattr(linalg, "lu_factor_quiet", lambda a: calls.append(1) or factor(a))
        m = linalg.DenseMatrix(np.diag([2.0, 4.0]))
        np.testing.assert_allclose(m.solve(np.ones(2)), [0.5, 0.25])
        np.testing.assert_allclose(m.solve(np.array([2.0, 4.0])), [1.0, 1.0])
        assert len(calls) == 1

    def test_singular_dense_solve_raises(self):
        m = linalg.DenseMatrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrix):
            m.solve(np.ones(2))

    def test_singular_tridiagonal_solve_raises(self):
        # an exactly zero pivot is SingularMatrix, not SciPy's LinAlgError
        tri = linalg.TridiagonalMatrix([0.0], [0.0, 1.0], [0.0])
        with pytest.raises(SingularMatrix):
            tri.solve(np.ones(2))
        with pytest.raises(SingularMatrix):
            linalg.sigma_min(tri)

    def test_dense_solve_rejects_rhs_length(self):
        with pytest.raises(DimensionMismatch):
            linalg.DenseMatrix(np.eye(3)).solve(np.ones(4))

    def test_as_operator_normalizes(self):
        class Product:
            shape = (4, 4)

            def matvec(self, v):
                return 2.0 * v

        assert isinstance(linalg.as_operator(np.eye(4)), linalg.DenseMatrix)
        op = linalg.as_operator(Product())
        np.testing.assert_array_equal(op.matvec(np.ones(4)), 2.0 * np.ones(4))
        assert op.shape == (4, 4)
        with pytest.raises(DimensionMismatch):
            linalg.as_operator(lambda v: v)
        with pytest.raises(DimensionMismatch):
            linalg.as_operator(np.ones((3, 4)))

    @pytest.mark.parametrize("kind", ["csr_matrix", "csr_array"])
    def test_scipy_sparse_input_is_a_named_error(self, kind):
        # np.asarray would make it an object array, and NumPy's bare
        # ValueError would come out of the first dense step
        import scipy.sparse

        from krylov_sqrt import arnoldi as arn

        a = getattr(scipy.sparse, kind)(matgen.convection_diffusion(20, 0.1).to_dense())
        with pytest.raises(UnsupportedContext, match=kind):
            linalg.as_operator(a)
        with pytest.raises(UnsupportedContext, match=kind):
            arn.run_adaptive(a, np.ones(20))


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

    @pytest.mark.parametrize("k", [3, 7, 64, 65])
    def test_rejects_each_entry_below_the_subdiagonal(self, k):
        # k = 3 has one such entry, h[2, 0]; one np.tril check reads them at
        # every order, on both sides of 64
        linalg.hessenberg_eigenvalues(np.triu(np.ones((k, k)), -1))
        rows, cols = np.tril_indices(k, -2)
        for i, j in list(zip(rows, cols))[:: max(1, rows.size // 40)] + [(k - 1, 0), (k - 1, k - 3)]:
            h = np.triu(np.ones((k, k)), -1)
            h[i, j] = 1e-300
            with pytest.raises(DimensionMismatch):
                linalg.hessenberg_eigenvalues(h)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_schur_only_when_asked(self, dtype):
        rng = np.random.default_rng(8)
        h = np.triu(rng.standard_normal((9, 9)), -1).astype(dtype)
        plain = linalg.hessenberg_eigenvalues(h)
        full = linalg.hessenberg_eigenvalues(h, schur=True)
        assert plain.schur is None
        np.testing.assert_allclose(plain.values, full.values, rtol=1e-13)
        t, z = full.schur
        np.testing.assert_allclose(z @ t @ z.conj().T, h, atol=1e-13)


class TestBendixsonOrder:
    def test_positive_definite_hermitian_part(self):
        tri = matgen.convection_diffusion(40, 0.5)
        assert linalg.bendixson_order(tri.to_dense()) == 39

    def test_first_indefinite_block(self):
        # leading blocks of orders 1 and 2 have a positive definite
        # Hermitian part; order 3 adds a 2 x 2 minor [[1, 3], [3, 1]]
        h = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 6.0], [0.0, 0.0, 1.0]])
        assert linalg.bendixson_order(h) == 2
        assert linalg.bendixson_order(-np.eye(3)) == 0

    def test_complex(self):
        h = np.array([[1.0, 1j], [1j, 1.0]])  # H + Hᴴ = 2I
        assert linalg.bendixson_order(h) == 2
        assert linalg.bendixson_order(h + 3.0 * np.array([[0, 1], [0, 0]])) == 1

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_potrf_of_the_sum(self, dtype):
        # against ?potrf of H + Hᴴ formed apart, on C-ordered input and on a
        # view of a larger buffer (as a decomposition's H is), left as it was
        rng = np.random.default_rng(7)
        potrf = sla.lapack.zpotrf if dtype is complex else sla.lapack.dpotrf
        for shift in np.linspace(-2.0, 6.0, 9):
            a = rng.standard_normal((30, 31)) + (1j * rng.standard_normal((30, 31))
                                                 if dtype is complex else 0.0)
            h = np.triu(a[:, :30], -1) + shift * np.eye(30)
            info = potrf(h + h.conj().T, clean=0)[1]
            want = 30 if info == 0 else info - 1
            a[:, :30] = h
            for got in (h, a[:, :30]):
                before = got.copy()
                assert linalg.bendixson_order(got) == want
                np.testing.assert_array_equal(got, before)


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

    def test_indefinite_hermitian_part_cleared_by_schur(self, monkeypatch):
        # Hermitian part has eigenvalues 1 +- 5, yet both eigenvalues are 1:
        # the diagonal of the Schur factor clears this input, with no
        # Hermitian-part or general eigenvalue solve
        calls = []
        eigvals, check = sla.eigvals, linalg.min_symmetric_eig
        monkeypatch.setattr(sla, "eigvals", lambda *a, **kw: calls.append(1) or eigvals(*a, **kw))
        monkeypatch.setattr(linalg, "min_symmetric_eig", lambda a: calls.append(1) or check(a))
        a = np.array([[1.0, 10.0], [0.0, 1.0]])
        x = linalg.dense_sqrt(a)
        assert not calls
        assert np.linalg.norm(x @ x - a) <= 1e-12 * np.linalg.norm(a)

    def test_positive_hermitian_part_skips_eigenvalues(self, monkeypatch):
        calls = []
        eigvals = sla.eigvals
        monkeypatch.setattr(sla, "eigvals", lambda *a, **kw: calls.append(1) or eigvals(*a, **kw))
        a, _, _ = make_pd_matrix(11, 25)
        linalg.dense_sqrt(a)
        assert not calls

    @pytest.mark.parametrize("a", [np.diag([-1.0, 1.0]), np.diag([-1.0 + 0j, 1.0])])
    def test_branch_cut_without_hermitian_part_check(self, monkeypatch, a):
        calls = []
        check = linalg.min_symmetric_eig
        monkeypatch.setattr(linalg, "min_symmetric_eig", lambda a: calls.append(1) or check(a))
        with pytest.raises(SpectrumOnBranchCut):
            linalg.dense_sqrt(a)
        assert not calls

    def test_complex_input(self):
        a = np.array([[4.0, 1.0j], [0.5, 9.0 + 1.0j]])
        x = linalg.dense_sqrt(a)
        assert np.linalg.norm(x @ x - a) <= 1e-13 * np.linalg.norm(a)


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

    @staticmethod
    def spy_sqrtm(monkeypatch):
        calls = []
        sqrtm = sla.sqrtm
        monkeypatch.setattr(sla, "sqrtm", lambda a: calls.append(a.shape[0]) or sqrtm(a))
        return calls

    @pytest.mark.parametrize("n,eta,convention", [
        (1000, 0.1, "interior"),
        (40, 0.1, "interior"), (40, 0.5, "interior"),
        (41, 0.1, "full"), (41, 0.5, "full"),
        (120, 0.1, "full"), (120, 0.5, "interior"),
    ])
    def test_toeplitz_closed_form_matches_schur(self, monkeypatch, n, eta, convention):
        tri = matgen.convection_diffusion(n, eta, convention)
        m = tri.shape[0]
        b = np.random.default_rng(n).uniform(0.5, 1.5, m)
        calls = self.spy_sqrtm(monkeypatch)
        got = linalg.reference_sqrt_action(tri, b)
        assert calls == []
        want = sla.sqrtm(tri.to_dense()) @ b
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_toeplitz_complex_rhs(self):
        tri = matgen.convection_diffusion(50, 0.1)
        b = np.ones(49) + 1j * np.linspace(-1.0, 1.0, 49)
        want = sla.sqrtm(tri.to_dense()) @ b
        got = linalg.reference_sqrt_action(tri, b)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_toeplitz_past_dense_guard(self):
        tri = matgen.convection_diffusion(20_001, 0.1)
        assert tri.shape[0] > linalg.DENSE_ORACLE_MAX_N
        b = np.ones(tri.shape[0])
        y = linalg.reference_sqrt_action(tri, b)
        mb = tri.matvec(b)
        assert np.linalg.norm(linalg.reference_sqrt_action(tri, y) - mb) <= 1e-10 * np.linalg.norm(mb)

    @pytest.mark.parametrize("case", ["varying_diag", "sub_sup_negative", "sub_zero", "cond_d"])
    def test_falls_back_to_schur(self, monkeypatch, case):
        tri = matgen.convection_diffusion(30, 0.5)
        lower, diag, upper = tri.lower.copy(), tri.diag.copy(), tri.upper.copy()
        if case == "varying_diag":
            diag[::2] *= 1.5
        elif case == "sub_sup_negative":
            upper = -upper
        elif case == "sub_zero":
            lower[:] = 0.0
        else:  # cond(D) = (sub/sup)^{(m-1)/2} just above the guard
            cond_d = (lower[0] / upper[0]) ** ((diag.size - 1) / 2)
            monkeypatch.setattr(linalg, "TOEPLITZ_MAX_COND_D", cond_d * (1.0 - 1e-9))
        tri = matgen.TridiagonalMatrix(lower, diag, upper)
        b = np.ones(29)
        calls = self.spy_sqrtm(monkeypatch)
        got = linalg.reference_sqrt_action(tri, b)
        assert calls == [29]
        np.testing.assert_allclose(got, sla.sqrtm(tri.to_dense()) @ b, rtol=1e-13)

    def test_cond_d_at_guard_keeps_closed_form(self, monkeypatch):
        tri = matgen.convection_diffusion(30, 0.5)
        cond_d = (tri.lower[0] / tri.upper[0]) ** ((tri.diag.size - 1) / 2)
        monkeypatch.setattr(linalg, "TOEPLITZ_MAX_COND_D", cond_d * (1.0 + 1e-9))
        calls = self.spy_sqrtm(monkeypatch)
        linalg.reference_sqrt_action(tri, np.ones(29))
        assert calls == []

    def test_toeplitz_nonpositive_eigenvalue_rejected(self, monkeypatch):
        # symmetric tridiag(1, 1, 1): eigenvalues 1 + 2 cos(j pi/(m+1)) < 0 for large j
        tri = matgen.TridiagonalMatrix(np.ones(9), np.ones(10), np.ones(9))
        calls = self.spy_sqrtm(monkeypatch)
        with pytest.raises(InvalidSpectrum):
            linalg.reference_sqrt_action(tri, np.ones(10))
        assert calls == []

    @pytest.mark.parametrize("shape", [(30,), (28,), (29, 29)])
    def test_toeplitz_rhs_shape_rejected(self, shape):
        with pytest.raises(DimensionMismatch):
            linalg.reference_sqrt_action(matgen.convection_diffusion(30, 0.1), np.ones(shape))

    def test_dense_rhs_length_rejected(self):
        a, _, _ = make_pd_matrix(12, 20)
        with pytest.raises(DimensionMismatch):
            linalg.reference_sqrt_action(a, np.ones(21))


class TestReferenceInvsqrtAction:
    def test_toeplitz_closed_form_matches_schur(self, monkeypatch):
        tri = matgen.convection_diffusion(300, 0.1)
        b = np.random.default_rng(3).uniform(0.5, 1.5, 299)
        calls = TestReferenceSqrtAction.spy_sqrtm(monkeypatch)
        got = linalg.reference_invsqrt_action(tri, b)
        assert calls == []
        want = linalg.lu_solve(linalg.dense_sqrt(tri.to_dense()), b)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_dense_vs_eigendecomposition(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((20, 20))
        a = g @ g.T + 20 * np.eye(20)
        b = rng.standard_normal(20)
        w, v = np.linalg.eigh(a)
        want = (v / np.sqrt(w)) @ (v.T @ b)
        got = linalg.reference_invsqrt_action(a, b)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_guard(self, monkeypatch):
        monkeypatch.setattr(linalg, "DENSE_ORACLE_MAX_N", 10)
        with pytest.raises(TooLarge):
            linalg.reference_invsqrt_action(np.eye(11), np.ones(11))


class MatvecOnly:
    """A matrix seen only through matvec/shape; as_operator ignores its
    rmatvec."""

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
    def test_vs_svd(self, monkeypatch, seed):
        # above the dense-oracle guard a dense matrix used to get a power-
        # iteration lower estimate; it gets the exact value at every order
        monkeypatch.setattr(linalg, "DENSE_ORACLE_MAX_N", 10)
        a, _, _ = make_pd_matrix(seed, 60)
        got = linalg.sigma_max(linalg.DenseMatrix(a))
        assert got == pytest.approx(sla.svdvals(a)[0], rel=1e-13)

    def test_matvec_only_refused(self):
        # a power-iteration lower estimate cannot feed an upper bound
        a, _, _ = make_pd_matrix(5, 40)
        for op in (MatvecOnly(a), (lambda v: a @ v, 40)):
            with pytest.raises(UnsupportedContext, match="matvec-only"):
                linalg.sigma_max(op)

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


def hermitian_matrix(n: int, seed: int, kind: str = "uniform", complex_: bool = False):
    """The exactly symmetric matrix of ``make_pd_matrix(..., skew=False)``;
    with ``complex_``, its spectrum in a complex unitary basis, exactly
    Hermitian too."""
    a, eigs, _ = make_pd_matrix(seed, n, kind, skew=False)
    if not complex_:
        return a
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = (q * eigs) @ q.conj().T
    return (a + a.conj().T) / 2.0


def spy_dense_kernels(monkeypatch) -> list:
    """Names of the dense factorizations called from here on, in order."""
    calls = []
    for owner, name in ((np.linalg, "eigh"), (sla, "sqrtm"), (sla, "svdvals"),
                        (sla, "eigvalsh"), (linalg, "min_symmetric_eig")):
        monkeypatch.setattr(owner, name, lambda *a, _fn=getattr(owner, name), _name=name,
                            **kw: calls.append(_name) or _fn(*a, **kw))
    return calls


class TestHermitianEigh:
    """An exactly Hermitian DenseMatrix keeps one eigendecomposition, which
    gives sigma_max, both square-root oracles and their definiteness check."""

    @pytest.mark.parametrize("complex_", [False, True])
    def test_one_eigh_serves_sigma_max_and_both_oracles(self, monkeypatch, complex_):
        m = linalg.DenseMatrix(hermitian_matrix(40, 3, complex_=complex_))
        calls = spy_dense_kernels(monkeypatch)
        linalg.sigma_max(m)
        linalg.reference_sqrt_action(m, np.ones(40))
        linalg.reference_invsqrt_action(m, np.ones(40))
        assert calls == ["eigh"]

    def test_one_ulp_asymmetry_keeps_the_schur_path(self, monkeypatch):
        a = np.array(hermitian_matrix(40, 3))
        a[0, 1] = np.nextafter(a[0, 1], np.inf)
        b = np.linspace(0.5, 1.5, 40)
        want_sigma, want_root = sla.svdvals(a)[0], sla.sqrtm(a)
        m = linalg.DenseMatrix(a)
        calls = spy_dense_kernels(monkeypatch)
        assert m.eigh() is None
        assert linalg.sigma_max(m) == want_sigma
        np.testing.assert_array_equal(linalg.reference_sqrt_action(m, b), want_root @ b)
        np.testing.assert_array_equal(linalg.reference_invsqrt_action(m, b),
                                      linalg.DenseMatrix(want_root).solve(b))
        assert calls == ["svdvals"] + ["min_symmetric_eig", "eigvalsh", "sqrtm"] * 2

    @pytest.mark.parametrize("action", [linalg.reference_sqrt_action,
                                        linalg.reference_invsqrt_action])
    def test_indefinite_rejected_without_sqrtm(self, monkeypatch, action):
        a = hermitian_matrix(30, 4) - 500.0 * np.eye(30)
        calls = spy_dense_kernels(monkeypatch)
        with pytest.raises(InvalidSpectrum):
            action(a, np.ones(30))
        assert calls == ["eigh"]

    def test_guard_before_eigh(self, monkeypatch):
        monkeypatch.setattr(linalg, "DENSE_ORACLE_MAX_N", 10)
        calls = spy_dense_kernels(monkeypatch)
        for action in (linalg.reference_sqrt_action, linalg.reference_invsqrt_action):
            with pytest.raises(TooLarge):
                action(hermitian_matrix(11, 5), np.ones(11))
        assert calls == []

    @pytest.mark.parametrize("kind,complex_", [("uniform", False), ("uniform", True),
                                               ("clustered", False), ("clustered", True)])
    def test_oracles_match_schur_sqrtm(self, kind, complex_):
        a = hermitian_matrix(80, 6, kind, complex_)
        b = np.random.default_rng(6).uniform(0.5, 1.5, 80)
        root = sla.sqrtm(a)
        for got, want in ((linalg.reference_sqrt_action(a, b), root @ b),
                          (linalg.reference_invsqrt_action(a, b), np.linalg.solve(root, b))):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_sigma_max_matches_svd(self, complex_):
        a = hermitian_matrix(120, 7, "clustered", complex_)
        assert linalg.sigma_max(a) == pytest.approx(sla.svdvals(a)[0], rel=1e-13)


class TestSigmaMin:
    def test_diagonal(self):
        assert linalg.sigma_min(np.diag([3.0, 0.5, 10.0])) == pytest.approx(0.5, rel=1e-8)

    def test_vs_svd(self):
        a, _, _ = make_pd_matrix(6, 50)
        want = sla.svdvals(a)[-1]
        assert linalg.sigma_min(a) == pytest.approx(want, rel=1e-12)

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
    def test_exact_on_both_representations(self):
        # within 1e-12 of Hermitian is not Hermitian: the test is M == Mᴴ
        a, _, _ = make_pd_matrix(31, 20, skew=False)
        near = a.copy()
        near[0, 1] *= 1.0 + 1e-13
        assert linalg.is_hermitian(a) and not linalg.is_hermitian(near)
        assert linalg.DenseMatrix(near).eigh() is None
        lower, diag = np.full(9, -1.0), np.full(10, 2.0)
        assert linalg.is_hermitian(linalg.TridiagonalMatrix(lower, diag, lower.copy()))
        assert not linalg.is_hermitian(linalg.TridiagonalMatrix(lower, diag, lower * (1 + 1e-13)))

    def test_detects(self):
        a, _, _ = make_pd_matrix(31, 20, skew=False)
        assert linalg.is_hermitian(a)
        assert not linalg.is_hermitian(a + 1e-6 * np.triu(np.ones((20, 20)), 1))

    def test_no_symmetrization_for_tiny_skew(self):
        a = np.eye(5)
        a[0, 1] += 1e-3
        assert not linalg.is_hermitian(a)
