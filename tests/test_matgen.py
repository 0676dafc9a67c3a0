"""Matrix/rhs generators: determinism, prescribed spectra, stencils,
perturbations, and MatrixMarket round-trips."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from krylov_sqrt import linalg, matgen
from krylov_sqrt.errors import (
    DomainError,
    PositivityLost,
    UnsupportedContext,
)
from krylov_sqrt.matrixmarket import read_matrix_market, write_matrix_market


def eigenvectors(n: int, seed: int) -> np.ndarray:
    return matgen.spectrum_matrix(matgen.SpectrumSpec.uniform(n, 1.0, 10.0), seed).eigenvectors


class TestRandomOrthogonal:
    """The random orthogonal eigenvector basis of a spectrum matrix."""

    def test_n_one_is_sign(self):
        q = eigenvectors(1, 3)
        assert q.shape == (1, 1) and abs(q[0, 0]) == pytest.approx(1.0)

    def test_orthonormal_n100(self):
        q = eigenvectors(100, 42)
        assert np.linalg.norm(q.T @ q - np.eye(100)) <= 1e-12 * 100

    def test_deterministic(self):
        a = eigenvectors(40, 7)
        b = eigenvectors(40, 7)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, eigenvectors(40, 8))


class TestSpectrumMatrix:
    def test_degenerate_uniform_is_identity(self):
        sm = matgen.spectrum_matrix(matgen.SpectrumSpec.uniform(6, 1.0, 1.0), 5)
        np.testing.assert_allclose(sm.matrix.array.real, np.eye(6), atol=1e-12)

    def test_uniform_bounds_n500(self):
        sm = matgen.spectrum_matrix(matgen.SpectrumSpec.uniform(500, 1.0, 1000.0), 11)
        a = sm.matrix.array.real
        assert linalg.min_symmetric_eig(a) >= 1.0 - 1e-8
        assert np.all(sm.eigenvalues >= 1.0)
        assert np.all(sm.eigenvalues <= 1000.0)
        assert sla.eigvalsh(a)[-1] <= 1000.0 + 1e-6

    def test_spectrum_round_trip(self):
        sm = matgen.spectrum_matrix(matgen.SpectrumSpec.uniform(80, 1.0, 1000.0), 12)
        computed = np.sort(sla.eigvalsh(sm.matrix.array.real))[::-1]
        np.testing.assert_allclose(computed, sm.eigenvalues, rtol=1e-8)

    def test_clustered_composition(self):
        spec = matgen.SpectrumSpec.clustered(200, 10.0, 1.0, 0.99, 1000.0, 100.0)
        sm = matgen.spectrum_matrix(spec, 13)
        assert np.sum(sm.eigenvalues > 500.0) == 2  # 1% of 200
        assert np.all(sm.eigenvalues > 0.0)

    def test_positivity_floor(self):
        # outliers centered at zero would go negative without the clamp
        spec = matgen.SpectrumSpec.clustered(50, 10.0, 1.0, 0.5, 0.0, 1.0)
        with pytest.warns(UserWarning, match="eigenvalue draws fell below POSITIVITY_FLOOR"):
            sm = matgen.spectrum_matrix(spec, 3)
        assert np.all(sm.eigenvalues >= matgen.POSITIVITY_FLOOR)

    def test_clamp_warning_counts_draws(self):
        # one outlier of N(500, 150^2) lands below zero for this seed
        spec = matgen.SpectrumSpec.clustered(180, 10.0, 1.0, 0.5, 500.0, 150.0)
        with pytest.warns(UserWarning) as record:
            sm = matgen.spectrum_matrix(spec, 1060040521)
        assert [str(w.message) for w in record] == [
            "1 of 180 eigenvalue draws fell below POSITIVITY_FLOOR = 1e-06 and were clamped to it"]
        assert sm.eigenvalues[-1] == matgen.POSITIVITY_FLOOR
        assert np.count_nonzero(sm.eigenvalues == matgen.POSITIVITY_FLOOR) == 1

    def test_benchmark_spectra_never_clamp(self):
        # the benchmark's spectrum kinds: dense-cli at n = 600 (seed 8) and
        # the bound-sweep kinds at its largest order, over many seeds
        dense = [(matgen.SpectrumSpec.uniform(600, 1.0, 1000.0), 8),
                 (matgen.SpectrumSpec.clustered(600, 10.0, 1.0, 0.99, 1000.0, 100.0), 8)]
        sweep = [(spec, seed) for seed in range(500) for spec in (
            matgen.SpectrumSpec.uniform(200, 10.0, 1000.0),
            matgen.SpectrumSpec.clustered(200, 10.0, 1.0, 0.5, 500.0, 100.0))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec, seed in dense + sweep:
                eig_seq, _ = np.random.SeedSequence(seed).spawn(2)
                matgen.draw_eigenvalues(spec, np.random.default_rng(eig_seq))

    def test_eigenvector_columns_match(self):
        sm = matgen.spectrum_matrix(matgen.SpectrumSpec.uniform(30, 1.0, 100.0), 17)
        a = sm.matrix.array.real
        for j in (0, 7, 29):
            v = sm.eigenvectors[:, j]
            np.testing.assert_allclose(a @ v, sm.eigenvalues[j] * v, atol=1e-9 * 100)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            matgen.SpectrumSpec.uniform(5, -1.0, 10.0)
        with pytest.raises(DomainError):
            matgen.SpectrumSpec(kind="weird", n=5)


class TestSkewPart:
    def test_n_one_is_zero(self):
        np.testing.assert_array_equal(matgen.skew_part(1, 0), np.zeros((1, 1)))

    def test_exactly_skew(self):
        k = matgen.skew_part(50, 9)
        np.testing.assert_array_equal(k + k.T, np.zeros((50, 50)))

    def test_scale(self):
        base = matgen.skew_part(20, 4, scale=1.0)
        doubled = matgen.skew_part(20, 4, scale=2.0)
        np.testing.assert_allclose(doubled, 2.0 * base)

    def test_skew_does_not_move_symmetric_eig(self):
        sm = matgen.spectrum_matrix(matgen.SpectrumSpec.uniform(40, 1.0, 100.0), 21)
        m = sm.matrix.array.real + matgen.skew_part(40, 22)
        assert linalg.min_symmetric_eig(m) == pytest.approx(sm.eigenvalues[-1], rel=1e-8)


class TestConvectionDiffusion:
    def test_stencil_entries(self):
        n, eta = 64, 0.3
        tri = matgen.convection_diffusion(n, eta)
        h = 1.0 / n
        assert tri.shape == (n - 1, n - 1)
        np.testing.assert_allclose(tri.diag, 2 * eta / h**2 + 1.0 / h)
        np.testing.assert_allclose(tri.lower, -eta / h**2 - 1.0 / h)
        np.testing.assert_allclose(tri.upper, -eta / h**2)

    def test_full_convention_order(self):
        assert matgen.convection_diffusion(64, 0.1, "full").shape == (64, 64)

    def test_interior_row_sums_vanish(self):
        tri = matgen.convection_diffusion(32, 0.2)
        dense = tri.to_dense()
        sums = dense.sum(axis=1)
        np.testing.assert_allclose(sums[1:-1], 0.0, atol=1e-9)

    def test_exactly_tridiagonal(self):
        dense = matgen.convection_diffusion(16, 0.1).to_dense()
        assert np.count_nonzero(np.triu(dense, 2)) == 0
        assert np.count_nonzero(np.tril(dense, -2)) == 0

    def test_positive_definite(self):
        assert linalg.min_symmetric_eig(
            matgen.convection_diffusion(40, 0.05).to_dense()) > 0.0

    def test_matvec_solve_match_dense(self):
        tri = matgen.convection_diffusion(24, 0.7)
        dense = tri.to_dense()
        rng = np.random.default_rng(0)
        v = rng.standard_normal(23)
        np.testing.assert_allclose(tri.matvec(v.copy()), dense @ v, rtol=1e-13)
        np.testing.assert_allclose(tri.solve(v), np.linalg.solve(dense, v), rtol=1e-10)
        assert not linalg.is_hermitian(tri) and not np.array_equal(dense, dense.T)
        assert linalg.sigma_min(tri) == pytest.approx(sla.svdvals(dense)[-1], rel=1e-10)

    def test_validation(self):
        with pytest.raises(DomainError):
            matgen.convection_diffusion(2, 0.1)
        with pytest.raises(DomainError):
            matgen.convection_diffusion(10, 0.0)
        for eta in (np.nan, np.inf, -np.inf):  # nan <= 0 is False, so NaN used to pass
            with pytest.raises(DomainError, match="eta"):
                matgen.convection_diffusion(10, eta)
        with pytest.raises(DomainError):
            matgen.convection_diffusion(10, 0.1, "staggered")


class TestPerturbMatrix:
    def _base(self, seed=30, n=40):
        sm = matgen.spectrum_matrix(matgen.SpectrumSpec.uniform(n, 1.0, 100.0), seed)
        return sm.matrix.array.real + matgen.skew_part(n, seed + 1)

    def test_eps_zero_identity(self):
        a = self._base()
        out = matgen.perturb_matrix(a, matgen.PerturbationSpec(eps=0.0), 1)
        np.testing.assert_array_equal(out.matrix.array.real, a)
        assert out.achieved_eps == 0.0 and out.mu1 == out.mu2

    @pytest.mark.parametrize("mode", ["hermitian-random", "skew-random"])
    def test_norm_budget_respected(self, mode):
        a = self._base()
        spec = matgen.PerturbationSpec(eps=1e-3, mode=mode)
        out = matgen.perturb_matrix(a, spec, 2)
        diff = out.matrix.array.real - a
        measured = np.linalg.norm(diff, 2) / np.linalg.norm(a, 2)
        assert measured <= 1e-3 * (1.0 + 1e-6)
        assert measured == pytest.approx(out.achieved_eps, rel=1e-6)

    def test_perturbed_stays_positive(self):
        a = self._base()
        out = matgen.perturb_matrix(a, matgen.PerturbationSpec(eps=1e-2), 3)
        assert linalg.min_symmetric_eig(out.matrix.array) > 0.0
        assert out.mu2 > 0.0

    def test_skew_mode_preserves_mu(self):
        a = self._base()
        spec = matgen.PerturbationSpec(eps=1e-3, mode="skew-random")
        out = matgen.perturb_matrix(a, spec, 4)
        assert out.mu2 == pytest.approx(out.mu1, rel=1e-10)

    def test_shrink_and_fail(self):
        # after three halvings the perturbation norm still dwarfs the tiny
        # eigenvalues, so positive definiteness cannot survive
        a = np.diag([1000.0] + [1e-4] * 39)
        with pytest.raises(PositivityLost):
            matgen.perturb_matrix(a, matgen.PerturbationSpec(eps=0.01), 5)

    def test_shrink_and_retry_reports_smaller_eps(self):
        a = np.diag([1000.0] + [2.0] * 9)
        out = matgen.perturb_matrix(a, matgen.PerturbationSpec(eps=0.004), 6)
        assert out.achieved_eps < 0.004


class TestRhsVector:
    def test_ones(self):
        np.testing.assert_array_equal(matgen.rhs_vector("ones", 3), np.ones(3))

    def test_eig_average_single_is_top_eigenvector(self):
        sm = matgen.spectrum_matrix(matgen.SpectrumSpec.uniform(20, 1.0, 100.0), 8)
        b = matgen.rhs_vector("eig_average", sm, count=1)
        np.testing.assert_allclose(b, sm.eigenvectors[:, 0], atol=1e-12)

    def test_eig_average_span_and_norm(self):
        sm = matgen.spectrum_matrix(matgen.SpectrumSpec.uniform(50, 1.0, 1000.0), 9)
        b = matgen.rhs_vector("eig_average", sm, count=10)
        assert np.linalg.norm(b) == pytest.approx(1.0, rel=1e-12)
        basis = sm.eigenvectors[:, :10]
        residual = b - basis @ (basis.T @ b)
        assert np.linalg.norm(residual) <= 1e-12

    def test_eig_average_needs_context(self):
        with pytest.raises(UnsupportedContext):
            matgen.rhs_vector("eig_average", np.eye(4))

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            matgen.rhs_vector("random", 4)


class TestMatrixMarket:
    def test_dense_real_bit_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((7, 5)) * np.exp(rng.uniform(-30, 30, size=(7, 5)))
        path = tmp_path / "a.mtx"
        write_matrix_market(path, a, comment="dense real test")
        back = read_matrix_market(path)
        np.testing.assert_array_equal(back, a)

    def test_dense_complex_bit_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        path = tmp_path / "c.mtx"
        write_matrix_market(path, a)
        np.testing.assert_array_equal(read_matrix_market(path), a)

    def test_tridiagonal_coordinate_round_trip(self, tmp_path):
        tri = matgen.convection_diffusion(12, 0.25)
        path = tmp_path / "t.mtx"
        write_matrix_market(path, tri)
        np.testing.assert_array_equal(read_matrix_market(path), tri.to_dense())

    def test_vector_round_trip(self, tmp_path):
        v = np.array([1.5, -2.25, 3.125e-200])
        path = tmp_path / "v.mtx"
        write_matrix_market(path, v)
        back = read_matrix_market(path)
        np.testing.assert_array_equal(back.ravel(), v)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_comments_and_blank_lines_bit_exact(self, tmp_path, field):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((6, 4)) * np.exp(rng.uniform(-300, 300, size=(6, 4)))
        if field == "complex":
            a = a + 1j * rng.standard_normal((6, 4)) * 1e-310
            a.imag[0, 1] = -0.0
        a[1, 2] = -0.0 if field == "real" else complex(-0.0, -0.0)
        path = tmp_path / "a.mtx"
        write_matrix_market(path, a, comment="first\nsecond")
        lines = path.read_text().splitlines()
        assert lines[1:3] == ["%first", "%second"]
        # blank and comment lines before the size line, blank lines inside the data
        lines[3:3] = ["", "% before sizes", "   "]
        lines[8:8] = ["", "   ", ""]
        path.write_text("\n".join(lines) + "\n\n")
        back = read_matrix_market(path)
        assert back.dtype == a.dtype
        got, want = back.view(np.float64), a.view(np.float64)  # real and imaginary parts
        nonzero = want != 0
        assert got[nonzero].tobytes() == want[nonzero].tobytes()
        assert (got[~nonzero] == 0.0).all()  # a -0.0 may read back as +0.0

    def test_coordinate_with_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n%c\n\n% mid\n3 2 2\n"
                        "1 1 1.5 -2.0\n\n\n3 2 0.1 1e-300\n")
        want = np.zeros((3, 2), dtype=complex)
        want[0, 0], want[2, 1] = 1.5 - 2.0j, 0.1 + 1e-300j
        np.testing.assert_array_equal(read_matrix_market(path), want)

    @pytest.mark.parametrize("text", [
        "%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n",
        "%%MatrixMarket matrix array complex general\n1 2\n1.0 2.0\n",
        "%%MatrixMarket matrix array real general\n1 1\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 2.0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",
        "%%MatrixMarket matrix array real general\n1 2\n1.0\nx\n",
    ])
    def test_rejects_wrong_entry_count_and_bad_data(self, tmp_path, text):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(DomainError):
            read_matrix_market(path)

    @pytest.mark.parametrize("text", [
        "%%MatrixMarket matrix array real general\n1 2\n1.0\n% inside\n2.0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n% x\n2 2 2.0\n",
    ])
    def test_rejects_comment_inside_data(self, tmp_path, text):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(DomainError):
            read_matrix_market(path)

    @pytest.mark.parametrize("text,want", [
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 4.0\n2 1 -1.5\n",
         [[4.0, -1.5], [-1.5, 0.0]]),
        ("%%MatrixMarket matrix array real skew-symmetric\n2 2\n3.0\n",
         [[0.0, -3.0], [3.0, 0.0]]),
        ("%%MatrixMarket matrix array complex hermitian\n2 2\n1 0\n2 3\n4 0\n",
         [[1, 2 - 3j], [2 + 3j, 4]]),
    ])
    def test_symmetric_storage_expanded(self, tmp_path, text, want):
        path = tmp_path / "s.mtx"
        path.write_text(text)
        back = read_matrix_market(path)
        assert back.dtype == (complex if "complex" in text else float)
        np.testing.assert_array_equal(back, want)

    def test_integer_field_reads_float64(self, tmp_path):
        path = tmp_path / "i.mtx"
        path.write_text("%%MatrixMarket matrix coordinate integer general\n2 2 2\n"
                        "1 1 3\n2 2 -7\n")
        back = read_matrix_market(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, [[3.0, 0.0], [0.0, -7.0]])

    def test_rejects_pattern_field(self, tmp_path):
        path = tmp_path / "p.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n")
        with pytest.raises(DomainError, match="pattern"):
            read_matrix_market(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("hello world\n")
        with pytest.raises(DomainError):
            read_matrix_market(path)
