"""Arnoldi process invariants, the residual/error determinant identities,
shift relations, and the adaptive runner."""

import dataclasses

import numpy as np
import pytest

from krylov_sqrt import arnoldi as arn
from krylov_sqrt import bounds as bnd
from krylov_sqrt import linalg, matgen
from krylov_sqrt.errors import (
    DimensionMismatch,
    DomainError,
    NoConvergence,
    NonFiniteEntry,
    SingularMatrix,
    SingularProjectedMatrix,
    TooLarge,
    UnsupportedContext,
)

from helpers import (
    make_pd_matrix,
    record_fun_coefficients,
    record_hyman_sweeps,
    shifted_fom_quantities,
)


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

    def test_older_snapshot_cannot_be_extended(self):
        # a decomposition is append-only: an older snapshot, or a prefix,
        # is a read-only view, and extending it leaves the newest intact
        a, _, _ = make_pd_matrix(4, 20)
        base = arn.arnoldi(a, np.ones(20), 3)
        h3 = base.hessenberg.copy()
        tip = arn.arnoldi_extend(a, base, 2)
        h5, q5 = tip.hessenberg.copy(), tip.basis.copy()
        for older in (base, tip.prefix(4)):
            with pytest.raises(DomainError, match=rf"k = 5\).*k = {older.k}"):
                arn.arnoldi_extend(-a, older, 2)
        np.testing.assert_array_equal(base.hessenberg, h3)
        np.testing.assert_array_equal(tip.hessenberg, h5)
        np.testing.assert_array_equal(tip.basis, q5)
        grown = arn.arnoldi_extend(a, tip, 2)  # the newest still grows
        np.testing.assert_array_equal(grown.hessenberg, arn.arnoldi(a, np.ones(20), 7).hessenberg)

    def test_prefix_equals_short_run(self):
        a, _, _ = make_pd_matrix(5, 25)
        long = arn.arnoldi(a, np.ones(25), 12)
        short = arn.arnoldi(a, np.ones(25), 5)
        pre = long.prefix(5)
        np.testing.assert_array_equal(pre.hessenberg, short.hessenberg)
        np.testing.assert_array_equal(pre.basis, short.basis)

    def test_real_dense_matrix_stays_real(self):
        a, _, _ = make_pd_matrix(8, 30)
        state = arn.arnoldi(linalg.DenseMatrix(a), np.ones(30), 6)
        assert state.hessenberg.dtype == state.basis.dtype == np.float64
        check_invariants(a, state)

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

    def test_schur_vectors_only_for_actions(self, monkeypatch):
        # a bound alone takes Ritz values without Schur vectors; with an
        # oracle the action's Schur form also gives the Ritz values
        calls = []
        ritz = linalg.hessenberg_eigenvalues
        monkeypatch.setattr(linalg, "hessenberg_eigenvalues",
                            lambda h, schur=False: calls.append((h.shape[0], schur))
                            or ritz(h, schur=schur))
        a, _, _ = make_pd_matrix(4, 30)
        b = np.ones(30)
        x_exact, reference = np.linalg.solve(a, b), linalg.reference_sqrt_action(a, b)
        state = arn.arnoldi(a, b, 12)
        arn.prefix_reports(state, [10], x_exact, 1000.0)
        assert calls == [(10, False)]
        arn.prefix_reports(state, [11], x_exact, 1000.0, reference=reference)
        assert calls == [(10, False), (11, True)]

    def test_unknown_tag(self):
        state = arn.arnoldi(np.eye(2), np.ones(2), 1)
        with pytest.raises(DomainError):
            arn.arnoldi_fun_action(state, "exp")


def spy_action_paths(monkeypatch) -> dict:
    """Orders of the Ritz solves (Schur path) and the number of quadratures
    (shifted-solve path) made from here on."""
    calls = {"ritz": [], "quad": 0}
    ritz, quad = linalg.hessenberg_eigenvalues, arn.bnd.quad_semi_infinite

    def counted_quad(*args):
        calls["quad"] += 1
        return quad(*args)

    monkeypatch.setattr(linalg, "hessenberg_eigenvalues",
                        lambda h, **kw: calls["ritz"].append(h.shape[0]) or ritz(h, **kw))
    monkeypatch.setattr(arn.bnd, "quad_semi_infinite", counted_quad)
    return calls


def both_paths(monkeypatch, state, k, f):
    """(shifted-solve, Schur) coefficients of the prefix k < state.k, each
    path forced through the crossover order and checked by the spies; each
    prefix is a fresh snapshot, with no Schur form cached."""
    calls = spy_action_paths(monkeypatch)
    monkeypatch.setattr(arn, "SHIFTED_ACTION_MIN_K", 0)
    shifted = arn.fun_coefficients(state.prefix(k), f)
    assert calls == {"ritz": [], "quad": 1}
    monkeypatch.setattr(arn, "SHIFTED_ACTION_MIN_K", k)
    schur = arn.fun_coefficients(state.prefix(k), f)
    assert calls == {"ritz": [k], "quad": 1}
    return shifted, schur


def assert_paths_agree(monkeypatch, state, k, invsqrt_rtol=1e-11):
    for f, rtol in (("sqrt", 1e-11), ("invsqrt", invsqrt_rtol)):
        shifted, schur = both_paths(monkeypatch, state, k, f)
        assert np.linalg.norm(shifted - schur) <= rtol * np.linalg.norm(schur)


def s_variable_invsqrt_e1(h: np.ndarray) -> np.ndarray:
    """H^{-1/2} e_1 by the action's quadrature taken over s itself,
    (1/pi) int_0^inf s^{-1/2} (H + sI)^{-1} e_1 ds."""
    q = bnd.quad_semi_infinite(lambda s: bnd.shifted_solve_e1(h, s) / np.sqrt(s),
                               arn.SHIFTED_ACTION_QUAD)
    assert q.tolerance_met
    return q.value / np.pi


def skewed_dense_state(k: int):
    spec = matgen.SpectrumSpec.uniform(600, 10.0, 1000.0)
    a = matgen.spectrum_matrix(spec, 7).matrix.array + matgen.skew_part(600, 8, 30.0)
    return arn.arnoldi(a, np.ones(600), k)


class TestShiftedAction:
    @pytest.mark.parametrize("k, sweeps_s_then_x", [(888, (8, 4)), (200, (5, 4))],
                             ids=["convdiff_888", "skewed_dense_200"])
    def test_log_balanced_matches_s_variable(self, monkeypatch, k, sweeps_s_then_x):
        # s = c x^3 with c = |det H_k|^{1/k} from the LU factor: the same
        # integral to the quadrature's 1e-13 (measured 3e-14 and 5e-17) in
        # fewer Hyman sweeps (one per quadrature pass at these orders)
        state = (arn.arnoldi(matgen.convection_diffusion(1000, 0.1), np.ones(999), k)
                 if k == 888 else skewed_dense_state(k))
        h = np.array(state.hessenberg)
        sweeps = record_hyman_sweeps(monkeypatch)
        want = s_variable_invsqrt_e1(h)
        s_sweeps = len(sweeps)
        got = arn._shifted_invsqrt_e1(h, state._ws.factor().log_det_ratios([k])[0][0])
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        assert (s_sweeps, len(sweeps) - s_sweeps) == sweeps_s_then_x

    def test_convdiff_above_crossover(self, monkeypatch):
        tri = matgen.convection_diffusion(1000, 0.1)
        state = arn.arnoldi(tri, np.ones(999), 889)
        calls = spy_action_paths(monkeypatch)
        arn.arnoldi_fun_action(state.prefix(888), "sqrt")
        assert 888 > arn.SHIFTED_ACTION_MIN_K and calls == {"ritz": [], "quad": 1}
        # the Schur path's H^{-1/2} e_1 solves with T^{1/2} and moves by
        # 1.1e-11 between one and two BLAS threads here, the shifted one by
        # 1.6e-14; they agree to 7.5e-12 on one thread, 1.9e-11 on two
        assert_paths_agree(monkeypatch, state, 888, invsqrt_rtol=3e-11)

    def test_skewed_dense(self, monkeypatch):
        spec = matgen.SpectrumSpec.uniform(600, 10.0, 1000.0)
        a = matgen.spectrum_matrix(spec, 7).matrix.array + matgen.skew_part(600, 8, 30.0)
        assert_paths_agree(monkeypatch, arn.arnoldi(a, np.ones(600), 201), 200)

    def test_complex_dense(self, monkeypatch):
        rng = np.random.default_rng(19)
        a, _, _ = make_pd_matrix(19, 150)
        g = rng.standard_normal((150, 150))
        a = a + 20.0j * (g + g.T)  # i times a symmetric matrix: skew-Hermitian
        state = arn.arnoldi(a, rng.standard_normal(150) + 1j, 121)
        assert np.iscomplexobj(state.hessenberg)
        assert_paths_agree(monkeypatch, state, 120)

    def test_missed_tolerance_raises(self, monkeypatch):
        a, _, _ = make_pd_matrix(3, 60)
        state = arn.arnoldi(a, np.ones(60), 40)
        monkeypatch.setattr(arn, "SHIFTED_ACTION_MIN_K", 0)
        monkeypatch.setattr(arn, "SHIFTED_ACTION_QUAD",
                            dataclasses.replace(arn.SHIFTED_ACTION_QUAD, max_subdivisions=1))
        with pytest.raises(NoConvergence):
            arn.arnoldi_fun_action(state, "sqrt")

    def test_indefinite_hermitian_part_takes_schur(self, monkeypatch):
        # H_k + H_kᴴ is positive definite up to k = 8 only
        n = 40
        tri = linalg.TridiagonalMatrix(np.full(n - 1, 2.0), np.linspace(1.0, 20.0, n),
                                       np.zeros(n - 1))
        state = arn.arnoldi(tri, np.ones(n), 20)
        assert linalg.bendixson_order(state.hessenberg) == 8
        monkeypatch.setattr(arn, "SHIFTED_ACTION_MIN_K", 0)
        calls = spy_action_paths(monkeypatch)
        arn.arnoldi_fun_action(state, "sqrt")
        assert calls == {"ritz": [20], "quad": 0}
        arn.arnoldi_fun_action(state.prefix(8), "invsqrt")
        assert calls == {"ritz": [20], "quad": 1}


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


def spy_dense_lu(monkeypatch) -> list:
    """Orders of the matrices given to the dense LU factorization."""
    orders = []
    factor = linalg.lu_factor_quiet
    monkeypatch.setattr(linalg, "lu_factor_quiet",
                        lambda a: orders.append(a.shape[0]) or factor(a))
    return orders


def complex_dense(n: int) -> np.ndarray:
    rng = np.random.default_rng(77)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g + 3.0 * np.sqrt(n) * np.eye(n)


class TestHessenbergLU:
    @pytest.mark.parametrize("name", ["convdiff-120", "complex-dense"])
    def test_prefix_solves_match_dense_lu(self, monkeypatch, name):
        if name == "convdiff-120":
            M = matgen.convection_diffusion(120, 0.1)
        else:
            M = complex_dense(60)
        b = np.ones(M.shape[0])
        state = arn.arnoldi(M, b, M.shape[0])
        dense = []
        for k in range(1, state.k + 1):
            h = state.prefix(k).hessenberg
            rhs = np.zeros(k, dtype=h.dtype)
            rhs[0] = state.b_norm
            dense.append(linalg.DenseMatrix(h).solve(rhs))
        orders = spy_dense_lu(monkeypatch)
        for k, want in enumerate(dense, start=1):
            got = arn.fun_coefficients(state.prefix(k), "inverse")
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert orders == []  # one Hessenberg factor served every prefix

    @pytest.mark.parametrize("name", ["convdiff-120", "complex-dense"])
    def test_prefix_logdet_matches_slogdet(self, name):
        M = matgen.convection_diffusion(120, 0.1) if name == "convdiff-120" else complex_dense(60)
        state = arn.arnoldi(M, np.ones(M.shape[0]), M.shape[0])
        lu = arn._HessenbergLU()
        lu.extend(state.hessenberg, state.k)
        ratios, phases = lu.log_det_ratios(range(1, state.k + 1))  # every k from one pass
        log_subs = np.append(0.0, np.cumsum(np.log(state.subdiagonals)))
        for k in range(1, state.k + 1):
            sign, want = np.linalg.slogdet(state.hessenberg[:k, :k])
            assert ratios[k - 1] + log_subs[k - 1] == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert abs(phases[k - 1] - sign) <= 1e-10

    def test_extension_matches_one_pass(self):
        a = complex_dense(40)
        state = arn.arnoldi(a, np.ones(40), 30)
        whole = arn._HessenbergLU()
        whole.extend(state.hessenberg, 30)
        grown = arn._HessenbergLU()
        for K in (1, 2, 3, 7, 8, 20, 30):
            grown.extend(state.hessenberg, K)
        for got, want in ((grown.U, whole.U), (grown.mult, whole.mult),
                          (grown.swap, whole.swap), (grown.pivots, whole.pivots)):
            np.testing.assert_array_equal(got, want)

    def test_zero_pivot_above_the_asked_orders_is_singular(self):
        # H_1 = [1] is fine, but a solve of order 3 runs through u_11 = 0
        # (a reduced H): a named error, not LAPACK's info or LinAlgError
        h = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        lu = arn._HessenbergLU()
        lu.extend(h, 3)
        np.testing.assert_array_equal(lu.solve_e1([1], 2.0)[:, 0], [2.0])
        with pytest.raises(SingularMatrix):
            lu.solve_e1([1], 2.0, order=3)

    def test_adaptive_run_extends_one_factor(self, monkeypatch):
        a, _, _ = make_pd_matrix(21, 40)
        factored = []
        extend = arn._HessenbergLU.extend
        monkeypatch.setattr(arn._HessenbergLU, "extend",
                            lambda lu, h, K: factored.append(K - len(lu.pivots)) or extend(lu, h, K))
        arn.run_adaptive(a, np.ones(40), stop=arn.ResidualRelative(1e-30), k_max=12)
        assert sum(n for n in factored if n > 0) == 12  # each column factored once

    @pytest.mark.parametrize("grown", [False, True])
    def test_pivot_threshold_is_the_prefix_row_norm(self, grown):
        # the last pivot of H_2 is delta; H_3 has far larger rows, which
        # must not raise the threshold of the prefix
        rows = np.sqrt([2.0, 1.0 + (1.0 + 1e-13) ** 2])
        for delta, singular in ((0.9, True), (1.1, False)):
            delta *= linalg.PIVOT_RTOL * rows.max()
            h = np.array([[1.0, 1.0, 1e6], [1.0, 1.0 + delta, 1e6], [0.0, 1.0, 1.0]])
            lu = arn._HessenbergLU()
            for K in ((1, 2, 3) if grown else (3,)):
                lu.extend(h, K)
            assert abs(lu.pivots[1]) == pytest.approx(delta, rel=0.05, abs=0.0)
            if singular:
                with pytest.raises(SingularMatrix):
                    lu.solve_e1([2], 1.0)
            else:
                np.testing.assert_allclose(h[:2, :2] @ lu.solve_e1([2], 1.0)[:, 0], [1.0, 0.0],
                                           atol=1e-12)
            assert lu.row_norms[2] == pytest.approx(np.linalg.norm(h, axis=1).max())

    def test_singular_prefix_raises_named_errors(self, monkeypatch):
        # H_1 = [[0]]: q_1 = e_1 and M e_1 = e_2, while H_2 is the nonsingular M
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        state = arn.arnoldi(m, np.array([1.0, 0.0]), 2)
        orders = spy_dense_lu(monkeypatch)
        np.testing.assert_allclose(arn.fom_iterate(state), [0.0, 1.0], atol=1e-15)
        with pytest.raises(SingularMatrix):
            arn.fom_iterate(state.prefix(1))
        with pytest.raises(SingularProjectedMatrix):
            arn.fom_residual_norm(state.prefix(1))
        assert orders == []


class TestFomError:
    def test_breakdown_error_zero(self):
        m, b = np.diag([1.0, 2.0]), np.array([1.0, 0.0])
        state = arn.arnoldi(m, b, 2)
        assert arn.fom_error(state, np.linalg.solve(m, b)) <= 1e-12

    def test_hand_computed_2x2(self):
        m = np.diag([1.0, 2.0])
        b = np.array([1.0, 1.0]) / np.sqrt(2.0)
        state = arn.arnoldi(m, b, 1)
        want = np.linalg.norm([1.0 / 3.0, -1.0 / 6.0]) / np.sqrt(2.0)
        assert arn.fom_error(state, np.linalg.solve(m, b)) == pytest.approx(want, rel=1e-12)

    def test_full_space_error_vanishes(self):
        a, _, _ = make_pd_matrix(7, 40)
        b = np.ones(40)
        state = arn.arnoldi(a, b, 40)
        assert arn.fom_error(state, np.linalg.solve(a, b)) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_error_dominates_residual_over_sigma(self, seed):
        a, _, _ = make_pd_matrix(seed, 30)
        b = np.ones(30)
        state = arn.arnoldi(a, b, 6)
        residual_norm, _ = arn.fom_residual_norm(state)
        sigma = linalg.sigma_max(a)
        assert arn.fom_error(state, np.linalg.solve(a, b)) >= residual_norm / sigma * (1.0 - 1e-8)

    def test_surrogate_with_mu_is_upper_bound(self):
        a, eigs, _ = make_pd_matrix(2, 30)
        b = np.ones(30)
        state = arn.arnoldi(a, b, 6)
        exact = arn.fom_error(state, np.linalg.solve(a, b))
        certified = arn.fom_error_surrogate(state, min_sym_eig=eigs[-1])
        assert certified >= exact * (1.0 - 1e-10)
        # without mu the surrogate is just the residual norm (not certified)
        assert arn.fom_error_surrogate(state) == arn.fom_residual_norm(state)[0]


class TestPrefixReport:
    @pytest.mark.parametrize("f", ["sqrt", "invsqrt"])
    def test_residual_errors_and_one_action_per_snapshot(self, monkeypatch, f):
        # the FOM residual, xi and the true f-error of one prefix, no bound;
        # each action is computed once per snapshot and f
        calls = record_fun_coefficients(monkeypatch)
        a, _, _ = make_pd_matrix(4, 30)
        b = np.ones(30)
        oracle = {"sqrt": linalg.reference_sqrt_action, "invsqrt": linalg.reference_invsqrt_action}
        x_exact, reference = np.linalg.solve(a, b), oracle[f](a, b)
        sub = arn.arnoldi(a, b, 12).prefix(10)
        rep = arn.fom_reports(sub, [10], x_exact, reference, f)[0]
        want_error = np.linalg.norm(reference - arn.arnoldi_fun_action(sub, f))
        assert dataclasses.astuple(rep) == (
            10, arn.fom_residual_norm(sub)[0], np.linalg.norm(x_exact - arn.fom_iterate(sub)),
            want_error) + (None,) * 7
        assert sorted(calls) == sorted([(10, f), (10, "inverse")])

    def test_hermitian_reports_jensen_chain(self):
        _, eigs, sm = make_pd_matrix(15, 40, skew=False)
        a = sm.matrix.array.real
        b = np.ones(40)
        reports = arn.prefix_reports(arn.arnoldi(a, b, 10), range(1, 11), np.linalg.solve(a, b),
                                     None, hermitian=True, known_spectrum=eigs)
        for rep in reports:
            assert rep.hermitian_jensen is not None
            assert rep.hermitian_jensen <= rep.hermitian_loose + 1e-12
            assert rep.lambda_bar <= eigs[0] + 1e-9

    def test_no_reference_no_action(self, monkeypatch):
        calls = record_fun_coefficients(monkeypatch)
        a, _, _ = make_pd_matrix(5, 20)
        b = np.ones(20)
        rep = arn.fom_reports(arn.arnoldi(a, b, 8), [8], np.linalg.solve(a, b))[0]
        assert rep.k == 8 and rep.xi_norm > 0.0 and rep.error_norm is None
        assert calls == [(8, "inverse")]


def hessenberg_state(h: np.ndarray):
    """The decomposition of an upper Hessenberg matrix with positive
    subdiagonal from b = e_1, whose Hessenberg matrix is h itself."""
    b = np.zeros(h.shape[0])
    b[0] = 1.0
    state = arn.arnoldi(h, b, h.shape[0])
    np.testing.assert_array_equal(state.hessenberg, h)
    return state


class TestFomReports:
    @pytest.mark.parametrize("name", ["skewed-dense", "hermitian-dense", "convdiff",
                                      "convdiff-150-ks"])
    def test_batch_equals_one_k_case(self, name):
        # every k of one batch (one product with the basis, 150 columns for
        # the last) against a lone k on a fresh decomposition, whose
        # coefficients come from their own solve.  Up to k = 150 of
        # convection-diffusion at n = 200, cond(H_k) reaches 8.3e3 and the
        # triangular solves of order k and 150 differ by 1.2e-13 ||x_exact||
        K = 150 if name == "convdiff-150-ks" else 60
        xi_rtol = 2e-13 if K == 150 else 1e-13
        if name.startswith("convdiff"):
            a = matgen.convection_diffusion(200 if K == 150 else 150, 0.1).to_dense()
        else:
            a = make_pd_matrix(12, 80, skew=name == "skewed-dense")[0]
        b = np.ones(a.shape[0])
        x_exact, reference = np.linalg.solve(a, b), linalg.reference_sqrt_action(a, b)
        ks = range(1, K + 1)
        batch = arn.fom_reports(arn.arnoldi(a, b, K), ks, x_exact, reference)
        state = arn.arnoldi(a, b, K)
        for k, rep in zip(ks, batch):
            one = arn.fom_reports(state, [k], x_exact, reference)[0]
            assert rep.k == one.k == k
            assert rep.residual_norm == pytest.approx(one.residual_norm, rel=1e-12, abs=0.0)
            assert abs(rep.xi_norm - one.xi_norm) <= xi_rtol * np.linalg.norm(x_exact)
            assert abs(rep.error_norm - one.error_norm) <= 1e-13 * np.linalg.norm(reference)

    def test_reports_keep_the_order_of_ks(self):
        a = make_pd_matrix(3, 40)[0]
        b = np.ones(40)
        state = arn.arnoldi(a, b, 20)
        reports = arn.fom_reports(state, [9, 3, 9, 15], np.linalg.solve(a, b))
        assert [rep.k for rep in reports] == [9, 3, 9, 15] and reports[0] == reports[2]
        assert arn.fom_reports(state, [], np.linalg.solve(a, b)) == []

    def test_one_solve_for_many_prefixes(self, monkeypatch):
        # 24 prefixes read the factor once: one triangular solve (of order
        # the largest k, less one), one pass of cumulative sums, no per-k solve
        a = make_pd_matrix(6, 120)[0]
        b = np.ones(120)
        state = arn.arnoldi(a, b, 50)
        ks = list(range(4, 52, 2))
        solves, passes, lu_solves = [], [], []
        trtrs = arn.sla.lapack.dtrtrs
        monkeypatch.setattr(arn.sla.lapack, "dtrtrs",
                            lambda u, y, **kw: solves.append((u.shape[1], y.shape[1]))
                            or trtrs(u, y, **kw))
        ratios, solve_e1 = arn._HessenbergLU.log_det_ratios, arn._HessenbergLU.solve_e1
        monkeypatch.setattr(arn._HessenbergLU, "log_det_ratios",
                            lambda lu, ks, **kw: passes.append(list(ks)) or ratios(lu, ks, **kw))
        monkeypatch.setattr(arn._HessenbergLU, "solve_e1",
                            lambda lu, ks, *args: lu_solves.append(list(ks))
                            or solve_e1(lu, ks, *args))
        reports = arn.prefix_reports(state, ks, np.linalg.solve(a, b), None)
        assert [rep.k for rep in reports] == ks
        assert solves == [(49, 24)] and passes == lu_solves == [ks]

    def test_singular_prefix_raises_as_the_one_k_path(self):
        # H_2 has a last pivot of 1.2e-14: SingularMatrix by the pivot rule
        # of the FOM solve, while its residual passes the 1e-14 rule.  H_4
        # has two equal columns: SingularProjectedMatrix from its residual.
        # A batch raises what the lone k = 2 raises, however it is ordered.
        delta = 1.2e-14
        h = np.array([[1.0, 1.0, 1e6, 1.0, 0.0],
                      [1.0, 1.0 + delta, 1e6, 1.0, 0.0],
                      [0.0, 1.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0, 1.0],
                      [0.0, 0.0, 0.0, 1.0, 2.0]])
        state = hessenberg_state(h)
        x_exact = np.ones(5)
        with pytest.raises(SingularMatrix) as one:
            arn.fom_reports(state, [2], x_exact)
        with pytest.raises(SingularProjectedMatrix):
            arn.fom_reports(state, [4], x_exact)
        for ks in ([1, 2, 3, 4, 5], [5, 4, 2], [4, 2]):
            with pytest.raises(SingularMatrix) as batch:
                arn.fom_reports(state, ks, x_exact)
            assert str(batch.value) == str(one.value)
        with pytest.raises(SingularProjectedMatrix):
            arn.fom_reports(state, [1, 4, 5], x_exact)

    def test_vectors_of_another_length_are_refused(self):
        # x_exact and reference must be n-vectors, not broadcast against Q_K
        a = make_pd_matrix(3, 30)[0]
        b = np.ones(30)
        state = arn.arnoldi(a, b, 5)
        x_exact = np.linalg.solve(a, b)
        for bad in (np.ones(29), np.ones((30, 1)), np.ones(31)):
            with pytest.raises(DimensionMismatch, match="x_exact"):
                arn.fom_reports(state, [3], bad)
            with pytest.raises(DimensionMismatch, match="reference"):
                arn.fom_reports(state, [3], x_exact, bad)
            with pytest.raises(DimensionMismatch, match="x_exact"):
                arn.prefix_reports(state, [3], bad, None)
            with pytest.raises(DimensionMismatch, match="reference"):
                arn.prefix_reports(state, [3], x_exact, None, reference=bad)


class TestShiftedFom:
    def test_zero_shift_is_identity(self):
        a, _, _ = make_pd_matrix(9, 20)
        b = np.ones(20)
        state = arn.arnoldi(a, b, 4)
        q = shifted_fom_quantities(state, a, b, 0.0)
        np.testing.assert_allclose(q.residual_formula, q.residual_direct, atol=1e-10)
        np.testing.assert_allclose(q.error_formula, q.error_direct, atol=1e-10)

    @pytest.mark.parametrize("z", [-1.0, 2j, 0.7 - 1.3j])
    def test_shift_identities(self, z):
        a, _, _ = make_pd_matrix(10, 20)
        b = np.ones(20)
        state = arn.arnoldi(a, b, 4)
        q = shifted_fom_quantities(state, a, b, z)
        scale_r = np.linalg.norm(q.residual_direct)
        scale_e = np.linalg.norm(q.error_direct)
        assert np.linalg.norm(q.residual_formula - q.residual_direct) <= 1e-8 * scale_r
        assert np.linalg.norm(q.error_formula - q.error_direct) <= 1e-8 * scale_e


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

    def test_invsqrt_oracle_closed_form(self, monkeypatch):
        # the M^{-1/2} b oracle of a tridiagonal Toeplitz M is the DST-I
        # closed form, checked against the Schur square root
        tri = matgen.convection_diffusion(300, 0.1)
        b = np.ones(299)
        want = linalg.lu_solve(linalg.dense_sqrt(tri.to_dense()), b)
        dense = []
        monkeypatch.setattr(linalg, "dense_sqrt", lambda a: dense.append(1))
        res = arn.run_adaptive(tri, b, f="invsqrt", stop=arn.ResidualRelative(1e-30),
                               k_max=30, error_oracle=True)
        assert dense == [] and len(res.history) == 30
        state = arn.arnoldi(tri, b, 30)
        for rep in res.history[::7]:
            err = np.linalg.norm(want - arn.arnoldi_fun_action(state.prefix(rep.k), "invsqrt"))
            assert abs(rep.error_norm - err) <= 1e-10 * np.linalg.norm(want)

    def test_invsqrt_oracle_past_dense_guard(self, monkeypatch):
        tri = matgen.convection_diffusion(20_001, 0.1)
        assert tri.shape[0] > linalg.DENSE_ORACLE_MAX_N
        b = np.ones(tri.shape[0])
        dense = []
        monkeypatch.setattr(linalg.TridiagonalMatrix, "to_dense", lambda self: dense.append(1))
        res = arn.run_adaptive(tri, b, f="invsqrt", stop=arn.ResidualRelative(1e-30),
                               k_max=6, error_oracle=True)
        assert dense == []
        want = linalg.reference_invsqrt_action(tri, b)
        assert res.history[-1].error_norm == pytest.approx(np.linalg.norm(want - res.result),
                                                           rel=1e-12)
        # M^{1/2} (M^{-1/2} b) = b through the two closed forms
        back = linalg.reference_sqrt_action(tri, want)
        assert np.linalg.norm(back - b) <= 1e-10 * np.linalg.norm(b)

    def test_invsqrt_oracle_dense_guard(self, monkeypatch):
        a, _, _ = make_pd_matrix(14, 12)
        monkeypatch.setattr(linalg, "DENSE_ORACLE_MAX_N", 10)
        with pytest.raises(TooLarge):
            arn.run_adaptive(a, np.ones(12), f="invsqrt", k_max=4, error_oracle=True)

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

    def test_invalid_rule(self):
        # a bound stop takes no kind: it stops on the Ritz-product bound alone
        with pytest.raises(TypeError):
            arn.BoundAbsolute(0.1, "posterior_modulus")
        with pytest.raises(TypeError):
            arn.BoundAbsolute(tol=0.1, bound_kind="posterior_ritz")

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0])
    def test_invalid_tolerance_rejected_before_any_step(self, monkeypatch, tol):
        # a NaN or negative tol used to run to k_max, no k passing the test
        steps, plain = [], arn.arnoldi_extend
        monkeypatch.setattr(arn, "arnoldi_extend", lambda *a: steps.append(a) or plain(*a))
        for make in (arn.ResidualRelative, arn.BoundAbsolute,
                     lambda t: arn.find_stop_k(2.0 * np.eye(4), np.ones(4), t)):
            with pytest.raises(DomainError, match="tolerance"):
                make(tol)
        assert steps == []

    def test_bound_stop_rejects_check_every(self):
        a, _, _ = make_pd_matrix(12, 60)
        with pytest.raises(DomainError, match="check_every"):
            arn.run_adaptive(a, np.ones(60), stop=arn.BoundAbsolute(tol=1.0), k_max=59,
                             check_every=2)

    def test_bound_stop_matches_scan(self):
        # run_adaptive's search against an independent scan of every k
        n, tols = 120, (1e-3, 1e-7)
        uniform = matgen.SpectrumSpec.uniform(n, 1.0, 1000.0)
        clustered = matgen.SpectrumSpec.clustered(n, 10.0, 1.0, 0.9, 500.0, 50.0)
        for spec, skew in ((uniform, False), (uniform, True), (clustered, False)):
            for seed in (1, 2):
                a = matgen.spectrum_matrix(spec, seed).matrix.array.real
                if skew:
                    a = a + matgen.skew_part(n, seed + 1)
                b = np.ones(n)
                x_exact = np.linalg.solve(a, b)
                state = arn.arnoldi(a, b, n)
                scan = {}
                for tol in tols:
                    k = 2
                    while True:
                        if k not in scan:
                            sub = state.prefix(k)
                            ritz = linalg.hessenberg_eigenvalues(sub.hessenberg)
                            scan[k] = bnd.bound_posterior_ritz(ritz, arn.fom_error(sub, x_exact))
                        if scan[k] <= tol:
                            break
                        k += 1
                    res = arn.run_adaptive(a, b, stop=arn.BoundAbsolute(tol), k_max=n)
                    assert res.converged and res.k == k, (seed, skew, tol)
                    assert res.history[-1].posterior_ritz == pytest.approx(scan[k], rel=1e-9)

    @pytest.mark.parametrize("skew", [True, False])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_bound_stop_no_later_than_looser_bounds(self, seed, skew):
        # posterior_ritz <= posterior_modulus <= apriori_gamma, so a stop on
        # either looser bound would come no sooner and certify nothing more
        n = 120
        a = matgen.spectrum_matrix(matgen.SpectrumSpec.uniform(n, 1.0, 1000.0), seed).matrix.array
        if skew:
            a = a + matgen.skew_part(n, seed + 1)
        b = np.ones(n)
        state = arn.arnoldi(a, b, n)
        reports = arn.prefix_reports(state, range(2, state.k + 1), np.linalg.solve(a, b),
                                     np.linalg.norm(a, 2))
        for tol in (1e-3, 1e-6):
            k = arn.run_adaptive(a, b, stop=arn.BoundAbsolute(tol), k_max=n).k
            for kind in ("posterior_modulus", "apriori_gamma"):
                first = next((r.k for r in reports if getattr(r, kind) <= tol), n + 1)
                assert k <= first, (kind, tol)

    def test_bound_stop_makes_no_per_step_work(self, monkeypatch):
        # one report at k_stop; no sigma_max, no per-k report, one Ritz
        # solve (the Schur form of the action at k_stop <= 200) and one
        # Hermitian test (the reference oracle's, before the run)
        spied = ((linalg, "sigma_max"), (bnd, "build_bound_report"),
                 (linalg, "hessenberg_eigenvalues"), (linalg, "is_hermitian"))
        calls = dict.fromkeys((name for _, name in spied), 0)
        for owner, name in spied:
            def spy(*a, _fn=getattr(owner, name), _name=name, **kw):
                calls[_name] += 1
                return _fn(*a, **kw)
            monkeypatch.setattr(owner, name, spy)
        a, _, _ = make_pd_matrix(12, 150)
        b = np.ones(150)
        res = arn.run_adaptive(a, b, stop=arn.BoundAbsolute(1e-6), k_max=150, error_oracle=True)
        assert res.converged and res.k <= 200
        assert calls == {"sigma_max": 0, "build_bound_report": 0, "hessenberg_eigenvalues": 1,
                         "is_hermitian": 1}
        (rep,) = res.history
        assert rep.k == res.k and rep.posterior_ritz <= 1e-6
        assert (rep.posterior_modulus, rep.apriori_gamma, rep.sigma_max_used, rep.hermitian_loose,
                rep.hermitian_jensen, rep.lambda_bar) == (None,) * 6
        state = arn.arnoldi(a, b, res.k)
        assert rep.xi_norm == pytest.approx(arn.fom_error(state, np.linalg.solve(a, b)), rel=1e-9)
        assert rep.residual_norm == pytest.approx(arn.fom_residual_norm(state)[0], rel=1e-9)
        want = linalg.reference_sqrt_action(a, b)
        assert rep.error_norm == pytest.approx(np.linalg.norm(want - res.result), rel=1e-12)

    def test_residual_stop_computes_no_sigma_max(self, monkeypatch):
        _, _, sm = make_pd_matrix(15, 40, skew=False)
        a = sm.matrix.array.real
        sigmas = []
        sigma_max = linalg.sigma_max
        monkeypatch.setattr(linalg, "sigma_max", lambda *p: sigmas.append(1) or sigma_max(*p))
        res = arn.run_adaptive(a, np.ones(40), stop=arn.ResidualRelative(1e-12), k_max=6)
        assert sigmas == []
        for rep in res.history:
            assert (rep.apriori_gamma, rep.sigma_max_used, rep.hermitian_loose,
                    rep.hermitian_jensen, rep.lambda_bar) == (None,) * 5
            assert rep.posterior_ritz is not None

    @pytest.mark.parametrize("f", ["invsqrt", "inverse"])
    def test_bound_stop_needs_sqrt(self, f):
        # the bounds bound the sqrt action: on this input a sqrt-bound stop
        # for invsqrt fired at k = 191 with posterior_ritz 9.70e-4, while
        # the true M^{-1/2} b error there was 1.01e-3 > tol
        tri = matgen.convection_diffusion(200, 0.1)
        with pytest.raises(DomainError):
            arn.run_adaptive(tri, np.ones(199), f=f, stop=arn.BoundAbsolute(tol=1e-3),
                             k_max=199)

    def test_residual_stop_computes_the_stopping_action_once(self, monkeypatch):
        # the error oracle's action at k = 230 is the result: one shifted-solve
        # quadrature there, not two
        tri, b = matgen.convection_diffusion(300, 0.1), np.ones(299)
        calls, plain = [], arn.fun_coefficients
        monkeypatch.setattr(arn, "fun_coefficients",
                            lambda d, f="sqrt": calls.append((d.k, f)) or plain(d, f))
        res = arn.run_adaptive(tri, b, stop=arn.ResidualRelative(1e-30), k_max=230,
                               error_oracle=True)
        assert res.k == 230 and calls.count((230, "sqrt")) == 1
        want = arn.arnoldi(tri, b, 230)
        np.testing.assert_array_equal(res.result, want.basis_k @ plain(want, "sqrt"))

    def test_residual_stop_makes_no_quadrature_in_its_loop(self, monkeypatch):
        # the loop stops on the FOM residual; the bounds of every checked k
        # are one batch of quadratures after it
        events = []
        for owner, name in ((arn, "arnoldi_extend"), (bnd, "_quad_batch")):
            monkeypatch.setattr(owner, name, lambda *a, _fn=getattr(owner, name), _name=name,
                                **kw: events.append(_name) or _fn(*a, **kw))
        a, _, _ = make_pd_matrix(14, 30)
        res = arn.run_adaptive(a, np.ones(30), stop=arn.ResidualRelative(1e-10), k_max=12)
        assert events == ["arnoldi_extend"] * res.k + ["_quad_batch"]
        assert [r.k for r in res.history] == list(range(1, res.k + 1))

    def test_residual_stop_one_schur_form_of_the_last_order(self, monkeypatch):
        # the result's Schur form of H_12 also gives the last row its Ritz
        # values; every earlier row takes eigenvalues without Schur vectors
        calls = []
        ritz = linalg.hessenberg_eigenvalues
        monkeypatch.setattr(linalg, "hessenberg_eigenvalues",
                            lambda h, schur=False: calls.append((h.shape[0], schur))
                            or ritz(h, schur=schur))
        a, _, _ = make_pd_matrix(14, 30)
        res = arn.run_adaptive(a, np.ones(30), stop=arn.ResidualRelative(1e-10), k_max=12)
        assert res.k == 12
        assert calls == [(12, True)] + [(k, False) for k in range(1, 12)]

    def test_invsqrt_history_has_no_sqrt_bounds(self, monkeypatch):
        # these fields bound the sqrt action; here posterior_ritz read
        # 9.70e-4 at k = 191 while the true M^{-1/2} b error was 1.01e-3
        orders, quads = [], []
        ritz, quad = linalg.hessenberg_eigenvalues, arn.bnd._quad_batch
        monkeypatch.setattr(linalg, "hessenberg_eigenvalues",
                            lambda h, **kw: orders.append(h.shape[0]) or ritz(h, **kw))
        monkeypatch.setattr(arn.bnd, "_quad_batch",
                            lambda *a, **kw: quads.append(1) or quad(*a, **kw))
        tri = matgen.convection_diffusion(200, 0.1)
        res = arn.run_adaptive(tri, np.ones(199), f="invsqrt",
                               stop=arn.ResidualRelative(1e-30), k_max=191)
        assert res.k == 191 and len(res.history) == 191
        for rep in res.history:
            assert (rep.posterior_ritz, rep.posterior_modulus, rep.apriori_gamma,
                    rep.hermitian_loose, rep.hermitian_jensen) == (None,) * 5
            assert rep.xi_norm > 0.0
        assert orders == [191] and quads == []  # the final action's Schur form only

    def test_singular_tridiagonal_is_a_named_error(self):
        # SciPy's banded solve ends in a bare LinAlgError on a zero pivot
        tri = linalg.TridiagonalMatrix([0.0], [0.0, 1.0], [0.0])
        for run in (lambda: arn.run_adaptive(tri, np.ones(2)),
                    lambda: arn.run_adaptive(tri, np.ones(2), stop=arn.BoundAbsolute(0.1)),
                    lambda: arn.find_stop_k(tri, np.ones(2), 0.1)):
            with pytest.raises(SingularMatrix):
                run()

    def test_matvec_only_needs_exact_solve(self):
        a, _, _ = make_pd_matrix(16, 20)
        with pytest.raises(UnsupportedContext, match="exact solve"):
            arn.run_adaptive((lambda v: a @ v, 20), np.ones(20), k_max=5)
