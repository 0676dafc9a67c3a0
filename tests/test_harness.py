"""Experiment harness: config validation, runners, CSV/SVG output, CLI."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from helpers import record_fun_coefficients, record_hyman_sweeps, record_quad_batches

from krylov_sqrt import arnoldi as arn
from krylov_sqrt import bounds as bnd
from krylov_sqrt import experiments as exp
from krylov_sqrt import linalg, matgen, plotting
from krylov_sqrt.cli import main as cli_main
from krylov_sqrt.errors import ConfigError, DomainError, InvalidSpectrum, UnsupportedContext


def small_bounds_cfg(tmp_path, **overrides):
    raw = {
        "version": 1,
        "experiment": "bounds_vs_k",
        "seed": 5,
        "output_dir": str(tmp_path),
        "matrix": {"type": "spectrum", "kind": "uniform", "n": 48,
                   "lo": 1.0, "hi": 1000.0, "skew": True},
        "rhs": {"kind": "ones"},
        "k_max": 16,
        "k_samples": 15,
    }
    raw.update(overrides)
    return exp.config_from_dict(raw)


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            exp.config_from_dict({"experiment": "bounds_vs_k", "typo": 1,
                                  "matrix": {"type": "convdiff", "n": 10}, "k_max": 4})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            exp.config_from_dict({"experiment": "bounds_vs_k", "k_max": 4,
                                  "matrix": {"type": "convdiff", "n": 10, "eta2": 1.0}})

    def test_bad_experiment(self):
        with pytest.raises(ConfigError, match="experiment must be"):
            exp.config_from_dict({"experiment": "volume_render"})

    def test_bad_version(self):
        with pytest.raises(ConfigError, match="version"):
            exp.config_from_dict({"version": 9, "experiment": "bounds_vs_k"})

    def test_missing_requirement(self):
        with pytest.raises(ConfigError, match="requires"):
            exp.config_from_dict({"experiment": "convdiff_table",
                                  "n_values": [40]})  # no stopping rule

    @pytest.mark.parametrize("experiment", ["convdiff_table", "scaling_vs_k"])
    def test_residual_rule_rejected(self, experiment):
        # convdiff_table refused it only when run, scaling_vs_k ran a bound search
        with pytest.raises(ConfigError, match="stopping.rule"):
            exp.config_from_dict({"experiment": experiment, "n_values": [40],
                                  "stopping": {"rule": "residual", "tol": 0.05}})

    @pytest.mark.parametrize("stopping", [{"tol": math.nan}, {"tol": 0.0}, {"tol": -1.0}, {}])
    def test_invalid_tolerance_rejected(self, stopping):
        with pytest.raises(ConfigError, match="stopping.tol"):
            exp.config_from_dict({"experiment": "convdiff_table", "n_values": [40],
                                  "stopping": dict(stopping, rule="bound")})

    @pytest.mark.parametrize("key,value", [("k_max", 0), ("k_max", -5), ("k_max", 2.5),
                                           ("k_max", True), ("k_max", None), ("jobs", 0),
                                           ("jobs", -2), ("jobs", 1.5)])
    def test_k_max_and_jobs_must_be_positive_integers(self, key, value):
        # k_max 0 used to mean no cap and -5 to build 2 steps; jobs 0 ran serially
        with pytest.raises(ConfigError, match=key):
            exp.config_from_dict({"experiment": "convdiff_table", "n_values": [40],
                                  "stopping": {"rule": "bound", "tol": 0.05}, key: value})

    @pytest.mark.parametrize("base,key,value", [
        ("convdiff_table", "eta", "0.5"),            # each ended in a TypeError traceback
        ("convdiff_table", "n_values", 40),
        ("bounds_vs_k", "k_samples", 2.5),
        ("perturbed_validity", "instances", 0),      # max() of no rows
        ("bounds_vs_k", "oracle", "false"),          # a truthy string: the oracle ran
        ("perturbed_validity", "n", 0),
        ("perturbed_validity", "eps_values", [0.1, "0.2"]),
        ("scaling_vs_sigma", "k_values", [4, True]),
        ("scaling_vs_k", "fit_window", "0.25"),
        ("bounds_vs_k", "seed", -1),
        ("bounds_vs_k", "seed", 1.0),
        ("bounds_vs_k", "matrix", 5),                # AttributeError
        ("bounds_vs_k", "rhs", []),                  # AttributeError
        ("convdiff_table", "stopping", 5),           # TypeError: not iterable
        ("bounds_vs_k", "matrix.n", "10"),           # TypeError from a comparison
        ("spectrum_bounds_vs_k", "matrix.lo", "1"),  # TypeError from a comparison
        ("bounds_vs_k", "quadrature.rel_tol", "x"),  # TypeError from a comparison
        ("file_bounds_vs_k", "matrix.path", 5),      # TypeError: Unknown source type
        ("convdiff_table", "n_values", [40.5]),      # TypeError from np.full
        ("spectrum_bounds_vs_k", "rhs.count", 2.5),  # TypeError from a slice
        ("convdiff_table", "stopping.tol", True),    # ran with tol 1
        ("scaling_vs_sigma", "k_values", [6.5, 10]),  # ran with k = 6
        ("bounds_vs_k", "quadrature.max_subdivisions", 50.0),  # ran
        ("spectrum_bounds_vs_k", "matrix.skew", 1),  # ran with a skew part
    ])
    def test_value_types_checked(self, tmp_path, capsys, base, key, value):
        stop = {"rule": "bound", "tol": 0.05}
        spectrum = {"type": "spectrum", "kind": "uniform", "n": 40, "lo": 1.0, "hi": 1000.0}
        raw = dict({"experiment": base}, **{
            "convdiff_table": {"n_values": [40], "stopping": stop},
            "scaling_vs_k": {"n_values": [40], "stopping": stop},
            "scaling_vs_sigma": {"n_values": [40], "k_values": [4]},
            "bounds_vs_k": {"matrix": {"type": "convdiff", "n": 40}, "k_max": 12},
            "spectrum_bounds_vs_k": {"experiment": "bounds_vs_k", "matrix": spectrum,
                                     "rhs": {"kind": "eig_average"}, "k_max": 12},
            "file_bounds_vs_k": {"experiment": "bounds_vs_k", "k_max": 12,
                                 "matrix": {"type": "file", "path": "m.mtx"}},
            "perturbed_validity": {"eps_values": [0.1], "k_max": 12}}[base])
        exp.config_from_dict(raw)
        parent, _, name = key.rpartition(".")
        (raw.setdefault(parent, {}) if parent else raw)[name] = value
        with pytest.raises(ConfigError, match=key):
            exp.config_from_dict(raw)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["experiment", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_bound_kind_must_be_posterior_ritz(self):
        raw = {"experiment": "convdiff_table", "n_values": [40]}
        stop = {"rule": "bound", "tol": 0.05}
        exp.config_from_dict(dict(raw, stopping=dict(stop, bound_kind="posterior_ritz")))
        for kind in ("posterior_modulus", "apriori_gamma", "nonsense"):
            with pytest.raises(ConfigError, match="bound_kind"):
                exp.config_from_dict(dict(raw, stopping=dict(stop, bound_kind=kind)))

    def test_quadrature_passthrough(self):
        cfg = exp.config_from_dict({
            "experiment": "bounds_vs_k", "k_max": 4,
            "matrix": {"type": "convdiff", "n": 10},
            "quadrature": {"rel_tol": 1e-9, "abs_tol": 1e-13, "max_subdivisions": 500},
        })
        assert cfg.quadrature == bnd.QuadratureConfig(1e-9, 1e-13, 500)


class TestBoundsVsK:
    def test_chain_and_validity(self, tmp_path):
        rows, summary = exp.run_bounds_vs_k(small_bounds_cfg(tmp_path))
        assert summary["n"] == 48 and not summary["hermitian"]
        for row in rows:
            if row["k"] < 2:
                assert row["posterior_ritz"] == math.inf
                continue
            assert row["error_norm"] <= row["posterior_ritz"] + 1e-8
            assert row["posterior_ritz"] <= row["posterior_modulus"] + 1e-8
            assert row["posterior_modulus"] <= row["apriori_gamma"] + 1e-8

    def test_no_oracle_drops_error(self, tmp_path):
        rows, _ = exp.run_bounds_vs_k(small_bounds_cfg(tmp_path, oracle=False))
        assert all(row["error_norm"] is None for row in rows)

    def test_bound_integrals_are_one_batch(self, monkeypatch):
        # one batch per run, whose passes are those of its hardest prefix:
        # the integrand calls of the run are at most those of one prefix
        batches = record_quad_batches(monkeypatch)
        cfg = exp.config_from_dict({
            "experiment": "bounds_vs_k", "seed": 5, "oracle": False, "k_max": 30,
            "k_samples": 40, "matrix": {"type": "spectrum", "kind": "uniform", "n": 120,
                                        "lo": 1.0, "hi": 1000.0, "skew": True}})
        rows, _ = exp.run_bounds_vs_k(cfg)
        ((calls, results),) = batches
        assert len(results) == 2 * len(rows) and len(rows) == 24  # the distinct k in 2..30
        ctx = exp.build_matrix(cfg.matrix, cfg.seed)
        state = arn.arnoldi(ctx.operator, exp.build_rhs(cfg.rhs, ctx), 30)
        for row in rows:
            ritz = linalg.hessenberg_eigenvalues(state.prefix(int(row["k"])).hessenberg)
            assert bnd.bound_posterior_ritz(ritz, row["xi_norm"]) == pytest.approx(
                row["posterior_ritz"], rel=1e-14)
            bnd.bound_posterior_modulus(ritz, row["xi_norm"])
        assert calls == max(c for c, _ in batches[1:])

    @pytest.mark.parametrize("skew", [False, True])
    def test_exact_solution_from_the_kept_eigh(self, monkeypatch, skew):
        # an exactly Hermitian matrix takes x_exact from the eigendecomposition
        # that sigma_max keeps, with no LU; any other keeps its LU.  xi agrees
        # with the LU route's to 1e-13 ||x_exact||
        orders, factor = [], linalg.lu_factor_quiet
        monkeypatch.setattr(linalg, "lu_factor_quiet",
                            lambda a: orders.append(a.shape[0]) or factor(a))
        cfg = exp.config_from_dict({
            "experiment": "bounds_vs_k", "seed": 4, "k_max": 30, "matrix": {
                "type": "spectrum", "kind": "uniform", "n": 90, "lo": 1.0, "hi": 1000.0,
                "skew": skew}})
        rows, summary = exp.run_bounds_vs_k(cfg)
        assert summary["hermitian"] is not skew and orders == ([90] if skew else [])
        ctx = exp.build_matrix(cfg.matrix, cfg.seed)
        b = exp.build_rhs(cfg.rhs, ctx)
        x_lu = np.linalg.solve(linalg.as_array(ctx.operator), b)
        state = arn.arnoldi(ctx.operator, b, 30)
        for row in rows:
            want = arn.fom_error(state.prefix(int(row["k"])), x_lu)
            assert abs(row["xi_norm"] - want) <= 1e-13 * np.linalg.norm(x_lu)

    def test_rounding_floor_k(self, tmp_path):
        # the bound falls below the true error at k = 28 and 30, where
        # rounding sets both; the floor is marked from k = 21 on
        cfg = exp.config_from_dict({
            "experiment": "bounds_vs_k", "seed": 385346042, "output_dir": str(tmp_path),
            "matrix": {"type": "spectrum", "kind": "uniform", "n": 40,
                       "lo": 1.0, "hi": 1000.0},
            "k_max": 30,
        })
        rows, summary, csv_path = exp.run_experiment(cfg)
        assert summary["rounding_floor_k"] == 21
        assert [r["k"] for r in rows if r["error_norm"] > r["posterior_ritz"]] == [28, 30]
        with open(tmp_path / "bounds_vs_k_summary.json", encoding="ascii") as fh:
            assert json.load(fh)["rounding_floor_k"] == 21
        assert "rounding_floor_k" not in exp.read_csv(csv_path)[0]
        no_oracle = exp.run_bounds_vs_k(dataclasses.replace(cfg, oracle=False))[1]
        assert no_oracle["rounding_floor_k"] is None

    def test_hermitian_compare_columns(self, tmp_path):
        cfg = exp.config_from_dict({
            "experiment": "hermitian_compare", "seed": 6,
            "output_dir": str(tmp_path),
            "matrix": {"type": "spectrum", "kind": "clustered", "n": 60,
                       "cluster_center": 10.0, "cluster_std": 1.0,
                       "cluster_fraction": 0.95, "outlier_center": 1000.0,
                       "outlier_std": 100.0},
            "rhs": {"kind": "eig_average", "count": 40},
            "k_max": 20, "k_samples": 19,
        })
        rows, summary = exp.run_hermitian_compare(cfg)
        assert summary["hermitian"]
        lam_bars = [r["lambda_bar"] for r in rows]
        assert all(r["hermitian_jensen"] <= r["hermitian_loose"] + 1e-12 for r in rows)
        assert all(b is not None for b in lam_bars)
        assert all(x > y for x, y in zip(lam_bars, lam_bars[1:]))  # decreasing

    def test_hermitian_compare_rejects_skew(self, tmp_path):
        cfg = small_bounds_cfg(tmp_path)
        with pytest.raises(ConfigError):
            exp.run_hermitian_compare(cfg)

    def test_reference_scale_ordering_n500(self, tmp_path):
        # the reference figure scenario: uniform [1, 1000] spectrum plus a
        # skew part at n = 500, all-ones rhs
        cfg = small_bounds_cfg(
            tmp_path,
            matrix={"type": "spectrum", "kind": "uniform", "n": 500,
                    "lo": 1.0, "hi": 1000.0, "skew": True},
            k_max=120, k_samples=16)
        rows, summary = exp.run_bounds_vs_k(cfg)
        assert summary["n"] == 500
        for row in rows:
            if row["k"] < 2:
                continue
            assert row["error_norm"] <= row["posterior_ritz"] + 1e-8
            assert row["posterior_ritz"] <= row["posterior_modulus"] + 1e-8
            assert row["posterior_modulus"] <= row["apriori_gamma"] + 1e-8


def first_crossing_by_scan(M, b, tol, x_exact, k_last):
    """Exhaustive reference: the first k in [2, k_last] at which the
    posterior Ritz bound is <= tol, evaluating every k from scratch."""
    state = arn.arnoldi(M, b, k_last)
    for k in range(2, state.k + 1):
        sub = state.prefix(k)
        xi = float(np.linalg.norm(x_exact - arn.fom_iterate(sub)))
        ritz = linalg.hessenberg_eigenvalues(sub.hessenberg)
        if bnd.bound_posterior_ritz(ritz, xi) <= tol:
            return k
    return None


class TestFindStopK:
    def test_matches_exhaustive_scan(self):
        tri = matgen.convection_diffusion(60, 0.5)
        b = np.ones(tri.shape[0])
        tol = 0.05
        _, k_stop, val, x_exact = exp.find_stop_k(tri, b, tol)
        assert val <= tol
        assert first_crossing_by_scan(tri, b, tol, x_exact, k_stop + 3) == k_stop

    def test_crossing_below_breakdown_is_found(self):
        # the doubling passes checkpoint 32 with the bound above tol, then
        # breaks down on the full space at k = 59 before the guide stops
        # the growth; the first crossing lies inside (32, 59] and must
        # still be located by bisection
        tri = matgen.convection_diffusion(60, 0.1)
        b = np.ones(tri.shape[0])
        tol = 1e-3
        state, k_stop, val, x_exact = exp.find_stop_k(tri, b, tol)
        assert state.breakdown and state.k == tri.shape[0]
        assert val <= tol
        assert first_crossing_by_scan(tri, b, tol, x_exact, k_stop + 3) == k_stop

    def test_breakdown_short_circuit(self):
        _, k_stop, val, _ = exp.find_stop_k(np.eye(6), np.ones(6), 0.5)
        assert k_stop == 1 and val == 0.0

    def test_matvec_only_needs_exact_solve(self):
        tri = matgen.convection_diffusion(40, 0.5)
        with pytest.raises(UnsupportedContext, match="exact solve"):
            exp.find_stop_k((tri.matvec, 39), np.ones(39), 0.05)

    @pytest.mark.parametrize("k_max", [1, 0, -5])
    def test_rejects_k_max_below_two(self, k_max):
        # 0 used to mean no cap, and 1 or -5 built 2 steps
        tri = matgen.convection_diffusion(40, 0.5)
        with pytest.raises(DomainError, match="k_max"):
            exp.find_stop_k(tri, np.ones(39), 0.05, k_max=k_max)

    def test_budget_exhausted_returns_cap(self):
        tri = matgen.convection_diffusion(40, 0.5)
        b = np.ones(39)
        state, k_stop, val, _ = exp.find_stop_k(tri, b, 1e-30, k_max=8)
        assert k_stop == 8 and val > 1e-30

    @pytest.mark.parametrize("tol", [0.2, 0.05, 0.01])
    @pytest.mark.parametrize("eta", [0.1, 0.5])
    @pytest.mark.parametrize("n", [40, 60, 120])
    def test_grid_matches_exhaustive_scan(self, n, eta, tol):
        tri = matgen.convection_diffusion(n, eta)
        b = np.ones(tri.shape[0])
        _, k_stop, val, x_exact = exp.find_stop_k(tri, b, tol)
        assert first_crossing_by_scan(tri, b, tol, x_exact, k_stop + 3) == k_stop
        sub = arn.arnoldi(tri, b, k_stop)
        xi = float(np.linalg.norm(x_exact - arn.fom_iterate(sub)))
        assert val == pytest.approx(bnd.bound_posterior_det(sub.hessenberg, xi),
                                    rel=1e-12, abs=0.0)
        want = bnd.bound_posterior_ritz(linalg.hessenberg_eigenvalues(sub.hessenberg), xi)
        assert val == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_few_large_ritz_solves(self, monkeypatch):
        # the search used to make 6 Ritz solves of order > k_stop/2 here;
        # its bounds come from determinants, and the action at k_stop, above
        # the crossover order, from shifted Hessenberg solves
        assert arn.SHIFTED_ACTION_MIN_K < 259
        orders = []
        ritz = linalg.hessenberg_eigenvalues
        monkeypatch.setattr(linalg, "hessenberg_eigenvalues",
                            lambda h, **kw: orders.append(h.shape[0]) or ritz(h, **kw))
        tri = matgen.convection_diffusion(300, 0.1)
        state, k_stop, _, _ = exp.find_stop_k(tri, np.ones(tri.shape[0]), 0.05)
        assert orders == []
        arn.arnoldi_fun_action(state.prefix(k_stop), "sqrt")
        assert k_stop == 259 and orders == []

    @pytest.mark.parametrize("tol", [0.05, 0.01, 1e-3])
    def test_indefinite_hermitian_part_checks_ritz_values(self, tol, monkeypatch):
        # H_k + H_kᴴ is positive definite up to k = 8 only, yet every Ritz
        # value lies in the right half-plane: probes above 8 read the Ritz
        # values for the check, and the crossing is the scan's
        n = 40
        tri = linalg.TridiagonalMatrix(np.full(n - 1, 2.0), np.linspace(1.0, 20.0, n),
                                       np.zeros(n - 1))
        b = np.ones(n)
        assert linalg.bendixson_order(arn.arnoldi(tri, b, n).hessenberg) == 8
        orders = []
        ritz = linalg.hessenberg_eigenvalues
        monkeypatch.setattr(linalg, "hessenberg_eigenvalues",
                            lambda h, **kw: orders.append(h.shape[0]) or ritz(h, **kw))
        _, k_stop, val, x_exact = exp.find_stop_k(tri, b, tol)
        assert k_stop > 8 and val <= tol
        assert orders and min(orders) > 8
        assert first_crossing_by_scan(tri, b, tol, x_exact, k_stop + 3) == k_stop

    def test_ritz_value_in_left_half_plane_raises(self):
        # H_8 of this bidiagonal matrix has a Ritz value with Re <= 0, above
        # the order 4 that its Hermitian part certifies
        n = 40
        tri = linalg.TridiagonalMatrix(np.full(n - 1, 4.0), np.linspace(1.0, 20.0, n),
                                       np.zeros(n - 1))
        state = arn.arnoldi(tri, np.ones(n), 8)
        assert linalg.bendixson_order(state.hessenberg) == 4
        assert state.ritz.values.real.min() <= 0.0
        with pytest.raises(InvalidSpectrum):
            exp.find_stop_k(tri, np.ones(n), 0.05)

    def test_one_cholesky_per_probe_above_the_certified_order(self, monkeypatch):
        potrf = linalg.sla.lapack.dpotrf
        orders = []
        monkeypatch.setattr(linalg.sla.lapack, "dpotrf",
                            lambda a, **kw: orders.append(a.shape[0]) or potrf(a, **kw))
        tri = matgen.convection_diffusion(300, 0.1)
        b = np.ones(tri.shape[0])
        state, k_stop, _, _ = exp.find_stop_k(tri, b, 0.05)
        # each doubling probe lies above the order certified so far; the
        # guided probe 259 certifies the whole build, which covers 258
        assert orders == [2, 4, 8, 16, 32, 64, 128, 256, 261] and state.k == 261
        # the action at k_stop reads the search's certificate
        arn.arnoldi_fun_action(state.prefix(k_stop), "sqrt")
        assert len(orders) == 9
        # a fresh decomposition certifies with one call of its own order
        orders.clear()
        arn.arnoldi_fun_action(arn.arnoldi(tri, b, k_stop), "sqrt")
        assert orders == [k_stop]

    def test_builds_only_as_far_as_its_probes(self, monkeypatch):
        # the guide stops the growth toward the cap (299) a chunk past the
        # guided point; the probes are those of a build to the cap
        probes = []
        probe = bnd.bound_posterior_det
        monkeypatch.setattr(bnd, "bound_posterior_det",
                            lambda h, *a: probes.append(h.shape[0]) or probe(h, *a))
        tri = matgen.convection_diffusion(300, 0.1)
        state, k_stop, _, _ = exp.find_stop_k(tri, np.ones(tri.shape[0]), 0.05)
        assert k_stop == 259 and state.k <= 280
        assert probes == [2, 4, 8, 16, 32, 64, 128, 256, 259, 258]

    def test_misleading_guide_still_exact_in_log_probes(self, monkeypatch):
        # a step-shaped bound unrelated to xi defeats the guide; the
        # midpoint steps must still find the exact step in O(log k) probes
        probes = []

        def step_bound(h, xi, quad_cfg, log_det):
            probes.append(h.shape[0])
            return 1.0 if h.shape[0] < 200 else 0.0

        monkeypatch.setattr(bnd, "bound_posterior_det", step_bound)
        tri = matgen.convection_diffusion(300, 0.5)
        _, k_stop, val, _ = exp.find_stop_k(tri, np.ones(tri.shape[0]), 0.05)
        assert (k_stop, val) == (200, 0.0)
        assert len(probes) == len(set(probes))
        # 8 doubling probes, 3 guided misses, then two probes per halving of
        # the 128-wide bracket; guided probes alone would creep (88 probes)
        assert len(probes) <= 8 + 3 + 2 * 7 + 2


class TestConvdiffTable:
    def test_small_table(self, tmp_path):
        cfg = exp.config_from_dict({
            "experiment": "convdiff_table", "output_dir": str(tmp_path),
            "n_values": [40, 60], "eta": 0.5,
            "stopping": {"rule": "bound", "tol": 0.05},
        })
        rows, summary = exp.run_convdiff_table(cfg)
        assert [r["n"] for r in rows] == [40, 60]
        for row in rows:
            assert row["matrix_order"] == row["n"] - 1
            assert row["cond"] == pytest.approx(row["sigma_max"] / row["sigma_min"])
            assert row["bound_at_stop"] <= 0.05
            assert row["error"] <= row["bound_at_stop"] + 1e-8

    def test_point_reuses_the_search_factorizations(self, monkeypatch):
        # the xi guide solves from one Hessenberg LU factor, the probes
        # bound from determinants, and the action at k_stop, above the
        # crossover order, comes from shifted Hessenberg solves
        calls = {"probe": [], "ritz": [], "lu": [], "sqrt": []}
        probe, ritz = bnd.bound_posterior_det, linalg.hessenberg_eigenvalues
        factor, sqrt = linalg.lu_factor_quiet, linalg.dense_sqrt
        monkeypatch.setattr(bnd, "bound_posterior_det",
                            lambda h, *a: calls["probe"].append(h.shape[0]) or probe(h, *a))
        monkeypatch.setattr(linalg, "hessenberg_eigenvalues",
                            lambda h, **kw: calls["ritz"].append(h.shape[0]) or ritz(h, **kw))
        monkeypatch.setattr(linalg, "lu_factor_quiet",
                            lambda a: calls["lu"].append(a.shape[0]) or factor(a))
        monkeypatch.setattr(linalg, "dense_sqrt", lambda a: calls["sqrt"].append(1) or sqrt(a))
        cfg = exp.config_from_dict({
            "experiment": "convdiff_table", "n_values": [300], "eta": 0.1,
            "stopping": {"rule": "bound", "tol": 0.05},
        })
        (row,), _ = exp.run_convdiff_table(cfg)
        assert row["k_stop"] == 259
        assert calls == {"probe": [2, 4, 8, 16, 32, 64, 128, 256, 259, 258],
                         "ritz": [], "lu": [], "sqrt": []}
        tri = matgen.convection_diffusion(300, 0.1)
        b = np.ones(tri.shape[0])
        want = arn.arnoldi_fun_action(arn.arnoldi(tri, b, 259), "sqrt")
        err = np.linalg.norm(linalg.reference_sqrt_action(tri, b) - want)
        assert row["error"] == pytest.approx(err, rel=1e-9)

    def test_hyman_sweeps_pinned(self, monkeypatch):
        # the point of the test above makes 47 Hyman sweeps over 3566 rows
        # (71 over 6656 before the two-half quadrature start, the LU's
        # log|det H_k| and the log-balanced action), none of them the
        # one-shift x = 0 sweep of a probe
        sweeps = record_hyman_sweeps(monkeypatch)
        cfg = exp.config_from_dict({
            "experiment": "convdiff_table", "n_values": [300], "eta": 0.1,
            "stopping": {"rule": "bound", "tol": 0.05},
        })
        (row,), _ = exp.run_convdiff_table(cfg)
        assert row["k_stop"] == 259
        assert (len(sweeps), sum(k for k, _ in sweeps)) == (47, 3566)
        assert all(m > 1 for _, m in sweeps)

    def test_parallel_jobs_same_rows(self, tmp_path):
        base = {
            "experiment": "convdiff_table", "output_dir": str(tmp_path),
            "n_values": [40, 50], "eta": 0.5,
            "stopping": {"rule": "bound", "tol": 0.05},
        }
        serial, _ = exp.run_convdiff_table(exp.config_from_dict(base))
        parallel, _ = exp.run_convdiff_table(exp.config_from_dict(dict(base, jobs=2)))
        assert serial == parallel


class TestScaling:
    def test_scaling_vs_k_summary(self, tmp_path):
        cfg = exp.config_from_dict({
            "experiment": "scaling_vs_k", "output_dir": str(tmp_path),
            "n_values": [80], "eta": 0.5, "k_samples": 12,
            "stopping": {"rule": "bound", "tol": 0.05},
        })
        rows, summary = exp.run_scaling_vs_k(cfg)
        assert "fitted_slope" in summary and np.isfinite(summary["fitted_slope"])
        assert all(r["scaling_term"] > 0 for r in rows)
        ks = [r["k"] for r in rows]
        assert ks == sorted(ks)

    def test_scaling_vs_k_applies_k_max(self):
        # the point used to search up to the matrix order whatever k_max said
        raw = {"experiment": "scaling_vs_k", "n_values": [40], "eta": 0.5, "k_samples": 12,
               "stopping": {"rule": "bound", "tol": 1e-6}}
        _, free = exp.run_scaling_vs_k(exp.config_from_dict(raw))
        rows, capped = exp.run_scaling_vs_k(exp.config_from_dict(dict(raw, k_max=12)))
        assert free["k_stop"]["40"] > 12
        assert capped["k_stop"]["40"] == capped["arnoldi_steps"]["40"] == 12
        assert max(r["k"] for r in rows) == 12

    def test_scaling_vs_sigma_slopes(self, tmp_path):
        cfg = exp.config_from_dict({
            "experiment": "scaling_vs_sigma", "output_dir": str(tmp_path),
            "n_values": [40, 56, 72], "eta": 0.5, "k_values": [6, 10],
        })
        rows, summary = exp.run_scaling_vs_sigma(cfg)
        assert set(summary["slopes_vs_sigma"]) == {"6", "10"}
        # the paper's observation: measured exponent stays below 3/2
        for slope in summary["slopes_vs_sigma"].values():
            assert slope < 1.5


class TestPerturbedValidity:
    def test_all_valid(self, tmp_path):
        cfg = exp.config_from_dict({
            "experiment": "perturbed_validity", "output_dir": str(tmp_path),
            "seed": 9, "n": 40, "instances": 2,
            "eps_values": [1e-3, 1e-2], "k_max": 8,
        })
        rows, summary = exp.run_perturbed_validity(cfg)
        assert summary["all_valid"]
        assert summary["worst_ratio"] <= 1.0
        assert {r["eps"] for r in rows} <= {1e-3, 1e-2}


class TestRowsFromPrefixReports:
    @pytest.mark.parametrize("raw, tags", [
        ({"experiment": "scaling_vs_k", "n_values": [60, 80], "eta": 0.5, "k_samples": 12,
          "stopping": {"rule": "bound", "tol": 0.05}}, ("sqrt",)),
        ({"experiment": "scaling_vs_sigma", "n_values": [40, 56], "eta": 0.5,
          "k_values": [6, 10]}, ("sqrt", "inverse")),
        ({"experiment": "perturbed_validity", "seed": 9, "n": 40, "instances": 2,
          "eps_values": [1e-3, 1e-2], "k_max": 8}, ("sqrt", "inverse")),
        ({"experiment": "convdiff_table", "n_values": [40, 60], "eta": 0.5,
          "stopping": {"rule": "bound", "tol": 0.05}}, ("sqrt",)),
    ], ids=["scaling_vs_k", "scaling_vs_sigma", "perturbed_validity", "convdiff_table"])
    def test_no_bound_report_and_one_action_per_sampled_k(self, monkeypatch, raw, tags):
        # runners without bound columns read each row from one
        # arnoldi.prefix_report: no bound is computed, and each sampled k
        # reaches fun_coefficients once per tag (the FOM iterate too where
        # no search has solved for it already)
        calls, bound_calls = record_fun_coefficients(monkeypatch), []
        for name in ("bound_posterior_batch", "build_bound_report"):
            monkeypatch.setattr(bnd, name, lambda *a, _name=name, **kw: bound_calls.append(_name))
        cfg = exp.config_from_dict(raw)
        rows, _ = getattr(exp, f"run_{cfg.experiment}")(cfg)
        sampled = [r["k_stop"] if "k_stop" in r else r["k"] for r in rows]
        assert bound_calls == []
        for tag in tags:
            assert [k for k, f in calls if f == tag] == sampled


    @pytest.mark.parametrize("raw, k", [
        ({"experiment": "convdiff_table", "n_values": [40], "eta": 0.5}, 29),
        ({"experiment": "scaling_vs_k", "n_values": [60], "eta": 0.5, "k_samples": 12}, None),
    ], ids=["convdiff_table", "scaling_vs_k"])
    def test_fom_iterate_solved_once_per_k(self, monkeypatch, raw, k):
        # the xi guide of the search and the rows read one FOM iterate per
        # k, kept on the storage that every prefix snapshot shares
        calls = record_fun_coefficients(monkeypatch)
        cfg = exp.config_from_dict(dict(raw, stopping={"rule": "bound", "tol": 0.05}))
        rows, _ = getattr(exp, f"run_{cfg.experiment}")(cfg)
        solved = [j for j, f in calls if f == "inverse"]
        assert len(solved) == len(set(solved))
        assert set(r["k_stop"] if k else r["k"] for r in rows) <= set(solved)
        assert k is None or rows[0]["k_stop"] == k


class TestCsv:
    def test_round_trip_and_sidecar(self, tmp_path):
        rows = [{"k": 1, "value": math.inf, "note": None, "x": 0.1},
                {"k": 2, "value": 1.25, "note": None, "x": 1e-300}]
        path = str(tmp_path / "t.csv")
        exp.write_csv(path, rows)
        columns, back = exp.read_csv(path)
        assert columns == ["k", "value", "note", "x"]
        assert back[0]["value"] == math.inf
        assert back[0]["note"] is None
        assert back[1]["x"] == 1e-300
        sidecar = json.loads((tmp_path / "t.columns.json").read_text())
        assert sidecar["version"] == 1 and "k" in sidecar["columns"]

    def test_seventeen_digits(self, tmp_path):
        value = 0.1234567890123456789
        path = str(tmp_path / "d.csv")
        exp.write_csv(path, [{"v": value}])
        text = (tmp_path / "d.csv").read_text()
        assert format(value, ".17g") in text
        _, back = exp.read_csv(path)
        assert back[0]["v"] == value

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            exp.write_csv(str(tmp_path / "e.csv"), [])

    def test_run_experiment_writes_files(self, tmp_path):
        cfg = small_bounds_cfg(tmp_path, k_max=8, k_samples=7)
        rows, summary, csv_path = exp.run_experiment(cfg)
        assert os.path.exists(csv_path)
        assert os.path.exists(str(tmp_path / "bounds_vs_k_summary.json"))
        assert os.path.exists(str(tmp_path / "bounds_vs_k.columns.json"))

    @pytest.mark.parametrize("raw, steps, digest", [
        ({"experiment": "convdiff_table", "n_values": [40, 60, 120], "eta": 0.5},
         {"40": 32, "60": 47, "120": 94},
         "e186dafae12102c145ec676c24d7bef63da007c55aa4f06504946c4250b96f63"),
        ({"experiment": "scaling_vs_k", "n_values": [60, 120], "eta": 0.1, "k_samples": 8},
         {"60": 53, "120": 106},
         "5d5882cd2cf35102e31bc10dfe6919f1b92dd8f69fdebd273c7db14dccab19cd"),
    ], ids=["convdiff_table", "scaling_vs_k"])
    def test_search_steps_in_summary_leave_csv_bytes(self, tmp_path, raw, steps, digest):
        # the decomposition order after each search goes to the summary
        # only; the CSV bytes are pinned (they are those of a build to the
        # cap: stopping the growth early moves no number)
        cfg = exp.config_from_dict(dict(raw, stopping={"rule": "bound", "tol": 0.05}))
        _, summary, csv_path = exp.run_experiment(cfg, output_dir=str(tmp_path))
        assert summary["arnoldi_steps"] == steps
        with open(tmp_path / f"{raw['experiment']}_summary.json") as fh:
            assert json.load(fh)["arnoldi_steps"] == steps
        with open(csv_path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest

    @pytest.mark.parametrize("raw, digest", [
        ({"experiment": "scaling_vs_sigma", "n_values": [40, 56, 72], "eta": 0.5,
          "k_values": [6, 10]},
         "b83130e020110c7879c33cd3c98a0618f0eee29bd70e147cdfcd36643d666c88"),
        ({"experiment": "perturbed_validity", "seed": 9, "n": 40, "instances": 2,
          "eps_values": [1e-3, 1e-2], "k_max": 8},
         "de926a1e4aec8c6aee52ef5e2092baab11b3351f129dfd9befb7c774d4ee41a4"),
        ({"experiment": "bounds_vs_k", "seed": 5, "k_max": 25,
          "matrix": {"type": "spectrum", "kind": "uniform", "n": 80, "lo": 1.0,
                     "hi": 1000.0, "skew": True}},
         "3a0197202febb83b5767a95df83b55986812bb3da4a9a2990c334e8e2010d5b1"),
        ({"experiment": "hermitian_compare", "seed": 6, "k_max": 25,
          "matrix": {"type": "spectrum", "kind": "clustered", "n": 80, "cluster_center": 10.0,
                     "cluster_std": 1.0, "cluster_fraction": 0.95,
                     "outlier_center": 1000.0, "outlier_std": 100.0},
          "rhs": {"kind": "eig_average", "count": 40}},
         "3679868ce997135e35c009513088eceeaeec0c06dd12a7a64280ad24c3ba7b66"),
    ], ids=["scaling_vs_sigma", "perturbed_validity", "bounds_vs_k", "hermitian_compare"])
    def test_csv_bytes_pinned(self, tmp_path, raw, digest):
        # experiments without a search: their CSV bytes are pinned as they
        # are (the same on one and two BLAS threads at these sizes)
        _, _, csv_path = exp.run_experiment(exp.config_from_dict(raw), output_dir=str(tmp_path))
        with open(csv_path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest

    def test_bound_report_fields_are_the_csv_columns(self, tmp_path):
        _, _, csv_path = exp.run_experiment(small_bounds_cfg(tmp_path, k_max=8, k_samples=7))
        assert exp.read_csv(csv_path)[0] == [f.name for f in dataclasses.fields(bnd.BoundReport)]

    def test_determinism_bitwise(self, tmp_path):
        cfg = small_bounds_cfg(tmp_path, k_max=8, k_samples=7)
        exp.run_experiment(cfg, output_dir=str(tmp_path / "a"))
        exp.run_experiment(cfg, output_dir=str(tmp_path / "b"))
        a = (tmp_path / "a" / "bounds_vs_k.csv").read_bytes()
        b = (tmp_path / "b" / "bounds_vs_k.csv").read_bytes()
        assert a == b


class TestPlotting:
    def _csv(self, tmp_path):
        cfg = small_bounds_cfg(tmp_path, k_max=10, k_samples=9)
        _, _, csv_path = exp.run_experiment(cfg)
        return csv_path

    def test_series_groups_present(self, tmp_path):
        csv_path = self._csv(tmp_path)
        out = str(tmp_path / "fig.svg")
        plotting.render_plot(csv_path, "bounds_vs_k", out)
        svg = open(out).read()
        assert svg.count('<g class="series"') == 4
        for name in ("error_norm", "posterior_ritz", "posterior_modulus",
                     "apriori_gamma"):
            assert f'id="series-{name}"' in svg
        assert "<svg" in svg and 'version="1.1"' in svg

    def test_deterministic_bytes(self, tmp_path):
        csv_path = self._csv(tmp_path)
        out1, out2 = str(tmp_path / "f1.svg"), str(tmp_path / "f2.svg")
        plotting.render_plot(csv_path, "bounds_vs_k", out1)
        plotting.render_plot(csv_path, "bounds_vs_k", out2)
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_slope_annotation(self, tmp_path):
        cfg = exp.config_from_dict({
            "experiment": "scaling_vs_k", "output_dir": str(tmp_path),
            "n_values": [60], "eta": 0.5, "k_samples": 10,
            "stopping": {"rule": "bound", "tol": 0.05},
        })
        _, _, csv_path = exp.run_experiment(cfg)
        out = str(tmp_path / "s.svg")
        plotting.render_plot(csv_path, "scaling_vs_k", out,
                             summary_path=str(tmp_path / "scaling_vs_k_summary.json"))
        svg = open(out).read()
        assert "fitted slope" in svg

    def test_empty_csv_no_file(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("k,error_norm\r\n")
        out = str(tmp_path / "no.svg")
        with pytest.raises(DomainError):
            plotting.render_plot(str(bad), "bounds_vs_k", out)
        assert not os.path.exists(out)

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(DomainError):
            plotting.render_plot(self._csv(tmp_path), "heatmap", str(tmp_path / "x.svg"))


class TestCli:
    def test_matgen_approx_plot_pipeline(self, tmp_path):
        mtx = str(tmp_path / "m.mtx")
        assert cli_main(["matgen", "--kind", "uniform", "--n", "24", "--skew",
                         "--seed", "3", "--out", mtx]) == 0
        outdir = str(tmp_path / "run")
        code = cli_main(["approx", "--matrix-file", mtx, "--stop", "residual",
                         "--tol", "1e-2", "--kmax", "24", "--out", outdir])
        assert code == 0
        assert os.path.exists(os.path.join(outdir, "result.mtx"))
        assert os.path.exists(os.path.join(outdir, "history.csv"))

    def test_matgen_real_matrix_written_real(self, tmp_path):
        mtx = tmp_path / "m.mtx"
        assert cli_main(["matgen", "--kind", "uniform", "--n", "6", "--skew",
                         "--out", str(mtx)]) == 0
        assert mtx.read_text().splitlines()[0] == "%%MatrixMarket matrix array real general"

    def test_approx_invsqrt_bound_stop_rejected(self, tmp_path, capsys):
        mtx = str(tmp_path / "m.mtx")
        cli_main(["matgen", "--kind", "uniform", "--n", "24", "--seed", "3", "--out", mtx])
        code = cli_main(["approx", "--matrix-file", mtx, "--f", "invsqrt", "--stop", "bound",
                         "--tol", "1e-3", "--out", str(tmp_path / "r")])
        assert code == 1
        assert "sqrt" in capsys.readouterr().err

    def test_approx_prints_sqrt_bound_only_for_sqrt(self, tmp_path, capsys):
        mtx = str(tmp_path / "m.mtx")
        cli_main(["matgen", "--kind", "uniform", "--n", "24", "--seed", "3", "--out", mtx])
        for f in ("sqrt", "invsqrt"):
            capsys.readouterr()
            assert cli_main(["approx", "--matrix-file", mtx, "--f", f, "--tol", "1e-2",
                             "--out", str(tmp_path / f)]) == 0
            assert ("certified sqrt-error bound" in capsys.readouterr().out) == (f == "sqrt")

    def test_approx_bound_stop_history_is_the_certifying_row(self, tmp_path, capsys):
        from krylov_sqrt.matrixmarket import read_matrix_market
        mtx, out = str(tmp_path / "m.mtx"), tmp_path / "run"
        cli_main(["matgen", "--kind", "uniform", "--n", "24", "--skew", "--seed", "3",
                  "--out", mtx])
        capsys.readouterr()
        assert cli_main(["approx", "--matrix-file", mtx, "--stop", "bound", "--tol", "1e-6",
                         "--kmax", "24", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        columns, rows = exp.read_csv(str(out / "history.csv"))
        (row,) = rows
        assert f"stopped at k = {int(row['k'])} " in printed
        assert row["posterior_ritz"] <= 1e-6
        assert row["apriori_gamma"] is None and row["sigma_max_used"] is None
        a = read_matrix_market(mtx)
        want = arn.run_adaptive(a, np.ones(24), stop=arn.BoundAbsolute(1e-6), k_max=24)
        assert want.k == row["k"]
        np.testing.assert_array_equal(read_matrix_market(str(out / "result.mtx")).ravel(),
                                      want.result)

    def test_approx_rejects_hermitian_bound_kind(self, tmp_path, capsys):
        # --stop bound has one bound, posterior_ritz; --bound-kind is gone
        mtx = str(tmp_path / "m.mtx")
        cli_main(["matgen", "--kind", "uniform", "--n", "24", "--skew", "--seed", "3",
                  "--out", mtx])
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["approx", "--matrix-file", mtx, "--stop", "bound", "--bound-kind",
                      "hermitian_jensen", "--out", str(tmp_path / "r")])
        assert exit_info.value.code == 1
        assert "unrecognized arguments: --bound-kind" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r")
        assert cli_main(["approx", "--matrix-file", mtx, "--stop", "bound", "--tol", "1e-3",
                         "--kmax", "24", "--out", str(tmp_path / "r")]) == 0
        assert "final posterior_ritz = " in capsys.readouterr().out

    def test_approx_residual_stop_rejects_bound_kind(self, tmp_path, capsys):
        mtx = str(tmp_path / "m.mtx")
        cli_main(["matgen", "--kind", "uniform", "--n", "24", "--seed", "3", "--out", mtx])
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["approx", "--matrix-file", mtx, "--stop", "residual", "--bound-kind",
                      "posterior_modulus", "--out", str(tmp_path / "r")])
        assert exit_info.value.code == 1
        assert "unrecognized arguments: --bound-kind" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r")
        assert cli_main(["approx", "--matrix-file", mtx, "--stop", "residual",
                         "--out", str(tmp_path / "r")]) == 0

    @pytest.mark.parametrize("stop,tol", [("bound", "nan"), ("bound", "-1"),
                                          ("residual", "nan"), ("residual", "0")])
    def test_approx_rejects_invalid_tolerance(self, tmp_path, capsys, monkeypatch, stop, tol):
        # --stop bound --tol nan used to run to --kmax, print 0 and exit 2
        mtx = str(tmp_path / "m.mtx")
        cli_main(["matgen", "--kind", "uniform", "--n", "30", "--seed", "3", "--out", mtx])
        steps, plain = [], arn.arnoldi_extend
        monkeypatch.setattr(arn, "arnoldi_extend", lambda *a: steps.append(a) or plain(*a))
        code = cli_main(["approx", "--matrix-file", mtx, "--stop", stop, "--tol", tol,
                         "--out", str(tmp_path / "r")])
        assert code == 1 and steps == [] and "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_matgen_rejects_nonfinite_eta(self, tmp_path, eta):
        # it used to write a NaN matrix and exit 0
        mtx = tmp_path / "m.mtx"
        assert cli_main(["matgen", "--kind", "convdiff", "--n", "30", "--eta", eta,
                         "--out", str(mtx)]) == 1
        assert not mtx.exists()

    def test_experiment_rejects_nonfinite_eta_and_tolerance(self, tmp_path):
        # eta NaN used to end in a LinAlgError traceback from sigma_max
        base = {"experiment": "convdiff_table", "n_values": [40],
                "stopping": {"rule": "bound", "tol": 0.05}}
        for raw, extra in ((dict(base, eta=math.nan), []),
                           (dict(base, stopping={"rule": "bound", "tol": math.nan}), []),
                           (base, ["--tol", "nan"])):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(raw))
            assert cli_main(["experiment", "--config", str(cfg_path),
                             "--out", str(tmp_path / "o"), *extra]) == 1

    @pytest.mark.parametrize("key", ["rel_tol", "abs_tol"])
    def test_experiment_rejects_nan_quadrature_before_the_search(self, tmp_path, monkeypatch,
                                                                 key):
        # json reads the NaN literal; it used to pass the config and fail in
        # the search as a missed tolerance
        text = ('{"experiment": "convdiff_table", "n_values": [40], "stopping": '
                f'{{"rule": "bound", "tol": 0.05}}, "quadrature": {{"{key}": NaN}}}}')
        searches = []
        monkeypatch.setattr(exp, "find_stop_k", lambda *a, **kw: searches.append(a))
        with pytest.raises(DomainError, match=key):
            exp.config_from_dict(json.loads(text))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert cli_main(["experiment", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 1
        assert searches == []

    def test_file_matrix_routing_is_exact(self, tmp_path):
        # a file matrix within 1e-12 of Hermitian but not equal to its
        # adjoint takes neither the Hermitian bounds nor the eigh oracle
        from krylov_sqrt.matrixmarket import write_matrix_market
        a = matgen.spectrum_matrix(matgen.SpectrumSpec.uniform(12, 1.0, 100.0), 3).matrix.array
        near = a.copy()
        near[0, 1] *= 1.0 + 1e-13
        for m, hermitian in ((a, True), (near, False)):
            mtx = str(tmp_path / "m.mtx")
            write_matrix_market(mtx, m)
            ctx = exp.build_matrix({"type": "file", "path": mtx}, 0)
            assert ctx.hermitian is hermitian
            assert (ctx.operator.eigh() is not None) is hermitian

    def test_approx_budget_exit_code(self, tmp_path):
        mtx = str(tmp_path / "m.mtx")
        cli_main(["matgen", "--kind", "uniform", "--n", "24", "--skew",
                  "--seed", "3", "--out", mtx])
        code = cli_main(["approx", "--matrix-file", mtx, "--stop", "residual",
                         "--tol", "1e-14", "--kmax", "5",
                         "--out", str(tmp_path / "r2")])
        assert code == 2

    def test_experiment_and_plot(self, tmp_path):
        cfg = {
            "version": 1, "experiment": "bounds_vs_k", "seed": 4,
            "matrix": {"type": "convdiff", "n": 40, "eta": 0.5},
            "k_max": 12, "k_samples": 11,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = str(tmp_path / "out")
        assert cli_main(["experiment", "--config", str(cfg_path),
                         "--out", outdir]) == 0
        csv_path = os.path.join(outdir, "bounds_vs_k.csv")
        assert cli_main(["plot", "--csv", csv_path, "--kind", "bounds_vs_k",
                         "--out", str(tmp_path / "fig.svg")]) == 0

    @pytest.mark.parametrize("experiment,flag,value,key", [
        ("convdiff_table", "--kmax", "-5", "k_max"),   # it exited 0 with k_stop 2
        ("convdiff_table", "--kmax", "1", "k_max"),
        ("convdiff_table", "--jobs", "0", "jobs"),     # it ran serially
        ("convdiff_table", "--jobs", "-2", "jobs"),
        ("scaling_vs_sigma", "--kmax", "8", "k_max"),  # not in its schema: it was ignored
    ])
    def test_experiment_overrides_are_validated(self, tmp_path, capsys, experiment, flag,
                                                value, key):
        raw = {"experiment": experiment, "n_values": [120]}
        if experiment == "convdiff_table":
            raw["stopping"] = {"rule": "bound", "tol": 0.05}
        else:
            raw["k_values"] = [4]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["experiment", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o"), flag, value]) == 1
        assert key in capsys.readouterr().err

    def test_experiment_overrides_reach_the_run(self, tmp_path):
        cfg = {"experiment": "bounds_vs_k", "seed": 4, "k_max": 12, "k_samples": 11,
               "matrix": {"type": "convdiff", "n": 40, "eta": 0.5}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert cli_main(["experiment", "--config", str(cfg_path), "--out", str(out),
                         "--kmax", "6", "--no-oracle", "--jobs", "1"]) == 0
        summary = json.loads((out / "bounds_vs_k_summary.json").read_text())
        _, rows = exp.read_csv(str(out / "bounds_vs_k.csv"))
        assert summary["k_reached"] == 6
        assert all(row["error_norm"] is None for row in rows)

    def test_experiment_rejects_malformed_json(self, tmp_path, capsys):
        # a truncated file used to end in a JSONDecodeError traceback
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"experiment": ')
        assert cli_main(["experiment", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.json" in err and "line 1 column 16" in err

    def test_validation_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"experiment": "nope"}))
        assert cli_main(["experiment", "--config", str(cfg_path)]) == 1
        # a file that cannot be read or written: each ended in a traceback
        mtx, csv_path, svg = tmp_path / "m.mtx", tmp_path / "ok.csv", tmp_path / "fig.svg"
        assert cli_main(["matgen", "--kind", "convdiff", "--n", "10", "--out", str(mtx)]) == 0
        csv_path.write_text("k,error_norm\n2,0.5\n3,0.25\n")
        (tmp_path / "truncated.json").write_text('{"fitted_slope": ')
        (tmp_path / "list.json").write_text("[1]")
        (tmp_path / "latin1.csv").write_bytes(b"k,error_norm\n2,0.5\n3,0.25\xe9\n")
        (tmp_path / "empty.csv").write_text("")
        short = tmp_path / "short.mtx"  # declares four entries, holds two
        short.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n")
        rhs = tmp_path / "rhs.mtx"
        rhs.write_text("%%MatrixMarket matrix array real general\n11 1\n1.0\n")
        plot = ["plot", "--kind", "bounds_vs_k", "--out", str(svg), "--csv"]
        capsys.readouterr()
        for argv, named in (
                (["experiment", "--config", str(tmp_path)], tmp_path),  # IsADirectoryError
                (plot + [str(tmp_path)], tmp_path),                      # IsADirectoryError
                (["approx", "--matrix-file", str(mtx), "--out", str(mtx)], mtx),  # FileExistsError
                (plot + [str(csv_path), "--summary", str(tmp_path / "truncated.json")],
                 "truncated.json"),                                       # JSONDecodeError
                (plot + [str(csv_path), "--summary", str(tmp_path / "list.json")],
                 "list.json"),                                            # AttributeError
                (["experiment", "--config", str(tmp_path / "list.json")], "list.json"),
                (plot + [str(tmp_path / "latin1.csv")], "latin1.csv"),   # UnicodeDecodeError
                (plot + [str(tmp_path / "empty.csv")], "empty.csv"),     # StopIteration
                (["approx", "--matrix-file", str(short), "--out", str(tmp_path / "r1")], short),
                (["approx", "--matrix-file", str(mtx), "--rhs-file", str(rhs),
                  "--out", str(tmp_path / "r2")], rhs)):                 # truncated files
            assert cli_main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and str(named) in err
            assert not svg.exists()

    def test_matrix_file_flag(self, tmp_path):
        mtx = str(tmp_path / "m.mtx")
        cli_main(["matgen", "--kind", "convdiff", "--n", "30", "--eta", "0.5",
                  "--out", mtx])
        cfg = {
            "version": 1, "experiment": "bounds_vs_k",
            "matrix": {"type": "file", "path": mtx},
            "k_max": 8, "k_samples": 7,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["experiment", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 0

    def test_numerical_failure_exit_code(self, tmp_path):
        from krylov_sqrt.matrixmarket import write_matrix_market
        mtx = str(tmp_path / "indef.mtx")
        write_matrix_market(mtx, np.diag([-1.0, 2.0, 3.0]))
        code = cli_main(["approx", "--matrix-file", mtx, "--stop", "bound",
                         "--tol", "0.1", "--kmax", "3",
                         "--out", str(tmp_path / "r3")])
        assert code == 3

    def test_approx_symmetric_storage_file(self, tmp_path):
        from krylov_sqrt.matrixmarket import read_matrix_market
        a = matgen.spectrum_matrix(matgen.SpectrumSpec.uniform(12, 1.0, 100.0), 3).matrix.array
        i, j = np.tril_indices(12)
        mtx = tmp_path / "s.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                       f"12 12 {i.size}\n"
                       + "".join(f"{r + 1} {c + 1} {float(a[r, c])!r}\n" for r, c in zip(i, j)))
        np.testing.assert_array_equal(read_matrix_market(mtx), np.tril(a) + np.tril(a, -1).T)
        out = tmp_path / "r"
        assert cli_main(["approx", "--matrix-file", str(mtx), "--tol", "1e-8",
                         "--out", str(out)]) == 0
        want = arn.run_adaptive(read_matrix_market(mtx), np.ones(12), k_max=200,
                                stop=arn.ResidualRelative(1e-8))
        np.testing.assert_array_equal(read_matrix_market(out / "result.mtx").ravel(),
                                      want.result)

    def test_approx_rejects_comment_inside_data(self, tmp_path, capsys):
        mtx = tmp_path / "m.mtx"
        mtx.write_text("%%MatrixMarket matrix array real general\n2 2\n2.0\n0.0\n"
                       "% inside\n0.0\n3.0\n")
        assert cli_main(["approx", "--matrix-file", str(mtx),
                         "--out", str(tmp_path / "r")]) == 1
        assert "MatrixMarket" in capsys.readouterr().err

    def test_import_leaves_scipy_io_and_fft_unloaded(self):
        # each adds tens of ms to every import; they load on first use
        src = os.path.dirname(os.path.dirname(cli_main.__code__.co_filename))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, krylov_sqrt, krylov_sqrt.cli; "
                "print(sorted({'scipy.io', 'scipy.fft'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=path))
        assert out.returncode == 0 and out.stdout.strip() == "[]"

    def test_matgen_clustered(self, tmp_path):
        mtx = str(tmp_path / "c.mtx")
        assert cli_main(["matgen", "--kind", "clustered", "--n", "30",
                         "--seed", "5", "--out", mtx]) == 0
        from krylov_sqrt.matrixmarket import read_matrix_market
        a = read_matrix_market(mtx)
        assert a.shape == (30, 30)

    def test_hermitian_plot_kinds(self, tmp_path):
        cfg = exp.config_from_dict({
            "experiment": "hermitian_compare", "seed": 6,
            "output_dir": str(tmp_path),
            "matrix": {"type": "spectrum", "kind": "uniform", "n": 40,
                       "lo": 1.0, "hi": 100.0},
            "rhs": {"kind": "ones"}, "k_max": 12, "k_samples": 11,
        })
        _, _, csv_path = exp.run_experiment(cfg)
        for kind in ("hermitian_compare", "lambda_bar"):
            out = str(tmp_path / f"{kind}.svg")
            plotting.render_plot(csv_path, kind, out)
            assert '<g class="series"' in open(out).read()

    def test_console_script_installed(self):
        # the child imports the package this process imports, installed or not
        src = os.path.dirname(os.path.dirname(cli_main.__code__.co_filename))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-m", "krylov_sqrt.cli", "--help"],
                             capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        assert out.returncode == 0
        assert "approx" in out.stdout
