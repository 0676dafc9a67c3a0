"""Experiment harness: config validation, runners, CSV/SVG output, CLI."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from krylov_sqrt import arnoldi as arn
from krylov_sqrt import bounds as bnd
from krylov_sqrt import experiments as exp
from krylov_sqrt import linalg, matgen, plotting
from krylov_sqrt.cli import main as cli_main
from krylov_sqrt.errors import ConfigError, DomainError


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
        # breaks down on the full space at k = 59; the first crossing lies
        # inside (32, 59] and must still be located by bisection
        tri = matgen.convection_diffusion(60, 0.1)
        b = np.ones(tri.shape[0])
        tol = 0.05
        state, k_stop, val, x_exact = exp.find_stop_k(tri, b, tol)
        assert state.breakdown and state.k == tri.shape[0]
        assert val <= tol
        assert first_crossing_by_scan(tri, b, tol, x_exact, k_stop + 3) == k_stop

    def test_breakdown_short_circuit(self):
        _, k_stop, val, _ = exp.find_stop_k(np.eye(6), np.ones(6), 0.5)
        assert k_stop == 1 and val == 0.0

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
        want = bnd.bound_posterior_ritz(linalg.hessenberg_eigenvalues(sub.hessenberg), xi)
        assert val == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_few_large_ritz_solves(self, monkeypatch):
        # the search used to make 6 Ritz solves of order > k_stop/2 here
        orders = []
        ritz = linalg.hessenberg_eigenvalues
        monkeypatch.setattr(linalg, "hessenberg_eigenvalues",
                            lambda h: orders.append(h.shape[0]) or ritz(h))
        tri = matgen.convection_diffusion(300, 0.1)
        _, k_stop, _, _ = exp.find_stop_k(tri, np.ones(tri.shape[0]), 0.05)
        assert sum(k > k_stop / 2 for k in orders) <= 4

    def test_misleading_guide_still_exact_in_log_probes(self, monkeypatch):
        # a step-shaped bound unrelated to xi defeats the guide; the
        # midpoint steps must still find the exact step in O(log k) probes
        probes = []

        def step_bound(sub, xi, sigma, quad_cfg, kind):
            probes.append(sub.k)
            return 1.0 if sub.k < 200 else 0.0

        monkeypatch.setattr(exp, "_bound_value", step_bound)
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

    def test_validation_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"experiment": "nope"}))
        assert cli_main(["experiment", "--config", str(cfg_path)]) == 1

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
        out = subprocess.run([sys.executable, "-m", "krylov_sqrt.cli", "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "approx" in out.stdout
