"""Self-test of the benchmark's own code at tiny sizes (a few seconds).

    python3 -m pytest -q bench
"""

import json
import os
import string
import sys

import numpy as np
import pytest
import scipy.linalg as sla

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from krylov_sqrt import experiments, linalg, matgen, matrixmarket  # noqa: E402


def _rel(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


def convdiff_dense(n, eta):
    m, sub, dia, sup = oracles.convdiff_stencil(n, eta)
    return (np.diag(np.full(m, dia)) + np.diag(np.full(m - 1, sub), -1)
            + np.diag(np.full(m - 1, sup), 1))


# ---------------------------------------------------------------------------
# oracles


@pytest.mark.parametrize("n, eta", [(12, 0.1), (60, 0.1), (60, 0.05)])
def test_convdiff_closed_form_matches_schur_sqrtm(n, eta):
    b = np.random.default_rng(n).standard_normal(n - 1)
    dense = sla.sqrtm(convdiff_dense(n, eta)) @ b
    assert _rel(oracles.convdiff_sqrt_action(n, eta, b), dense) <= 1e-10


def test_convdiff_closed_form_refuses_ill_conditioned_similarity():
    assert oracles.convdiff_cond_d(1000, 0.001) > oracles.MAX_COND_D
    with pytest.raises(oracles.OracleError):
        oracles.convdiff_sqrt_action(1000, 0.001, np.ones(999))


def test_convdiff_dense_matches_program_operator():
    tri = matgen.convection_diffusion(30, 0.1)
    assert np.array_equal(convdiff_dense(30, 0.1), tri.to_dense())


@pytest.mark.parametrize("hermitian", [True, False])
def test_eig_reference_matches_schur_sqrtm(hermitian):
    n = 40
    rng = np.random.default_rng(3)
    g = rng.standard_normal((n, n))
    a = g @ g.T + n * np.eye(n)
    if not hermitian:
        a = a + matgen.skew_part(n, 4)
    b = rng.standard_normal(n)
    assert _rel(oracles.eig_sqrt_action(a, b, hermitian), sla.sqrtm(a) @ b) <= 1e-10


def test_eig_reference_refuses_negative_spectrum():
    with pytest.raises(oracles.OracleError):
        oracles.eig_sqrt_action(np.diag([4.0, -1.0]), np.ones(2), hermitian=True)


def test_eig_reference_refuses_inaccurate_eigenvectors():
    # a nearly defective matrix: the eigenvector basis is too ill
    # conditioned for V sqrt(L) V^-1 to be trusted
    a = np.array([[1.0, 1e8], [0.0, 1.0 + 1e-12]])
    with pytest.raises(oracles.OracleError):
        oracles.eig_sqrt_action(a, np.ones(2), hermitian=False)


def test_independent_arnoldi_is_exact_at_full_dimension():
    n = 25
    a = convdiff_dense(n + 1, 0.1)
    b = np.ones(n)
    x = oracles.arnoldi_sqrt(lambda v: a @ v, b, n)
    assert _rel(x, oracles.convdiff_sqrt_action(n + 1, 0.1, b)) <= 1e-9


def test_paper_table_rows():
    assert sorted(oracles.PAPER_TABLE) == [1000, 1200, 1400, 1600, 1800, 2000]
    assert set(workloads.CONVDIFF_N) <= set(oracles.PAPER_TABLE)
    assert all(0 < tol <= 0.1 for tol in oracles.PAPER_RTOL)


# ---------------------------------------------------------------------------
# output readers and checks


def test_mtx_vector_reader_round_trips_program_writer(tmp_path):
    for x in (np.linspace(-1.0, 1.0, 7), np.linspace(0.0, 1.0, 5) * (1 + 2j)):
        path = str(tmp_path / "x.mtx")
        matrixmarket.write_matrix_market(path, x)
        assert np.array_equal(workloads._read_mtx_vector(path), x)


def test_csv_reader_reads_program_csv(tmp_path):
    path = str(tmp_path / "h.csv")
    experiments.write_csv(path, [{"k": 1, "a": float("inf"), "b": None},
                                 {"k": 2, "a": 0.5, "b": 1.25}])
    rows = workloads._read_csv(path)
    assert rows == [{"k": 1.0, "a": float("inf"), "b": None}, {"k": 2.0, "a": 0.5, "b": 1.25}]


def test_sweep_instance_matches_program_input():
    for op_cfg in (experiments.config_from_dict(
            {"experiment": "bounds_vs_k", "seed": 11, "k_max": 5,
             "matrix": dict(workloads.CLUSTERED, n=40, skew=True)}),
                   experiments.config_from_dict(
            {"experiment": "hermitian_compare", "seed": 12, "k_max": 5,
             "rhs": {"kind": "eig_average", "count": workloads.SWEEP_N[1]},
             "matrix": dict(workloads.CLUSTERED, n=40, skew=False)})):
        ctx = experiments.build_matrix(op_cfg.matrix, op_cfg.seed)
        a, b = workloads._sweep_instance(op_cfg)
        assert np.array_equal(a, linalg.as_array(ctx.operator).real)
        assert np.allclose(b, experiments.build_rhs(op_cfg.rhs, ctx), rtol=0, atol=1e-15)


def test_sweep_round_is_stratified_and_seeded():
    def sizes(seed):
        return [int(op.key.rsplit("-n", 1)[1]) for op in workloads.bound_sweep(seed, "unused")]

    assert len(sizes(1)) == workloads.SWEEP_SLOTS
    assert sizes(1) == sizes(1) and sizes(1) != sizes(2)
    lo, hi = workloads.SWEEP_N
    assert all(lo <= n <= hi for n in sizes(1)) and sizes(1) == sorted(sizes(1))


def test_sweep_operation_passes_its_checks(tmp_path):
    op = workloads.bound_sweep(1, str(tmp_path))[0]
    k_stop, ratios = op.check(op.run(str(tmp_path / "a")))
    assert 2 <= k_stop <= workloads.SWEEP_K_MAX + 1
    assert ratios and min(ratios) >= 1.0


def test_sweep_check_rejects_a_bound_below_the_error(tmp_path):
    op = workloads.bound_sweep(1, str(tmp_path))[0]
    rows, svg = op.run(str(tmp_path / "a"))
    rows[1] = dict(rows[1], posterior_ritz=rows[1]["error_norm"] / 2)
    with pytest.raises(workloads.CheckFailed, match="true error"):
        op.check((rows, svg))


# ---------------------------------------------------------------------------
# tracing and metric extraction


def _span(name, start, end, parent, op):
    return [name, start, end, parent, op, {}]


def test_self_time_subtracts_direct_children():
    spans = [_span("a", 0.0, 10.0, None, 0), _span("b", 1.0, 4.0, 0, 0),
             _span("c", 2.0, 3.0, 1, 0), _span("d", 5.0, 6.0, 0, 0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_divide_setup_and_rounds():
    spans = [_span("matgen.skew_part", 0.0, 3.0, None, tracing.SETUP),
             _span("experiments.find_stop_k", 10.0, 20.0, None, 0),
             _span("linalg.hessenberg_eigenvalues", 11.0, 12.0, 1, 0),
             _span("linalg.hessenberg_eigenvalues", 30.0, 31.0, None, 1)]
    spans[2][5] = {"k": 7}
    spans[3][5] = {"k": 9}
    m = tracing.layer_metrics(spans, setup_reps=3, rounds=2)
    assert m["matgen.skew_part.s"] == (1.0, "s")
    assert m["experiments.find_stop_k.s"] == (4.5, "s")
    assert m["experiments.find_stop_k.probes"] == (0.5, "count")
    assert m["linalg.hessenberg_eigenvalues.calls"] == (1.0, "count")
    assert m["linalg.hessenberg_eigenvalues.k_sum"] == (8.0, "count")


def test_tracer_rebinds_imported_names_and_restores_them(tmp_path):
    from krylov_sqrt import cli, linalg as lin
    original = matrixmarket.read_matrix_market
    path = str(tmp_path / "m.mtx")
    matrixmarket.write_matrix_market(path, np.eye(3) * 2.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.read_matrix_market is experiments.read_matrix_market
        assert cli.read_matrix_market is not original
        tracer.op_id = 0
        cli.read_matrix_market(path)
        lin.hessenberg_eigenvalues(np.diag([3.0, 2.0, 1.0]))
    finally:
        tracer.uninstall()
    assert cli.read_matrix_market is original and experiments.read_matrix_market is original
    names = [s[0] for s in tracer.spans]
    assert names == ["matrixmarket.read_matrix_market", "linalg.hessenberg_eigenvalues"]
    assert tracer.spans[0][5]["bytes"] == os.path.getsize(path)
    assert tracer.spans[1][5]["k"] == 3
    out = tmp_path / "t.jsonl"
    tracer.write_jsonl(str(out))
    assert [json.loads(line)["name"] for line in out.read_text().splitlines()] == names


def test_speed_scaling():
    assert speed.scaled(2.0, 2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S) == 1.0
    assert speed.scaled(3.0, 0.5 * speed.REFERENCE_S, 1.5 * speed.REFERENCE_S) == 3.0
    assert 0.0 < speed.Probe().sample() < 1.0


def test_calibration_is_small_and_nonnegative():
    span, evaluation = tracing.calibrate(samples=500)
    assert 0.0 <= span < 1e-3 and 0.0 <= evaluation < 1e-3


# ---------------------------------------------------------------------------
# BENCHMARK.json


NAME_CHARS = set(string.ascii_letters + string.digits + "_.-")
UNIT_CHARS = set(string.ascii_letters + string.digits + "_/%.-")


def test_benchmark_json_form():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert doc["command"] == ["python3", "bench/run.py"] and doc["paths"] == ["bench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in doc[key]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for key, fields in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in doc[key]:
            assert set(m) == fields
            assert set(m["name"]) <= NAME_CHARS and len(m["name"]) <= 64
            assert m["name"][0].isalnum()
            assert set(m["unit"]) <= UNIT_CHARS and len(m["unit"]) <= 16
            assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    units = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert units["setup_s"] == "s"


def test_per_layer_list_matches_traced_output():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    emitted = tracing.run_metrics([], setup_reps=1, rounds=1, timed_seconds=1.0)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        {name: unit for name, (_, unit) in emitted.items()}
