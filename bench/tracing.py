"""Spans around calls into the package's public functions, from outside.

:class:`Tracer` wraps each function in :data:`TARGETS` and rebinds the
wrapper under every name in the package that held the original, so a
module that did ``from .matrixmarket import read_matrix_market`` is traced
too.  Spans stay in memory (name, start, end, parent span, operation id and
counters) and are written as JSONL when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "krylov_sqrt"

# (module, function) pairs traced; every one reports a self-time metric.
TARGETS = (
    ("linalg", "hessenberg_eigenvalues"),
    ("linalg", "dense_sqrt"),
    ("linalg", "reference_sqrt_action"),
    ("linalg", "sigma_max"),
    ("linalg", "sigma_min"),
    ("linalg", "lu_solve"),
    ("linalg", "is_hermitian"),
    ("arnoldi", "arnoldi_extend"),
    ("arnoldi", "fom_iterate"),
    ("arnoldi", "fom_residual_norm"),
    ("arnoldi", "arnoldi_fun_action"),
    ("arnoldi", "run_adaptive"),
    ("bounds", "quad_semi_infinite"),
    ("bounds", "build_bound_report"),
    ("matgen", "spectrum_matrix"),
    ("matgen", "skew_part"),
    ("matgen", "convection_diffusion"),
    ("experiments", "find_stop_k"),
    ("experiments", "run_experiment"),
    ("experiments", "write_csv"),
    ("plotting", "render_plot"),
    ("matrixmarket", "read_matrix_market"),
    ("matrixmarket", "write_matrix_market"),
    ("cli", "main"),
)

# Counters besides ``calls``, read at the boundary of the named span.
COUNTERS = {
    "linalg.hessenberg_eigenvalues": ("calls", "k_sum"),
    "linalg.dense_sqrt": ("calls",),
    "linalg.lu_solve": ("calls",),
    "arnoldi.arnoldi_extend": ("calls", "steps"),
    "bounds.quad_semi_infinite": ("calls", "evals", "misses"),
    "bounds.build_bound_report": ("calls",),
    "experiments.find_stop_k": ("probes",),
    "experiments.write_csv": ("bytes",),
    "matrixmarket.read_matrix_market": ("bytes",),
    "matrixmarket.write_matrix_market": ("bytes",),
}

SETUP = "setup"


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def _arg(args, kwargs, position: int, keyword: str):
    return args[position] if len(args) > position else kwargs[keyword]


def _counts(name: str, args, kwargs, result) -> dict:
    """Counters a span records from its own arguments and result."""
    if name == "linalg.hessenberg_eigenvalues":
        return {"k": int(result.k)}
    if name == "arnoldi.arnoldi_extend":
        return {"steps": int(result.k - _arg(args, kwargs, 1, "state").k)}
    if name == "bounds.quad_semi_infinite":
        return {"misses": int(not result.tolerance_met)}
    if name == "experiments.write_csv":
        path = _arg(args, kwargs, 0, "path")
        return {"bytes": _file_bytes(path, os.path.splitext(path)[0] + ".columns.json")}
    if name in ("matrixmarket.read_matrix_market", "matrixmarket.write_matrix_market"):
        return {"bytes": _file_bytes(_arg(args, kwargs, 0, "path"))}
    return {}


def _counting(integrand, evals: list):
    """The integrand, counting its evaluations in ``evals[0]``."""
    def counted(x):
        evals[0] += 1
        return integrand(x)

    return counted


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id, counts]
        self.op_id = SETUP
        self._stack = []
        self._patched = []       # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op_id, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            if name == "bounds.quad_semi_infinite":
                evals = [0]
                args = (_counting(args[0], evals),) + args[1:]
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            counts = _counts(name, args, kwargs, result)
            if name == "bounds.quad_semi_infinite":
                counts["evals"] = evals[0]
            span[5] = counts
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._patched.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapped)

    def uninstall(self):
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def write_jsonl(self, path: str):
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, op_id, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id,
                                     "counts": counts or {}}) + "\n")


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _inside(spans, index: int, ancestor: str) -> bool:
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, setup_reps: int, rounds: int) -> dict:
    """Per-layer totals for one set-up plus one round of the timed phase.

    Set-up spans are divided by the number of set-up repetitions and
    timed-phase spans by the number of rounds.
    """
    totals = defaultdict(float)
    for i, ((name, _, _, _, op_id, counts), own) in enumerate(zip(spans, self_times(spans))):
        share = 1.0 / (setup_reps if op_id == SETUP else rounds)
        totals[f"{name}.s"] += own * share
        totals[f"{name}.calls"] += share
        counts = counts or {}
        if "k" in counts:
            totals[f"{name}.k_sum"] += counts["k"] * share
            if _inside(spans, i, "experiments.find_stop_k"):
                totals["experiments.find_stop_k.probes"] += share
        for key in ("steps", "evals", "misses", "bytes"):
            if key in counts:
                totals[f"{name}.{key}"] += counts[key] * share
    metrics = {}
    for mod_name, fn_name in TARGETS:
        name = f"{mod_name}.{fn_name}"
        metrics[f"{name}.s"] = (totals[f"{name}.s"], "s")
        for counter in COUNTERS.get(name, ()):
            unit = "bytes" if counter == "bytes" else "count"
            metrics[f"{name}.{counter}"] = (totals[f"{name}.{counter}"], unit)
    return metrics


def run_metrics(spans, setup_reps: int, rounds: int, timed_seconds: float) -> dict:
    """:func:`layer_metrics` plus the accounting of the timed phase per round:
    ``trace.wall_s`` (traced wall time), ``trace.unspanned_s`` (wall time no
    span covers) and ``trace.overhead_s`` (spans and counted integrand
    evaluations times their calibrated cost)."""
    metrics = layer_metrics(spans, setup_reps, rounds)
    own = self_times(spans)
    timed = [i for i, span in enumerate(spans) if span[4] != SETUP]
    evals = sum((spans[i][5] or {}).get("evals", 0) for i in timed)
    span_cost, eval_cost = calibrate()
    metrics["trace.wall_s"] = (timed_seconds / rounds, "s")
    metrics["trace.unspanned_s"] = ((timed_seconds - sum(own[i] for i in timed)) / rounds, "s")
    metrics["trace.overhead_s"] = ((len(timed) * span_cost + evals * eval_cost) / rounds, "s")
    return metrics


def _best_per_call(fn, samples: int) -> float:
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(samples):
            fn(0.0)
        runs.append((time.perf_counter() - t0) / samples)
    return min(runs)


def calibrate(samples: int = 5000) -> tuple:
    """Seconds one span adds to a traced call, and one counted integrand
    evaluation adds, measured on a do-nothing function."""
    def noop(x):
        return x

    bare = _best_per_call(noop, samples)
    span = _best_per_call(Tracer()._wrap("calibration", noop), samples) - bare
    evaluation = _best_per_call(_counting(noop, [0]), samples) - bare
    return max(span, 0.0), max(evaluation, 0.0)
