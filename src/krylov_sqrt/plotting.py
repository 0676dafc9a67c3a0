"""Deterministic SVG rendering of experiment CSVs.

Plots never recompute mathematics: they draw exactly the columns the
harness wrote (plus an optional fitted slope read from the summary
file).  The output is plain SVG 1.1 assembled from formatted strings, so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .experiments import read_csv, read_json

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 28, 52

PALETTE = ("#1f4e9c", "#c23b22", "#2e7d32", "#8e44ad", "#e67e22", "#455a64")

PLOT_KINDS = {
    # kind: (x column, x log?, series columns)
    "bounds_vs_k": ("k", False, ("error_norm", "posterior_ritz",
                                 "posterior_modulus", "apriori_gamma")),
    "hermitian_compare": ("k", False, ("error_norm", "posterior_ritz",
                                       "hermitian_loose", "hermitian_jensen")),
    "lambda_bar": ("k", False, ("lambda_bar", "sigma_max_used")),
    "scaling_vs_k": ("k", True, ("scaling_term",)),
    "scaling_vs_sigma": ("sigma_max", True, ("scaling_term",)),
}


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    exp = math.floor(math.log10(abs(v)) + 1e-9)
    if -3 <= exp <= 4 and abs(v - round(v)) < 1e-9 * max(1.0, abs(v)):
        return str(int(round(v)))
    return f"1e{exp:d}" if abs(v - 10.0 ** exp) < 1e-9 * abs(v) else f"{v:.3g}"


def _log_ticks(lo: float, hi: float) -> list:
    first = math.ceil(math.log10(lo) - 1e-9)
    last = math.floor(math.log10(hi) + 1e-9)
    decades = list(range(first, last + 1))
    step = max(1, (len(decades) + 7) // 8)
    return [10.0 ** d for d in decades[::step]]


def _linear_ticks(lo: float, hi: float, count: int = 6) -> list:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / (count - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        ticks.append(t)
        t += step
    return ticks or [lo]


class _Axes:
    def __init__(self, x_range, y_range, x_log: bool):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.x_log = x_log

    def _tx(self, x: float) -> float:
        lo, hi = self.x0, self.x1
        if self.x_log:
            x, lo, hi = math.log10(x), math.log10(lo), math.log10(hi)
        span = hi - lo or 1.0
        return MARGIN_L + (x - lo) / span * (WIDTH - MARGIN_L - MARGIN_R)

    def _ty(self, y: float) -> float:
        lo, hi = math.log10(self.y0), math.log10(self.y1)
        span = hi - lo or 1.0
        frac = (math.log10(y) - lo) / span
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)


def render_plot(csv_path: str, kind: str, out_path: str,
                summary_path: str | None = None) -> None:
    """Render one experiment CSV to a standalone SVG file."""
    if kind not in PLOT_KINDS:
        raise DomainError(f"unknown plot kind {kind!r}; choose from {sorted(PLOT_KINDS)}")
    x_col, x_log, series_cols = PLOT_KINDS[kind]
    columns, rows = read_csv(csv_path)
    if not rows:
        raise DomainError(f"{csv_path} has no data rows")
    if x_col not in columns:
        raise DomainError(f"{csv_path} lacks the {x_col!r} column needed by {kind!r}")
    present = [c for c in series_cols if c in columns]
    if not present:
        raise DomainError(f"{csv_path} has none of the {kind!r} series columns")

    series = {}
    for col in present:
        pts = [(r[x_col], r[col]) for r in rows
               if r.get(x_col) is not None and isinstance(r.get(col), float)
               and math.isfinite(r[col]) and r[col] > 0 and r[x_col] > 0]
        if pts:
            series[col] = sorted(pts)
    if not series:
        raise DomainError(f"{csv_path} contains no finite positive data to plot")

    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    ax = _Axes((min(xs), max(xs)), (min(ys) * 0.8, max(ys) * 1.25), x_log)

    svg = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        '<g class="axes" stroke="#333333" stroke-width="1" fill="none">',
        f'<path d="M {MARGIN_L} {MARGIN_T} V {HEIGHT - MARGIN_B} H {WIDTH - MARGIN_R}"/>',
        "</g>",
    ]

    svg.append('<g class="ticks" font-family="monospace" font-size="11" fill="#333333">')
    x_ticks = _log_ticks(ax.x0, ax.x1) if x_log else _linear_ticks(ax.x0, ax.x1)
    for t in x_ticks:
        px = ax._tx(t)
        svg.append(f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN_B}" '
                   f'x2="{_fmt(px)}" y2="{HEIGHT - MARGIN_B + 5}" stroke="#333333"/>')
        svg.append(f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_B + 18}" '
                   f'text-anchor="middle">{_tick_label(t)}</text>')
    for t in _log_ticks(ax.y0, ax.y1):
        py = ax._ty(t)
        svg.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(py)}" '
                   f'x2="{MARGIN_L}" y2="{_fmt(py)}" stroke="#333333"/>')
        svg.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(py + 4)}" '
                   f'text-anchor="end">{_tick_label(t)}</text>')
    svg.append(f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) // 2}" '
               f'y="{HEIGHT - 12}" text-anchor="middle">{x_col}</text>')
    svg.append("</g>")

    for idx, (col, pts) in enumerate(sorted(series.items())):
        color = PALETTE[idx % len(PALETTE)]
        coords = " ".join(f"{_fmt(ax._tx(x))},{_fmt(ax._ty(y))}" for x, y in pts)
        svg.append(f'<g class="series" id="series-{col}">')
        svg.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        svg.append("</g>")

    svg.append('<g class="legend" font-family="monospace" font-size="12">')
    for idx, col in enumerate(sorted(series)):
        color = PALETTE[idx % len(PALETTE)]
        ly = MARGIN_T + 16 + 18 * idx
        lx = WIDTH - MARGIN_R - 190
        svg.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        svg.append(f'<text x="{lx + 30}" y="{ly}" fill="#111111">{col}</text>')
    svg.append("</g>")

    if summary_path is not None:
        slope = read_json(summary_path).get("fitted_slope")
        if slope is not None:
            svg.append(f'<text class="annotation" x="{MARGIN_L + 12}" '
                       f'y="{MARGIN_T + 16}" font-family="monospace" '
                       f'font-size="12" fill="#111111">fitted slope = {slope:.4f}</text>')

    svg.append("</svg>")
    with open(out_path, "w", encoding="ascii") as fh:
        fh.write("\n".join(svg) + "\n")
