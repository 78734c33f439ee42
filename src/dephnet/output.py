"""Record serialization (CSV) and static SVG line charts.

CSV is the data interface: full-precision scientific notation, UTF-8,
LF endings, byte-identical across repeated runs on the same records.
SVG charts are deterministic text as well, so tests can assert on their
structure.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

CSV_HEADER = "circuit,delta,direction,branches,R,G,coherence,status"


def _fmt(value: float) -> str:
    return f"{value:.16e}"


def _record_row(rec) -> str:
    branches = "" if rec.branches is None else str(rec.branches)
    if math.isfinite(rec.R):
        r_txt, g_txt = _fmt(rec.R), _fmt(rec.G)
    elif math.isnan(rec.R):
        # no verdict (e.g. an ill-conditioned point): empty cells, which
        # do not read as an insulator
        r_txt = g_txt = ""
    else:
        # divergence is a verdict, not a float overflow: tagged tokens
        r_txt, g_txt = "inf", "0"
    coherence = "" if rec.coherence is None else _fmt(rec.coherence)
    return ",".join([rec.circuit_label, _fmt(rec.delta), rec.direction,
                     branches, r_txt, g_txt, coherence, rec.status])


def write_records(records: Sequence, path) -> None:
    """Write sweep records as CSV (records come pre-sorted by their
    canonical key; order is preserved)."""
    lines = [CSV_HEADER] + [_record_row(r) for r in records]
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


@dataclass(frozen=True)
class AxesSpec:
    """What to plot: field names on each axis, optional series grouping,
    axis scales, and an optional horizontal guideline."""

    x_field: str
    y_field: str
    series_field: str | None = None
    x_label: str = ""
    y_label: str = ""
    title: str = ""
    log_x: bool = False
    log_y: bool = False
    guideline_y: float | None = None


_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 24, 36, 52
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f"]


def _get(row, field):
    if isinstance(row, dict):
        return row[field]
    return getattr(row, field)


def render_chart(records: Sequence, axes: AxesSpec, path) -> bool:
    """Write a line chart; one series per value of axes.series_field.

    Non-finite points (diverged rows) are dropped; if nothing plottable
    remains, a warning is issued and no file is written. Returns True
    iff the chart was written.
    """
    groups: dict = {}
    for row in records:
        key = _get(row, axes.series_field) if axes.series_field else ""
        x = float(_get(row, axes.x_field))
        y_raw = _get(row, axes.y_field)
        y = math.nan if y_raw is None else float(y_raw)
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        if axes.log_x and x <= 0 or axes.log_y and y <= 0:
            continue
        groups.setdefault(key, []).append((x, y))
    groups = {k: sorted(v) for k, v in groups.items() if v}
    if not groups:
        warnings.warn("no plottable points (all series diverged); "
                      "chart omitted")
        return False

    tx = math.log10 if axes.log_x else float
    ty = math.log10 if axes.log_y else float
    xs = [tx(x) for pts in groups.values() for x, _ in pts]
    ys = [ty(y) for pts in groups.values() for _, y in pts]
    if axes.guideline_y is not None and (not axes.log_y or axes.guideline_y > 0):
        ys.append(ty(axes.guideline_y))
    x_lo, x_hi = _pad_range(min(xs), max(xs))
    y_lo, y_hi = _pad_range(min(ys), max(ys))

    def sx(x):
        frac = (tx(x) - x_lo) / (x_hi - x_lo)
        return _MARGIN_L + frac * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def sy(y):
        frac = (ty(y) - y_lo) / (y_hi - y_lo)
        return _HEIGHT - _MARGIN_B - frac * (_HEIGHT - _MARGIN_T - _MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if axes.title:
        parts.append(f'<text x="{_WIDTH / 2:.2f}" y="22" text-anchor="middle" '
                     f'font-size="15" font-family="sans-serif">'
                     f'{_escape(axes.title)}</text>')
    parts.extend(_axis_elements(x_lo, x_hi, y_lo, y_hi, axes, sx, sy))

    if axes.guideline_y is not None and y_lo <= ty(axes.guideline_y) <= y_hi:
        gy = sy(axes.guideline_y)
        parts.append(f'<line x1="{_MARGIN_L}" y1="{gy:.2f}" '
                     f'x2="{_WIDTH - _MARGIN_R}" y2="{gy:.2f}" '
                     f'stroke="#888888" stroke-dasharray="5,4" '
                     f'class="guideline"/>')

    for idx, key in enumerate(sorted(groups, key=str)):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = groups[key]
        if len(pts) >= 2:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.8"/>')
        else:
            x, y = pts[0]
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3.5" '
                         f'fill="{color}"/>')
        if axes.series_field:
            ly = _MARGIN_T + 16 * idx + 10
            parts.append(f'<rect x="{_WIDTH - _MARGIN_R - 110}" y="{ly - 8}" '
                         f'width="10" height="10" fill="{color}"/>')
            parts.append(f'<text x="{_WIDTH - _MARGIN_R - 95}" y="{ly + 1}" '
                         f'font-size="11" font-family="sans-serif">'
                         f'{_escape(str(key))}</text>')
    parts.append("</svg>")
    Path(path).write_bytes(("\n".join(parts) + "\n").encode("utf-8"))
    return True


def _pad_range(lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        pad = max(abs(lo), 1.0) * 0.05
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _axis_elements(x_lo, x_hi, y_lo, y_hi, axes: AxesSpec, sx, sy) -> list[str]:
    parts = [
        f'<line x1="{_MARGIN_L}" y1="{_HEIGHT - _MARGIN_B}" '
        f'x2="{_WIDTH - _MARGIN_R}" y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" '
        f'x2="{_MARGIN_L}" y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>',
    ]
    for value, label in _ticks(x_lo, x_hi, axes.log_x):
        px = _MARGIN_L + (value - x_lo) / (x_hi - x_lo) * (
            _WIDTH - _MARGIN_L - _MARGIN_R)
        parts.append(f'<line x1="{px:.2f}" y1="{_HEIGHT - _MARGIN_B}" '
                     f'x2="{px:.2f}" y2="{_HEIGHT - _MARGIN_B + 5}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{_HEIGHT - _MARGIN_B + 18}" '
                     f'text-anchor="middle" font-size="11" '
                     f'font-family="sans-serif">{label}</text>')
    for value, label in _ticks(y_lo, y_hi, axes.log_y):
        py = _HEIGHT - _MARGIN_B - (value - y_lo) / (y_hi - y_lo) * (
            _HEIGHT - _MARGIN_T - _MARGIN_B)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" '
                     f'x2="{_MARGIN_L}" y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{py + 4:.2f}" '
                     f'text-anchor="end" font-size="11" '
                     f'font-family="sans-serif">{label}</text>')
    if axes.x_label:
        parts.append(f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2:.2f}" '
                     f'y="{_HEIGHT - 14}" text-anchor="middle" font-size="13" '
                     f'font-family="sans-serif">{_escape(axes.x_label)}</text>')
    if axes.y_label:
        cy = (_MARGIN_T + _HEIGHT - _MARGIN_B) / 2
        parts.append(f'<text x="18" y="{cy:.2f}" text-anchor="middle" '
                     f'font-size="13" font-family="sans-serif" '
                     f'transform="rotate(-90 18 {cy:.2f})">'
                     f'{_escape(axes.y_label)}</text>')
    return parts


def _ticks(lo: float, hi: float, log_scale: bool) -> list[tuple[float, str]]:
    if log_scale:
        first = math.ceil(lo)
        last = math.floor(hi)
        decades = range(first, last + 1)
        if len(list(decades)) >= 2:
            return [(float(d), _sig(10.0 ** d)) for d in range(first, last + 1)]
    values = np.linspace(lo, hi, 5)
    if log_scale:
        return [(float(v), _sig(10.0 ** v)) for v in values]
    return [(float(v), _sig(v)) for v in values]


def _sig(x: float) -> str:
    return f"{x:.3g}"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
