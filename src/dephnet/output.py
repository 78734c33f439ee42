"""CSV files, of sweep records and of numeric tables such as
trajectories, and static SVG line charts.

CSV is the data interface: full-precision scientific notation, UTF-8,
LF endings, byte-identical across repeated runs on the same records.
write_table is the one CSV writer; write_records hands it the rows of
sweep records.
SVG charts are deterministic text as well, so tests can assert on their
structure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

CSV_HEADER = "circuit,delta,direction,branches,R,G,coherence,status"


def _cell(value) -> str:
    """One CSV cell: a float (numpy's included) in full-precision
    scientific notation, None empty, anything else its str."""
    if isinstance(value, (float, np.floating)):
        return f"{value:.16e}"
    return "" if value is None else str(value)


def write_records(records: Sequence, path) -> None:
    """Write sweep records as CSV (records come pre-sorted by their
    canonical key; order is preserved). An insulating row's R is inf and
    its G 0: divergence is a verdict, not a float overflow."""
    write_table([(r.circuit_label, r.delta, r.direction, r.branches, r.R,
                  r.G if math.isfinite(r.R) else 0, r.coherence, r.status)
                 for r in records], CSV_HEADER.split(","), path)


def write_table(rows, columns: Sequence[str], path) -> None:
    """Write rows, such as a trajectory's samples, as CSV under a header
    of column names, one _cell per value."""
    lines = [",".join(columns)] + [",".join(map(_cell, row)) for row in rows]
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


def _finite_points(records: Sequence, axes: AxesSpec):
    """Yield (series key, x, y) of every row whose x and y are finite; a
    y of None, as a missing coherence, is not."""
    for row in records:
        key = _get(row, axes.series_field) if axes.series_field else ""
        x = float(_get(row, axes.x_field))
        y_raw = _get(row, axes.y_field)
        y = math.nan if y_raw is None else float(y_raw)
        if math.isfinite(x) and math.isfinite(y):
            yield key, x, y


def render_chart(records: Sequence, axes: AxesSpec, path) -> bool:
    """Write a line chart; one series per value of axes.series_field,
    in ascending order of that value.

    Non-finite points (diverged rows) are dropped, and so are points at
    or below 0 on a log axis; if nothing plottable remains, no file is
    written. A guideline the y axis cannot show (at or below 0 on a log
    axis, or not finite) is left out. Returns True iff the chart was
    written.
    """
    groups: dict = {}
    # in order of the raw (x, y): log10 may round two x values together
    points = sorted(_finite_points(records, axes), key=lambda p: p[1:])
    for key, x, y in points:
        x, y = _scaled(x, axes.log_x), _scaled(y, axes.log_y)
        if x is not None and y is not None:
            groups.setdefault(key, []).append((x, y))
    if not groups:
        return False
    guide = _scaled(axes.guideline_y, axes.log_y)
    x_lo, x_hi = _pad_range([x for pts in groups.values() for x, _ in pts])
    y_lo, y_hi = _pad_range([y for pts in groups.values() for _, y in pts]
                            + ([] if guide is None else [guide]))
    sx = _pixel_map(x_lo, x_hi, _MARGIN_L, _WIDTH - _MARGIN_R)
    sy = _pixel_map(y_lo, y_hi, _HEIGHT - _MARGIN_B, _MARGIN_T)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if axes.title:
        parts.append(f'<text x="{_WIDTH / 2:.2f}" y="22" text-anchor="middle" '
                     f'font-size="15" font-family="sans-serif">'
                     f'{_escape(axes.title)}</text>')
    parts += [
        f'<line x1="{_MARGIN_L}" y1="{_HEIGHT - _MARGIN_B}" '
        f'x2="{_WIDTH - _MARGIN_R}" y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" '
        f'x2="{_MARGIN_L}" y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>',
    ]
    for px, label in _ticks(x_lo, x_hi, axes.log_x, sx):
        parts.append(f'<line x1="{px:.2f}" y1="{_HEIGHT - _MARGIN_B}" '
                     f'x2="{px:.2f}" y2="{_HEIGHT - _MARGIN_B + 5}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{_HEIGHT - _MARGIN_B + 18}" '
                     f'text-anchor="middle" font-size="11" '
                     f'font-family="sans-serif">{label}</text>')
    for py, label in _ticks(y_lo, y_hi, axes.log_y, sy):
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
    if guide is not None:
        gy = sy(guide)
        parts.append(f'<line x1="{_MARGIN_L}" y1="{gy:.2f}" '
                     f'x2="{_WIDTH - _MARGIN_R}" y2="{gy:.2f}" '
                     f'stroke="#888888" stroke-dasharray="5,4" '
                     f'class="guideline"/>')

    for idx, (key, pts) in enumerate(sorted(groups.items())):
        color = _PALETTE[idx % len(_PALETTE)]
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


def _scaled(value: float | None, log_scale: bool) -> float | None:
    """value on its axis's scale (log10 on a log axis), or None where
    the axis cannot show it."""
    if value is None or not math.isfinite(value) or log_scale and value <= 0:
        return None
    return math.log10(value) if log_scale else value


def _pad_range(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    pad = (max(abs(lo), 1.0) if hi <= lo else hi - lo) * 0.05
    return lo - pad, hi + pad


def _pixel_map(lo: float, hi: float, start: float, end: float):
    """The linear map of the axis range [lo, hi] onto pixels [start, end]."""
    return lambda v: start + (v - lo) / (hi - lo) * (end - start)


def _ticks(lo: float, hi: float, log_scale: bool, to_pixel) -> list:
    """(pixel, label) of each tick: every decade on a log axis that spans
    two, else five evenly spaced values."""
    values = (range(math.ceil(lo), math.floor(hi) + 1)
              if log_scale and math.floor(hi) - math.ceil(lo) >= 1
              else np.linspace(lo, hi, 5))
    return [(to_pixel(v), _sig(10.0 ** v if log_scale else v)) for v in values]


def _sig(x: float) -> str:
    return f"{x:.3g}"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
