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
from typing import Mapping, Sequence

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
    """How to draw a chart: title, axis labels, axis scales, and an
    optional horizontal guideline."""

    x_label: str = ""
    y_label: str = ""
    title: str = ""
    log_x: bool = False
    log_y: bool = False
    guideline_y: float | None = None


_WIDTH, _HEIGHT = 640, 440
# the plot area's edges in pixels
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, _WIDTH - 24, 36, _HEIGHT - 52
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f"]


def render_chart(series: Mapping, axes: AxesSpec, path) -> bool:
    """Write a line chart of series, a mapping from legend label to that
    series' (x, y) points; series are drawn in ascending label order,
    and a lone series labelled None draws no legend.

    Non-finite points (diverged rows) are dropped, and so are points at
    or below 0 on a log axis; if nothing plottable remains, no file is
    written. A guideline the y axis cannot show (at or below 0 on a log
    axis, or not finite) is left out. Returns True iff the chart was
    written.
    """
    groups: dict = {}
    for label, points in series.items():
        # filter before sorting: NaN has no place in a sort order; sort
        # the raw (x, y), since log10 may round two x values together
        for x, y in sorted((float(x), float(y)) for x, y in points
                           if math.isfinite(x) and math.isfinite(y)):
            x, y = _scaled(x, axes.log_x), _scaled(y, axes.log_y)
            if x is not None and y is not None:
                groups.setdefault(label, []).append((x, y))
    if not groups:
        return False
    guide = _scaled(axes.guideline_y, axes.log_y)
    xs, ys = zip(*[point for pts in groups.values() for point in pts])
    sx, x_ticks = _axis(xs, axes.log_x, _LEFT, _RIGHT)
    sy, y_ticks = _axis(ys + (() if guide is None else (guide,)),
                        axes.log_y, _BOTTOM, _TOP)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
             f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
             f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>']
    if axes.title:
        parts.append(_text(_WIDTH / 2, 22, axes.title, 15))
    parts += [_line(_LEFT, _BOTTOM, _RIGHT, _BOTTOM),
              _line(_LEFT, _TOP, _LEFT, _BOTTOM)]
    for px, label in x_ticks:
        parts += [_line(px, _BOTTOM, px, _BOTTOM + 5),
                  _text(px, _BOTTOM + 18, label, 11)]
    for py, label in y_ticks:
        parts += [_line(_LEFT - 5, py, _LEFT, py),
                  _text(_LEFT - 8, py + 4, label, 11, "end")]
    if axes.x_label:
        parts.append(_text((_LEFT + _RIGHT) / 2, _HEIGHT - 14, axes.x_label,
                           13))
    if axes.y_label:
        cy = (_TOP + _BOTTOM) / 2
        parts.append(_text(18, cy, axes.y_label, 13,
                           extra=f' transform="rotate(-90 18 {cy:.2f})"'))
    if guide is not None:
        parts.append(_line(_LEFT, sy(guide), _RIGHT, sy(guide),
                           'stroke="#888888" stroke-dasharray="5,4" '
                           'class="guideline"'))

    for idx, (label, pts) in enumerate(sorted(groups.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        if len(pts) >= 2:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.8"/>')
        else:
            x, y = pts[0]
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3.5" '
                         f'fill="{color}"/>')
        if label is not None:
            ly = _TOP + 16 * idx + 10
            parts.append(f'<rect x="{_RIGHT - 110}" y="{ly - 8}" '
                         f'width="10" height="10" fill="{color}"/>')
            parts.append(_text(_RIGHT - 95, ly + 1, label, 11, anchor=None))
    parts.append("</svg>")
    Path(path).write_bytes(("\n".join(parts) + "\n").encode("utf-8"))
    return True


def _scaled(value: float | None, log_scale: bool) -> float | None:
    """value on its axis's scale (log10 on a log axis), or None where
    the axis cannot show it."""
    if value is None or not math.isfinite(value) or log_scale and value <= 0:
        return None
    return math.log10(value) if log_scale else value


def _axis(values: Sequence, log_scale: bool, start: float, end: float):
    """(to_pixel, ticks) of an axis over values on its scale: the range
    of values, padded by 5% of its span (of max(|value|, 1) if it has
    none), maps linearly onto the pixels [start, end]; ticks holds
    (pixel, label) of every decade on a log axis that spans two, else of
    five evenly spaced values."""
    lo, hi = min(values), max(values)
    pad = (max(abs(lo), 1.0) if hi <= lo else hi - lo) * 0.05
    lo, hi = lo - pad, hi + pad

    def to_pixel(v: float) -> float:
        return start + (v - lo) / (hi - lo) * (end - start)

    ticks = (range(math.ceil(lo), math.floor(hi) + 1)
             if log_scale and math.floor(hi) - math.ceil(lo) >= 1
             else np.linspace(lo, hi, 5))
    return to_pixel, [(to_pixel(v), f"{10.0 ** v if log_scale else v:.3g}")
                      for v in ticks]


def _at(value) -> str:
    """A coordinate: whole pixels as they are, computed ones to 0.01."""
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def _line(x1, y1, x2, y2, style: str = 'stroke="black"') -> str:
    """One SVG <line> from (x1, y1) to (x2, y2), drawn in style."""
    return (f'<line x1="{_at(x1)}" y1="{_at(y1)}" x2="{_at(x2)}" '
            f'y2="{_at(y2)}" {style}/>')


def _text(x, y, text, size: int, anchor: str | None = "middle",
          extra: str = "") -> str:
    """One SVG <text> of str(text), escaped, in the sans-serif font."""
    escaped = (str(text).replace("&", "&amp;").replace("<", "&lt;")
               .replace(">", "&gt;"))
    where = "" if anchor is None else f' text-anchor="{anchor}"'
    return (f'<text x="{_at(x)}" y="{_at(y)}"{where} font-size="{size}" '
            f'font-family="sans-serif"{extra}>{escaped}</text>')
