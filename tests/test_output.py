import math
import re
import warnings

import pytest

from dephnet import (AxesSpec, SweepRecord, make_wire, render_chart,
                     write_records)
from dephnet.experiments import dephasing_sweep, sweep_branch_count
from dephnet.output import CSV_HEADER


def _converged(label="wire2", delta=0.0, branches=None, r=0.5):
    return SweepRecord(label, delta, "forward", branches, R=r, G=1.0 / r,
                       coherence=0.25, status="converged")


def _diverged(label="pentagon", delta=0.0):
    return SweepRecord(label, delta, "forward", None, R=math.inf, G=0.0,
                       coherence=None, status="diverged")


def test_empty_records_give_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_records([], path)
    assert path.read_bytes() == (CSV_HEADER + "\n").encode()


def test_one_converged_row_gives_two_lines(tmp_path):
    path = tmp_path / "one.csv"
    write_records([_converged()], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "wire2"
    assert float(fields[4]) == 0.5
    assert fields[7] == "converged"


def test_diverged_row_uses_tagged_tokens(tmp_path):
    path = tmp_path / "div.csv"
    write_records([_diverged()], path)
    row = path.read_text().splitlines()[1]
    fields = row.split(",")
    assert fields[4] == "inf"
    assert fields[5] == "0"
    assert fields[6] == ""  # no coherence for a diverged device
    assert fields[7] == "diverged"


def test_converged_row_with_zero_resistance_writes_infinite_g(tmp_path):
    # wire1's source is its sink: R = 0 converged, so G = 1/R is inf
    (rec,) = dephasing_sweep(make_wire(1), [1.0])
    assert (rec.status, rec.R, rec.G) == ("converged", 0.0, math.inf)
    path = tmp_path / "wire1.csv"
    write_records([rec], path)
    fields = path.read_text().splitlines()[1].split(",")
    assert fields[4:6] == [f"{0.0:.16e}", "inf"]
    assert fields[7] == "converged"


def test_record_without_verdict_is_refused():
    # every row carries a verdict: a finite R that converged, or inf
    with pytest.raises(ValueError):
        SweepRecord("wire2", 1e8, "forward", None, R=math.nan, G=math.nan,
                    coherence=None, status="diverged")


def test_csv_uses_lf_and_utf8(tmp_path):
    path = tmp_path / "lf.csv"
    write_records([_converged(), _diverged()], path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    raw.decode("utf-8")


def test_csv_full_precision_round_trips(tmp_path):
    value = 1.0 / 3.0
    path = tmp_path / "prec.csv"
    write_records([_converged(r=value)], path)
    text = path.read_text().splitlines()[1]
    assert float(text.split(",")[4]) == value


def test_csv_byte_identical_across_runs(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_records(sweep_branch_count(3, deltas=(0.0, 1.0)), first)
    write_records(sweep_branch_count(3, deltas=(0.0, 1.0)), second)
    assert first.read_bytes() == second.read_bytes()


def test_chart_polyline_per_series(tmp_path):
    records = [_converged(delta=0.0, branches=m, r=1.0 / m)
               for m in range(1, 5)]
    records += [_converged(delta=1.0, branches=m, r=2.0 / m)
                for m in range(1, 5)]
    path = tmp_path / "chart.svg"
    assert render_chart(records, AxesSpec(x_field="branches", y_field="G",
                                          series_field="delta"), path)
    svg = path.read_text()
    assert svg.count("<polyline") == 2
    assert "<svg" in svg and svg.rstrip().endswith("</svg>")


def test_chart_legend_follows_series_values(tmp_path):
    # ordered as numbers, 5.0 comes before 20.0; as strings it would not
    deltas = (20.0, 0.0, 5.0, 0.5)
    records = [_converged(delta=d, branches=m, r=(1.0 + d) / m)
               for d in deltas for m in (1, 2)]
    path = tmp_path / "legend.svg"
    assert render_chart(records, AxesSpec(x_field="branches", y_field="G",
                                          series_field="delta"), path)
    # legend entries, unlike tick labels, sit at integer coordinates
    legend = re.findall(r'<text x="\d+" y="\d+" font-size="11" '
                        r'font-family="sans-serif">([^<]*)</text>',
                        path.read_text())
    assert legend == ["0.0", "0.5", "5.0", "20.0"]


def test_chart_single_point_gets_marker(tmp_path):
    path = tmp_path / "single.svg"
    assert render_chart([_converged()],
                        AxesSpec(x_field="delta", y_field="G"), path)
    svg = path.read_text()
    assert "<circle" in svg
    assert "<polyline" not in svg


def test_chart_all_diverged_omits(tmp_path):
    # no warning either: the caller names the cause
    path = tmp_path / "nothing.svg"
    written = render_chart([_diverged(), _diverged(delta=1.0)],
                           AxesSpec(x_field="delta", y_field="R"), path)
    assert written is False
    assert not path.exists()


def test_chart_filters_diverged_points_but_keeps_series(tmp_path):
    records = [_diverged(delta=0.0)] + [
        _converged(label="pentagon", delta=d, r=d) for d in (0.1, 1.0, 10.0)]
    path = tmp_path / "mixed.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert render_chart(records, AxesSpec(x_field="delta", y_field="R",
                                              log_x=True, log_y=True), path)
    assert path.read_text().count("<polyline") == 1


def test_chart_guideline_rendered(tmp_path):
    rows = [{"delta": d, "ratio": r}
            for d, r in ((0.1, 1.4), (0.3, 0.9), (1.0, 0.97))]
    path = tmp_path / "guide.svg"
    assert render_chart(rows, AxesSpec(x_field="delta", y_field="ratio",
                                       guideline_y=1.0, log_x=True), path)
    assert 'class="guideline"' in path.read_text()


def test_chart_deterministic(tmp_path):
    records = [_converged(delta=d, r=1 + d) for d in (0.0, 0.5, 2.0)]
    axes = AxesSpec(x_field="delta", y_field="R", title="t", x_label="x",
                    y_label="y")
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_chart(records, axes, a)
    render_chart(records, axes, b)
    assert a.read_bytes() == b.read_bytes()


def test_chart_escapes_labels(tmp_path):
    path = tmp_path / "esc.svg"
    render_chart([_converged(delta=d, r=1 + d) for d in (0.0, 1.0)],
                 AxesSpec(x_field="delta", y_field="R",
                          title="R < 1 & more"), path)
    text = path.read_text()
    assert "R &lt; 1 &amp; more" in text


@pytest.mark.parametrize("guideline", [0.0, -1.0])
def test_chart_leaves_out_guideline_a_log_axis_cannot_show(tmp_path, guideline):
    records = [_converged(label="pentagon", delta=d, r=d)
               for d in (0.1, 1.0, 10.0)]
    drawn, plain = tmp_path / "guide.svg", tmp_path / "plain.svg"
    assert render_chart(records, AxesSpec(x_field="delta", y_field="R",
                                          log_y=True, guideline_y=guideline),
                        drawn)
    assert render_chart(records, AxesSpec(x_field="delta", y_field="R",
                                          log_y=True), plain)
    assert 'class="guideline"' not in drawn.read_text()
    assert drawn.read_bytes() == plain.read_bytes()


def test_chart_ticks_and_guideline_share_the_points_map(tmp_path):
    rows = [{"delta": d, "ratio": r}
            for d, r in ((0.1, 1.4), (1.0, 1.0), (10.0, 0.8))]
    path = tmp_path / "map.svg"
    assert render_chart(rows, AxesSpec(x_field="delta", y_field="ratio",
                                       log_x=True, guideline_y=1.0), path)
    svg = path.read_text()
    points = re.search(r'<polyline points="([^"]*)"', svg).group(1).split()
    px, py = points[1].split(",")  # the point at delta = 1, ratio = 1
    tick_x = re.search(r'<text x="([\d.]+)" y="\d+" text-anchor="middle" '
                       r'font-size="11" font-family="sans-serif">1</text>',
                       svg).group(1)
    guide_y = re.search(r'<line x1="\d+" y1="([\d.]+)" x2="\d+" y2="\1" '
                        r'[^>]*class="guideline"/>', svg).group(1)
    assert tick_x == px
    assert guide_y == py
