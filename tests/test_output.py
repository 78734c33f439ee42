import hashlib
import math
import random
import re
import warnings

import pytest

from dephnet import (AxesSpec, SweepRecord, make_wire, render_chart,
                     write_records)
from dephnet.experiments import dephasing_sweep, sweep_branch_count
from dephnet.output import CSV_HEADER


def _converged(r=0.5):
    return SweepRecord("wire2", 0.0, "forward", None, R=r, G=1.0 / r,
                       coherence=0.25, status="converged")


def _diverged():
    return SweepRecord("pentagon", 0.0, "forward", None, R=math.inf, G=0.0,
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
    series = {0.0: [(m, m / 1.0) for m in range(1, 5)],
              1.0: [(m, m / 2.0) for m in range(1, 5)]}
    path = tmp_path / "chart.svg"
    assert render_chart(series, AxesSpec(), path)
    svg = path.read_text()
    assert svg.count("<polyline") == 2
    assert "<svg" in svg and svg.rstrip().endswith("</svg>")


def _legend(svg: str) -> list[str]:
    # legend entries, unlike tick labels, sit at integer coordinates
    return re.findall(r'<text x="\d+" y="\d+" font-size="11" '
                      r'font-family="sans-serif">([^<]*)</text>', svg)


def test_chart_legend_follows_series_values(tmp_path):
    # ordered as numbers, 5.0 comes before 20.0; as strings it would not
    series = {d: [(m, m / (1.0 + d)) for m in (1, 2)]
              for d in (20.0, 0.0, 5.0, 0.5)}
    path = tmp_path / "legend.svg"
    assert render_chart(series, AxesSpec(), path)
    assert _legend(path.read_text()) == ["0.0", "0.5", "5.0", "20.0"]


def test_chart_single_point_gets_marker(tmp_path):
    path = tmp_path / "single.svg"
    assert render_chart({None: [(0.0, 2.0)]}, AxesSpec(), path)
    svg = path.read_text()
    assert "<circle" in svg
    assert "<polyline" not in svg
    # a lone series labelled None draws no legend
    assert _legend(svg) == []


def test_chart_all_diverged_omits(tmp_path):
    # no warning either: the caller names the cause
    path = tmp_path / "nothing.svg"
    written = render_chart({None: [(0.0, math.inf), (1.0, math.inf)]},
                           AxesSpec(), path)
    assert written is False
    assert not path.exists()


def test_chart_filters_diverged_points_but_keeps_series(tmp_path):
    points = [(0.0, math.inf)] + [(d, d) for d in (0.1, 1.0, 10.0)]
    path = tmp_path / "mixed.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert render_chart({None: points},
                            AxesSpec(log_x=True, log_y=True), path)
    assert path.read_text().count("<polyline") == 1


def test_chart_bytes_do_not_depend_on_point_order(tmp_path):
    # diverged points are dropped before the sort: a list holding NaN
    # has no defined sorted order
    points = [(d, 1.0 + d) for d in (0.1, 0.3, 1.0, 3.0, 10.0)]
    noise = [(math.nan, 1.0), (2.0, math.nan), (5.0, math.inf),
             (-math.inf, 2.0)]
    mixed = points + noise
    random.Random(7).shuffle(mixed)
    axes = AxesSpec(log_x=True, guideline_y=2.0)
    ordered, shuffled = tmp_path / "ordered.svg", tmp_path / "shuffled.svg"
    assert render_chart({"a": points, "b": points[::-1]}, axes, ordered)
    assert render_chart({"b": mixed[::-1], "a": mixed}, axes, shuffled)
    assert ordered.read_bytes() == shuffled.read_bytes()


def test_chart_guideline_rendered(tmp_path):
    path = tmp_path / "guide.svg"
    assert render_chart({None: [(0.1, 1.4), (0.3, 0.9), (1.0, 0.97)]},
                        AxesSpec(guideline_y=1.0, log_x=True), path)
    assert 'class="guideline"' in path.read_text()


def test_chart_deterministic(tmp_path):
    series = {None: [(d, 1 + d) for d in (0.0, 0.5, 2.0)]}
    axes = AxesSpec(title="t", x_label="x", y_label="y")
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_chart(series, axes, a)
    render_chart(series, axes, b)
    assert a.read_bytes() == b.read_bytes()


def test_chart_escapes_labels(tmp_path):
    path = tmp_path / "esc.svg"
    render_chart({"m < 2 & more": [(0.0, 1.0), (1.0, 2.0)]},
                 AxesSpec(title="R < 1 & more"), path)
    text = path.read_text()
    assert "R &lt; 1 &amp; more" in text
    assert _legend(text) == ["m &lt; 2 &amp; more"]


@pytest.mark.parametrize("guideline", [0.0, -1.0])
def test_chart_leaves_out_guideline_a_log_axis_cannot_show(tmp_path, guideline):
    series = {None: [(d, d) for d in (0.1, 1.0, 10.0)]}
    drawn, plain = tmp_path / "guide.svg", tmp_path / "plain.svg"
    assert render_chart(series, AxesSpec(log_y=True, guideline_y=guideline),
                        drawn)
    assert render_chart(series, AxesSpec(log_y=True), plain)
    assert 'class="guideline"' not in drawn.read_text()
    assert drawn.read_bytes() == plain.read_bytes()


def test_chart_ticks_and_guideline_share_the_points_map(tmp_path):
    path = tmp_path / "map.svg"
    assert render_chart({None: [(0.1, 1.4), (1.0, 1.0), (10.0, 0.8)]},
                        AxesSpec(log_x=True, guideline_y=1.0), path)
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


#: The three charts that `dephnet` draws with --plot, each from fixed
#: series: the branch sweep's legend of deltas, the log-log resistance
#: curve (a delta = 0 point and a diverged one dropped) and the log-x
#: ratio with its guideline at 1.
_CLI_CHARTS = {
    "sweep-branches": (
        {d: [(m, m / (1.0 + d * m * m)) for m in range(1, 11)]
         for d in (0.0, 0.1, 1.0)},
        AxesSpec(x_label="branch count m", y_label="conductance G",
                 title="Conductance vs parallel branches")),
    "sweep-dephasing": (
        {None: [(0.0, math.inf), (1e-3, math.inf)]
         + [(10.0 ** (k / 4), 2.0 + 10.0 ** (k / 4) + 1.0 / 10.0 ** (k / 4))
            for k in range(-8, 9)]},
        AxesSpec(x_label="dephasing rate", y_label="resistance R",
                 title="Resistance vs dephasing: pentagon",
                 log_x=True, log_y=True)),
    "rectify": (
        {None: [(10.0 ** (k / 4), 1.0 + 0.3 * math.tanh(k / 3))
                for k in range(-4, 9)]},
        AxesSpec(x_label="dephasing rate", y_label="forward R / reverse R",
                 title="Rectification ratio", log_x=True, guideline_y=1.0)),
}


@pytest.mark.parametrize("name, digest", [
    ("sweep-branches",
     "b1138d64d45e489f28035c00951f8b95668cfb99be379edd80d09b957e1e73b1"),
    ("sweep-dephasing",
     "1972953f7b6895aec7fc7b790b964790711d51e55fda7440ceac6db425412275"),
    ("rectify",
     "fd36449eef1d3cee6d93bec7e2cfac4d6c59ca95ddabc4a84a8be7d9fcf4c4d8"),
])
def test_cli_chart_bytes_are_pinned(tmp_path, name, digest):
    # a change to any chart's bytes shows here, in one place: change a
    # digest only with a change to the charts that is meant
    series, axes = _CLI_CHARTS[name]
    path = tmp_path / f"{name}.svg"
    assert render_chart(series, axes, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
