import math
import warnings

import pytest

from dephnet import AxesSpec, SweepRecord, render_chart, write_records
from dephnet.experiments import sweep_branch_count
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


def test_ill_conditioned_row_leaves_numbers_empty(tmp_path):
    path = tmp_path / "ill.csv"
    write_records([SweepRecord("wire2", 1e8, "forward", None, R=math.nan,
                               G=math.nan, coherence=None,
                               status="ill-conditioned")], path)
    fields = path.read_text().splitlines()[1].split(",")
    assert fields[4:] == ["", "", "", "ill-conditioned"]


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


def test_chart_single_point_gets_marker(tmp_path):
    path = tmp_path / "single.svg"
    assert render_chart([_converged()],
                        AxesSpec(x_field="delta", y_field="G"), path)
    svg = path.read_text()
    assert "<circle" in svg
    assert "<polyline" not in svg


def test_chart_all_diverged_warns_and_omits(tmp_path):
    path = tmp_path / "nothing.svg"
    with pytest.warns(UserWarning, match="chart omitted"):
        written = render_chart([_diverged(), _diverged(delta=1.0)],
                               AxesSpec(x_field="delta", y_field="R"), path)
    assert not written
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
