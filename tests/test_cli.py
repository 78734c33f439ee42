import re
from pathlib import Path

import pytest

from dephnet import (UsageError, find_ratio_crossing, funnel_ratio,
                     funnel_shortlist, main, parse_config, parse_delta_grid,
                     rectification_sweep, write_circuit_file)
from dephnet.cli import RunConfig
from dephnet.experiments import _ratio_flips


# --- flag parsing -----------------------------------------------------------


def test_parse_minimal_ness():
    cfg = parse_config(["ness", "--circuit", "wire2", "--delta", "0"])
    assert cfg == RunConfig(command="ness", circuit="wire2", delta=0.0)
    assert cfg.solver == "direct"


def test_parse_rectify_grid():
    cfg = parse_config(["rectify", "--delta-grid", "log:1e-3:50:40"])
    grid = cfg.delta_grid
    assert grid == parse_delta_grid("log:1e-3:50:40")
    assert len(grid) == 40
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(50.0)


def test_parse_delta_grid_log_spacing():
    grid = parse_delta_grid("log:0.01:100:5")
    ratios = [grid[i + 1] / grid[i] for i in range(4)]
    assert all(r == pytest.approx(10.0) for r in ratios)


def test_parse_delta_grid_linear_and_list():
    assert parse_delta_grid("lin:0:2:5") == (0.0, 0.5, 1.0, 1.5, 2.0)
    assert parse_delta_grid("0.1, 0.5, 2") == (0.1, 0.5, 2.0)


@pytest.mark.parametrize("text", [
    "log:1e-3:50",        # missing count
    "log:0:50:10",        # log cannot start at zero
    "lin:0:1:0",          # empty grid
    "lin:a:1:5",          # non-numeric bound
    "one,two",            # non-numeric list
    "",                   # nothing at all
    "1,2,-1",             # negative dephasing strength
    "lin:-1:1:3",         # grid reaching below zero
    "1,nan",              # not a number
    "lin:0:inf:3",        # infinite endpoint, refused before spacing
    "log:1:1e400:3",      # endpoint that overflows to inf
])
def test_parse_delta_grid_rejects(text):
    with pytest.raises(UsageError):
        parse_delta_grid(text)


@pytest.mark.parametrize("grid", ["lin:0:inf:3", "log:1:1e400:3"])
def test_infinite_grid_endpoint_is_one_usage_error_line(grid, capsys):
    # the suite turns warnings into errors, so a numpy warning would
    # surface here as a RuntimeWarning instead of the usage error
    assert main(["rectify", "--delta-grid", grid]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"usage error: argument --delta-grid: grid "
                            f"endpoints must be finite, got {grid!r}\n")


def test_unknown_flag_is_usage_error():
    with pytest.raises(UsageError):
        parse_config(["ness", "--circuit", "wire2", "--frobnicate"])


def test_missing_command_is_usage_error():
    with pytest.raises(UsageError, match="command"):
        parse_config([])


# --- option rules -----------------------------------------------------------


@pytest.mark.parametrize("argv, flags", [
    (["calibrate", "--search", "pentagon", "--full"],
     "--full applies only with --search funnel"),
    (["calibrate", "--search", "funnel", "--max-n", "3"],
     "--max-n applies only with --search additivity"),
    (["ness", "--circuit", "wire2", "--delta", "1", "--tol", "5"],
     "--tol applies only with --solver evolution"),
    (["ness", "--circuit", "wire2", "--delta", "1", "--t-max", "1"],
     "--t-max applies only with --solver evolution"),
], ids=["full-pentagon", "max-n-funnel", "tol-direct", "t-max-direct"])
def test_flag_the_run_would_ignore_is_usage_error(argv, flags, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: {flags}\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--solver", "quantum", "invalid choice: 'quantum' "
     "(choose from 'direct', 'evolution')"),
    ("--delta", "abc", "invalid float value: 'abc'"),
    ("--t-max", "soon", "invalid float value: 'soon'"),
], ids=["choice", "float", "float-only-with"])
def test_bad_flag_value_names_the_flag(flag, value, message, capsys):
    # refused by the parser, before any only_with rule or solve
    assert main(["ness", "--circuit", "wire2", "--delta", "1",
                 flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: argument {flag}: {message}\n"


@pytest.mark.parametrize("argv, flag, message", [
    (["calibrate", "--search", "nosuch"], "--search",
     "invalid choice: 'nosuch' (choose from 'pentagon', 'additivity', "
     "'funnel')"),
    (["evolve", "--circuit", "wire2", "--delta", "1", "--initial", "bogus"],
     "--initial",
     "invalid choice: 'bogus' (choose from 'empty', 'uniform', 'source')"),
    (["sweep-branches", "--m-max", "x"], "--m-max", "invalid int value: 'x'"),
    (["entropy-trace", "--circuit", "wire2", "--samples", "2.5"],
     "--samples", "invalid int value: '2.5'"),
    (["calibrate", "--search", "additivity", "--max-n", "five"], "--max-n",
     "invalid int value: 'five'"),
], ids=["search", "initial", "m-max", "samples", "max-n"])
def test_bad_flag_value_of_each_kind_names_the_flag(argv, flag, message,
                                                    capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: argument {flag}: {message}\n"


def test_equals_form_reads_as_the_spaced_form():
    spaced = parse_config(["ness", "--circuit", "wire3", "--delta", "2.0"])
    assert parse_config(["ness", "--circuit=wire3", "--delta=2.0"]) == spaced
    assert (spaced.circuit, spaced.delta) == ("wire3", 2.0)


def test_boolean_flags_are_off_unless_given():
    cfg = parse_config(["rectify"])
    assert (cfg.plot, cfg.find_crossing) == (False, False)
    cfg = parse_config(["rectify", "--plot", "--find-crossing"])
    assert (cfg.plot, cfg.find_crossing) == (True, True)


def test_flags_that_apply_are_accepted():
    cfg = parse_config(["ness", "--circuit", "wire2", "--delta", "1",
                        "--solver", "evolution", "--tol", "1e-9"])
    assert (cfg.solver, cfg.tol) == ("evolution", 1e-9)
    cfg = parse_config(["calibrate", "--search", "additivity", "--max-n", "5"])
    assert cfg.max_n == 5


@pytest.mark.parametrize("argv", [
    ["sweep-dephasing", "--circuit", "wire2", "--delta-grid", "1,2"],
    ["sweep-branches", "--m-max", "2", "--delta-grid", "1"],
    ["rectify", "--delta-grid", "0.1,1"],
    ["entropy-trace", "--circuit", "wire2", "--t-end", "1"],
], ids=["sweep-dephasing", "sweep-branches", "rectify", "entropy-trace"])
def test_svg_out_with_plot_is_refused_before_solving(argv, tmp_path,
                                                     monkeypatch, capsys):
    # the chart's path is the CSV's with suffix .svg: it would overwrite it
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "r.svg", "--plot"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: --out r.svg is where --plot writes "
                            "the chart; give the CSV another suffix\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text, line, message", [
    ("n: 2\nedges: 0-1\nsource: 0\nsink: 1\nN: 3\n", 5,
     "duplicate field 'n'"),
    ("n: 2\n\nedges 0-1\nsource: 0\nsink: 1\n", 3, "expected 'key: value'"),
], ids=["repeated-key", "no-colon"])
def test_circuit_file_bad_line_names_file_and_line(tmp_path, capsys, text,
                                                   line, message):
    path = tmp_path / "bad.circuit"
    path.write_text(text)
    assert main(["ness", "--circuit", str(path), "--delta", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}:{line}: {message}")


# --- help -----------------------------------------------------------------

_FLAGS = {
    "ness": ["--circuit", "--delta", "--solver", "--tol", "--t-max"],
    "evolve": ["--circuit", "--delta", "--t-end", "--samples", "--initial",
               "--out"],
    "sweep-branches": ["--m-max", "--branch-length", "--delta-grid", "--out",
                       "--plot"],
    "sweep-dephasing": ["--circuit", "--delta-grid", "--out", "--plot"],
    "rectify": ["--circuit", "--delta-grid", "--find-crossing", "--out",
                "--plot"],
    "entropy-trace": ["--circuit", "--delta", "--t-end", "--samples", "--out",
                      "--plot"],
    "calibrate": ["--search", "--max-n", "--full"],
}


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_help_names_every_flag(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in _FLAGS[command]:
        assert flag in out
    assert "--config" not in out
    if "--circuit" in _FLAGS[command]:
        # builtin_names() already lists the wire<N> family
        assert out.count("wire") == 1


def test_top_level_help_lists_no_config(capsys):
    # options belong to the commands; there is no file of defaults
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--config" not in capsys.readouterr().out


#: a run of each command that parses, to which --config is added
_MINIMAL = {
    "ness": ["ness", "--circuit", "wire2", "--delta", "1"],
    "evolve": ["evolve", "--circuit", "wire2", "--delta", "1"],
    "sweep-branches": ["sweep-branches", "--m-max", "2"],
    "sweep-dephasing": ["sweep-dephasing", "--circuit", "wire2"],
    "rectify": ["rectify"],
    "entropy-trace": ["entropy-trace", "--circuit", "wire2"],
    "calibrate": ["calibrate", "--search", "pentagon"],
}


@pytest.mark.parametrize("form", [["--config", "run.conf"],
                                  ["--config=run.conf"]],
                         ids=["spaced", "equals"])
@pytest.mark.parametrize("command", sorted(_MINIMAL))
def test_config_after_the_command_is_unrecognized(command, form, tmp_path,
                                                  monkeypatch, capsys):
    # no subparser declares --config: options come from flags alone
    monkeypatch.chdir(tmp_path)
    Path("run.conf").write_text("delta: 2\n")
    assert main(_MINIMAL[command] + form) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"usage error: unrecognized arguments: {' '.join(form)}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]


@pytest.mark.parametrize("form", [["--config", "run.conf"],
                                  ["--config=run.conf"]],
                         ids=["spaced", "equals"])
def test_config_before_the_command_is_a_usage_error(form, tmp_path,
                                                    monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("run.conf").write_text("delta: 2\n")
    assert main(form + _MINIMAL["ness"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert "run.conf" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]


#: every default that a command's --help prints, by flag
_HELP_DEFAULTS = {
    "ness": {"--solver": "direct"},
    "evolve": {"--samples": "201", "--initial": "empty"},
    "sweep-branches": {"--m-max": "10", "--branch-length": "1",
                       "--out": "branch_sweep.csv"},
    "sweep-dephasing": {"--out": "dephasing_sweep.csv"},
    "rectify": {"--out": "rectification.csv"},
    "entropy-trace": {"--delta": "0.0", "--t-end": "25.0", "--samples": "201",
                      "--out": "entropy_trace.csv"},
    "calibrate": {"--max-n": "6"},
}


@pytest.mark.parametrize("command", sorted(_HELP_DEFAULTS))
def test_help_prints_each_default(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    # one segment per option, whatever the terminal width wrapped
    text = " ".join(capsys.readouterr().out.split())
    segments = re.split(r" (?=--[a-z])", text)
    for flag, default in _HELP_DEFAULTS[command].items():
        segment = next(s for s in segments if s.startswith(flag + " "))
        assert segment.endswith(f"(default {default})"), segment
    assert text.count("(default ") == len(_HELP_DEFAULTS[command])


# --- exit codes and end-to-end runs -----------------------------------------


def test_ness_converged_exits_zero(capsys):
    code = main(["ness", "--circuit", "wire2", "--delta", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status    converged" in out
    assert "resistance   1.5" in out


def test_ness_divergence_exits_two(capsys):
    code = main(["ness", "--circuit", "pentagon", "--delta", "0"])
    out = capsys.readouterr().out
    assert code == 2
    assert "diverged" in out


def test_ness_reports_backward_error(capsys):
    code = main(["ness", "--circuit", "pentagon", "--delta", "1e4"])
    out = capsys.readouterr().out
    assert code == 0
    eta = float(out.split("backward error")[1].split()[0])
    assert eta <= 1e-15


def test_ness_reports_condition(capsys):
    assert main(["ness", "--circuit", "wire2", "--delta", "1"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("condition")[1].split()[0]) >= 1
    assert main(["ness", "--circuit", "wire2", "--delta", "1",
                 "--solver", "evolution"]) == 0
    assert "condition" not in capsys.readouterr().out


def test_unknown_circuit_exits_one(capsys):
    code = main(["ness", "--circuit", "nosuch", "--delta", "0"])
    assert code == 1
    assert "nosuch" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sweep-dephasing", "--circuit", "wire2", "--delta-grid", "1", "--out",
      "absent/x.csv"], "No such file or directory"),
    (["ness", "--circuit", ".", "--delta", "1"], "Is a directory"),
], ids=["missing-output-dir", "directory-as-circuit"])
def test_file_system_error_exits_one(argv, message, tmp_path, monkeypatch,
                                     capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_bad_grid_exits_one(capsys):
    code = main(["sweep-dephasing", "--circuit", "wire2",
                 "--delta-grid", "log:0:1:5"])
    assert code == 1
    assert "positive" in capsys.readouterr().err


def test_missing_required_flag_exits_one(capsys):
    code = main(["ness", "--delta", "0"])
    assert code == 1
    assert "--circuit" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["evolve", "--circuit", "wire2", "--delta", "0", "--t-end", "-1"],
    ["entropy-trace", "--circuit", "wire2", "--samples", "0"],
    ["ness", "--circuit", "wire2", "--delta", "1", "--solver", "evolution",
     "--tol", "0"],
    ["ness", "--circuit", "wire2", "--delta", "nan"],
    ["ness", "--circuit", "wire2", "--delta", "inf"],
    ["sweep-dephasing", "--circuit", "wire2", "--delta-grid", "1,nan"],
    ["evolve", "--circuit", "wire2", "--delta", "1", "--t-end", "1",
     "--samples", "1"],
    ["entropy-trace", "--circuit", "wire2", "--samples", "1"],
    ["ness", "--circuit", "wire2", "--delta", "1", "--solver", "evolution",
     "--tol", "inf"],
    ["ness", "--circuit", "wire2", "--delta", "1", "--solver", "evolution",
     "--tol", "nan"],
], ids=["negative-t-end", "zero-samples", "zero-tol", "nan-delta",
        "inf-delta", "nan-in-grid", "one-sample-evolve", "one-sample-trace",
        "inf-tol", "nan-tol"])
def test_bad_numbers_exit_one(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(("usage error: ", "error: "))


@pytest.mark.parametrize("argv", [
    ["evolve", "--circuit", "wire2", "--delta", "1", "--t-end", "1e100",
     "--samples", "2"],
    ["entropy-trace", "--circuit", "wire2", "--t-end", "1e300",
     "--samples", "3"],
], ids=["evolve", "entropy-trace"])
def test_overflowing_trajectory_exits_one_without_output(argv, tmp_path,
                                                         monkeypatch, capsys):
    # the propagator over such a span overflows to NaN and infinities,
    # which the physicality check refuses instead of printing "trace nan"
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: NaN or infinite entry at t=")
    assert len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_ness_prints_readme_block(capsys):
    # README's example, read from the document so the two cannot drift
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("$ dephnet ness --circuit wire2 --delta 1\n")[1]
    block = block.split("```")[0]
    assert block.startswith("circuit   wire2\n")
    assert block.endswith("coherence        0.2411198428\n")
    assert len(block.splitlines()) == 13
    assert main(["ness", "--circuit", "wire2", "--delta", "1"]) == 0
    assert capsys.readouterr().out == block


def test_evolve_writes_trajectory(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["evolve", "--circuit", "wire2", "--delta", "0",
                 "--t-end", "5", "--samples", "11", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,trace,source_pop,sink_pop,coherence"
    assert len(lines) == 12
    assert "sink pop" in capsys.readouterr().out


def test_ness_evolution_out_of_time_is_inconclusive(capsys):
    # the budget rounds up to one window of 20, too short for 1e-9
    code = main(["ness", "--circuit", "wire2", "--delta", "1",
                 "--solver", "evolution", "--t-max", "0.5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "status    max-time-exceeded\n" in out
    assert out.endswith("verdict   inconclusive within the time budget\n")


@pytest.mark.parametrize("initial, source_pop", [("uniform", 1 / 3),
                                                 ("source", 1.0)])
def test_evolve_initial_states(initial, source_pop, tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--circuit", "wire3", "--delta", "1", "--t-end",
                 "1", "--samples", "3", "--initial", initial,
                 "--out", str(out)]) == 0
    first = [float(x) for x in out.read_text().splitlines()[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(1.0, abs=1e-15)
    assert first[2] == pytest.approx(source_pop, abs=1e-15)


def test_sweep_branches_writes_csv_and_chart(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["sweep-branches", "--m-max", "3", "--delta-grid", "0,1",
                 "--plot"])
    assert code == 0
    csv_lines = (tmp_path / "branch_sweep.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 3 * 2
    assert (tmp_path / "branch_sweep.svg").exists()
    capsys.readouterr()


def test_sweep_converges_at_strong_dephasing(tmp_path, monkeypatch, capsys):
    # wire2 has R = delta + 1/2, and the direct solver keeps every digit
    # of it far into the classical regime
    monkeypatch.chdir(tmp_path)
    code = main(["sweep-dephasing", "--circuit", "wire2",
                 "--delta-grid", "1,1e8,1e12", "--out", "wire2.csv"])
    assert code == 0
    rows = [line.split(",") for line in
            (tmp_path / "wire2.csv").read_text().splitlines()[1:]]
    assert [row[4] for row in rows] == ["1.5000000000000000e+00",
                                        "1.0000000050000000e+08",
                                        "1.0000000000005000e+12"]
    assert [row[7] for row in rows] == ["converged"] * 3
    capsys.readouterr()


def test_sweep_refusal_exits_one_without_csv(tmp_path, monkeypatch, capsys):
    # two or more parallel branches at 1e-15 leave the state no
    # significant digit: the sweep stops with the solver's error
    monkeypatch.chdir(tmp_path)
    code = main(["sweep-branches", "--m-max", "6", "--delta-grid", "1e-15"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert "significant digit" in captured.err
    assert "wrote" not in captured.out
    assert not (tmp_path / "branch_sweep.csv").exists()


def test_rectify_reports_bracket(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["rectify", "--delta-grid", "0.1,0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "crosses 1 between delta 0.1 and 0.5" in out
    assert (tmp_path / "rectification.csv").exists()


# the funnel's ratio crosses 1 once, at delta* = 0.2251197207579...
FUNNEL_CROSSING_LINE = "crossing  0.225120"


def test_rectify_find_crossing_on_a_two_point_grid(tmp_path, monkeypatch,
                                                    capsys):
    # a grid of two points is the bracket of the bisection
    monkeypatch.chdir(tmp_path)
    code = main(["rectify", "--delta-grid", "0.1,0.5", "--find-crossing"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == FUNNEL_CROSSING_LINE


def test_rectify_default_grid_prints_crossing_to_six_decimals(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["rectify", "--find-crossing"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("crossing")] == [
        FUNNEL_CROSSING_LINE]


def test_rectify_prints_every_crossing_in_delta_order(
        tmp_path, monkeypatch, capsys):
    # kite-lead's ratio crosses 1 twice; each printed crossing lies
    # within CROSSING_TOL of a far finer bisection on its own sign change
    kite = {c.label: c for c in funnel_shortlist()}["kite-lead"]
    write_circuit_file(kite, tmp_path / "kite.circuit")
    monkeypatch.chdir(tmp_path)
    grid = "log:0.01:10:40"
    assert main(["rectify", "--circuit", "kite.circuit", "--delta-grid", grid,
                 "--find-crossing"]) == 0
    printed = [float(line.split()[1])
               for line in capsys.readouterr().out.splitlines()
               if line.startswith("crossing")]
    _, series = rectification_sweep(parse_delta_grid(grid), circuit=kite)
    flips = _ratio_flips(series)
    assert len(flips) == 2 and printed == sorted(printed)
    for crossing, flip in zip(printed, flips):
        fine = find_ratio_crossing(flip, 1e-12,
                                   lambda d: funnel_ratio(d, kite))
        assert abs(crossing - fine) <= 1e-6, (crossing, fine)


def test_rectify_no_sign_change_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["rectify", "--delta-grid", "0.01,0.05", "--find-crossing"])
    assert code == 1
    assert "--delta-grid" in capsys.readouterr().err


def test_rectify_refuses_crossing_where_ratio_is_undefined(
        tmp_path, monkeypatch, capsys):
    # the funnel insulates both ways at delta = 0, so the ratio there is
    # undefined and brackets no crossing
    monkeypatch.chdir(tmp_path)
    code = main(["rectify", "--delta-grid", "0,0.2", "--find-crossing"])
    captured = capsys.readouterr()
    assert code == 1
    assert "crossing " not in captured.out
    assert "where it is defined" in captured.err
    # a one-site wire has reverse R = 0: the ratio is undefined, not a
    # division error
    code = main(["rectify", "--circuit", "wire1", "--delta-grid", "0.1,1",
                 "--find-crossing"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    # and no grid can define it, so no grid advice is given
    assert "undefined at every grid point" in captured.err
    assert "--delta-grid" not in captured.err


def test_ratio_flips_skip_rounding_noise_about_one():
    # a symmetry pins the ratio at 1; its last-bit wobble is no flip
    series = [(0.1, 1.0 + 4e-16), (0.2, 1.0 - 4e-16), (0.3, 1.0 + 4e-16),
              (0.4, 1.0 - 4e-16)]
    assert _ratio_flips(series) == []
    # a noise point between two sided points is skipped, not a bracket end
    assert _ratio_flips([(0.1, 0.9), (0.2, 1.0 + 4e-16), (0.3, 1.1)]) == [
        (0.1, 0.3)]


def test_rectify_symmetric_device_reports_no_crossing(
        tmp_path, monkeypatch, capsys):
    # a reflection of the pentagon swaps source and sink, so its ratio
    # is 1 to rounding on the whole default grid
    monkeypatch.chdir(tmp_path)
    code = main(["rectify", "--circuit", "pentagon", "--find-crossing"])
    captured = capsys.readouterr()
    assert code == 1
    assert "crossing" not in captured.out
    assert "rounding of 1" in captured.err
    # no grid would help, so none is suggested
    assert "--delta-grid" not in captured.err


def test_plot_without_plottable_point_names_the_cause(
        tmp_path, monkeypatch, capsys):
    # wire1's R is 0 at every delta, which a log axis cannot show, and
    # its reverse R is 0 too, which leaves its ratio undefined everywhere
    monkeypatch.chdir(tmp_path)
    for argv, line in (
            (["sweep-dephasing", "--circuit", "wire1", "--plot"],
             "chart  omitted: no finite point is positive on its log axes"),
            (["rectify", "--circuit", "wire1", "--plot"],
             "chart  omitted: no point is finite on both axes")):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert line in captured.out.splitlines()
        assert captured.err == ""
    assert not list(tmp_path.glob("*.svg"))


def test_rectify_solves_each_point_once(tmp_path, monkeypatch, capsys):
    # the bisection reads its bracket ends from the sweep's ratio series
    import dephnet.experiments as experiments
    solved = []
    solve = experiments.solve_ness_direct

    def counting_solve(g):
        c = g.circuit
        solved.append((c.graph.edges, c.source, c.sink, float(g.delta)))
        return solve(g)

    monkeypatch.setattr(experiments, "solve_ness_direct", counting_solve)
    monkeypatch.chdir(tmp_path)
    assert main(["rectify", "--delta-grid", "0.1,0.5", "--find-crossing"]) == 0
    capsys.readouterr()
    assert len(solved) == len(set(solved))


@pytest.mark.parametrize("flags", [["--crossing-tol", "0"],
                                   ["--bracket", "0.5,0.1"],
                                   ["--bracket", "x"],
                                   ["--bracket", "0.1,0.5"],
                                   ["--crossing-tol", "1e-3"]])
def test_rectify_rejects_bisection_settings_before_sweeping(
        tmp_path, monkeypatch, capsys, flags):
    # the grid is the bracket and the tolerance is fixed: --bracket and
    # --crossing-tol are unknown, whatever their value, and refused
    # before any solve
    monkeypatch.chdir(tmp_path)
    code = main(["rectify", "--delta-grid", "0.1,0.5", "--find-crossing",
                 *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("usage error: unrecognized arguments: --")
    assert "wrote" not in captured.out
    assert not (tmp_path / "rectification.csv").exists()


@pytest.mark.parametrize("flags", [
    ["--bracket", "0.1,0.5"],
    ["--crossing-tol", "1e-3"],
    ["--bracket", "0.1,0.5", "--crossing-tol", "0"],
    ["--crossing-tol", "0"],
], ids=["bracket", "tol", "bracket-zero-tol", "zero-tol"])
def test_rectify_rejects_bisection_settings_without_find_crossing(
        tmp_path, monkeypatch, capsys, flags):
    # the removed bisection settings are refused without --find-crossing
    # too, before any solve
    monkeypatch.chdir(tmp_path)
    code = main(["rectify", "--delta-grid", "0.1,0.5", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("usage error: ")
    assert "wrote" not in captured.out
    assert not (tmp_path / "rectification.csv").exists()


@pytest.mark.parametrize("bracket", ["1,0.5", "0.2,0.2", "x", "0.1,0.2,0.3",
                                     "-1,0.5", "0.1,inf"])
def test_rectify_refuses_a_removed_flag_whatever_its_value(
        tmp_path, monkeypatch, capsys, bracket):
    # a bad --bracket is refused as unknown, like a good one, even when
    # no crossing is searched for
    monkeypatch.chdir(tmp_path)
    code = main(["rectify", "--delta-grid", "0.1,0.5", "--bracket", bracket])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(
        "usage error: unrecognized arguments: --bracket")
    assert "wrote" not in captured.out
    assert not (tmp_path / "rectification.csv").exists()


def test_entropy_trace_writes_csv(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["entropy-trace", "--circuit", "wire2", "--delta", "0",
                 "--t-end", "2", "--samples", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,coherence"
    assert len(lines) == 6
    capsys.readouterr()


def test_directory_named_like_builtin_does_not_shadow_it(
        tmp_path, monkeypatch, capsys):
    (tmp_path / "funnel").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["ness", "--circuit", "funnel", "--delta", "1"]) == 0
    assert "status    converged" in capsys.readouterr().out


def test_calibrate_pentagon_lists_matches(capsys):
    code = main(["calibrate", "--search", "pentagon"])
    out = capsys.readouterr().out
    assert code == 0
    assert "4 sink placements" in out


def test_calibrate_funnel_lists_shortlist_matches(capsys):
    code = main(["calibrate", "--search", "funnel"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "3 candidates match the rectification targets:"
    assert [line.split(":")[0].strip() for line in lines[1:]] == [
        "runner-up-2", "runner-up-1", "triangle"]


def test_calibrate_additivity_reports_no_usable_pair(capsys):
    code = main(["calibrate", "--search", "additivity", "--max-n", "5"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "1 pairs matched up to n=5 (0 non-degenerate)"
    assert lines[-1] == ("no usable pair at this size; the shipped pair "
                         "needed eight sites")


def test_calibrate_additivity_past_the_atlas_exits_one(capsys):
    assert main(["calibrate", "--search", "additivity", "--max-n", "8"]) == 1
    assert "atlas enumeration covers up to 7 sites" in capsys.readouterr().err
    # below two sites the search has no graph to try
    for max_n in ("1", "-3"):
        assert main(["calibrate", "--search", "additivity", "--max-n", max_n]) == 1
        assert capsys.readouterr() == (
            "", "error: max_n of the atlas enumeration must be an integer "
            f"of at least 2, got {max_n}\n")
