import math

import pytest

from dephnet import UsageError, main, parse_config, parse_delta_grid
from dephnet.cli import RunConfig


# --- flag parsing -----------------------------------------------------------


def test_parse_minimal_ness():
    cfg = parse_config(["ness", "--circuit", "wire2", "--delta", "0"])
    assert cfg == RunConfig(command="ness", circuit="wire2", delta=0.0)
    assert cfg.solver == "direct"


def test_parse_rectify_grid():
    cfg = parse_config(["rectify", "--delta-grid", "log:1e-3:50:40"])
    grid = parse_delta_grid(cfg.delta_grid)
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
])
def test_parse_delta_grid_rejects(text):
    with pytest.raises(UsageError):
        parse_delta_grid(text)


def test_unknown_flag_is_usage_error():
    with pytest.raises(UsageError):
        parse_config(["ness", "--circuit", "wire2", "--frobnicate"])


def test_missing_command_is_usage_error():
    with pytest.raises(UsageError, match="command"):
        parse_config([])


# --- config files -----------------------------------------------------------


def test_config_file_supplies_defaults(tmp_path):
    cfgfile = tmp_path / "run.conf"
    cfgfile.write_text("# defaults\ncircuit: wire3\ndelta: 2.0\nt-max: 50\n")
    cfg = parse_config(["ness", "--config", str(cfgfile)])
    assert cfg.circuit == "wire3"
    assert cfg.delta == 2.0
    assert cfg.t_max == 50.0


def test_flags_override_config_file(tmp_path):
    cfgfile = tmp_path / "run.conf"
    cfgfile.write_text("circuit: wire3\ndelta: 5.0\n")
    cfg = parse_config(["ness", "--config", str(cfgfile), "--delta", "1.0"])
    assert cfg.circuit == "wire3"
    assert cfg.delta == 1.0


def test_config_accepted_after_subcommand(tmp_path):
    cfgfile = tmp_path / "run.conf"
    cfgfile.write_text("delta: 0.25\n")
    cfg = parse_config(["ness", "--circuit", "wire2",
                        "--config", str(cfgfile)])
    assert cfg.delta == 0.25


def test_config_rejects_unknown_key(tmp_path):
    cfgfile = tmp_path / "run.conf"
    cfgfile.write_text("volume: 11\n")
    with pytest.raises(UsageError, match="volume"):
        parse_config(["ness", "--config", str(cfgfile)])


def test_config_rejects_bad_choice(tmp_path):
    cfgfile = tmp_path / "run.conf"
    cfgfile.write_text("solver: quantum\n")
    with pytest.raises(UsageError, match="solver"):
        parse_config(["ness", "--config", str(cfgfile)])


def test_config_boolean_coercion(tmp_path):
    cfgfile = tmp_path / "run.conf"
    cfgfile.write_text("plot: yes\n")
    assert parse_config(["rectify", "--config", str(cfgfile)]).plot is True
    cfgfile.write_text("plot: maybe\n")
    with pytest.raises(UsageError, match="boolean"):
        parse_config(["rectify", "--config", str(cfgfile)])


def test_config_missing_file(tmp_path):
    with pytest.raises(UsageError, match="cannot read"):
        parse_config(["ness", "--config", str(tmp_path / "absent.conf")])


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


def test_unknown_circuit_exits_one(capsys):
    code = main(["ness", "--circuit", "nosuch", "--delta", "0"])
    assert code == 1
    assert "nosuch" in capsys.readouterr().err


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
], ids=["negative-t-end", "zero-samples", "zero-tol", "nan-delta",
        "inf-delta", "nan-in-grid"])
def test_bad_numbers_exit_one(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(("usage error: ", "error: "))


def test_evolve_writes_trajectory(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["evolve", "--circuit", "wire2", "--delta", "0",
                 "--t-end", "5", "--samples", "11", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,trace,source_pop,sink_pop,coherence"
    assert len(lines) == 12
    assert "sink pop" in capsys.readouterr().out


def test_sweep_branches_writes_csv_and_chart(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["sweep-branches", "--m-max", "3", "--delta-grid", "0,1",
                 "--plot"])
    assert code == 0
    csv_lines = (tmp_path / "branch_sweep.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 3 * 2
    assert (tmp_path / "branch_sweep.svg").exists()
    capsys.readouterr()


def test_sweep_keeps_ill_conditioned_point(tmp_path, monkeypatch, capsys):
    # wire2 at delta = 1e8 is past the direct solver's conditioning limit;
    # the row is recorded without numbers instead of aborting the sweep
    monkeypatch.chdir(tmp_path)
    code = main(["sweep-dephasing", "--circuit", "wire2",
                 "--delta-grid", "1,1e8", "--out", "wire2.csv"])
    assert code == 0
    rows = [line.split(",") for line in
            (tmp_path / "wire2.csv").read_text().splitlines()[1:]]
    assert len(rows) == 2
    assert rows[0][7] == "converged"
    assert float(rows[0][4]) == pytest.approx(1.5)
    assert rows[1][4:] == ["", "", "", "ill-conditioned"]
    capsys.readouterr()


def test_rectify_reports_bracket(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["rectify", "--delta-grid", "0.1,0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "crosses 1 between delta 0.1 and 0.5" in out
    assert (tmp_path / "rectification.csv").exists()


def test_rectify_find_crossing_with_bracket(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["rectify", "--delta-grid", "0.1,0.5", "--find-crossing",
                 "--bracket", "0.1,0.5", "--crossing-tol", "1e-3"])
    out = capsys.readouterr().out
    assert code == 0
    crossing = float(out.split("crossing")[-1])
    assert math.isclose(crossing, 0.2251, abs_tol=2e-3)


def test_rectify_no_sign_change_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["rectify", "--delta-grid", "0.01,0.05", "--find-crossing"])
    assert code == 1
    assert "--bracket" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--crossing-tol", "0"],
                                   ["--bracket", "0.5,0.1"],
                                   ["--bracket", "x"]])
def test_rectify_rejects_bisection_settings_before_sweeping(
        tmp_path, monkeypatch, capsys, flags):
    monkeypatch.chdir(tmp_path)
    code = main(["rectify", "--delta-grid", "0.1,0.5", "--find-crossing",
                 *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert "usage error" in captured.err
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


def test_calibrate_pentagon_lists_matches(capsys):
    code = main(["calibrate", "--search", "pentagon"])
    out = capsys.readouterr().out
    assert code == 0
    assert "4 sink placements" in out
