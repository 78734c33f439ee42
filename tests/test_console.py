"""The command line as a user runs it: one `python -m dephnet` process
per check, through __main__ and its exit code. These are the checks the
CI workflow's console step made, each with its exact assertion: the
stdout line, the exit code, the one stderr line, no Traceback, and no
file written. Every process runs in its own temporary directory, with
this test run's dephnet first on its path.
"""
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dephnet

_PATH = os.pathsep.join(
    [str(Path(dephnet.__file__).resolve().parents[1])]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

#: A circuit file of parallel m = 6 (8 sites). At delta = 3 the direct
#: solver eliminates Im-coherences whose columns are not dominated.
PARALLEL6 = ("n: 8\nedges: 0-1 0-2 0-3 0-4 0-5 0-6 1-7 2-7 3-7 4-7 5-7 6-7\n"
             "source: 0\nsink: 7\n")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=_PATH)
    return subprocess.run([sys.executable, "-m", "dephnet", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def _one_error_line(proc, prefix: str) -> None:
    """Assert a single stderr line, which starts with prefix: no
    traceback and no numpy warning besides it."""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(prefix), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, line", [
    # R = delta + 1/2 for wire2
    (["ness", "--circuit", "wire2", "--delta", "1e8"], "resistance   100000000.5"),
    # the funnel's exact R = 38947368.544875... to the last printed digit
    (["ness", "--circuit", "funnel", "--delta", "1e8"], "resistance   38947368.5449"),
    # a converged funnel state at strong dephasing
    (["ness", "--circuit", "funnel", "--delta", "1e16"], "status    converged"),
    # the funnel's rectification crossing 0.2251197207... to 6 decimals
    (["rectify", "--delta-grid", "log:0.05:1:9", "--find-crossing",
      "--out", "rect.csv"], "crossing  0.225120"),
    # the shortlist's 3 funnel matches and the 4 insulating pentagon sinks
    (["calibrate", "--search", "funnel"],
     "3 candidates match the rectification targets:"),
    (["calibrate", "--search", "pentagon"],
     "4 sink placements are insulating at delta=0:"),
    # the evolution solver's verdict on wire2
    (["ness", "--circuit", "wire2", "--delta", "1", "--solver", "evolution"],
     "status    converged"),
], ids=["wire2-1e8", "funnel-1e8", "funnel-1e16", "rectify-crossing",
        "calibrate-funnel", "calibrate-pentagon", "evolution-wire2"])
def test_printed_line(args, line, tmp_path):
    proc = _run(tmp_path, *args)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()


def test_wire2_at_unit_dephasing_runs(tmp_path):
    assert _run(tmp_path, "ness", "--circuit", "wire2", "--delta", "1").returncode == 0


@pytest.mark.parametrize("args", [
    ["--config", "run.conf", "sweep-dephasing", "--circuit", "wire2"],
    ["sweep-dephasing", "--circuit", "wire2", "--config", "run.conf"],
], ids=["before-command", "after-command"])
def test_config_option_is_a_usage_error(args, tmp_path):
    # options come from flags alone: a file of defaults is refused
    (tmp_path / "run.conf").write_text("delta-grid: 1,2\n")
    proc = _run(tmp_path, *args)
    assert proc.returncode == 1
    _one_error_line(proc, "usage error: ")
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf"]


def test_parallel6_circuit_file_to_the_last_printed_digit(tmp_path):
    # exact R = 1.40949820788530...
    (tmp_path / "parallel6.circuit").write_text(PARALLEL6)
    proc = _run(tmp_path, "ness", "--circuit", "parallel6.circuit", "--delta", "3")
    assert proc.returncode == 0
    assert "resistance   1.40949820789" in proc.stdout.splitlines()


def test_funnel_coherence_at_strong_dephasing(tmp_path):
    # the exact coherence S = 4.5427172190e-8
    proc = _run(tmp_path, "ness", "--circuit", "funnel", "--delta", "1e8")
    assert proc.returncode == 0
    assert any(re.match(r"coherence +4\.5427172", line)
               for line in proc.stdout.splitlines())


@pytest.mark.parametrize("delta", [1e100, 1e300])
def test_coherence_at_extreme_dephasing(delta, tmp_path):
    # the second-order sum |rho_12|^2 ln(p1 / p2) / (p1 - p2) of wire2's
    # state, p1 = delta + 1/2, p2 = 1/2, |rho_12|^2 = 1/4
    proc = _run(tmp_path, "ness", "--circuit", "wire2", "--delta", f"{delta:g}")
    assert proc.returncode == 0
    printed = [line.split()[1] for line in proc.stdout.splitlines()
               if line.startswith("coherence")]
    expected = 0.25 * math.log(2.0 * delta + 1.0) / delta
    assert float(printed[0]) == pytest.approx(expected, rel=1e-11)


def test_pentagon_has_no_crossing(tmp_path):
    # a symmetry pins its ratio at 1
    proc = _run(tmp_path, "rectify", "--circuit", "pentagon", "--find-crossing",
                "--out", "p.csv")
    assert proc.returncode == 1
    assert "crossing" not in proc.stdout


def test_wire1_ratio_undefined_without_grid_advice(tmp_path):
    proc = _run(tmp_path, "rectify", "--circuit", "wire1", "--find-crossing",
                "--out", "w1r.csv")
    assert proc.returncode == 1
    assert "undefined at every grid point" in proc.stderr
    assert "--delta-grid" not in proc.stderr


def test_evolution_pentagon_diverges_with_exit_two(tmp_path):
    proc = _run(tmp_path, "ness", "--circuit", "pentagon", "--delta", "0",
                "--solver", "evolution")
    assert proc.returncode == 2
    assert "status    diverged" in proc.stdout.splitlines()


def test_chart_omitted_with_its_cause_on_stdout(tmp_path):
    # wire1's R of 0 cannot go on a log axis
    proc = _run(tmp_path, "sweep-dephasing", "--circuit", "wire1", "--plot",
                "--out", "w1.csv")
    assert proc.returncode == 0
    assert ("chart  omitted: no finite point is positive on its log axes"
            in proc.stdout.splitlines())
    assert proc.stderr == ""


@pytest.mark.parametrize("args, line", [
    (["calibrate", "--search", "pentagon", "--full"],
     "usage error: --full applies only with --search funnel"),
    (["ness", "--circuit", "wire2", "--delta", "1", "--tol", "1e-9"],
     "usage error: --tol applies only with --solver evolution"),
], ids=["full-with-pentagon", "tol-with-direct"])
def test_flag_the_run_would_ignore(args, line, tmp_path):
    proc = _run(tmp_path, *args)
    assert proc.returncode == 1
    assert line in proc.stderr.splitlines()


def test_svg_out_with_plot_writes_nothing(tmp_path):
    proc = _run(tmp_path, "sweep-dephasing", "--circuit", "wire2",
                "--delta-grid", "1,2", "--out", "r.svg", "--plot")
    assert proc.returncode == 1
    assert any(line.startswith("usage error: ") for line in proc.stderr.splitlines())
    assert not (tmp_path / "r.svg").exists()


@pytest.mark.parametrize("args, prefix", [
    (["ness", "--circuit", "neg.circuit", "--delta", "1"], "error: "),
    (["rectify", "--delta-grid", "lin:0:inf:3"], "usage error: "),
    (["calibrate", "--search", "additivity", "--max-n", "1"], "error: "),
    # kappa overflows: a typed refusal, with no numpy warning before it
    (["ness", "--circuit", "pentagon", "--delta", "1e-300"], "error: "),
    (["ness", "--circuit", "wire2", "--delta", "1e308"], "error: "),
], ids=["negative-n", "infinite-grid-endpoint", "max-n-below-two",
        "delta-1e-300", "delta-rate-overflows"])
def test_bad_input_is_one_stderr_line(args, prefix, tmp_path):
    (tmp_path / "neg.circuit").write_text("n: -1\nedges:\nsource: 0\nsink: 0\n")
    proc = _run(tmp_path, *args)
    assert proc.returncode == 1
    _one_error_line(proc, prefix)


@pytest.mark.parametrize("args, prefix", [
    (["ness", "--circuit", "wire2", "--delta", "1", "--solver", "evolution",
      "--tol", "inf"], "usage error: "),
    # the propagator overflows: no `trace nan` on stdout, no CSV
    (["evolve", "--circuit", "wire2", "--delta", "1", "--t-end", "1e100",
      "--samples", "2"], "error: "),
    (["entropy-trace", "--circuit", "wire2", "--t-end", "1e300", "--samples",
      "3", "--out", "ovf.csv"], "error: "),
], ids=["infinite-tol", "evolve-overflow", "entropy-trace-overflow"])
def test_refusal_writes_nothing(args, prefix, tmp_path):
    proc = _run(tmp_path, *args)
    assert proc.returncode == 1
    _one_error_line(proc, prefix)
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []
