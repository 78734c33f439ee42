"""scipy and networkx load on first use, not with the package: a direct
solve runs on numpy alone, and the commands that do need them still
work. scipy.integrate never loads: both forms of evolve use the exact
propagator of scipy.linalg.expm. Checked in a fresh interpreter, since
this test session has imported all of them long before."""
import json
import os
import subprocess
import sys
from pathlib import Path

import dephnet

CHILD = r"""
import contextlib, io, json, sys

def heavy():
    return sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "networkx"})

import dephnet
report = {"after_import": heavy()}
with contextlib.redirect_stdout(io.StringIO()) as out:
    report["ness_code"] = dephnet.main(["ness", "--circuit", "wire2", "--delta", "1"])
report["ness_out"] = out.getvalue()
report["after_ness"] = heavy()

g = dephnet.assemble_generator(dephnet.make_wire(2), 1.0,
                               form=dephnet.EXPLICIT_BATH)
traj = dephnet.evolve(g, dephnet.empty_state(g), 2.0, samples=5)
report["evolve_trace"] = float(traj.trace_series[-1])
report["integrate_loaded"] = "scipy.integrate" in sys.modules

with contextlib.redirect_stdout(io.StringIO()) as out:
    report["calibrate_code"] = dephnet.main(
        ["calibrate", "--search", "additivity", "--max-n", "5"])
report["calibrate_out"] = out.getvalue()
print(json.dumps(report))
"""

ADDITIVITY_MAX_N_5 = """\
1 pairs matched up to n=5 (0 non-degenerate)
  A [degenerate]: candidate-a: n=5 source=2 sink=0 edges: 0-1 1-3 1-4 2-3 2-4
  B [degenerate]: candidate-b: n=5 source=2 sink=0 edges: 0-1 1-3 1-4 2-3 2-4 3-4
no usable pair at this size; the shipped pair needed eight sites
"""


def test_scipy_and_networkx_load_only_where_called():
    src = str(Path(dephnet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["after_import"] == []
    assert report["ness_code"] == 0
    assert "resistance   1.5\n" in report["ness_out"]
    assert report["after_ness"] == []
    assert report["evolve_trace"] > 0
    assert not report["integrate_loaded"]
    assert report["calibrate_code"] == 0
    assert report["calibrate_out"] == ADDITIVITY_MAX_N_5
