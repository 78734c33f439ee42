"""dephnet benchmark: three workloads, every output checked against the
independent oracles in oracles.py.

    python3 bench/run.py --workload {paper-cli,dense-solve,evolution}
                         --seed N --seconds S --trace {0,1}

Run it from a checkout that holds src/dephnet. A run sets up three
times (reporting the median), then repeats whole rounds of the
workload's fixed batch until S seconds have passed, then checks every
output. With --trace 1 it runs the same number of rounds again with
spans installed and reports per-layer metrics instead. The last line
of standard output is one JSON object: correct, attempted, failed,
metrics. See README.md for what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

# One BLAS thread, here and in every child: with OpenBLAS's default of
# one thread per core, the BLAS threads and dephnet's sweep workers
# oversubscribe a 2-core machine and single solves stall for 100x
# their usual time. Must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CIRCUIT_DIR = SRC / "dephnet" / "circuits"

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "item_p50_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "import.dephnet_ms": "ms",
    "import.scipy_integrate_ms": "ms",
    "import.networkx_ms": "ms",
    "cli.main_ms": "ms",
    "experiments.self_ms": "ms",
    "experiments.solve_overlap": "ratio",
    "calibrate.calibrate_topology_ms": "ms",
    "calibrate.candidates": "count",
    "output.write_records_ms": "ms",
    "output.render_chart_ms": "ms",
    "output.bytes_written": "bytes",
    "observables.relative_entropy_coherence_ms": "ms",
    "generator.assemble_generator_ms": "ms",
    "generator.vectorize_generator_ms": "ms",
    "generator.vectorize_generator_calls": "count",
    "steady_state.solve_ness_direct_self_ms": "ms",
    "steady_state.solve_ness_direct_calls": "count",
    "kernel.svd_ms": "ms",
    "kernel.svd_calls": "count",
    "kernel.system_mb_computed": "MB",
    "kernel.svd_gflop_computed": "GFLOP",
    "steady_state.evolve_ms": "ms",
    "steady_state.evolve_calls": "count",
    "steady_state.rhs_evals": "count",
    "steady_state.model_time": "1/J",
    "steady_state.detect_divergence_ms": "ms",
    "trace.overhead_s": "s",
}

#: Relative agreement demanded of a direct solve against the Lindblad
#: oracle (observed: below 2e-10 up to delta = 1e3), and of the
#: evolution solver, whose stationarity tolerance is 1e-9 in drho/dt.
DIRECT_RTOL = 1e-8
EVOLUTION_RTOL = 1e-6


def attainable(rtol: float, delta: float) -> float:
    """`rtol`, widened where the stationary system's condition number,
    which grows like max(delta, 1/delta)^2, leaves no solver better than
    about 1e-14 * max(delta, 1/delta)^2 relative accuracy."""
    if delta <= 0:
        return rtol
    return max(rtol, 1e-14 * max(delta, 1.0 / delta) ** 2)


class OperationFailed(Exception):
    """The operation gave no usable result: an error, an unexpected exit
    code, or a verdict the oracle contradicts."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)


def fresh_import() -> None:
    proc = run_child([sys.executable, "-c", "import dephnet"])
    if proc.returncode != 0:
        raise RuntimeError(f"importing dephnet failed:\n{proc.stderr}")


# ---------------------------------------------------------------------------
# inputs and reference values, independent of dephnet


def read_circuit(path: Path):
    """(adjacency, source, sink) from a circuit definition file."""
    values = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.partition("#")[0].strip()
        if line:
            key, _, value = line.partition(":")
            values[key.strip()] = value.strip()
    edges = [tuple(int(v) for v in tok.split("-")) for tok in values["edges"].split()]
    return (edge_adjacency(int(values["n"]), edges), int(values["source"]),
            int(values["sink"]))


def edge_adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    return a


def parallel_adjacency(m: int) -> np.ndarray:
    n = m + 2
    return edge_adjacency(n, [e for b in range(1, m + 1) for e in ((0, b), (b, n - 1))])


def builtin_circuits() -> dict:
    files = {"pentagon": "pentagon.circuit", "additivity-a": "additivity_a.circuit",
             "additivity-b": "additivity_b.circuit", "funnel": "triangle_funnel.circuit"}
    return {name: read_circuit(CIRCUIT_DIR / f) for name, f in files.items()}


def suite_from_files() -> list:
    """The eight acceptance-suite circuits as (label, adjacency, source, sink)."""
    b = builtin_circuits()
    fa, fs, fk = b["funnel"]
    return [("wire2", oracles.path_adjacency(2), 0, 1),
            ("wire3", oracles.path_adjacency(3), 0, 2),
            ("parallel3", parallel_adjacency(3), 0, 4),
            ("additivity-a", *b["additivity-a"]),
            ("additivity-b", *b["additivity-b"]),
            ("pentagon", *b["pentagon"]),
            ("funnel-forward", fa, fs, fk),
            ("funnel-reverse", fa, fk, fs)]


def reference(adj, source: int, sink: int, delta: float):
    """Oracle steady state, or None for an insulator."""
    if delta > 0:
        return oracles.ness(adj, source, sink, delta)
    return oracles.coherent_ness(adj, source, sink)


def close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * max(1.0, abs(expected))


def check_state(status: str, rho, adj, source: int, sink: int, delta: float,
                rtol: float, r_expected: float | None = None) -> list[str]:
    """Problems with one steady-state result; raises OperationFailed when
    the verdict contradicts the oracle."""
    ref = reference(adj, source, sink, delta)
    if ref is None:
        if not oracles.has_dark_state(adj, source, sink):
            return ["Krylov solve and dark-state test disagree"]
        if status == "converged":
            return ["converged on a device with a reachable dark state"]
        return []
    if status != "converged":
        r_ref = oracles.resistance(ref, source, sink)
        raise OperationFailed(f"{status} at delta={delta:g}; the oracle gives "
                              f"R = {r_ref:.6g}")
    problems = []
    rtol = attainable(rtol, delta)
    scale = max(1.0, np.abs(ref).max())
    r = oracles.resistance(rho, source, sink)
    r_ref = oracles.resistance(ref, source, sink) if r_expected is None else r_expected
    if not close(r, r_ref, rtol):
        problems.append(f"R = {r!r}, oracle {r_ref!r}")
    if np.abs(rho - ref).max() > rtol * scale:
        problems.append(f"state differs from the oracle by {np.abs(rho - ref).max():.3e}")
    if abs(oracles.SINK_RATE * rho[sink, sink].real - oracles.GAIN) > rtol * scale:
        problems.append(f"flux balance off: sink population {rho[sink, sink].real!r}")
    if delta >= 1e2 and not oracles.kirchhoff_ok(r, adj, source, sink, delta):
        problems.append(f"R - delta*R_eff = "
                        f"{oracles.kirchhoff_excess(r, adj, source, sink, delta):.4g} "
                        f"outside [0, 1]")
    return problems


# ---------------------------------------------------------------------------
# workloads. Each builds its inputs from the seed, gives the items of one
# round (label, callable, check), and checks rounds after timing.


class InProcess:
    """Items call dephnet's public functions in this process; an
    exception becomes the item's output and counts as a failed
    operation."""

    traced = False

    def __init__(self):
        import dephnet
        self.dn = dephnet

    def start_tracing(self, spans: tracer.Tracer) -> None:
        tracer.install(spans)
        self.traced = True

    @staticmethod
    def call(fn):
        def run():
            try:
                return fn()
            except Exception as exc:  # reported by the item's check
                return exc
        return run

    def round_items(self, index: int):
        return self.items

    def round_spans(self, index: int):
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    def check_round(self, outputs) -> list[str]:
        return []


def result_state(out):
    if isinstance(out, Exception):
        raise OperationFailed(f"{type(out).__name__}: {out}")
    return out.status, out.rho_ness


class DenseSolve(InProcess):
    """solve_ness_direct on n = 20..36 devices plus the suite at large delta."""

    PARALLEL_M = (18, 24, 30)
    PARALLEL_DELTAS = (0.0, 1.0, 20.0)
    RANDOM_N = (24, 30, 36)
    RANDOM_DELTAS = (0.5, 5.0, 100.0)
    SUITE_DELTAS = (1e3, 1e4)

    def build(self, seed: int) -> None:
        dn = self.dn
        rng = np.random.default_rng(seed)
        cases = [(dn.make_parallel_circuit(m), d, m)
                 for m in self.PARALLEL_M for d in self.PARALLEL_DELTAS]
        cases += [(self.random_circuit(rng, n), d, None)
                  for n in self.RANDOM_N for d in self.RANDOM_DELTAS]
        cases += [(c, d, None) for c in suite_circuits(dn) for d in self.SUITE_DELTAS]
        self.items = [self.item(c, d, m) for c, d, m in cases]

    def random_circuit(self, rng, n: int):
        """Random labelled tree on n sites plus n // 2 extra edges, with a
        random source and sink."""
        perm = rng.permutation(n)
        edges = {tuple(sorted((int(perm[i]), int(perm[rng.integers(i)]))))
                 for i in range(1, n)}
        while len(edges) < n - 1 + n // 2:
            edges.add(tuple(sorted(int(v) for v in rng.choice(n, 2, replace=False))))
        source, sink = (int(v) for v in rng.choice(n, 2, replace=False))
        return self.dn.Circuit(self.dn.build_graph(n, sorted(edges)), source, sink,
                               label=f"random{n}")

    def item(self, c, delta: float, branches):
        dn = self.dn
        adj = np.array(c.graph.adjacency)

        def check(out):
            status, rho = result_state(out)
            if branches is not None and delta == 0:
                return check_state(status, rho, adj, c.source, c.sink, delta,
                                   1e-12, oracles.parallel_reduced_r(branches))
            return check_state(status, rho, adj, c.source, c.sink, delta, DIRECT_RTOL)
        run = self.call(lambda: dn.solve_ness_direct(dn.assemble_generator(c, delta)))
        return (f"{c.label}@{delta:g}", run, check)

    def warm_up(self) -> None:
        # the first solve of this size pays BLAS buffer allocation
        c = self.dn.make_parallel_circuit(self.PARALLEL_M[0])
        self.dn.solve_ness_direct(self.dn.assemble_generator(c, 0.0))


def suite_circuits(dn) -> list:
    a, b = dn.make_additivity_pair()
    funnel = dn.make_triangle_funnel("forward")
    return [dn.make_wire(2), dn.make_wire(3), dn.make_parallel_circuit(3), a, b,
            dn.make_pentagon(), funnel, dn.reverse_circuit(funnel)]


class Evolution(InProcess):
    """solve_ness_by_evolution on the acceptance suite, an explicit-bath
    evolve and coherence traces. The inputs do not depend on the seed."""

    DELTAS = (0.0, 0.1, 1.0, 20.0)
    EXPLICIT_T_END = 40.0
    EXPLICIT_SAMPLES = 81
    EXPLICIT_DELTA = 1.0
    ENTROPY_T_END = 25.0

    def build(self, seed: int) -> None:
        dn = self.dn
        self.items = [self.ness_item(c, d) for c in suite_circuits(dn) for d in self.DELTAS]
        self.items += [self.explicit_item(c) for c in
                       (dn.make_pentagon(), dn.make_triangle_funnel("forward"))]
        self.items += [self.entropy_item(c) for c in dn.make_additivity_pair()]

    def ness_item(self, c, delta: float):
        dn = self.dn
        adj = np.array(c.graph.adjacency)

        def check(out):
            status, rho = result_state(out)
            return check_state(status, rho, adj, c.source, c.sink, delta, EVOLUTION_RTOL)
        run = self.call(lambda: dn.solve_ness_by_evolution(dn.assemble_generator(c, delta)))
        return (f"evolution {c.label}/{c.source}@{delta:g}", run, check)

    def explicit_item(self, c):
        dn = self.dn
        n = c.graph.n

        def run():
            g = dn.assemble_generator(c, self.EXPLICIT_DELTA, form=dn.EXPLICIT_BATH)
            return dn.evolve(g, dn.empty_state(g), self.EXPLICIT_T_END,
                             samples=self.EXPLICIT_SAMPLES)

        def check(traj):
            if isinstance(traj, Exception):
                raise OperationFailed(f"{type(traj).__name__}: {traj}")
            h = oracles.laplacian(c.graph.adjacency)
            ref = oracles.trajectory(h, c.source, c.sink, self.EXPLICIT_DELTA, traj.times)
            problems = []
            err = max(np.abs(rho[:n, :n] - r).max() for rho, r in zip(traj.states, ref))
            if err > EVOLUTION_RTOL:
                problems.append(f"system block off the exact propagator by {err:.3e}")
            baths = {(round(rho[n, n].real, 12), round(rho[n + 1, n + 1].real, 12))
                     for rho in traj.states}
            if baths != {(0.5, 0.0)}:
                problems.append(f"bath populations not pinned: {sorted(baths)}")
            return problems
        return (f"explicit-bath evolve {c.label}", self.call(run), check)

    def entropy_item(self, c):
        dn = self.dn

        def check(out):
            if isinstance(out, Exception):
                raise OperationFailed(f"{type(out).__name__}: {out}")
            times, values = out
            h = oracles.laplacian(c.graph.adjacency)
            ref = [oracles.relative_entropy_coherence(rho)
                   for rho in oracles.trajectory(h, c.source, c.sink, 0.0, times)]
            err = float(np.abs(np.asarray(values) - ref).max())
            return [] if err <= EVOLUTION_RTOL else [f"coherence trace off by {err:.3e}"]
        run = self.call(lambda: dn.entropy_trace(c, 0.0, self.ENTROPY_T_END))
        return (f"entropy trace {c.label}", run, check)

    def warm_up(self) -> None:
        dn = self.dn
        dn.solve_ness_by_evolution(dn.assemble_generator(dn.make_wire(2), 1.0))


class PaperCli:
    """One `python -m dephnet` process per command, as a user runs them."""

    traced = False

    def build(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.delta_wire = float(10 ** rng.uniform(-2, 2))
        self.delta_pentagon = float(10 ** rng.uniform(-1, 1))
        self.base = OUT / "paper-cli"
        self.base.mkdir(parents=True, exist_ok=True)
        self.circuits = builtin_circuits()
        self.circuits["wire2"] = (oracles.path_adjacency(2), 0, 1)
        fa, fs, fk = self.circuits["funnel"]
        self.circuits["funnel-reverse"] = (fa, fk, fs)
        reverse = self.base / "funnel_reverse.circuit"
        edges = " ".join(f"{i}-{j}" for i, j in zip(*np.nonzero(np.triu(fa))))
        reverse.write_text(f"label: funnel-reverse\nn: {len(fa)}\nedges: {edges}\n"
                           f"source: {fk}\nsink: {fs}\n", encoding="utf-8")
        self.circuit_arg = {"funnel-reverse": str(reverse)}
        ness = [("wire2", self.delta_wire), ("pentagon", 0.0),
                ("pentagon", self.delta_pentagon), ("funnel", 0.0), ("funnel", 100.0),
                ("funnel-reverse", 100.0), ("additivity-a", 0.0), ("additivity-b", 0.0),
                ("additivity-a", 1.0), ("additivity-b", 1.0)]
        self.commands = [self.ness_command(name, d) for name, d in ness] + [
            (["sweep-dephasing", "--circuit", "pentagon", "--plot"], self.check_pentagon_sweep),
            (["sweep-branches", "--m-max", "10", "--plot"], self.check_branch_sweep),
            (["rectify", "--find-crossing", "--plot"], self.check_rectify),
            (["calibrate", "--search", "funnel"], self.check_calibrate_funnel),
            (["calibrate", "--search", "pentagon"], self.check_calibrate_pentagon),
            (["calibrate", "--search", "additivity", "--max-n", "5"],
             self.check_calibrate_additivity),
        ]

    def start_tracing(self, spans) -> None:
        self.traced = True

    def round_dir(self, index: int) -> Path:
        return self.base / f"round{index}"

    def round_items(self, index: int):
        cwd = self.round_dir(index)
        shutil.rmtree(cwd, ignore_errors=True)
        cwd.mkdir(parents=True)
        items = []
        for k, (args, check) in enumerate(self.commands):
            if self.traced:
                argv = [sys.executable, str(ROOT / "bench" / "cli_child.py"),
                        str(cwd / f"spans{k}.json"), *args]
            else:
                argv = [sys.executable, "-m", "dephnet", *args]
            items.append((" ".join(args), self.runner(argv, cwd),
                          lambda out, check=check, cwd=cwd: check(out, cwd)))
        return items

    @staticmethod
    def runner(argv, cwd):
        def run():
            try:
                return run_child(argv, cwd=cwd)
            except subprocess.TimeoutExpired:
                return subprocess.CompletedProcess(argv, None, "", "timed out")
        return run

    def round_spans(self, index: int) -> list:
        spans = []
        for k in range(len(self.commands)):
            path = self.round_dir(index) / f"spans{k}.json"
            offset = (index * len(self.commands) + k + 1) << 40
            for sid, parent, *rest in json.loads(path.read_text())["spans"]:
                spans.append((sid + offset, parent + offset if parent else 0, *rest))
        return spans

    def warm_up(self) -> None:
        proc = run_child([sys.executable, "-m", "dephnet", "ness", "--circuit", "wire2",
                          "--delta", "1"], cwd=self.base)
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up command failed:\n{proc.stderr}")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6

    # -- checks --------------------------------------------------------------

    def ness_command(self, name: str, delta: float):
        args = ["ness", "--circuit", self.circuit_arg.get(name, name), "--delta", repr(delta)]
        adj, s, k = self.circuits[name]

        def check(proc, _cwd):
            f = fields(proc.stdout)
            verdict = {0: "converged", 2: "diverged"}.get(proc.returncode)
            if verdict is None or f.get("status") != verdict:
                raise OperationFailed(f"exit {proc.returncode}, status "
                                      f"{f.get('status')}: {proc.stderr.strip()}")
            ref = reference(adj, s, k, delta)
            if ref is None:
                return check_state(verdict, None, adj, s, k, delta, DIRECT_RTOL)
            if verdict != "converged":
                raise OperationFailed(f"diverged, the oracle gives R = "
                                      f"{oracles.resistance(ref, s, k):.6g}")
            problems = []
            r = float(f["resistance"])
            expected = {"current": oracles.GAIN, "sink population": 0.5,
                        "resistance": oracles.resistance(ref, s, k),
                        "coherence": oracles.relative_entropy_coherence(ref)}
            for key, value in expected.items():
                if not close(float(f[key]), value, attainable(DIRECT_RTOL, delta)):
                    problems.append(f"{key} {f[key]}, oracle {value!r}")
            if delta >= 1e2 and not oracles.kirchhoff_ok(r, adj, s, k, delta):
                problems.append("outside the Kirchhoff bound")
            if name.startswith("additivity") and delta == 0 and \
                    abs(r - oracles.ADDITIVITY_R) > oracles.ADDITIVITY_TOL:
                problems.append(f"R = {r} misses the paper's 1.75 +- 0.01")
            return problems
        return args, check

    def check_round(self, outputs) -> list[str]:
        r = {}
        for (args, _), proc in zip(self.commands, outputs):
            if args[0] == "ness" and proc.returncode == 0:
                r[args[2], float(args[4])] = float(fields(proc.stdout)["resistance"])
        problems = []
        rev = self.circuit_arg["funnel-reverse"]
        if ("funnel", 100.0) in r and (rev, 100.0) in r:
            ratio = r["funnel", 100.0] / r[rev, 100.0]
            if abs(ratio - 1.0) > 0.01:
                problems.append(f"funnel ratio at delta=100 is {ratio}, not within 1% of 1")
        if ("additivity-a", 1.0) in r and ("additivity-b", 1.0) in r:
            if not r["additivity-b", 1.0] > r["additivity-a", 1.0]:
                problems.append("additivity-b is not more resistive at delta=1")
        return problems

    def sweep_rows(self, proc, path: Path):
        if proc.returncode != 0:
            raise OperationFailed(f"exit {proc.returncode}: {proc.stderr.strip()}")
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        svg = path.with_suffix(".svg")
        problems = [] if is_svg(svg) else [f"{svg.name} is not an SVG document"]
        if f"wrote  {path.name} ({len(rows)} rows" not in proc.stdout:
            problems.append("printed row count differs from the CSV")
        return rows, problems

    def check_row(self, row, adj, s, k) -> list[str]:
        """One sweep record against the oracle at its delta."""
        delta = float(row["delta"])
        ref = reference(adj, s, k, delta)
        if ref is None:
            ok = (row["status"] == "diverged" and math.isinf(float(row["R"]))
                  and float(row["G"]) == 0.0 and oracles.has_dark_state(adj, s, k))
            return [] if ok else [f"row at delta={delta:g} should be insulating"]
        if row["status"] != "converged":
            raise OperationFailed(f"{row['status']} at delta={delta:g}")
        r, g = float(row["R"]), float(row["G"])
        rtol = attainable(DIRECT_RTOL, delta)
        problems = []
        if not close(r, oracles.resistance(ref, s, k), rtol):
            problems.append(f"R({delta:g}) = {r!r}, oracle {oracles.resistance(ref, s, k)!r}")
        if not close(r * g, 1.0, 1e-12):
            problems.append(f"G is not 1/R at delta={delta:g}")
        if not close(float(row["coherence"]), oracles.relative_entropy_coherence(ref), rtol):
            problems.append(f"coherence at delta={delta:g} differs from the oracle")
        return problems

    def check_pentagon_sweep(self, proc, cwd):
        rows, problems = self.sweep_rows(proc, cwd / "dephasing_sweep.csv")
        adj, s, k = self.circuits["pentagon"]
        for row in rows:
            problems += self.check_row(row, adj, s, k)
        # insulating at 0, best at intermediate delta, Zeno rise at the end
        rs = [float(r["R"]) for r in sorted(rows, key=lambda r: float(r["delta"]))]
        lo = int(np.argmin(rs[1:])) + 1
        if not (float(rows[0]["delta"]) == 0.0 and 1 < lo < len(rs) - 1
                and rs[-3] < rs[-2] < rs[-1]):
            problems.append("pentagon curve lacks the interior minimum and Zeno tail")
        return problems

    def check_branch_sweep(self, proc, cwd):
        rows, problems = self.sweep_rows(proc, cwd / "branch_sweep.csv")
        by_delta = {}
        for row in rows:
            m, delta = int(row["branches"]), float(row["delta"])
            if delta == 0:
                if not close(float(row["R"]), oracles.parallel_reduced_r(m), 1e-10):
                    problems.append(f"m={m}: R(0) misses the symmetric-mode reduction")
            else:
                problems += self.check_row(row, parallel_adjacency(m), 0, m + 1)
            by_delta.setdefault(delta, {})[m] = float(row["G"])
        for delta, g in by_delta.items():
            m_max = max(g)
            peak = max(g, key=lambda m: (g[m], -m))
            expected = min(oracles.branch_peak(delta), m_max)
            if peak != expected:
                problems.append(f"delta={delta:g}: conductance peaks at m={peak}, "
                                f"paper fit gives {expected}")
        return problems

    def check_rectify(self, proc, cwd):
        rows, problems = self.sweep_rows(proc, cwd / "rectification.csv")
        fa, fs, fk = self.circuits["funnel"]
        for row in rows:
            s, k = (fs, fk) if row["direction"] == "forward" else (fk, fs)
            problems += self.check_row(row, fa, s, k)
        match = re.search(r"^crossing\s+(\S+)", proc.stdout, re.M)
        if match is None:
            return problems + ["no crossing printed"]
        crossing = float(match.group(1))
        if abs(crossing - oracles.CROSSING) > oracles.CROSSING_TOL:
            problems.append(f"crossing {crossing} misses the paper's 0.2259 +- 0.005")
        below, above = (funnel_ratio(fa, fs, fk, crossing + d) for d in (-1e-4, 1e-4))
        if not below > 1 > above:
            problems.append("the oracle ratio does not cross 1 at the printed crossing")
        return problems

    def check_calibrate_funnel(self, proc, cwd):
        listed, problems = self.listed(proc, r"^(\d+) candidates match")
        fa, fs, fk = self.circuits["funnel"]
        if not any(np.array_equal(a, fa) and (s, k) == (fs, fk) for a, s, k in listed):
            problems.append("the shipped funnel is not among the matches")
        grid = np.logspace(-3.0, 0.0, 25)
        lo, hi = oracles.CROSSING - oracles.CROSSING_TOL, oracles.CROSSING + oracles.CROSSING_TOL
        for a, s, k in listed:
            signs = np.sign([funnel_ratio(a, s, k, d) - 1.0 for d in grid])
            flips = int(np.sum(signs[:-1] != signs[1:]))
            if (flips != 1 or (funnel_ratio(a, s, k, lo) - 1) * (funnel_ratio(a, s, k, hi) - 1) > 0
                    or abs(funnel_ratio(a, s, k, 100.0) - 1.0) > 0.01):
                problems.append(f"match source={s} sink={k} misses the rectification targets")
        return problems

    def check_calibrate_pentagon(self, proc, cwd):
        listed, problems = self.listed(proc, r"^(\d+) sink placements are insulating")
        ring = edge_adjacency(5, [(i, (i + 1) % 5) for i in range(5)])
        dark = {k for k in range(1, 5) if oracles.has_dark_state(ring, 0, k)}
        if sorted(k for _, _, k in listed) != sorted(dark):
            problems.append(f"listed sinks {[k for _, _, k in listed]}, oracle {sorted(dark)}")
        return problems

    def check_calibrate_additivity(self, proc, cwd):
        listed, problems = self.listed(proc, r"^(\d+) pairs matched", per_count=2)
        if len(listed) % 2:
            return problems + ["odd number of listed circuits"]
        for (a, s, k), (b, sb, kb) in zip(listed[::2], listed[1::2]):
            if (s, k) != (sb, kb) or np.any(a > b) or (b - a).sum() != 2:
                problems.append("a listed pair does not differ by one added edge")
            for adj in (a, b):
                rho = oracles.coherent_ness(adj, s, k)
                if rho is None or abs(oracles.resistance(rho, s, k) - oracles.ADDITIVITY_R) \
                        > oracles.ADDITIVITY_TOL:
                    problems.append("a listed device misses R = 1.75 +- 0.01 at delta=0")
        usable = re.search(r"\((\d+) non-degenerate\)", proc.stdout)
        tagged = proc.stdout.count("[degenerate]: candidate-a")
        if usable is None or int(usable.group(1)) != len(listed) // 2 - tagged:
            problems.append("non-degenerate count differs from the listing")
        return problems

    @staticmethod
    def listed(proc, count_pattern, per_count=1):
        """Circuits printed by `calibrate`, checked against its count line
        (which counts pairs of circuits when `per_count` is 2)."""
        if proc.returncode != 0:
            raise OperationFailed(f"exit {proc.returncode}: {proc.stderr.strip()}")
        circuits = []
        for m in re.finditer(r"n=(\d+) source=(\d+) sink=(\d+) edges: ([\d\- ]+)$",
                             proc.stdout, re.M):
            edges = [tuple(int(v) for v in tok.split("-")) for tok in m.group(4).split()]
            circuits.append((edge_adjacency(int(m.group(1)), edges),
                             int(m.group(2)), int(m.group(3))))
        count = re.search(count_pattern, proc.stdout, re.M)
        problems = []
        if count is None or int(count.group(1)) * per_count != len(circuits):
            problems.append("printed count differs from the listing")
        return circuits, problems


def fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        m = re.match(r"^(\S.*?)\s{2,}(\S.*)$", line)
        if m:
            out[m.group(1)] = m.group(2)
    return out


def is_svg(path: Path) -> bool:
    try:
        return ET.parse(path).getroot().tag.endswith("svg")
    except (OSError, ET.ParseError):
        return False


def funnel_ratio(adj, source: int, sink: int, delta: float) -> float:
    forward = oracles.resistance(oracles.ness(adj, source, sink, delta), source, sink)
    backward = oracles.resistance(oracles.ness(adj, sink, source, delta), sink, source)
    return forward / backward


WORKLOADS = {"paper-cli": PaperCli, "dense-solve": DenseSolve, "evolution": Evolution}


# ---------------------------------------------------------------------------
# measurement


def setup(workload, seed: int) -> float:
    """Fresh-interpreter import, input building and one warm-up call."""
    start = time.perf_counter()
    fresh_import()
    workload.build(seed)
    workload.warm_up()
    return time.perf_counter() - start


def run_rounds(workload, first: int, count: int | None, seconds: float) -> list:
    """Whole rounds: `count` of them, or else rounds until `seconds` have
    passed. Each round is (index, items, wall, item_times, outputs)."""
    rounds = []
    start = time.perf_counter()
    index = first
    while True:
        items = workload.round_items(index)
        times, outputs = [], []
        t0 = time.perf_counter()
        for _, run, _ in items:
            t = time.perf_counter()
            outputs.append(run())
            times.append(time.perf_counter() - t)
        rounds.append((index, items, time.perf_counter() - t0, times, outputs))
        index += 1
        if count is not None and len(rounds) == count:
            return rounds
        if count is None and time.perf_counter() - start >= seconds:
            return rounds


def check_rounds(workload, rounds) -> tuple[list[bool], list[str]]:
    """Per-item failure flags (in round order) and incorrect outputs."""
    failed, problems = [], []
    for index, items, _, _, outputs in rounds:
        for (label, _, check), out in zip(items, outputs):
            try:
                problems += [f"round {index} {label}: {p}" for p in check(out)]
                failed.append(False)
            except OperationFailed as exc:
                failed.append(True)
                print(f"failed: round {index} {label}: {exc}", file=sys.stderr)
            except Exception as exc:  # output in an unexpected form
                failed.append(False)
                problems.append(f"round {index} {label}: unreadable output: {exc!r}")
        try:
            problems += [f"round {index}: {p}" for p in workload.check_round(outputs)]
        except Exception as exc:
            problems.append(f"round {index}: unreadable output: {exc!r}")
    return failed, problems


def import_breakdown() -> dict:
    """Cumulative import times from `python -X importtime`, medians."""
    names = {"dephnet": "import.dephnet_ms", "scipy.integrate": "import.scipy_integrate_ms",
             "networkx": "import.networkx_ms"}
    samples = {metric: [] for metric in names.values()}
    for _ in range(IMPORT_REPEATS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import dephnet"])
        found = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in names:
                found[names[parts[2]]] = int(parts[1]) / 1e3
        for metric in samples:
            samples[metric].append(found.get(metric, 0.0))
    return {metric: statistics.median(v) for metric, v in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dephnet" / "__init__.py").is_file():
        print(f"error: no dephnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    seed = args.seed % 2 ** 64  # numpy seeds must be non-negative
    setups = [setup(workload, seed) for _ in range(SETUP_REPEATS)]
    rounds = run_rounds(workload, 0, None, args.seconds)
    peak_rss = workload.peak_rss_mb()
    walls = [r[2] for r in rounds]
    if args.trace:
        spans = tracer.Tracer()
        workload.start_tracing(spans)
        traced = run_rounds(workload, len(rounds), len(rounds), args.seconds)
        all_spans = spans.spans + [s for r in traced for s in workload.round_spans(r[0])]
        metrics = tracer.layer_metrics(all_spans, len(traced))
        metrics.update(import_breakdown())
        metrics["trace.overhead_s"] = (statistics.median(r[2] for r in traced)
                                       - statistics.median(walls))
        units = PER_LAYER_UNITS
        tracer.dump(OUT / "trace" / f"{args.workload}-seed{args.seed}.json",
                    all_spans, {"metrics": metrics})
        failed, problems = check_rounds(workload, rounds + traced)
    else:
        failed, problems = check_rounds(workload, rounds)
        # a failed operation misses any latency target: it ranks as slowest
        times = [math.inf if f else t
                 for f, t in zip(failed, (t for r in rounds for t in r[3]))]
        metrics = {"wall_s": statistics.median(walls),
                   "item_p50_ms": 1e3 * statistics.median(times),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": peak_rss}
        units = END_TO_END_UNITS

    problems += oracles.self_check(suite_from_files())
    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": len(failed), "failed": sum(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
