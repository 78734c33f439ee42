"""Command-line entry point.

Subcommands map one-to-one onto the experiments: single steady-state
solves, time evolution, branch-count and dephasing sweeps, forward vs
reverse rectification, coherence traces, and the calibration searches
that selected the builtin circuits.

Exit codes are a stable scripting contract: 0 for success (including
sweeps that record divergent rows as data), 2 when a requested single
steady state is a physical divergence verdict, 1 for usage mistakes,
numerical failures, and inconclusive runs.
"""
from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .calibrate import (CalibrationTarget, additivity_pair_search,
                        calibrate_topology, funnel_family, funnel_shortlist,
                        pentagon_family)
from .errors import DephnetError, NoSignChangeError, UsageError
from .experiments import (BRANCH_DELTAS, DEFAULT_M_MAX, ENTROPY_T_END,
                          LOG_GRID, dephasing_sweep, entropy_trace,
                          find_ratio_crossing, funnel_ratio,
                          rectification_sweep, sweep_branch_count)
from .generator import assemble_generator, empty_state
from .graphs import Circuit
from .observables import relative_entropy_coherence, transport_reading
from .output import AxesSpec, render_chart, write_records
from .registry import builtin_names, resolve_circuit
from .steady_state import (CONVERGED, DIVERGED, evolve,
                           solve_ness_by_evolution, solve_ness_direct)

log = logging.getLogger("dephnet.cli")

_DEFAULT_OUT = {
    "sweep-branches": "branch_sweep.csv",
    "sweep-dephasing": "dephasing_sweep.csv",
    "rectify": "rectification.csv",
    "entropy-trace": "entropy_trace.csv",
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: config-file values overridden by
    command-line flags."""

    command: str
    circuit: str | None = None
    delta: float | None = None
    delta_grid: tuple[float, ...] | None = None
    solver: str = "direct"
    tol: float | None = None
    t_max: float | None = None
    t_end: float | None = None
    samples: int = 201
    initial: str = "empty"
    m_max: int = DEFAULT_M_MAX
    branch_length: int = 1
    out: str | None = None
    plot: bool = False
    search: str | None = None
    max_n: int = 6
    full: bool = False
    find_crossing: bool = False
    bracket: str | None = None
    crossing_tol: float = 1e-4


class _Parser(argparse.ArgumentParser):
    # usage mistakes exit 1 (argparse's own default is 2, which this
    # tool reserves for divergence verdicts)
    def error(self, message):
        raise UsageError(message)


def parse_delta_grid(text: str) -> tuple[float, ...]:
    """Grid grammar: ``log:a:b:n``, ``lin:a:b:n``, or ``x1,x2,...``."""
    text = text.strip()
    if text.startswith(("log:", "lin:")):
        kind, *rest = text.split(":")
        if len(rest) != 3:
            raise UsageError(f"grid spec {text!r} needs kind:start:stop:count")
        try:
            start, stop, count = float(rest[0]), float(rest[1]), int(rest[2])
        except ValueError as exc:
            raise UsageError(f"bad grid spec {text!r}: {exc}") from exc
        if count < 1:
            raise UsageError("grid needs at least one point")
        if kind == "log":
            if start <= 0 or stop <= 0:
                raise UsageError("log grid endpoints must be positive")
            return tuple(np.logspace(math.log10(start), math.log10(stop),
                                     count))
        return tuple(np.linspace(start, stop, count))
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"bad delta grid {text!r}: {exc}") from exc
    if not values:
        raise UsageError("empty delta grid")
    return values


def _build_parser() -> tuple[_Parser, dict]:
    parser = _Parser(
        prog="dephnet",
        description="Steady-state transport through dephasing site "
                    "networks driven between a source and a drain.")
    parser.add_argument("--config", metavar="FILE",
                        help="file of `key: value` defaults; command-line "
                             "flags override it")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    subparsers = {}

    def cmd(name, help_text):
        # add_parser inherits _Parser, so usage mistakes raise UsageError
        p = sub.add_parser(name, help=help_text, description=help_text)
        # accepted after the command too; the value is read in a pre-scan
        p.add_argument("--config", metavar="FILE", help=argparse.SUPPRESS)
        subparsers[name] = p
        return p

    def circuit_arg(p):
        p.add_argument("--circuit", metavar="NAME_OR_FILE",
                       help="builtin circuit name (%s, wireN) or a "
                            ".circuit file path" % ", ".join(builtin_names()))

    p = cmd("ness", "solve one steady state and report transport numbers")
    circuit_arg(p)
    p.add_argument("--delta", type=float,
                   help="pure-dephasing rate on every site")
    p.add_argument("--solver", choices=("direct", "evolution"),
                   default=None, help="linear solve of the stationarity "
                   "condition, or long-time integration (default direct)")
    p.add_argument("--tol", type=float,
                   help="residual at which the evolution solver declares "
                        "convergence")
    p.add_argument("--t-max", type=float, dest="t_max",
                   help="model-time budget for the evolution solver")

    p = cmd("evolve", "integrate the equation of motion and dump the "
                      "trajectory")
    circuit_arg(p)
    p.add_argument("--delta", type=float,
                   help="pure-dephasing rate on every site")
    p.add_argument("--t-end", type=float, dest="t_end",
                   help="model time to integrate to")
    p.add_argument("--samples", type=int, help="trajectory sample count")
    p.add_argument("--initial", choices=("empty", "uniform", "source"),
                   default=None,
                   help="initial state: empty network, maximally mixed, "
                        "or all population on the source")
    p.add_argument("--out", metavar="CSV", help="trajectory output path")

    p = cmd("sweep-branches", "conductance versus branch count for the "
                              "parallel-branch family")
    p.add_argument("--m-max", type=int, dest="m_max",
                   help="largest branch count (default %d)" % DEFAULT_M_MAX)
    p.add_argument("--branch-length", type=int, dest="branch_length",
                   help="sites per branch (default 1)")
    p.add_argument("--delta-grid", dest="delta_grid",
                   help="dephasing grid: log:a:b:n, lin:a:b:n, or x1,x2,...")
    p.add_argument("--out", metavar="CSV", help="records output path")
    p.add_argument("--plot", action="store_true", default=None,
                   help="also write an SVG chart next to the CSV")

    p = cmd("sweep-dephasing", "resistance of one circuit across a "
                               "dephasing grid")
    circuit_arg(p)
    p.add_argument("--delta-grid", dest="delta_grid",
                   help="dephasing grid: log:a:b:n, lin:a:b:n, or x1,x2,...")
    p.add_argument("--out", metavar="CSV", help="records output path")
    p.add_argument("--plot", action="store_true", default=None,
                   help="also write an SVG chart next to the CSV")

    p = cmd("rectify", "forward versus reverse resistance across a "
                       "dephasing grid")
    circuit_arg(p)
    p.add_argument("--delta-grid", dest="delta_grid",
                   help="dephasing grid: log:a:b:n, lin:a:b:n, or x1,x2,...")
    p.add_argument("--find-crossing", action="store_true", default=None,
                   dest="find_crossing",
                   help="bisect for the dephasing strength where the "
                        "forward/reverse ratio crosses 1")
    p.add_argument("--bracket", metavar="LO,HI",
                   help="search bracket for --find-crossing (default: the "
                        "sign change on the grid)")
    p.add_argument("--crossing-tol", type=float, dest="crossing_tol",
                   help="bracket width at which bisection stops "
                        "(default 1e-4)")
    p.add_argument("--out", metavar="CSV", help="records output path")
    p.add_argument("--plot", action="store_true", default=None,
                   help="also write an SVG chart of the ratio curve")

    p = cmd("entropy-trace", "coherence content over time from the empty "
                             "initial state")
    circuit_arg(p)
    p.add_argument("--delta", type=float,
                   help="pure-dephasing rate on every site")
    p.add_argument("--t-end", type=float, dest="t_end",
                   help="model time to integrate to (default %g)"
                        % ENTROPY_T_END)
    p.add_argument("--samples", type=int, help="trace sample count")
    p.add_argument("--out", metavar="CSV", help="trace output path")
    p.add_argument("--plot", action="store_true", default=None,
                   help="also write an SVG chart of the trace")

    p = cmd("calibrate", "re-run a topology search that selected a "
                         "builtin circuit")
    p.add_argument("--search", choices=("pentagon", "additivity", "funnel"),
                   help="which selection to reproduce")
    p.add_argument("--max-n", type=int, dest="max_n",
                   help="site budget for the additivity pair search "
                        "(default 6)")
    p.add_argument("--full", action="store_true", default=None,
                   help="funnel search over the whole candidate family "
                        "instead of the documented shortlist (slow)")

    return parser, subparsers


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise UsageError(f"{path}:{lineno}: expected `key: value`")
        key, _, value = line.partition(":")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _coerce(action: argparse.Action, text: str):
    if isinstance(action, argparse._StoreTrueAction):
        lowered = text.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"config key {action.dest!r} expects a boolean, "
                         f"got {text!r}")
    if action.choices is not None and text not in action.choices:
        raise UsageError(f"config key {action.dest!r} must be one of "
                         f"{sorted(action.choices)}, got {text!r}")
    if action.type is not None:
        try:
            return action.type(text)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"config key {action.dest!r}: {exc}") from exc
    return text


def parse_config(argv) -> RunConfig:
    """Parse flags plus an optional `key: value` config file; flags win."""
    parser, subparsers = _build_parser()

    config_path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif tok.startswith("--config="):
            config_path = tok.split("=", 1)[1]
    file_values = _read_config_file(config_path) if config_path else {}

    known = {}
    for p in subparsers.values():
        for action in p._actions:
            if action.dest not in ("help", "config"):
                known.setdefault(action.dest, action)
    unknown = set(file_values) - set(known)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    defaults = {dest: _coerce(known[dest], text)
                for dest, text in file_values.items()}
    for p in subparsers.values():
        p.set_defaults(**{k: v for k, v in defaults.items()
                          if any(a.dest == k for a in p._actions)})

    ns = parser.parse_args(argv)
    if ns.command is None:
        raise UsageError("a command is required (see --help)")
    names = {f.name for f in fields(RunConfig)}
    picked = {k: v for k, v in vars(ns).items() if k in names and v is not None}
    return RunConfig(**picked)


def _require(cfg: RunConfig, name: str):
    value = getattr(cfg, name)
    if value is None:
        raise UsageError(f"--{name.replace('_', '-')} is required for "
                         f"`{cfg.command}`")
    return value


def _grid(cfg: RunConfig, default: tuple[float, ...]) -> tuple[float, ...]:
    if cfg.delta_grid is None:
        return default
    if isinstance(cfg.delta_grid, tuple):
        return cfg.delta_grid
    return parse_delta_grid(cfg.delta_grid)


def _out_path(cfg: RunConfig) -> Path:
    return Path(cfg.out if cfg.out else _DEFAULT_OUT[cfg.command])


def _maybe_chart(cfg: RunConfig, rows, axes: AxesSpec, csv_path: Path) -> None:
    if not cfg.plot:
        return
    chart = csv_path.with_suffix(".svg")
    if render_chart(rows, axes, chart):
        print(f"chart  {chart}")


def _write_series_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(f"{v:.16e}" for v in row) for row in rows)
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# command handlers


def _cmd_ness(cfg: RunConfig) -> int:
    c = resolve_circuit(_require(cfg, "circuit"))
    g = assemble_generator(c, _require(cfg, "delta"))
    if cfg.solver == "evolution":
        overrides = {k: v for k, v in (("tol", cfg.tol), ("t_max", cfg.t_max))
                     if v is not None}
        res = solve_ness_by_evolution(g, **overrides)
    else:
        res = solve_ness_direct(g)
    print(f"circuit   {c.label or cfg.circuit}")
    print(f"delta     {cfg.delta:g}")
    print(f"solver    {cfg.solver}")
    print(f"status    {res.status}")
    print(f"residual  {res.residual:.3e}")
    if res.backward_error is not None:
        print(f"backward error  {res.backward_error:.3e}")
    if res.status == CONVERGED:
        reading = transport_reading(res, c)
        rho = res.rho_ness
        print(f"current      {reading.current:.12g}")
        print(f"voltage      {reading.voltage:.12g}")
        print(f"resistance   {reading.resistance:.12g}")
        print(f"conductance  {reading.conductance:.12g}")
        print(f"sink population  {rho[c.sink, c.sink].real:.12g}")
        print(f"coherence        {relative_entropy_coherence(rho):.12g}")
        return 0
    if res.status == DIVERGED:
        print("verdict   no steady state: populations grow without bound")
        return 2
    print("verdict   inconclusive within the time budget")
    return 1


def _initial_state(cfg: RunConfig, g, c: Circuit) -> np.ndarray:
    if cfg.initial == "uniform":
        return np.eye(g.dim, dtype=complex) / c.graph.n
    if cfg.initial == "source":
        rho = np.zeros((g.dim, g.dim), dtype=complex)
        rho[c.source, c.source] = 1.0
        return rho
    return empty_state(g)


def _cmd_evolve(cfg: RunConfig) -> int:
    c = resolve_circuit(_require(cfg, "circuit"))
    g = assemble_generator(c, _require(cfg, "delta"))
    traj = evolve(g, _initial_state(cfg, g, c), _require(cfg, "t_end"),
                  samples=cfg.samples)
    rows = []
    for t, rho in zip(traj.times, traj.states):
        rows.append((t, np.trace(rho).real, rho[c.source, c.source].real,
                     rho[c.sink, c.sink].real, relative_entropy_coherence(rho)))
    if cfg.out:
        path = Path(cfg.out)
        _write_series_csv(path, "t,trace,source_pop,sink_pop,coherence", rows)
        print(f"wrote  {path}")
    final = rows[-1]
    print(f"t_end        {final[0]:g}")
    print(f"trace        {final[1]:.12g}")
    print(f"source pop   {final[2]:.12g}")
    print(f"sink pop     {final[3]:.12g}")
    print(f"coherence    {final[4]:.12g}")
    return 0


def _cmd_sweep_branches(cfg: RunConfig) -> int:
    records = sweep_branch_count(cfg.m_max, _grid(cfg, BRANCH_DELTAS),
                                 cfg.branch_length)
    path = _out_path(cfg)
    write_records(records, path)
    print(f"wrote  {path} ({len(records)} rows)")
    _maybe_chart(cfg, records, AxesSpec(
        x_field="branches", y_field="G", series_field="delta",
        x_label="branch count m", y_label="conductance G",
        title="Conductance vs parallel branches"), path)
    return 0


def _cmd_sweep_dephasing(cfg: RunConfig) -> int:
    c = resolve_circuit(_require(cfg, "circuit"))
    records = dephasing_sweep(c, _grid(cfg, (0.0,) + LOG_GRID))
    path = _out_path(cfg)
    write_records(records, path)
    converged = sum(r.status == CONVERGED for r in records)
    print(f"wrote  {path} ({len(records)} rows, {converged} converged)")
    _maybe_chart(cfg, records, AxesSpec(
        x_field="delta", y_field="R", x_label="dephasing rate",
        y_label="resistance R", title=f"Resistance vs dephasing: "
                                      f"{c.label or cfg.circuit}",
        log_x=True, log_y=True), path)
    return 0


def _cmd_rectify(cfg: RunConfig) -> int:
    c = resolve_circuit(cfg.circuit) if cfg.circuit else None
    deltas = _grid(cfg, LOG_GRID)
    # bisection settings are checked before the sweep, the slow part
    bracket = None
    if cfg.find_crossing:
        if not cfg.crossing_tol > 0:
            raise UsageError(f"--crossing-tol must be positive, got {cfg.crossing_tol}")
        if cfg.bracket:
            try:
                lo, hi = bracket = tuple(float(t) for t in cfg.bracket.split(","))
            except ValueError as exc:
                raise UsageError(f"--bracket expects LO,HI: {exc}") from exc
            if not lo < hi:
                raise UsageError(f"--bracket needs LO < HI, got {cfg.bracket}")
    records, series = rectification_sweep(deltas, circuit=c)
    path = _out_path(cfg)
    write_records(records, path)
    print(f"wrote  {path} ({len(records)} rows)")
    rows = [{"delta": d, "ratio": r} for d, r in series]
    _maybe_chart(cfg, rows, AxesSpec(
        x_field="delta", y_field="ratio", x_label="dephasing rate",
        y_label="forward R / reverse R", title="Rectification ratio",
        log_x=True, guideline_y=1.0), path)

    finite = [(d, r) for d, r in series if math.isfinite(r)]
    flips = [(finite[i][0], finite[i + 1][0]) for i in range(len(finite) - 1)
             if (finite[i][1] - 1.0) * (finite[i + 1][1] - 1.0) < 0]
    for lo, hi in flips:
        print(f"ratio crosses 1 between delta {lo:.6g} and {hi:.6g}")
    if not cfg.find_crossing:
        return 0
    if bracket is None:
        if not flips:
            raise NoSignChangeError("the ratio does not cross 1 on the grid; "
                                    "give an explicit --bracket")
        bracket = flips[0]
    crossing = find_ratio_crossing(
        bracket, tol=cfg.crossing_tol,
        ratio_fn=None if c is None else (lambda d: funnel_ratio(d, c)))
    print(f"crossing  {crossing:.6f}")
    return 0


def _cmd_entropy_trace(cfg: RunConfig) -> int:
    c = resolve_circuit(_require(cfg, "circuit"))
    delta = cfg.delta if cfg.delta is not None else 0.0
    t_end = cfg.t_end if cfg.t_end is not None else ENTROPY_T_END
    times, values = entropy_trace(c, delta, t_end, cfg.samples)
    path = _out_path(cfg)
    _write_series_csv(path, "t,coherence", zip(times, values))
    print(f"wrote  {path} ({len(times)} samples)")
    rows = [{"t": t, "coherence": v} for t, v in zip(times, values)]
    _maybe_chart(cfg, rows, AxesSpec(
        x_field="t", y_field="coherence", x_label="time",
        y_label="coherence content",
        title=f"Coherence vs time: {c.label or cfg.circuit}"), path)
    print(f"peak coherence  {max(values):.12g}")
    return 0


def _print_circuit(c: Circuit, prefix: str = "  ") -> None:
    edges = " ".join(f"{i}-{j}" for i, j in c.graph.edges)
    print(f"{prefix}{c.label or 'candidate'}: n={c.graph.n} "
          f"source={c.source} sink={c.sink} edges: {edges}")


def _cmd_calibrate(cfg: RunConfig) -> int:
    search = _require(cfg, "search")
    if search == "pentagon":
        matches = calibrate_topology(
            pentagon_family(),
            [CalibrationTarget(0.0, "divergence", None, 0.0)])
        print(f"{len(matches)} sink placements are insulating at delta=0:")
        for c in matches:
            _print_circuit(c)
        return 0
    if search == "additivity":
        triples = additivity_pair_search(max_n=cfg.max_n)
        usable = [t for t in triples if not t[2]]
        print(f"{len(triples)} pairs matched up to n={cfg.max_n} "
              f"({len(usable)} non-degenerate)")
        for a, b, degenerate in triples:
            tag = " [degenerate]" if degenerate else ""
            _print_circuit(a, prefix=f"  A{tag}: ")
            _print_circuit(b, prefix=f"  B{tag}: ")
        if not usable:
            print("no usable pair at this size; the shipped pair needed "
                  "eight sites")
        return 0
    family = funnel_family() if cfg.full else funnel_shortlist()
    matches = calibrate_topology(family, [
        CalibrationTarget(0.0, "ratio-crossing", 0.2259, 0.005),
        CalibrationTarget(100.0, "ratio-at", 1.0, 0.01),
    ])
    print(f"{len(matches)} candidates match the rectification targets:")
    for c in matches:
        _print_circuit(c)
    return 0


_HANDLERS = {
    "ness": _cmd_ness,
    "evolve": _cmd_evolve,
    "sweep-branches": _cmd_sweep_branches,
    "sweep-dephasing": _cmd_sweep_dephasing,
    "rectify": _cmd_rectify,
    "entropy-trace": _cmd_entropy_trace,
    "calibrate": _cmd_calibrate,
}


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO if os.environ.get("DEPHNET_VERBOSE")
        else logging.WARNING)
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = parse_config(args)
        return _HANDLERS[cfg.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DephnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
