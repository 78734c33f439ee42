"""Command-line entry point.

Subcommands map one-to-one onto the experiments: single steady-state
solves, time evolution, branch-count and dephasing sweeps, forward vs
reverse rectification, coherence traces, and the calibration searches
that selected the builtin circuits.

Exit codes are a stable scripting contract: 0 for success (including
sweeps that record divergent rows as data), 2 when a requested single
steady state is a physical divergence verdict, 1 for usage mistakes,
file-system errors, numerical failures, and inconclusive runs.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .calibrate import (additivity_pair_search, calibrate_topology,
                        funnel_family, funnel_shortlist, insulating_at_zero,
                        pentagon_family, rectifies_as_published)
from .errors import CircuitFileError, DephnetError, UsageError
from .experiments import (BRANCH_DELTAS, DEFAULT_M_MAX, ENTROPY_T_END,
                          LOG_GRID, _ratio_flips,
                          dephasing_sweep, entropy_trace, rectification_sweep,
                          series_crossings, sweep_branch_count)
from .generator import assemble_generator, empty_state
from .graphs import Circuit
from .observables import (conductance, current_out, relative_entropy_coherence,
                          resistance, voltage)
from .output import (AxesSpec, _finite_points, render_chart, write_records,
                     write_table)
from .registry import builtin_names, read_fields, resolve_circuit
from .steady_state import (CONVERGED, DIVERGED, WINDOW, evolve,
                           solve_ness_by_evolution, solve_ness_direct)


def parse_delta_grid(text: str) -> tuple[float, ...]:
    """Grid grammar: ``log:a:b:n``, ``lin:a:b:n``, or ``x1,x2,...``;
    every point must be a dephasing strength, finite and >= 0."""
    text = text.strip()
    if text.startswith(("log:", "lin:")):
        kind, *rest = text.split(":")
        if len(rest) != 3:
            raise UsageError(f"grid spec {text!r} needs kind:start:stop:count")
        try:
            start, stop, count = float(rest[0]), float(rest[1]), int(rest[2])
        except ValueError as exc:
            raise UsageError(f"bad grid spec {text!r}: {exc}") from exc
        # before spacing: numpy warns on an infinite or NaN endpoint
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise UsageError(f"grid endpoints must be finite, got {text!r}")
        if count < 1:
            raise UsageError("grid needs at least one point")
        if kind == "log":
            if start <= 0 or stop <= 0:
                raise UsageError("log grid endpoints must be positive")
            values = tuple(np.logspace(math.log10(start), math.log10(stop),
                                       count))
        else:
            values = tuple(np.linspace(start, stop, count))
    else:
        try:
            values = tuple(float(tok) for tok in text.split(",") if tok.strip())
        except ValueError as exc:
            raise UsageError(f"bad number list {text!r}: {exc}") from exc
        if not values:
            raise UsageError("empty delta grid")
    if not all(math.isfinite(v) and v >= 0 for v in values):
        raise UsageError(f"dephasing strengths must be finite and >= 0, "
                         f"got {text!r}")
    return values


def _grid_type(text: str) -> tuple[float, ...]:
    """parse_delta_grid as an argparse type. argparse reports an
    ArgumentTypeError with its own message, and any other ValueError,
    UsageError included, as a bare "invalid value"."""
    try:
        return parse_delta_grid(text)
    except UsageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _option(default, only_with=None, **argparse_settings):
    """A RunConfig field that is also the command-line option --name
    (the field name with dashes). Its metadata holds the option's
    argparse keywords and `only_with`, the (option, value) pair for an
    option that takes effect only where that option has that value:
    given as a flag elsewhere it is a usage error, and a config-file
    value is left unused, as for other commands."""
    return field(default=default, metadata={"argparse": argparse_settings,
                                            "only_with": only_with})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: command-line flags over config-file
    values over the command's defaults. Every field but `command` is an
    option (see _option)."""

    command: str
    circuit: str | None = _option(None, metavar="NAME_OR_FILE", help=(
        "builtin circuit name (%s) or a .circuit file path"
        % ", ".join(builtin_names())))
    delta: float | None = _option(None, type=float,
                                  help="pure-dephasing rate on every site")
    delta_grid: tuple[float, ...] | None = _option(
        None, type=_grid_type,
        help="dephasing grid: log:a:b:n, lin:a:b:n, or x1,x2,...")
    solver: str = _option("direct", choices=("direct", "evolution"), help=(
        "linear solve of the stationarity condition, or long-time "
        "integration"))
    tol: float | None = _option(
        None, ("solver", "evolution"), type=float,
        help="residual at which the evolution solver declares convergence")
    t_max: float | None = _option(
        None, ("solver", "evolution"), type=float,
        help="model-time budget of the evolution solver, rounded up to "
             f"whole windows of {WINDOW:g}")
    t_end: float | None = _option(None, type=float,
                                  help="model time to integrate to")
    samples: int = _option(201, type=int,
                           help="sample count of the trajectory or trace")
    initial: str = _option(
        "empty", choices=("empty", "uniform", "source"),
        help="initial state: empty network, maximally mixed, or all "
             "population on the source")
    m_max: int = _option(DEFAULT_M_MAX, type=int, help="largest branch count")
    branch_length: int = _option(1, type=int, help="sites per branch")
    out: str | None = _option(None, metavar="CSV", help="CSV output path")
    plot: bool = _option(False, action="store_true",
                         help="also write an SVG chart next to the CSV")
    search: str | None = _option(None, help="which selection to reproduce",
                                 choices=("pentagon", "additivity", "funnel"))
    max_n: int = _option(6, ("search", "additivity"), type=int, help=(
        "site budget of the additivity pair search"))
    full: bool = _option(
        False, ("search", "funnel"), action="store_true",
        help="funnel search over the whole candidate family instead of the "
             "documented shortlist (slow)")
    find_crossing: bool = _option(False, action="store_true", help=(
        "find every dephasing strength where the forward/reverse ratio "
        "crosses 1, bisecting each sign change on the grid to the 6 "
        "printed decimals"))


#: the options, keyed by their RunConfig field
_OPTION_FIELDS = {f.name: f for f in fields(RunConfig) if f.name != "command"}

_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


class _Parser(argparse.ArgumentParser):
    # usage mistakes exit 1 (argparse's own default is 2, which this
    # tool reserves for divergence verdicts)
    def error(self, message):
        raise UsageError(message)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser() -> tuple[_Parser, dict]:
    # every parser leaves an option it was not given out of the
    # namespace, so parse_config can layer flags over the config file
    parser = _Parser(
        prog="dephnet", argument_default=argparse.SUPPRESS,
        description="Steady-state transport through dephasing site "
                    "networks driven between a source and a drain.")
    parser.add_argument("--config", metavar="FILE",
                        help="file of `key: value` defaults; command-line "
                             "flags override it")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (_, options, defaults, text) in _COMMANDS.items():
        # add_parser inherits _Parser, so usage mistakes raise UsageError
        p = sub.add_parser(name, help=text, description=text,
                           argument_default=argparse.SUPPRESS)
        # accepted after the command too; when absent it is left out of
        # the namespace, so a --config before the command still counts
        p.add_argument("--config", metavar="FILE", help=argparse.SUPPRESS)
        for key in options.split():
            kwargs = dict(_OPTION_FIELDS[key].metadata["argparse"])
            default = defaults.get(key, _OPTION_FIELDS[key].default)
            if default is not None and not isinstance(default, (bool, tuple)):
                kwargs["help"] += f" (default {default})"
            p.add_argument(_flag(key), **kwargs)
    return parser, sub.choices


def _config_tokens(path: str, options: list[str]) -> list[str]:
    """The `key: value` entries of a config file, read by the circuit
    file reader, that name one of `options`, as `--flag=value` tokens;
    a boolean key is its flag or nothing."""
    try:
        values = read_fields(Path(path).read_text(encoding="utf-8"), path)[0]
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except CircuitFileError as exc:
        raise UsageError(str(exc)) from exc
    unknown = set(values) - set(_OPTION_FIELDS)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    tokens = []
    for key in (k for k in options if k in values):
        if not isinstance(_OPTION_FIELDS[key].default, bool):
            tokens.append(f"{_flag(key)}={values[key]}")
        elif values[key].lower() not in _BOOLEANS:
            raise UsageError(f"config key {key!r} expects a boolean, "
                             f"got {values[key]!r}")
        elif _BOOLEANS[values[key].lower()]:
            tokens.append(_flag(key))
    return tokens


def parse_config(argv) -> RunConfig:
    """Parse flags plus an optional `key: value` config file. Flags win
    over the file, and the file over the command's defaults. A flag the
    resolved run would ignore (see _option) raises
    UsageError, and so does an --out ending in .svg with --plot, whose
    chart would overwrite the CSV."""
    parser, subparsers = _build_parser()
    given = vars(parser.parse_args(argv))
    command = given.pop("command")
    if command is None:
        raise UsageError("a command is required (see --help)")
    _, options, defaults, _ = _COMMANDS[command]
    from_file = {}
    path = given.pop("config", None)
    if path:
        tokens = _config_tokens(path, options.split())
        try:
            from_file = vars(subparsers[command].parse_args(tokens))
        except UsageError as exc:
            raise UsageError(f"config file {path}: {exc}") from exc
    cfg = RunConfig(command=command, **{**defaults, **from_file, **given})
    for key in given:
        only_with = _OPTION_FIELDS[key].metadata["only_with"]
        if only_with and getattr(cfg, only_with[0]) != only_with[1]:
            raise UsageError(f"{_flag(key)} applies only with "
                             f"{_flag(only_with[0])} {only_with[1]}")
    # the chart goes to the CSV path with suffix .svg (see _maybe_chart)
    if cfg.plot and cfg.out and Path(cfg.out).suffix == ".svg":
        raise UsageError(f"--out {cfg.out} is where --plot writes the chart; "
                         f"give the CSV another suffix")
    return cfg


def _require(cfg: RunConfig, name: str):
    value = getattr(cfg, name)
    if value is None:
        raise UsageError(f"{_flag(name)} is required for `{cfg.command}`")
    return value


def _maybe_chart(cfg: RunConfig, rows, axes: AxesSpec, csv_path: Path) -> None:
    if not cfg.plot:
        return
    chart = csv_path.with_suffix(".svg")
    if render_chart(rows, axes, chart):
        print(f"chart  {chart}")
    elif any(_finite_points(rows, axes)):
        print("chart  omitted: no finite point is positive on its log axes")
    else:
        print("chart  omitted: no point is finite on both axes")


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
    if res.condition is not None:
        print(f"condition       {res.condition:.3e}")
    if res.status == CONVERGED:
        rho = res.rho_ness
        print(f"current      {current_out(rho, c):.12g}")
        print(f"voltage      {voltage(rho, c):.12g}")
        print(f"resistance   {resistance(res, c):.12g}")
        print(f"conductance  {conductance(res, c):.12g}")
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
    coherence = relative_entropy_coherence(traj.states).tolist()
    rows = [(t, trace, rho[c.source, c.source].real, rho[c.sink, c.sink].real, s)
            for t, trace, rho, s in zip(traj.times, traj.trace_series,
                                        traj.states, coherence)]
    if cfg.out:
        path = Path(cfg.out)
        write_table(rows, ("t", "trace", "source_pop", "sink_pop", "coherence"),
                    path)
        print(f"wrote  {path}")
    final = rows[-1]
    print(f"t_end        {final[0]:g}")
    print(f"trace        {final[1]:.12g}")
    print(f"source pop   {final[2]:.12g}")
    print(f"sink pop     {final[3]:.12g}")
    print(f"coherence    {final[4]:.12g}")
    return 0


def _cmd_sweep_branches(cfg: RunConfig) -> int:
    records = sweep_branch_count(cfg.m_max, cfg.delta_grid, cfg.branch_length)
    path = Path(cfg.out)
    write_records(records, path)
    print(f"wrote  {path} ({len(records)} rows)")
    _maybe_chart(cfg, records, AxesSpec(
        x_field="branches", y_field="G", series_field="delta",
        x_label="branch count m", y_label="conductance G",
        title="Conductance vs parallel branches"), path)
    return 0


def _cmd_sweep_dephasing(cfg: RunConfig) -> int:
    c = resolve_circuit(_require(cfg, "circuit"))
    records = dephasing_sweep(c, cfg.delta_grid)
    path = Path(cfg.out)
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
    records, series = rectification_sweep(cfg.delta_grid, circuit=c)
    path = Path(cfg.out)
    write_records(records, path)
    print(f"wrote  {path} ({len(records)} rows)")
    rows = [{"delta": d, "ratio": r} for d, r in series]
    _maybe_chart(cfg, rows, AxesSpec(
        x_field="delta", y_field="ratio", x_label="dephasing rate",
        y_label="forward R / reverse R", title="Rectification ratio",
        log_x=True, guideline_y=1.0), path)

    for lo, hi in _ratio_flips(series):
        print(f"ratio crosses 1 between delta {lo:.6g} and {hi:.6g}")
    if not cfg.find_crossing:
        return 0
    for crossing in series_crossings(series, c):
        print(f"crossing  {crossing:.6f}")
    return 0


def _cmd_entropy_trace(cfg: RunConfig) -> int:
    c = resolve_circuit(_require(cfg, "circuit"))
    times, values = entropy_trace(c, cfg.delta, cfg.t_end, cfg.samples)
    path = Path(cfg.out)
    write_table(zip(times, values), ("t", "coherence"), path)
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
        matches = calibrate_topology(pentagon_family(), insulating_at_zero)
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
    matches = calibrate_topology(family, rectifies_as_published)
    print(f"{len(matches)} candidates match the rectification targets:")
    for c in matches:
        _print_circuit(c)
    return 0


#: per command: handler, options in help order, the defaults that
#: belong to it alone (the rest are RunConfig's), and help text
_COMMANDS = {
    "ness": (_cmd_ness, "circuit delta solver tol t_max", {},
             "solve one steady state and report transport numbers"),
    "evolve": (_cmd_evolve, "circuit delta t_end samples initial out", {},
               "integrate the equation of motion and dump the trajectory"),
    "sweep-branches": (
        _cmd_sweep_branches, "m_max branch_length delta_grid out plot",
        {"delta_grid": BRANCH_DELTAS, "out": "branch_sweep.csv"},
        "conductance versus branch count for the parallel-branch family"),
    "sweep-dephasing": (
        _cmd_sweep_dephasing, "circuit delta_grid out plot",
        {"delta_grid": (0.0,) + LOG_GRID, "out": "dephasing_sweep.csv"},
        "resistance of one circuit across a dephasing grid"),
    "rectify": (
        _cmd_rectify,
        "circuit delta_grid find_crossing out plot",
        {"delta_grid": LOG_GRID, "out": "rectification.csv"},
        "forward versus reverse resistance across a dephasing grid"),
    "entropy-trace": (
        _cmd_entropy_trace, "circuit delta t_end samples out plot",
        {"delta": 0.0, "t_end": ENTROPY_T_END, "out": "entropy_trace.csv"},
        "coherence content over time from the empty initial state"),
    "calibrate": (_cmd_calibrate, "search max_n full", {},
                  "re-run a topology search that selected a builtin circuit"),
}


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        return _COMMANDS[cfg.command][0](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DephnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
