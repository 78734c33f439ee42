"""Builtin circuit registry, the calibrated devices, and the
``key: value`` circuit file format.

A circuit file is plain text, one circuit per file, whitespace
insensitive, with ``#`` starting a comment anywhere on a line:

    # optional comments
    label: pentagon
    n: 5
    edges: 0-1 1-2 2-3 3-4 0-4
    source: 0
    sink: 2

`parse_circuit_text` reads that format: blank lines are skipped, keys
are read lowercased, and a line without a colon or a repeated key is an
error that names the line.

The calibrated topologies ship as files with their calibration
provenance embedded as comments. Every file-backed builtin, by name
or by constructor, is loaded by `load_builtin`, which looks for the
``calibration-status: validated`` marker among the comments and
refuses to build without it.
"""
from __future__ import annotations

import re
from importlib import resources
from pathlib import Path

from .errors import CalibrationNotRunError, CircuitFileError, GraphConstructionError, UnknownCircuitError
from .graphs import Circuit, build_graph, make_wire, reverse_circuit

CALIBRATION_MARKER = "calibration-status: validated"

_FILE_BY_NAME = {
    "pentagon": "pentagon.circuit",
    "additivity-a": "additivity_a.circuit",
    "additivity-b": "additivity_b.circuit",
    "triangle": "triangle_funnel.circuit",
}
_ALIASES = {"funnel": "triangle"}
_WIRE_RE = re.compile(r"^wire(\d+)$")


def parse_circuit_text(text: str, origin: str = "<string>") -> tuple[Circuit, list[str]]:
    """Parse a circuit definition, returning the circuit and its comments.
    CircuitFileError names `origin`, and the line of a line without a
    colon or of a repeated key."""
    fields: dict[str, str] = {}
    comments: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("#")
        comment = comment.strip()
        if comment:
            comments.append(comment)
        line = line.strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise CircuitFileError(
                f"{origin}:{lineno}: expected 'key: value', got {raw!r}")
        key = key.strip().lower()
        if key in fields:
            raise CircuitFileError(f"{origin}:{lineno}: duplicate field {key!r}")
        fields[key] = value.strip()
    for required in ("n", "edges", "source", "sink"):
        if required not in fields:
            raise CircuitFileError(f"{origin}: missing field {required!r}")
    unknown = set(fields) - {"n", "edges", "source", "sink", "label"}
    if unknown:
        raise CircuitFileError(f"{origin}: unknown fields {sorted(unknown)}")

    try:
        n = int(fields["n"])
        source = int(fields["source"])
        sink = int(fields["sink"])
    except ValueError as exc:
        raise CircuitFileError(f"{origin}: non-integer field: {exc}") from exc
    edges = []
    for token in fields["edges"].split():
        m = re.fullmatch(r"(\d+)-(\d+)", token)
        if not m:
            raise CircuitFileError(
                f"{origin}: bad edge token {token!r}, expected 'i-j'")
        edges.append((int(m.group(1)), int(m.group(2))))
    try:
        circuit = Circuit(build_graph(n, edges), source, sink,
                          label=fields.get("label", ""))
    except GraphConstructionError as exc:
        raise CircuitFileError(f"{origin}: {exc}") from exc
    return circuit, comments


def parse_circuit_file(path) -> tuple[Circuit, list[str]]:
    path = Path(path)
    return parse_circuit_text(path.read_text(encoding="utf-8"), origin=str(path))


def format_circuit(c: Circuit, comments: list[str] | None = None) -> str:
    """Render a circuit in the definition file format (the exporter)."""
    lines = [f"# {comment}" for comment in (comments or [])]
    if c.label:
        lines.append(f"label: {c.label}")
    lines.append(f"n: {c.graph.n}")
    lines.append("edges: " + " ".join(f"{i}-{j}" for i, j in c.graph.edges))
    lines.append(f"source: {c.source}")
    lines.append(f"sink: {c.sink}")
    return "\n".join(lines) + "\n"


def write_circuit_file(c: Circuit, path, comments: list[str] | None = None) -> None:
    """Write format_circuit's text to path, once it reads back as the same
    circuit and comments. A label with '#' or padding, or a comment with
    padding or a line break, would not: CircuitFileError, and no file."""
    comments = list(comments or [])
    text = format_circuit(c, comments)
    if parse_circuit_text(text, f"{path} as written") != (c, comments):
        raise CircuitFileError(f"{path}: would not read back as written")
    Path(path).write_text(text, encoding="utf-8")


def builtin_names() -> list[str]:
    """Registered names (the wireN family is matched by pattern)."""
    return sorted(_FILE_BY_NAME) + sorted(_ALIASES) + ["wire<N>"]


def _read_builtin(name: str) -> tuple[Circuit, list[str]]:
    fname = _FILE_BY_NAME[name]
    text = resources.files(__package__).joinpath("circuits", fname).read_text(
        encoding="utf-8")
    return parse_circuit_text(text, origin=f"builtin:{name}")


def load_builtin(name: str) -> Circuit:
    """Resolve a builtin circuit name: the wireN family, or a shipped
    file, which must carry a completed-calibration record. Unknown names
    are an error, never silently empty."""
    key = _ALIASES.get(name, name)
    wire = _WIRE_RE.match(key)
    if wire:
        return make_wire(int(wire.group(1)))
    if key not in _FILE_BY_NAME:
        raise UnknownCircuitError(f"unknown builtin circuit {name!r}; "
                                  f"known: {', '.join(builtin_names())}")
    circuit, comments = _read_builtin(key)
    if not any(CALIBRATION_MARKER in comment for comment in comments):
        raise CalibrationNotRunError(
            f"circuit {name!r} has no {CALIBRATION_MARKER!r} record; "
            "run the calibration search before using this circuit")
    return circuit


def resolve_circuit(spec: str) -> Circuit:
    """CLI-facing resolution: a circuit file if the spec ends in
    .circuit or names a file, else a builtin name. A directory is read
    as a path only where it names no builtin, so `funnel/` beside the
    command does not shadow the funnel."""
    path = Path(spec)
    if path.suffix != ".circuit" and not path.is_file():
        try:
            return load_builtin(spec)
        except UnknownCircuitError:
            if not path.exists():
                raise
    elif not path.exists():
        raise CircuitFileError(f"circuit file not found: {spec}")
    return parse_circuit_file(path)[0]


def make_additivity_pair() -> tuple[Circuit, Circuit]:
    """The calibrated one-extra-edge pair (A, B).

    B's graph is A's plus exactly one edge; both share source and sink;
    both measure R = 1.75 +/- 0.01 at delta = 0 while B is the more
    resistive device at any tested delta > 0. Refuses to construct the
    pair if the shipped definition files lack a calibration record.
    """
    a = load_builtin("additivity-a")
    b = load_builtin("additivity-b")
    if len(b.graph.edges) != len(a.graph.edges) + 1:
        raise GraphConstructionError("pair must differ by exactly one edge")
    if (a.source, a.sink) != (b.source, b.sink):
        raise GraphConstructionError("pair must share source and sink")
    return a, b


def make_triangle_funnel(direction: str = "forward") -> Circuit:
    """The calibrated triangulated device with direction-dependent R.

    `forward` is the orientation stored in the shipped definition file;
    `reverse` swaps source and sink. Refuses to construct the circuit if
    the definition file lacks a calibration record.
    """
    if direction not in ("forward", "reverse"):
        raise GraphConstructionError(
            f"direction must be 'forward' or 'reverse', got {direction!r}")
    c = load_builtin("triangle")
    return c if direction == "forward" else reverse_circuit(c)
