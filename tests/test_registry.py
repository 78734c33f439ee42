import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dephnet import (CalibrationNotRunError, Circuit, CircuitFileError,
                     UnknownCircuitError, build_graph, load_builtin,
                     make_wire, parse_circuit_file, parse_circuit_text,
                     resolve_circuit, write_circuit_file)
from dephnet.registry import builtin_names, format_circuit

GOOD = """
# a comment
label: demo
n: 3
edges: 0-1 1-2
source: 0
sink: 2
"""


def test_parse_basic():
    c, comments = parse_circuit_text(GOOD)
    assert c.label == "demo"
    assert c.graph.edges == ((0, 1), (1, 2))
    assert (c.source, c.sink) == (0, 2)
    assert comments == ["a comment"]


@pytest.mark.parametrize("mutation, message", [
    (lambda t: t.replace("n: 3\n", ""), "missing field 'n'"),
    (lambda t: t + "n: 4\n", "duplicate field"),
    (lambda t: t + "color: red\n", "unknown fields"),
    (lambda t: t.replace("0-1", "0->1"), "bad edge token"),
    (lambda t: t.replace("n: 3", "n: three"), "non-integer"),
    (lambda t: t.replace("edges: 0-1 1-2", "edges: 0-1"), "connected"),
    (lambda t: t.replace("sink: 2", "sink: 9"), "source and sink"),
    (lambda t: t.replace("label: demo", "label demo"), "expected 'key"),
    # refused before the graph's n x n adjacency is allocated
    (lambda t: t.replace("n: 3", "n: -1"),
     "site count must be an integer of at least 1, got -1"),
])
def test_parse_rejects(mutation, message):
    with pytest.raises(CircuitFileError, match=message):
        parse_circuit_text(mutation(GOOD))


@pytest.mark.parametrize("text, message", [
    # keys are read lowercased, so N repeats n
    (GOOD + "N: 4\n", "demo.circuit:8: duplicate field 'n'"),
    (GOOD.replace("label: demo", "label demo"),
     "demo.circuit:3: expected 'key: value', got 'label demo'"),
    # a colon in a comment does not make the line a field
    (GOOD.replace("label: demo", "label  # note: demo"),
     "demo.circuit:3: expected 'key: value', got 'label  # note: demo'"),
], ids=["repeated-key", "no-colon", "colon-in-comment"])
def test_parse_names_origin_and_line(text, message):
    with pytest.raises(CircuitFileError) as exc:
        parse_circuit_text(text, origin="demo.circuit")
    assert str(exc.value) == message


def test_comments_collected_from_anywhere():
    text = GOOD.replace("source: 0", "source: 0  # trailing note")
    _, comments = parse_circuit_text(text)
    assert comments == ["a comment", "trailing note"]


def test_round_trip_through_exporter(tmp_path):
    c, _ = parse_circuit_text(GOOD)
    path = tmp_path / "demo.circuit"
    write_circuit_file(c, path, comments=["exported"])
    reparsed, comments = parse_circuit_file(path)
    assert reparsed == c
    assert comments == ["exported"]


@given(st.integers(min_value=2, max_value=7), st.data())
@settings(max_examples=30, deadline=None)
def test_round_trip_property(n, data):
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    spanning = [(i, i + 1) for i in range(n - 1)]
    extra = data.draw(st.lists(st.sampled_from(all_pairs), unique=True))
    g = build_graph(n, sorted(set(spanning) | set(extra)))
    source = data.draw(st.integers(0, n - 1))
    sink = data.draw(st.integers(0, n - 1).filter(lambda k: k != source))
    c = Circuit(g, source, sink, label="prop")
    reparsed, _ = parse_circuit_text(format_circuit(c))
    assert reparsed == c


def test_builtin_wire_family():
    assert load_builtin("wire5") == make_wire(5)
    assert "wire<N>" in builtin_names()


def test_builtin_unknown_name_is_error():
    with pytest.raises(UnknownCircuitError, match="nosuch"):
        load_builtin("nosuch")


def test_builtin_calibrated_circuits_load():
    for name in ("pentagon", "additivity-a", "additivity-b", "triangle"):
        c = load_builtin(name)
        assert c.graph.n >= 5
    # the alias reaches the same device
    assert load_builtin("funnel") == load_builtin("triangle")


def test_calibration_marker_enforced(tmp_path, monkeypatch):
    import dephnet.registry as registry

    unvalidated = tmp_path / "raw.circuit"
    write_circuit_file(load_builtin("pentagon"), unvalidated,
                       comments=["no calibration record here"])
    monkeypatch.setitem(registry._FILE_BY_NAME, "raw", str(unvalidated))
    monkeypatch.setattr(
        registry, "_read_builtin",
        lambda name: parse_circuit_file(registry._FILE_BY_NAME[name]))
    # a shipped name, as the CLI resolves it, is refused
    with pytest.raises(CalibrationNotRunError, match="calibration"):
        load_builtin("raw")


def test_resolve_circuit_path_and_name(tmp_path):
    assert resolve_circuit("wire3") == make_wire(3)
    path = tmp_path / "w.circuit"
    write_circuit_file(make_wire(4), path)
    assert resolve_circuit(str(path)) == make_wire(4)
    with pytest.raises(CircuitFileError, match="not found"):
        resolve_circuit(str(tmp_path / "missing.circuit"))


def test_shipped_files_match_constructor_labels():
    pentagon = load_builtin("pentagon")
    assert pentagon.label == "pentagon"
    assert np.trace(pentagon.graph.adjacency) == 0
