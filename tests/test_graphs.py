import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dephnet import (Circuit, Graph, GraphConstructionError, UsageError,
                     build_graph, find_conductance_peak, laplacian_hamiltonian,
                     make_parallel_circuit, make_pentagon, make_wire,
                     reverse_circuit, sweep_branch_count)


def test_build_graph_wire_shape():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))
    assert g.degree(1) == 2


@pytest.mark.parametrize("edges, message", [
    ([(0, 3)], "out of range"),
    ([(1, 1)], "self-loop"),
    ([(0, 1), (1, 0)], "duplicate"),
    ([(0, 1)], "connected"),  # site 2 is isolated
])
def test_build_graph_rejects(edges, message):
    with pytest.raises(GraphConstructionError, match=message):
        build_graph(3, edges)


@pytest.mark.parametrize("n", [0, -1])
def test_build_graph_refuses_site_count_below_one(n):
    # refused before the n x n adjacency is allocated, which a negative n
    # would fail with numpy's own ValueError
    with pytest.raises(GraphConstructionError, match="site count"):
        build_graph(n, [])


def test_graph_validates_raw_adjacency():
    with pytest.raises(GraphConstructionError, match=r"shape \(2, 2\).*n=3"):
        Graph(3, np.zeros((2, 2)))
    with pytest.raises(GraphConstructionError, match="symmetric"):
        Graph(2, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(GraphConstructionError, match="diagonal"):
        Graph(2, np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(GraphConstructionError, match="0 or 1"):
        Graph(2, np.array([[0.0, 2.0], [2.0, 0.0]]))


def test_adjacency_is_read_only():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 0.0


def test_circuit_endpoints_validated():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(GraphConstructionError):
        Circuit(g, 0, 5)
    with pytest.raises(GraphConstructionError):
        Circuit(g, 1, 1)
    # the single site is the only case where source may equal sink
    lone = build_graph(1, [])
    assert Circuit(lone, 0, 0).source == 0


@pytest.mark.parametrize("source, sink", [(0.0, 1), (0, 1.0), (True, 0),
                                          (0, np.float64(1.0)), (0, "1")])
def test_circuit_refuses_a_site_that_is_not_an_integer(source, sink):
    # a float would fail later in voltage, and True would mean site 1
    with pytest.raises(GraphConstructionError,
                       match="(source|sink) must be an integer of at least 0"):
        Circuit(build_graph(2, [(0, 1)]), source, sink)


def test_circuit_accepts_numpy_integer_sites():
    c = Circuit(build_graph(2, [(0, 1)]), np.int64(0), np.int32(1))
    assert (c.source, c.sink) == (0, 1)


def test_laplacian_wire3():
    h = laplacian_hamiltonian(make_wire(3).graph)
    assert np.array_equal(h, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


@given(st.integers(min_value=2, max_value=8), st.data())
@settings(max_examples=40, deadline=None)
def test_laplacian_rows_sum_to_zero(n, data):
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    spanning = [(i, i + 1) for i in range(n - 1)]
    extra = data.draw(st.lists(st.sampled_from(all_pairs), unique=True))
    edges = sorted(set(spanning) | set(extra))
    h = laplacian_hamiltonian(build_graph(n, edges))
    assert np.array_equal(h, h.T)
    assert np.abs(h.sum(axis=1)).max() == 0


def test_make_wire_endpoints():
    c = make_wire(4)
    assert (c.source, c.sink) == (0, 3)
    assert c.label == "wire4"
    with pytest.raises(GraphConstructionError):
        make_wire(0)


def test_make_parallel_circuit_structure():
    c = make_parallel_circuit(3, branch_length=2)
    assert c.graph.n == 2 + 3 * 2
    assert c.graph.degree(c.source) == 3
    assert c.graph.degree(c.sink) == 3
    # interior sites form disjoint chains
    for site in range(1, c.graph.n - 1):
        assert c.graph.degree(site) == 2
    with pytest.raises(GraphConstructionError):
        make_parallel_circuit(0)
    with pytest.raises(GraphConstructionError):
        make_parallel_circuit(2, branch_length=0)


def test_make_pentagon_is_cycle():
    c = make_pentagon()
    assert c.graph.n == 5
    assert all(c.graph.degree(v) == 2 for v in range(5))
    assert c.sink == 2
    with pytest.raises(GraphConstructionError):
        make_pentagon(0)


def test_reverse_circuit_is_involution():
    c = make_pentagon()
    r = reverse_circuit(c)
    assert (r.source, r.sink) == (c.sink, c.source)
    assert reverse_circuit(r) == c
    assert r.graph == c.graph


@pytest.mark.parametrize("build, args, error", [
    (build_graph, (2.5, []), GraphConstructionError),
    (build_graph, (True, []), GraphConstructionError),
    (make_wire, (2.5,), GraphConstructionError),
    (make_parallel_circuit, (2.5,), GraphConstructionError),
    (sweep_branch_count, (2.5,), UsageError),
    (find_conductance_peak, (1.0, 4.5), UsageError),
], ids=["build_graph-float", "build_graph-bool", "make_wire",
        "make_parallel_circuit", "sweep_branch_count", "find_conductance_peak"])
def test_non_integer_counts_are_refused_by_type(build, args, error):
    # a count that is not an integer (bool included) is refused before
    # numpy or range would raise a raw TypeError
    with pytest.raises(error, match="integer"):
        build(*args)
