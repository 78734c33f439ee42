"""Graphs, circuits, and constructors of the generated devices (wire,
parallel branches, pentagon); the calibrated devices that ship as files
are built in `registry`.

Sites are indexed from 0. Every edge is an identical hopping element, so
the Hamiltonian is the graph Laplacian D - A: vertex degree on the
diagonal, -1 for each edge.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import GraphConstructionError, require_count


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple connected graph.

    Attributes
    ----------
    n : int
        Number of sites.
    adjacency : numpy.ndarray
        Symmetric (n, n) matrix with entries in {0, 1} and zero diagonal.
    """

    n: int
    adjacency: np.ndarray

    def __post_init__(self):
        require_count(self.n, "site count", 1, GraphConstructionError)
        a = np.asarray(self.adjacency, dtype=float)
        if a.shape != (self.n, self.n):
            raise GraphConstructionError(
                f"adjacency shape {a.shape} does not match n={self.n}")
        if not np.array_equal(a, a.T):
            raise GraphConstructionError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise GraphConstructionError("adjacency diagonal must be zero")
        if not np.all((a == 0) | (a == 1)):
            raise GraphConstructionError("adjacency entries must be 0 or 1")
        if not _connected(a):
            raise GraphConstructionError("graph must be connected")
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted tuple of (i, j) pairs with i < j."""
        i, j = np.nonzero(np.triu(self.adjacency))
        return tuple(zip(i.tolist(), j.tolist()))

    def degree(self, site: int) -> int:
        return int(self.adjacency[site].sum())

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.adjacency, other.adjacency))


def _connected(adjacency: np.ndarray) -> bool:
    n = adjacency.shape[0]
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in np.nonzero(adjacency[v])[0]:
            if int(w) not in seen:
                seen.add(int(w))
                queue.append(int(w))
    return len(seen) == n


@dataclass(frozen=True)
class Circuit:
    """A graph with designated source and sink sites, given as Python
    or numpy integers (not bools)."""

    graph: Graph
    source: int
    sink: int
    label: str = ""

    def __post_init__(self):
        n = self.graph.n
        require_count(self.source, "source", 0, GraphConstructionError)
        require_count(self.sink, "sink", 0, GraphConstructionError)
        if not (self.source < n and self.sink < n):
            raise GraphConstructionError("source and sink must be in [0, n)")
        if self.source == self.sink and n > 1:
            raise GraphConstructionError(
                "source and sink must differ unless the circuit has one site")


def build_graph(n: int, edges) -> Graph:
    """Build a validated graph from an edge list.

    Raises GraphConstructionError on a site count or an endpoint that
    is not an integer (bools included), a site count below 1 (before
    any allocation), endpoints out of range, duplicate edges,
    self-loops, or a disconnected result.
    """
    require_count(n, "site count", 1, GraphConstructionError)
    adjacency = np.zeros((n, n))
    seen = set()
    for edge in edges:
        i, j = (require_count(v, "edge endpoint", 0, GraphConstructionError)
                for v in edge)
        if not (i < n and j < n):
            raise GraphConstructionError(f"edge ({i}, {j}) out of range for n={n}")
        if i == j:
            raise GraphConstructionError(f"self-loop at site {i}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphConstructionError(f"duplicate edge {key}")
        seen.add(key)
        adjacency[i, j] = adjacency[j, i] = 1
    return Graph(n, adjacency)


def laplacian_hamiltonian(g: Graph) -> np.ndarray:
    """Graph Laplacian D - A as a real symmetric matrix.

    Row sums are exactly zero: the diagonal carries the degree and each
    edge contributes -1.
    """
    a = g.adjacency
    return np.diag(a.sum(axis=1)) - a


def make_wire(length: int) -> Circuit:
    """Path of `length` sites, source at one end, sink at the other.

    length=1 gives the degenerate single site with source = sink,
    allowed only as a solver smoke test (drho/dt = 1 - 2*rho).
    """
    require_count(length, "wire length", 1, GraphConstructionError)
    edges = [(i, i + 1) for i in range(length - 1)]
    return Circuit(build_graph(length, edges), 0, length - 1,
                   label=f"wire{length}")


def make_parallel_circuit(branches: int, branch_length: int = 1) -> Circuit:
    """Source and sink joined by `branches` disjoint paths.

    Each path contains `branch_length` interior sites, so the device has
    2 + branches * branch_length sites in total. branch_length defaults
    to 1, the value at which two branches quadruple the conductance of
    the single branch.
    """
    require_count(branches, "branch count", 1, GraphConstructionError)
    require_count(branch_length, "branch length", 1, GraphConstructionError)
    n = 2 + branches * branch_length
    source, sink = 0, n - 1
    edges = []
    for b in range(branches):
        first = 1 + b * branch_length
        chain = [source] + list(range(first, first + branch_length)) + [sink]
        edges.extend(zip(chain[:-1], chain[1:]))
    return Circuit(build_graph(n, edges), source, sink,
                   label=f"parallel{branches}x{branch_length}")


#: Sink choice exported as the canonical pentagon. Every sink placement
#: on the 5-cycle is insulating at delta = 0 (the cycle always has an
#: eigenstate with zero sink amplitude); site 2, two bonds from the
#: source, is the representative recorded in the shipped circuit file.
CANONICAL_PENTAGON_SINK = 2


def make_pentagon(sink_site: int = CANONICAL_PENTAGON_SINK) -> Circuit:
    """5-cycle with source at site 0 and the sink at `sink_site`."""
    if sink_site not in (1, 2, 3, 4):
        raise GraphConstructionError("pentagon sink must be in {1, 2, 3, 4}")
    edges = [(i, (i + 1) % 5) for i in range(5)]
    return Circuit(build_graph(5, edges), 0, sink_site, label="pentagon")


def reverse_circuit(c: Circuit) -> Circuit:
    """Same graph with source and sink exchanged (an involution)."""
    return replace(c, source=c.sink, sink=c.source)
