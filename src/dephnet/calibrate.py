"""Topology calibration: search a candidate family for circuits that
reproduce published transport numbers.

The shipped devices (additivity pair, pentagon sink, triangle funnel)
were frozen from searches over bounded families (n <= 8, at most 14
edges); this module keeps those searches reproducible. Each search is a
predicate over one candidate (`insulating_at_zero`,
`rectifies_as_published`) checked against the published numbers kept
here beside it; `calibrate_topology` keeps the candidates it accepts,
one after another, and returns them in a canonical sorted order, so
results never depend on the order of the family.

networkx is imported inside the three functions that walk the graph
atlas, so importing the package does not load it.
"""
from __future__ import annotations

from math import inf, isfinite
from typing import Callable, Iterable

import numpy as np

from .errors import CalibrationError, require_count
from .experiments import (_ratio_flips, _resistance_at, funnel_ratio,
                          series_crossings)
from .graphs import Circuit, Graph, build_graph, make_pentagon, make_wire
from .registry import load_builtin

#: Enumeration bound on edges: desk scale, every shipped device fits.
#: Sites are bounded by the atlas, up to 7 (see _connected_atlas).
MAX_EDGES = 14

#: The additivity pair's published numbers: R_A = R_B = 1.75 +/- 0.01 at
#: delta = 0.
ADDITIVITY_DELTA = 0.0
ADDITIVITY_R = 1.75
ADDITIVITY_R_TOL = 0.01
#: The window is closed, and a resistance within this fraction of
#: ADDITIVITY_R_TOL past its edge counts as on the edge: two n = 7 pairs
#: have R_A = R_B = 1.76, and rounding alone must not decide them.
ADDITIVITY_EDGE_SLACK = 1e-9

#: The funnel's published numbers: its forward/reverse ratio crosses 1
#: once in (0, 1), at 0.2259 +/- 0.005, and is 1 +/- 0.01 at delta = 100,
#: where transport is classical.
FUNNEL_CROSSING = 0.2259
FUNNEL_CROSSING_TOL = 0.005
FUNNEL_CLASSICAL_DELTA = 100.0
FUNNEL_CLASSICAL_TOL = 0.01

_CROSSING_GRID = np.logspace(-3.0, 0.0, 25)


def _canonical_key(c: Circuit):
    return (c.graph.n, len(c.graph.edges), c.graph.edges, c.source, c.sink,
            c.label)


def _single_crossing(c: Circuit) -> float | None:
    """Location of the ratio's sign change if there is exactly one in
    (0, 1); None otherwise."""
    ratios = [funnel_ratio(d, c) for d in _CROSSING_GRID]
    if not all(isfinite(r) for r in ratios):
        return None
    series = list(zip(_CROSSING_GRID, ratios))
    if len(_ratio_flips(series)) != 1:
        return None
    return series_crossings(series, c)[0]


def insulating_at_zero(c: Circuit) -> bool:
    """True if c has no steady state without dephasing (R = inf at
    delta = 0), as every pentagon sink placement."""
    return _resistance_at(c, 0.0) == inf


def rectifies_as_published(c: Circuit) -> bool:
    """True if c's ratio crosses 1 once in (0, 1), within
    FUNNEL_CROSSING_TOL of FUNNEL_CROSSING, and is within
    FUNNEL_CLASSICAL_TOL of 1 at FUNNEL_CLASSICAL_DELTA; the second
    pair of solves is made only when the crossing matches."""
    crossing = _single_crossing(c)
    return (crossing is not None
            and abs(crossing - FUNNEL_CROSSING) <= FUNNEL_CROSSING_TOL
            and abs(funnel_ratio(FUNNEL_CLASSICAL_DELTA, c) - 1.0)
            <= FUNNEL_CLASSICAL_TOL)


def calibrate_topology(family: Iterable[Circuit],
                       matches: Callable[[Circuit], bool]) -> list[Circuit]:
    """Every candidate of the family that `matches` accepts, tried in
    family order and returned in canonical order.

    Raises CalibrationError for an empty family, and
    UnphysicalSolutionError where the direct solver refuses a probe.
    """
    candidates = list(family)
    if not candidates:
        raise CalibrationError("candidate family is empty")
    return sorted(filter(matches, candidates), key=_canonical_key)


# ---------------------------------------------------------------------------
# candidate families


def _connected_atlas(min_n: int, max_n: int, max_edges: int):
    """All connected graphs with min_n <= n <= max_n and at most
    max_edges edges (atlas order)."""
    import networkx as nx

    require_count(max_n, "max_n of the atlas enumeration", min_n, CalibrationError)
    if max_n > 7:
        raise CalibrationError("atlas enumeration covers up to 7 sites")
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n < min_n or n > max_n:
            continue
        if g.number_of_edges() > max_edges:
            continue
        if not nx.is_connected(g):
            continue
        yield Graph(n, nx.to_numpy_array(g, nodelist=sorted(g.nodes())))


def pentagon_family() -> list[Circuit]:
    """All four sink placements on the five-site ring."""
    return [make_pentagon(sink) for sink in (1, 2, 3, 4)]


def additivity_pair_search(max_n: int = 6):
    """Pairs (A, B = A + one edge) of at most max_n sites with R_A and
    R_B both at ADDITIVITY_R +/- ADDITIVITY_R_TOL at ADDITIVITY_DELTA.

    Returns a list of (A, B, degenerate) triples in canonical order.
    `degenerate` flags pairs whose extra edge joins two sites that a
    graph automorphism of B (fixing source and sink) swaps; those pairs
    keep R_A = R_B at every dephasing strength, so they can never show
    the classical ordering R_B > R_A.
    """
    found = []
    for graph in _connected_atlas(2, max_n, MAX_EDGES - 1):
        n = graph.n
        r_a = {(s, k): _resistance_at(Circuit(graph, s, k), ADDITIVITY_DELTA)
               for s in range(n) for k in range(n) if s != k}
        non_edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if graph.adjacency[i, j] == 0]
        for extra in non_edges:
            graph_b = build_graph(n, list(graph.edges) + [extra])
            for (s, k), ra in r_a.items():
                if not _in_additivity_window(ra):
                    continue
                rb = _resistance_at(Circuit(graph_b, s, k), ADDITIVITY_DELTA)
                if not _in_additivity_window(rb):
                    continue
                a = Circuit(graph, s, k, label="candidate-a")
                b = Circuit(graph_b, s, k, label="candidate-b")
                found.append((a, b, _extra_edge_degenerate(b, extra)))
    return sorted(found, key=lambda triple: _canonical_key(triple[0]))


def _in_additivity_window(r: float) -> bool:
    """True if r lies in the closed window ADDITIVITY_R +/-
    ADDITIVITY_R_TOL, up to ADDITIVITY_EDGE_SLACK of rounding."""
    return abs(r - ADDITIVITY_R) <= ADDITIVITY_R_TOL * (1.0 + ADDITIVITY_EDGE_SLACK)


def _extra_edge_degenerate(b: Circuit, extra: tuple[int, int]) -> bool:
    """True if an automorphism of B fixes source and sink and swaps the
    endpoints of the extra edge."""
    import networkx as nx

    g = nx.from_numpy_array(np.asarray(b.graph.adjacency))
    matcher = nx.algorithms.isomorphism.GraphMatcher(g, g)
    i, j = extra
    for mapping in matcher.isomorphisms_iter():
        if (mapping[b.source] == b.source and mapping[b.sink] == b.sink
                and mapping[i] == j and mapping[j] == i):
            return True
    return False


def funnel_family():
    """Two-connected triangle-bearing graphs with every (source, sink)
    ordering. Exhaustive up to 7 sites, all the atlas holds; minutes of
    CPU, used by the full calibration search, not by routine tests."""
    import networkx as nx

    for graph in _connected_atlas(3, 7, MAX_EDGES):
        if not _has_triangle(graph) or not nx.is_biconnected(
                nx.from_numpy_array(np.asarray(graph.adjacency))):
            continue
        for s in range(graph.n):
            for k in range(graph.n):
                if s != k:
                    yield Circuit(graph, s, k)


def _has_triangle(graph: Graph) -> bool:
    a = np.asarray(graph.adjacency)
    return bool(np.trace(a @ a @ a) > 0)


def funnel_shortlist() -> list[Circuit]:
    """Curated family for fast demonstrations of the funnel calibration:
    the frozen device, the two nearest runner-ups from the exhaustive
    search, and decoys that exercise the rejection rules (symmetric
    devices whose ratio is pinned at 1, and a triangle-bearing device
    whose ratio dips below 1 and recrosses, failing the single-crossing
    requirement)."""
    runner_up_1 = Circuit(build_graph(7, [(0, 1), (0, 3), (0, 4), (0, 5),
                                          (0, 6), (1, 2), (1, 4), (2, 3),
                                          (2, 4), (3, 4), (3, 6), (4, 5),
                                          (4, 6)]),
                          1, 2, label="runner-up-1")
    runner_up_2 = Circuit(build_graph(7, [(0, 1), (0, 3), (0, 5), (1, 2),
                                          (1, 5), (2, 3), (2, 4), (2, 5),
                                          (3, 4), (3, 5), (3, 6), (4, 5)]),
                          4, 5, label="runner-up-2")
    # kite with pendant leads: rectifies, but recrosses 1 near 0.9
    recrosser = Circuit(build_graph(6, [(0, 1), (0, 2), (1, 2), (1, 3),
                                        (2, 3), (2, 4), (3, 5)]),
                        4, 5, label="kite-lead")
    return [load_builtin("triangle"), runner_up_1, runner_up_2,
            recrosser, make_wire(3), make_pentagon()]
