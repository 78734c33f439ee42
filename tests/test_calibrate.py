import math
from collections import Counter

import networkx as nx
import pytest

from dephnet import (CalibrationError, Circuit, UnphysicalSolutionError,
                     additivity_pair_search, build_graph, calibrate_topology,
                     funnel_family, funnel_shortlist, make_additivity_pair,
                     make_parallel_circuit, make_pentagon, make_wire,
                     pentagon_family)
from dephnet.calibrate import (FUNNEL_CLASSICAL_DELTA, FUNNEL_CLASSICAL_TOL,
                               FUNNEL_CROSSING, FUNNEL_CROSSING_TOL,
                               _canonical_key, _extra_edge_degenerate,
                               _in_additivity_window, _single_crossing,
                               insulating_at_zero, rectifies_as_published)
from dephnet.experiments import _resistance_at, funnel_ratio


def test_empty_family_is_error():
    with pytest.raises(CalibrationError, match="empty"):
        calibrate_topology([], insulating_at_zero)


def test_conditioning_limit_is_not_insulating():
    # both wires conduct at 1e8, and the direct solver says so
    assert _resistance_at(make_wire(2), 1e8) == 1e8 + 0.5
    assert calibrate_topology(
        [make_wire(2), make_wire(3)],
        lambda c: _resistance_at(c, 1e8) == math.inf) == []
    # two parallel branches at 1e-15 are past the solver's error
    # estimate: a refusal is an error, not a divergence verdict
    with pytest.raises(UnphysicalSolutionError, match="significant digit"):
        calibrate_topology([make_wire(2), make_parallel_circuit(2)],
                           lambda c: _resistance_at(c, 1e-15) == math.inf)


def test_resistance_target_matches_wire():
    # R(wire2, delta) = (1 + 2 delta)/2 = 1.5 at delta = 1
    matches = calibrate_topology(
        [make_wire(2), make_wire(3)],
        lambda c: abs(_resistance_at(c, 1.0) - 1.5) <= 1e-6)
    assert matches == [make_wire(2)]


def test_divergence_target_keeps_all_pentagons():
    matches = calibrate_topology(pentagon_family() + [make_wire(2)],
                                 insulating_at_zero)
    assert len(matches) == 4
    assert make_wire(2) not in matches


def test_matches_come_in_canonical_order():
    family = [make_wire(4), make_wire(2), make_wire(3)]
    matches = calibrate_topology(family, lambda c: True)
    keys = [_canonical_key(c) for c in matches]
    assert keys == sorted(keys)
    assert matches[0] == make_wire(2)  # fewest sites first


def test_insulating_device_reports_infinite_resistance():
    assert _resistance_at(make_pentagon(), 0.0) == math.inf
    assert _resistance_at(make_wire(2), 0.0) == pytest.approx(0.5, abs=1e-10)


def test_additivity_search_empty_below_needed_size():
    # the shipped pair needed eight sites; the published-size example
    # family (n <= 6) contains no usable pair, which is the documented
    # deviation
    triples = additivity_pair_search(max_n=5)
    assert [t for t in triples if not t[2]] == []


def test_additivity_search_refuses_fewer_than_two_sites():
    with pytest.raises(CalibrationError, match="max_n of the atlas enumeration "
                       "must be an integer of at least 2, got 1"):
        additivity_pair_search(max_n=1)


@pytest.mark.parametrize("r, inside", [
    (1.75, True), (1.74, True), (1.76, True),
    # the n = 7 pairs on the window's edge, as computed by the eigenbasis
    # path (R_A, R_B) and by the former SVD path (an R_B)
    (1.759999999999972, True), (1.7599999999999705, True),
    (1.7600000000000087, True), (1.7599999999998868, True),
    (1.7600000000000005, True),
    (1.7600001, False), (1.7399999, False),
    (math.inf, False), (math.nan, False),
])
def test_additivity_window_is_closed_up_to_rounding(r, inside):
    assert _in_additivity_window(r) is inside


@pytest.mark.parametrize("source, sink", [(5, 6), (2, 3)])
def test_additivity_edge_pairs_are_in_window(source, sink):
    # n = 7: R_A and R_B are 1.76 at delta = 0, the upper edge of the
    # window, and the computed values fall on either side of it
    edges_a = [(0, 1), (0, 2), (0, 4), (0, 5), (2, 3), (3, 6), (5, 6)]
    a = Circuit(build_graph(7, edges_a), source, sink)
    b = Circuit(build_graph(7, edges_a + [(1, 4)]), source, sink)
    r_a, r_b = _resistance_at(a, 0.0), _resistance_at(b, 0.0)
    assert r_b == pytest.approx(1.76, abs=1e-12)
    assert r_a == pytest.approx(1.76, abs=1e-12)
    assert _in_additivity_window(r_a) and _in_additivity_window(r_b)


def test_shipped_pair_extra_edge_is_not_degenerate():
    a, b = make_additivity_pair()
    assert set(b.graph.edges) - set(a.graph.edges) == {(5, 6)}
    assert _extra_edge_degenerate(b, (5, 6)) is False


def test_funnel_family_is_every_biconnected_triangle_bearing_circuit():
    # the candidates of `calibrate --search funnel --full`: per site
    # count, and every (source, sink) ordering of each graph once
    counts, pairs = Counter(), {}
    for c in funnel_family():
        counts[c.graph.n] += 1
        pairs.setdefault((c.graph.n, c.graph.edges), set()).add(
            (c.source, c.sink))
    assert counts == {3: 6, 4: 24, 5: 160, 6: 1470, 7: 15750}
    assert sum(map(len, pairs.values())) == sum(counts.values())
    for (n, edges), orderings in pairs.items():
        g = nx.Graph(edges)
        assert g.number_of_nodes() == n and nx.is_biconnected(g)
        assert any(nx.triangles(g).values())
        assert len(orderings) == n * (n - 1)


def test_funnel_shortlist_calibration_selects_frozen_device():
    matches = calibrate_topology(funnel_shortlist(), rectifies_as_published)
    labels = {c.label for c in matches}
    assert "triangle" in labels
    # the runner-ups from the exhaustive search match too: the target
    # window is wider than the spacing between candidates, and all
    # matches are reported (the shipped one documents the tie-break)
    assert labels == {"triangle", "runner-up-1", "runner-up-2"}
    # decoys fall to the rejection rules
    assert all(c.label not in ("kite-lead", "wire3", "pentagon")
               for c in matches)
    for c in matches:
        assert abs(_single_crossing(c) - FUNNEL_CROSSING) <= FUNNEL_CROSSING_TOL
        assert (abs(funnel_ratio(FUNNEL_CLASSICAL_DELTA, c) - 1.0)
                <= FUNNEL_CLASSICAL_TOL)


def test_single_crossing_rejects_symmetric_and_recrossing_devices():
    assert _single_crossing(make_wire(3)) is None  # ratio pinned at 1
    shortlist = {c.label: c for c in funnel_shortlist()}
    assert _single_crossing(shortlist["kite-lead"]) is None  # two crossings
    crossing = _single_crossing(shortlist["triangle"])
    assert crossing == pytest.approx(0.22512, abs=5e-4)


def test_single_crossing_solves_each_point_once(monkeypatch):
    # the bisection reads its bracket ends from the probe grid's ratios
    import dephnet.experiments as experiments
    solved = []
    solve = experiments.solve_ness_direct

    def counting_solve(g):
        c = g.circuit
        solved.append((c.graph.edges, c.source, c.sink, float(g.delta)))
        return solve(g)

    monkeypatch.setattr(experiments, "solve_ness_direct", counting_solve)
    triangle = {c.label: c for c in funnel_shortlist()}["triangle"]
    assert _single_crossing(triangle) == pytest.approx(0.22512, abs=5e-4)
    assert len(solved) > 2 * 25
    assert len(solved) == len(set(solved))
