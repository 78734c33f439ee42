import math

import pytest

from dephnet import (CalibrationError, CalibrationTarget, Circuit,
                     additivity_pair_search, build_graph, calibrate_topology,
                     funnel_shortlist, make_pentagon, make_wire,
                     pentagon_family)
from dephnet.calibrate import (_canonical_key, _in_additivity_window,
                               _single_crossing)
from dephnet.experiments import _resistance_at


def test_empty_family_is_error():
    with pytest.raises(CalibrationError, match="empty"):
        calibrate_topology([], [CalibrationTarget(0.0, "resistance", 1.0, 0.1)])


def test_no_targets_is_error():
    with pytest.raises(CalibrationError, match="target"):
        calibrate_topology([make_wire(2)], [])


def test_unknown_observable_is_error():
    with pytest.raises(CalibrationError, match="unknown observable"):
        calibrate_topology([make_wire(2)],
                           [CalibrationTarget(0.0, "charisma", 1.0, 0.1)])


def test_unsolvable_target_is_error():
    # every pentagon sink placement is insulating at delta = 0, so a
    # finite-resistance target there cannot be probed at all
    with pytest.raises(CalibrationError, match="unsolvable"):
        calibrate_topology(pentagon_family(),
                           [CalibrationTarget(0.0, "resistance", 1.75, 0.01)])


def test_conditioning_limit_is_not_insulating():
    # both wires conduct at 1e8; the direct solver only loses its
    # verdict past its conditioning limit, which is no divergence
    assert math.isnan(_resistance_at(make_wire(2), 1e8))
    with pytest.raises(CalibrationError, match="conditioning limit"):
        calibrate_topology([make_wire(2), make_wire(3)],
                           [CalibrationTarget(1e8, "divergence", None, 0.0)])


def test_resistance_target_matches_wire():
    # R(wire2, delta) = (1 + 2 delta)/2 = 1.5 at delta = 1
    matches = calibrate_topology(
        [make_wire(2), make_wire(3)],
        [CalibrationTarget(1.0, "resistance", 1.5, 1e-6)])
    assert matches == [make_wire(2)]


def test_divergence_target_keeps_all_pentagons():
    matches = calibrate_topology(
        pentagon_family() + [make_wire(2)],
        [CalibrationTarget(0.0, "divergence", None, 0.0)])
    assert len(matches) == 4
    assert make_wire(2) not in matches


def test_matches_come_in_canonical_order():
    family = [make_wire(4), make_wire(2), make_wire(3)]
    matches = calibrate_topology(
        family, [CalibrationTarget(0.0, "resistance", 0.0, 10.0)])
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


def test_funnel_shortlist_calibration_selects_frozen_device():
    targets = [
        CalibrationTarget(0.0, "ratio-crossing", 0.2259, 0.005),
        CalibrationTarget(100.0, "ratio-at", 1.0, 0.01),
    ]
    matches = calibrate_topology(funnel_shortlist(), targets)
    labels = {c.label for c in matches}
    assert "triangle" in labels
    # the runner-ups from the exhaustive search match too: the target
    # window is wider than the spacing between candidates, and all
    # matches are reported (the shipped one documents the tie-break)
    assert labels == {"triangle", "runner-up-1", "runner-up-2"}
    # decoys fall to the rejection rules
    assert all(c.label not in ("kite-lead", "wire3", "pentagon")
               for c in matches)


def test_single_crossing_rejects_symmetric_and_recrossing_devices():
    assert _single_crossing(make_wire(3)) is None  # ratio pinned at 1
    shortlist = {c.label: c for c in funnel_shortlist()}
    assert _single_crossing(shortlist["kite-lead"]) is None  # two crossings
    crossing = _single_crossing(shortlist["triangle"])
    assert crossing == pytest.approx(0.22512, abs=5e-4)
