"""The two input rules of `errors` at every site that applies them: a
count is a Python or numpy integer, not a bool, of at least the site's
minimum, and a time or tolerance lies in (0, inf)."""
import math

import numpy as np
import pytest

from dephnet import (CalibrationError, Circuit, Graph, GraphConstructionError,
                     UsageError, additivity_pair_search, assemble_generator,
                     build_graph, empty_state, evolve, find_ratio_crossing,
                     make_parallel_circuit, make_wire, solve_ness_by_evolution,
                     sweep_branch_count)

WIRE2 = make_wire(2)
WIRE2_AT_ONE = assemble_generator(WIRE2, 1.0)
EMPTY = empty_state(WIRE2_AT_ONE)

#: site -> (call with the count, its error, the name it gives, minimum,
#: a valid count)
COUNT_SITES = {
    "build_graph-n": (lambda v: build_graph(v, []),
                      GraphConstructionError, "site count", 1, 1),
    "build_graph-endpoint": (lambda v: build_graph(3, [(0, 1), (1, v)]),
                             GraphConstructionError, "edge endpoint", 0, 2),
    "Graph-n": (lambda v: Graph(v, np.zeros((1, 1))),
                GraphConstructionError, "site count", 1, 1),
    "Circuit-source": (lambda v: Circuit(WIRE2.graph, v, 1),
                       GraphConstructionError, "source", 0, 0),
    "Circuit-sink": (lambda v: Circuit(WIRE2.graph, 0, v),
                     GraphConstructionError, "sink", 0, 1),
    "make_wire": (make_wire, GraphConstructionError, "wire length", 1, 2),
    "make_parallel_circuit-branches": (
        make_parallel_circuit, GraphConstructionError, "branch count", 1, 2),
    "make_parallel_circuit-length": (
        lambda v: make_parallel_circuit(2, branch_length=v),
        GraphConstructionError, "branch length", 1, 2),
    "sweep_branch_count": (lambda v: sweep_branch_count(v, deltas=(1.0,)),
                           UsageError, "m_max of the branch sweep", 2, 2),
    "evolve-samples": (lambda v: evolve(WIRE2_AT_ONE, EMPTY, 1.0, samples=v),
                       UsageError, "samples", 2, 2),
    "additivity_pair_search": (lambda v: additivity_pair_search(max_n=v),
                               CalibrationError,
                               "max_n of the atlas enumeration", 2, 2),
}
#: stands for the site's minimum minus one
BELOW = object()

#: site -> (call with the time or tolerance, the name it gives)
POSITIVE_SITES = {
    "evolve-t_end": (lambda v: evolve(WIRE2_AT_ONE, EMPTY, v), "t_end"),
    "solve_ness_by_evolution-tol": (
        lambda v: solve_ness_by_evolution(WIRE2_AT_ONE, tol=v),
        "stationarity tolerance"),
    "solve_ness_by_evolution-t_max": (
        lambda v: solve_ness_by_evolution(WIRE2_AT_ONE, t_max=v), "t_max"),
    "find_ratio_crossing-tol": (lambda v: find_ratio_crossing(tol=v),
                                "bisection tolerance"),
}


@pytest.mark.parametrize("site", COUNT_SITES)
@pytest.mark.parametrize("value", [True, 2.5, np.float64(3.0), "3", BELOW],
                         ids=["True", "2.5", "float64", "str", "below-minimum"])
def test_count_that_is_not_an_integer_of_the_minimum_is_refused(site, value):
    call, error, name, minimum, _ = COUNT_SITES[site]
    value = minimum - 1 if value is BELOW else value
    with pytest.raises(error) as refused:
        call(value)
    assert str(refused.value) == (
        f"{name} must be an integer of at least {minimum}, got {value!r}")


@pytest.mark.parametrize("site", COUNT_SITES)
def test_numpy_integer_count_is_accepted(site):
    call, _, _, _, valid = COUNT_SITES[site]
    call(np.int64(valid))


@pytest.mark.parametrize("site", POSITIVE_SITES)
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_time_or_tolerance_outside_zero_to_inf_is_refused(site, value):
    call, name = POSITIVE_SITES[site]
    with pytest.raises(UsageError) as refused:
        call(value)
    assert str(refused.value) == (
        f"{name} must be positive and finite, got {value}")


def test_non_integer_endpoint_and_max_n_are_refused_not_truncated():
    # int() reads 2.5 as 2, which would build the wire 0-1-2 and search
    # up to five sites
    with pytest.raises(GraphConstructionError, match="edge endpoint"):
        build_graph(3, [(0, 1), (1, 2.5)])
    with pytest.raises(CalibrationError, match="max_n"):
        additivity_pair_search(max_n=5.5)
