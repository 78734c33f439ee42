"""The direct solver against the exact rational oracle of exact_oracle:
closed forms first, then the error of the state against the solver's
own estimate FORWARD_ERROR_FACTOR kappa eps, and on devices with an
unfed dark mode against rounding."""
import re
from fractions import Fraction

import numpy as np
import pytest

from dephnet import (CONVERGED, Circuit, UnphysicalSolutionError,
                     assemble_generator, build_graph, make_additivity_pair,
                     make_parallel_circuit, make_pentagon,
                     make_triangle_funnel, make_wire, resistance,
                     reverse_circuit, solve_ness_direct)
from dephnet.calibrate import (ADDITIVITY_R, ADDITIVITY_R_TOL,
                               _in_additivity_window)
from dephnet.steady_state import FORWARD_ERROR_FACTOR
from exact_oracle import exact_resistance, exact_state, relative_state_error

EPS = np.finfo(float).eps


@pytest.mark.parametrize("delta", [1e-9, 0.25, 1.0, 3.0, 1e9])
def test_oracle_reproduces_wire_closed_forms(delta):
    d = Fraction(delta)
    assert exact_resistance(make_wire(2), delta) == d + Fraction(1, 2)
    assert exact_resistance(make_wire(3), delta) == (
        (16 * d**4 + 20 * d**3 + 20 * d**2 + 8 * d + 1)
        / (8 * d**3 + 8 * d**2 + 6 * d + 1))


_FUNNEL = make_triangle_funnel("forward")
_PAIR = make_additivity_pair()
#: (circuit, whether an undamped mode that the source does not feed
#: makes the state's error grow like 1/delta at weak dephasing)
ORACLE_CIRCUITS = (
    [(make_wire(2), False), (make_wire(6), False), (make_pentagon(), False),
     (_FUNNEL, False), (reverse_circuit(_FUNNEL), False),
     (_PAIR[0], False), (_PAIR[1], False)]
    + [(make_parallel_circuit(m), m >= 2) for m in (1, 2, 3, 4, 6)]
    # two leaves on one site: the dark mode's block of the state is
    # exactly 0, and there an unrefined LU solve's own error exceeds the
    # componentwise condition number alone by up to 10^10
    + [(Circuit(build_graph(5, [(0, 1), (0, 3), (1, 2), (1, 4)]), 3, 0),
        True)])
ORACLE_EXPONENTS = (-15, -12, -9, -6, -3, 0, 2, 4, 6, 8, 10, 12, 14, 16)
#: at delta = 3 the direct solver eliminates every Im-coherence
#: coordinate before its inverse on seven of these circuits, where every
#: such column is dominated on five of them but not on parallel m = 6
#: and the two-leaf graph, and none on the other six
ORACLE_DELTAS = [10.0 ** k for k in ORACLE_EXPONENTS] + [3.0]


@pytest.mark.parametrize(
    "c, dark", ORACLE_CIRCUITS,
    ids=[f"{c.label or 'leaves'}-{c.source}-{c.sink}"
         for c, _ in ORACLE_CIRCUITS])
def test_direct_solver_error_within_its_estimate(c, dark):
    for delta in ORACLE_DELTAS:
        exact = exact_state(c, delta)
        try:
            res = solve_ness_direct(assemble_generator(c, delta))
        except UnphysicalSolutionError as exc:
            # a refusal: the estimate left no significant digit
            kappa = float(re.search(r"kappa = (\S+)", str(exc)).group(1))
            assert FORWARD_ERROR_FACTOR * kappa * EPS >= 1, (delta, exc)
            assert dark and delta < 1e-12, delta
            continue
        assert res.status == CONVERGED
        error = relative_state_error(res.rho_ness, exact)
        assert error <= FORWARD_ERROR_FACTOR * res.condition * EPS, (
            delta, error, res.condition)
        if not dark or delta >= 1e8:
            r_exact = exact[0][c.source][c.source] - exact[0][c.sink][c.sink]
            r = resistance(res, c)
            assert abs(Fraction(r) - r_exact) <= 1e-13 * abs(r_exact), (
                delta, r, float(r_exact))


_LEAVES = ORACLE_CIRCUITS[-1][0]
DARK_BLOCK_POINTS = (
    [(_LEAVES, delta, 1e-14) for delta in (1e-15, 1e-14, 1e-13)]
    + [(make_parallel_circuit(3), delta, 1e-12)
       for delta in (1e-14, 1e-13, 1e-12)])


@pytest.mark.parametrize(
    "c, delta, tol", DARK_BLOCK_POINTS,
    ids=[f"{c.label or 'leaves'}@{delta:g}" for c, delta, _ in DARK_BLOCK_POINTS])
def test_refinement_clears_the_unfed_dark_block(c, delta, tol):
    # at weak dephasing an unrefined LU state carries a relative error
    # of up to 8e-3 here, in the block of a dark mode the source does
    # not feed (the two-leaf graph at 1e-15; 4e-3 on parallel m = 3 at
    # 1e-14); one refinement step with a^-1 removes nearly all of it
    res = solve_ness_direct(assemble_generator(c, delta))
    assert res.status == CONVERGED
    error = relative_state_error(res.rho_ness, exact_state(c, delta))
    assert error <= tol, error


def test_elimination_past_undominated_columns_keeps_resistance_exact():
    # at delta = 3 these two devices, whose R the grid above leaves
    # unchecked below 1e8, are the ones on which the direct solver
    # eliminates Im-coherences whose columns are not dominated
    for c in (make_parallel_circuit(6), _LEAVES):
        r_exact = exact_resistance(c, 3.0)
        r = resistance(solve_ness_direct(assemble_generator(c, 3.0)), c)
        assert abs(Fraction(r) - r_exact) <= 1e-13 * r_exact, (c.label, r)


#: The n = 7 pair with R_A = R_B = 1.76 at delta = 0, the closed edge of
#: the additivity window: A, and B = A + the edge 1-4
_EDGE_A = [(0, 1), (0, 2), (0, 4), (0, 5), (2, 3), (3, 6), (5, 6)]
_EDGE_B = _EDGE_A + [(1, 4)]


@pytest.mark.parametrize("source, sink", [(5, 6), (2, 3)],
                         ids=["5-6", "2-3"])
def test_additivity_edge_pairs_sit_exactly_on_the_window_edge(source, sink):
    # the exact system is singular at delta = 0, so R(0) is the limit of
    # R(delta), which is linear in delta near 0 (R - 44/25 is about
    # -70.5 delta); 44/25 = 1.75 + 0.01 is the window's closed edge, and
    # ADDITIVITY_EDGE_SLACK must cover the solver's rounding there
    edge = Fraction(str(ADDITIVITY_R)) + Fraction(str(ADDITIVITY_R_TOL))
    assert edge == Fraction(44, 25)
    for edges in (_EDGE_A, _EDGE_B):
        c = Circuit(build_graph(7, edges), source, sink)
        for delta in (2.0 ** -40, 2.0 ** -50):
            r = exact_resistance(c, delta)
            assert abs(r - edge) <= 100 * Fraction(delta), (delta, float(r))
        r = resistance(solve_ness_direct(assemble_generator(c, 0.0)), c)
        assert _in_additivity_window(r), r


#: the weak-dephasing limits lim delta R as delta -> 0, with a bound C on
#: the slope (delta R - limit) / delta read off the exact values at
#: WEAK_DELTA: pentagon 0.815 (near 22/27), funnel forward 1.52 and
#: reverse 5.19
WEAK_DELTA = 2.0 ** -23
WEAK_LIMITS = [(make_pentagon(), Fraction(5, 36), 1),
               (_FUNNEL, Fraction(1, 2), 2),
               (reverse_circuit(_FUNNEL), Fraction(1, 4), 6)]


@pytest.mark.parametrize("c, limit, slope", WEAK_LIMITS,
                         ids=["pentagon", "funnel-forward", "funnel-reverse"])
def test_weak_dephasing_limit_of_delta_r(c, limit, slope):
    delta = Fraction(WEAK_DELTA)
    exact = exact_resistance(c, WEAK_DELTA)
    assert 0 < (delta * exact - limit) / delta <= slope
    res = solve_ness_direct(assemble_generator(c, WEAK_DELTA))
    assert abs(Fraction(resistance(res, c)) - exact) <= 1e-12 * exact


def test_funnel_ratio_tends_to_two_at_weak_dephasing():
    # measured 35.45 delta from 2
    ratio = (exact_resistance(_FUNNEL, WEAK_DELTA)
             / exact_resistance(reverse_circuit(_FUNNEL), WEAK_DELTA))
    assert abs(ratio - 2) <= 40 * Fraction(WEAK_DELTA)
