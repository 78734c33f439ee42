"""The direct solver against the exact rational oracle of exact_oracle:
closed forms first, then the error of the state against the solver's
own estimate FORWARD_ERROR_FACTOR kappa eps."""
import re
from fractions import Fraction

import numpy as np
import pytest

from dephnet import (CONVERGED, Circuit, UnphysicalSolutionError,
                     assemble_generator, build_graph, make_additivity_pair,
                     make_parallel_circuit, make_pentagon,
                     make_triangle_funnel, make_wire, resistance,
                     reverse_circuit, solve_ness_direct)
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
    # exactly 0, and there the LU solve's own error exceeds the
    # componentwise condition number alone by up to 10^10
    + [(Circuit(build_graph(5, [(0, 1), (0, 3), (1, 2), (1, 4)]), 3, 0),
        True)])
ORACLE_EXPONENTS = (-15, -12, -9, -6, -3, 0, 2, 4, 6, 8, 10, 12, 14)


@pytest.mark.parametrize(
    "c, dark", ORACLE_CIRCUITS,
    ids=[f"{c.label or 'leaves'}-{c.source}-{c.sink}"
         for c, _ in ORACLE_CIRCUITS])
def test_direct_solver_error_within_its_estimate(c, dark):
    for k in ORACLE_EXPONENTS:
        delta = 10.0 ** k
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
