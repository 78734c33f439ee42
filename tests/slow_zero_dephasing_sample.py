"""Slow check, outside tier-1 (its file name does not match test_*.py):

    PYTHONPATH=src python -m pytest -q tests/slow_zero_dephasing_sample.py

The delta = 0 verdicts on 24 seeded random connected graphs of 20 to
100 sites, plus wire100 and parallel m = 98. The float test alone calls
11 of the random graphs insulating; six of them conduct, and the Krylov
rank turns them `converged`. Takes a few seconds: only the 20-site
conductor is also solved at delta = 1e-13, since the dense path at that
delta takes about 50 s and 3 GB at 100 sites.
"""
import numpy as np
import pytest

from dephnet import (CONVERGED, DIVERGED, Circuit, assemble_generator,
                     build_graph, make_parallel_circuit, make_wire, resistance,
                     solve_ness_direct)

#: (n, edges) of the six conductors whose fed mode is damped more
#: weakly than UNDAMPED_TOL, with R(0) from the rank-confirmed solve
WEAKLY_DAMPED = {(20, 39): 81836.4, (70, 70): 1365.99, (70, 86): 428.956,
                 (100, 99): 5.09595e7, (100, 100): 260.340,
                 (100, 149): 92669.1}
#: (n, edges) of the five true insulators
INSULATORS = {(20, 19), (20, 20), (40, 42), (40, 49), (70, 72)}


def _sample():
    rng = np.random.default_rng(5)
    for n in (20, 40, 70, 100):
        for extra in (0, 1, 3, n // 4, n // 2, n):
            edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
            while len(edges) < n - 1 + extra:
                edges.add(tuple(sorted(int(x) for x in rng.choice(n, 2, replace=False))))
            source, sink = (int(x) for x in rng.choice(n, 2, replace=False))
            yield Circuit(build_graph(n, sorted(edges)), source, sink)


def test_zero_dephasing_verdicts_on_the_sample():
    seen = set()
    for c in _sample():
        key = (c.graph.n, len(c.graph.edges))
        res = solve_ness_direct(assemble_generator(c, 0.0))
        if key in INSULATORS:
            assert res.status == DIVERGED, key
            continue
        assert res.status == CONVERGED, key
        if key in WEAKLY_DAMPED:
            seen.add(key)
            r0 = resistance(res, c)
            assert r0 == pytest.approx(WEAKLY_DAMPED[key], rel=1e-5), key
            if c.graph.n == 20:
                r_weak = resistance(
                    solve_ness_direct(assemble_generator(c, 1e-13)), c)
                assert r0 == pytest.approx(r_weak, rel=1.2e-3)
    assert seen == set(WEAKLY_DAMPED)


@pytest.mark.parametrize("c", [make_wire(100), make_parallel_circuit(98)],
                         ids=["wire100", "parallel98"])
def test_large_shipped_families_conduct_at_zero_dephasing(c):
    res = solve_ness_direct(assemble_generator(c, 0.0))
    assert res.status == CONVERGED
    assert 0 < resistance(res, c) < float("inf")
