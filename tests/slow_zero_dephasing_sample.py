"""Slow check, outside tier-1 (its file name does not match test_*.py):

    PYTHONPATH=src python -m pytest -q tests/slow_zero_dephasing_sample.py

The delta = 0 verdicts on 24 seeded random connected graphs of 20 to
100 sites, plus wire100, parallel m = 98 and m = 300 (302 sites, each
parallel R(0) against its closed form (m^2 - 3m + 4) / (2m^2)), and
the 300-site insulator K_{10,290}. A float threshold of 1e-9 on
|Im lambda| calls 11 of the random graphs insulating; six of them
conduct through a fed mode damped more weakly than that, and the exact
Krylov rank says `converged`. On all 28 graphs the package's rank
modulo 268,435,399 agrees with the pure-Python one modulo 2^61 - 1
(tests/python_krylov.py), a second, independent prime. Two graphs are
also solved at delta = 1e-13, where the dense path takes about 50 s and
3 GB at 100 sites: the 20-site conductor, and the 70-site insulator,
whose state there carries a certified error of about 1e-6 (about 6 s
and 0.8 GB). The two graphs past 128 sites take about 60 ms per
delta = 0 solve, and the whole file about 9 s on 2 cores.
"""
import numpy as np
import pytest

from dephnet import (CONVERGED, DIVERGED, Circuit, assemble_generator,
                     build_graph, make_parallel_circuit, make_wire, resistance,
                     solve_ness_direct)
from dephnet.steady_state import _krylov_rank
from python_krylov import python_krylov_rank

#: (n, edges) of the six conductors whose fed mode is damped more
#: weakly than 1e-9 |K|, with R(0) from the exact verdict
WEAKLY_DAMPED = {(20, 39): 81836.4, (70, 70): 1365.99, (70, 86): 428.956,
                 (100, 99): 5.09595e7, (100, 100): 260.340,
                 (100, 149): 92669.1}
#: (n, edges) of the five true insulators
INSULATORS = {(20, 19), (20, 20), (40, 42), (40, 49), (70, 72)}
#: delta R of the (70, 72) insulator at delta = 1e-10, R = 1.38889e9
WEAK_INSULATOR_DELTA_R = 0.138889


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


def test_weak_dephasing_of_the_70_site_insulator():
    # at delta = 1e-13 its state is right within its certified error,
    # 10 kappa eps ~ 1e-6, and is judged by that error
    c = next(c for c in _sample()
             if (c.graph.n, len(c.graph.edges)) == (70, 72))
    res = solve_ness_direct(assemble_generator(c, 1e-13))
    assert res.status == CONVERGED
    assert 1e-13 * resistance(res, c) == pytest.approx(
        WEAK_INSULATOR_DELTA_R, rel=1e-3)


def _parallel_r0(m: int) -> float:
    """Exact R(0) of m parallel one-site branches."""
    return (m * m - 3 * m + 4) / (2 * m * m)


#: K_{10,290}, sites 0..9 on one side, source 0 and sink 1: an insulator
#: whose undamped eigenspace has dimension 297
BIPARTITE_300 = Circuit(build_graph(300, [(i, j) for i in range(10)
                                          for j in range(10, 300)]), 0, 1)


@pytest.mark.parametrize("c, r0", [(make_wire(100), None),
                                   (make_parallel_circuit(98), _parallel_r0(98)),
                                   (make_parallel_circuit(300), _parallel_r0(300))],
                         ids=["wire100", "parallel98", "parallel300"])
def test_large_shipped_families_conduct_at_zero_dephasing(c, r0):
    res = solve_ness_direct(assemble_generator(c, 0.0))
    assert res.status == CONVERGED
    r = resistance(res, c)
    assert 0 < r < float("inf")
    if r0 is not None:
        assert r == pytest.approx(r0, rel=1e-12)


@pytest.mark.parametrize("c", [*_sample(), make_wire(100),
                               make_parallel_circuit(98),
                               make_parallel_circuit(300), BIPARTITE_300],
                         ids=lambda c: f"n{c.graph.n}-{len(c.graph.edges)}")
def test_two_primes_agree(c):
    rank = _krylov_rank(c)
    assert python_krylov_rank(c) == rank
    # the verdict is the rank's membership of e_s
    status = solve_ness_direct(assemble_generator(c, 0.0)).status
    assert status == (CONVERGED if rank[1] else DIVERGED)
