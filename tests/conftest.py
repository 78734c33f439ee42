"""Shared fixtures: the suite circuits exercised by the cross-cutting
invariants (flux balance, method equivalence, ergodicity, physicality).
"""
import numpy as np
import pytest

from dephnet import (Circuit, assemble_generator, build_graph, load_builtin,
                     make_additivity_pair, make_parallel_circuit,
                     make_pentagon, make_triangle_funnel, make_wire,
                     reverse_circuit, solve_ness_by_evolution,
                     solve_ness_direct)

#: The probe dephasing strengths of the suite's cross-checks.
SUITE_DELTAS = (0.0, 0.1, 1.0, 20.0)


def build_suite():
    a, b = make_additivity_pair()
    funnel = make_triangle_funnel("forward")
    return [
        make_wire(2),
        make_wire(3),
        make_parallel_circuit(3),
        a,
        b,
        make_pentagon(),
        funnel,
        reverse_circuit(funnel),
    ]


@pytest.fixture(scope="session")
def suite_circuits():
    return build_suite()


@pytest.fixture(scope="session")
def ness_pairs(suite_circuits):
    """Direct and evolution steady states for every suite circuit at
    every probe dephasing strength (shared by the flux-balance,
    method-equivalence and verdict-trail checks)."""
    table = {}
    for idx, c in enumerate(suite_circuits):
        for delta in SUITE_DELTAS:
            g = assemble_generator(c, delta)
            table[idx, delta] = (solve_ness_direct(g),
                                 solve_ness_by_evolution(g))
    return table


def random_density_matrix(rng: np.random.Generator, n: int,
                          trace: float) -> np.ndarray:
    """Random PSD matrix with the given trace (trace <= n keeps it a
    valid partially filled device state)."""
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = x @ x.conj().T
    return rho * (trace / np.trace(rho).real)


def random_connected_circuit(rng: np.random.Generator,
                             max_n: int = 8) -> Circuit:
    """Random connected circuit on 2..max_n sites: a random spanning
    tree plus each other site pair as an edge with probability 1/3, and
    distinct random source and sink."""
    n = int(rng.integers(2, max_n + 1))
    order = rng.permutation(n)
    edges = {tuple(sorted((int(order[i]), int(order[rng.integers(i)]))))
             for i in range(1, n)}
    edges |= {(i, j) for i in range(n) for j in range(i + 1, n)
              if rng.random() < 1 / 3}
    source, sink = rng.choice(n, size=2, replace=False)
    return Circuit(build_graph(n, sorted(edges)), int(source), int(sink))
