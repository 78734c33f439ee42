"""The two paths of solve_ness_direct against references computed here:
a dark-state test and Sylvester solves at delta = 0, the singular values
of the real system and exact rational solves at delta > 0, and the
memory a solve at delta > 0 takes."""
import tracemalloc
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
import scipy.linalg

from dephnet import (CONVERGED, DIVERGED, Circuit, UnphysicalSolutionError,
                     assemble_generator, build_graph, laplacian_hamiltonian,
                     make_parallel_circuit, make_pentagon,
                     make_triangle_funnel, make_wire, resistance,
                     solve_ness_by_evolution, solve_ness_direct)
from dephnet.generator import (GAMMA_BATH, REDUCED, SOURCE_FLUX, Generator,
                               _hermitian_coords, real_linear_system)
from exact_oracle import exact_resistance


def _k_operator(c) -> np.ndarray:
    k = laplacian_hamiltonian(c.graph).astype(complex)
    k[c.sink, c.sink] -= 0.5j * GAMMA_BATH
    return k


def _sylvester_r(k, source: int, sink: int, basis=None) -> float:
    """R of the delta = 0 state from K X - X K^+ = -i S |s><s|, solved
    on the K-invariant subspace spanned by the columns of `basis`."""
    q = np.eye(len(k)) if basis is None else basis
    kq = q.conj().T @ k @ q
    e = q.conj().T[:, source]
    x = scipy.linalg.solve_sylvester(kq, -kq.conj().T,
                                     -1j * SOURCE_FLUX * np.outer(e, e.conj()))
    rho = q @ x @ q.conj().T
    return float((rho[source, source] - rho[sink, sink]).real)


def _dark_subspace(c, tol=1e-9) -> np.ndarray:
    """Orthonormal columns spanning the eigenvectors of H with zero sink
    amplitude, searched within each degenerate eigenspace."""
    w, u = np.linalg.eigh(laplacian_hamiltonian(c.graph))
    blocks, start = [], 0
    while start < len(w):
        stop = start + 1
        while stop < len(w) and w[stop] - w[start] < tol * max(1.0, abs(w[start])):
            stop += 1
        block, row = u[:, start:stop], u[c.sink, start:stop]
        if np.linalg.norm(row) > tol:
            block = block @ scipy.linalg.null_space(row[None, :])
        blocks.append(block)
        start = stop
    return np.hstack(blocks)


def _atlas_circuits(max_n: int):
    for graph in nx.graph_atlas_g():
        n = graph.number_of_nodes()
        if 2 <= n <= max_n and nx.is_connected(graph):
            g = build_graph(n, sorted(graph.edges()))
            for s in range(n):
                for k in range(n):
                    if s != k:
                        yield Circuit(g, s, k)


def test_coherent_verdict_and_resistance_on_the_atlas():
    # every connected graph of at most six sites, every source and sink:
    # an insulator iff a dark state overlaps the source, and otherwise
    # the Sylvester solve on the complement of the dark states
    count = insulators = 0
    for c in _atlas_circuits(6):
        count += 1
        dark = _dark_subspace(c)
        insulating = np.linalg.norm(dark[c.source]) > 1e-9
        res = solve_ness_direct(assemble_generator(c, 0.0))
        assert res.status == (DIVERGED if insulating else CONVERGED), c
        assert res.condition is not None
        if insulating:
            insulators += 1
            continue
        reference = _sylvester_r(_k_operator(c), c.source, c.sink,
                                 scipy.linalg.null_space(dark.T))
        assert resistance(res, c) == pytest.approx(reference, rel=1e-9), c
    assert count == 3866
    assert 0 < insulators < count


@pytest.mark.parametrize("m", range(1, 41))
def test_parallel_branches_match_symmetric_mode_chain(m):
    # only the symmetric branch mode is fed: source - mode - sink with
    # hoppings sqrt(m) and on-site energies m, 2, m
    r = np.sqrt(m)
    chain = np.array([[m, -r, 0.0], [-r, 2.0, -r], [0.0, -r, m]], dtype=complex)
    chain[2, 2] -= 0.5j * GAMMA_BATH
    c = make_parallel_circuit(m)
    res = solve_ness_direct(assemble_generator(c, 0.0))
    assert res.status == CONVERGED
    assert resistance(res, c) == pytest.approx(_sylvester_r(chain, 0, 2), rel=1e-9)


# Atlas circuits on which a nearly undamped mode (R ~ 1e3) cost the SVD
# path its verdict: its minimum-norm state had eigenvalues down to
# -2.2e-7 and was rejected as unphysical.
NEAR_DARK = [
    (7, [(0, 4), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (2, 6), (3, 4),
         (4, 5)], 6, 3),
    (7, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (2, 5),
         (2, 6), (3, 4)], 0, 3),
]


@pytest.mark.parametrize("n, edges, source, sink", NEAR_DARK)
def test_nearly_dark_devices_conduct(n, edges, source, sink):
    c = Circuit(build_graph(n, edges), source, sink)
    res = solve_ness_direct(assemble_generator(c, 0.0))
    assert res.status == CONVERGED
    r = resistance(res, c)
    assert r > 1e3
    assert r == pytest.approx(_sylvester_r(_k_operator(c), source, sink), rel=1e-9)
    # weak dephasing approaches the coherent value
    weak = resistance(solve_ness_direct(assemble_generator(c, 1e-10)), c)
    assert weak == pytest.approx(r, rel=1e-5)


def _svd_keeps_every_singular_value(g) -> bool:
    """A normwise refusal rule: no singular value of a at or below
    s_max N eps."""
    a, _ = real_linear_system(g)
    s = np.linalg.svd(a, compute_uv=False)
    return bool(s[-1] > s[0] * len(s) * np.finfo(float).eps)


CONDITIONING_PROBES = (
    [(make_wire(2), d) for d in (1e5, 1e6, 1e7, 3e7, 1e8)]
    + [(make_wire(6), d) for d in (1e6, 3e6, 1e7)]
    + [(make_parallel_circuit(m), d) for m in range(1, 5) for d in (1e7, 1e8)]
    + [(c, d) for c in (make_pentagon(), make_triangle_funnel("forward"))
       for d in (1e-8, 1e-6, 1e-3, 1.0, 1e2, 1e4)])


@pytest.mark.parametrize("c, delta", CONDITIONING_PROBES,
                         ids=[f"{c.label}@{d:g}" for c, d in CONDITIONING_PROBES])
def test_condition_guard_reproduces_singular_value_rule(c, delta):
    # the guard accepts every probe that this normwise rule accepts, and
    # also the strong-dephasing probes that it refuses, with R exact there
    g = assemble_generator(c, delta)
    res = solve_ness_direct(g)
    assert res.status == CONVERGED
    if not _svd_keeps_every_singular_value(g):
        exact = exact_resistance(c, delta)
        assert abs(Fraction(resistance(res, c)) - exact) <= 1e-13 * exact


def test_condition_reported_by_direct_solver_only():
    # at delta > 0 the componentwise condition number of the state plus
    # its residual in units of eps, computed here from a dense inverse;
    # wire2's state [[1 + delta, -i/2], [i/2, 1/2]] is exact in floating
    # point, so its residual is 0
    for delta in (1.0, 5.0, 1e8):
        g = assemble_generator(make_wire(2), delta)
        res = solve_ness_direct(g)
        a, b = real_linear_system(g)
        y = _hermitian_coords(g.dim)[0](res.rho_ness)
        spread = (np.abs(a) @ np.abs(y) + np.abs(b)
                  + np.abs(a @ y + b) / np.finfo(float).eps)
        kappa = (np.abs(np.linalg.inv(a)) @ spread).max() / np.abs(y).max()
        assert res.condition == pytest.approx(kappa, rel=1e-8)
    g = assemble_generator(make_wire(3), 1.0)
    assert solve_ness_direct(assemble_generator(make_wire(3), 0.0)).condition >= 1
    assert solve_ness_by_evolution(g).condition is None


def test_dephased_solve_keeps_two_system_sized_arrays():
    # tracemalloc traces the arrays numpy allocates (here a and a^-1),
    # but not the work buffers its LAPACK wrappers take with malloc, so
    # this bound counts only the user-side copies
    g = assemble_generator(make_parallel_circuit(18), 1.0)
    size = g.dim ** 2
    assert size == 400
    # warm-up: what only a first call allocates (about 3 kB here) stays
    # out of the measured peak
    solve_ness_direct(g)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = solve_ness_direct(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.status == CONVERGED
    assert peak <= 2.5 * size * size * 8, peak / (size * size * 8)


@pytest.mark.parametrize("hopping, ok", [(0.5, False), (0.51, True)])
def test_exceptional_point_of_k_raises(hopping, ok):
    # K = [[0, t], [t, -i]] is defective at t = 1/2, where its two
    # eigenvectors merge
    c = make_wire(2)
    h = np.array([[0.0, hopping], [hopping, 0.0]], dtype=complex)
    g = Generator(c, 0.0, h, REDUCED)
    if not ok:
        with pytest.raises(UnphysicalSolutionError, match="exceptional point"):
            solve_ness_direct(g)
        return
    k = h.copy()
    k[c.sink, c.sink] -= 0.5j * GAMMA_BATH
    res = solve_ness_direct(g)
    assert res.status == CONVERGED
    assert resistance(res, c) == pytest.approx(_sylvester_r(k, 0, 1), rel=1e-9)


def test_singular_eigenbasis_is_refused_as_exceptional_point(monkeypatch):
    # an eigenvector matrix numpy cannot invert counts as cond = inf, and
    # the conditioning test refuses it with its own message
    def singular(_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(UnphysicalSolutionError,
                       match="condition number inf.*exceptional point"):
        solve_ness_direct(assemble_generator(make_wire(2), 0.0))
