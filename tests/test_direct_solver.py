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
                     make_additivity_pair, make_parallel_circuit, make_pentagon,
                     make_triangle_funnel, make_wire, resistance,
                     solve_ness_by_evolution, solve_ness_direct)
from dephnet.generator import (GAMMA_BATH, REDUCED, SOURCE_FLUX, Generator,
                               _hermitian_coords, real_linear_system)
from dephnet import steady_state
from dephnet.steady_state import _dephased_inverse, _krylov_rank
from exact_oracle import exact_resistance
from test_exact_oracle import WEAK_LIMITS


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


def _weak_limit(c) -> float:
    """A = lim delta R as delta -> 0 of an insulator, from the dark block.
    With D the dark states and Sec keeping the blocks between dark states
    of one energy, sigma = D x D^T (x kept to Sec) solves
    2 (sigma - Sec[P_D diag(sigma) P_D]) = Sec[P_D |s><s| P_D], and
    A = <s|sigma|s>. rho ~ sigma / delta, on which the drain does not act
    at this order, as dark states have no sink amplitude."""
    dark = _dark_subspace(c)
    energy = np.diag(dark.T @ laplacian_hamiltonian(c.graph) @ dark)
    sec = np.abs(np.subtract.outer(energy, energy)) < 1e-9
    # one unit matrix x per secular entry, and its image under the map
    basis = np.zeros((sec.sum(),) + sec.shape)
    basis[(np.arange(sec.sum()),) + np.nonzero(sec)] = 1.0
    sigma_diag = np.diagonal(dark @ basis @ dark.T, axis1=1, axis2=2)
    image = 2.0 * (basis - sec * (dark.T @ (sigma_diag[:, :, None] * dark)))
    feed = dark[c.source]
    x = np.zeros(sec.shape)
    x[sec] = np.linalg.solve(image[:, sec].T, np.outer(feed, feed)[sec])
    return float(feed @ x @ feed)


@pytest.mark.parametrize("c, limit", [(c, limit) for c, limit, _ in WEAK_LIMITS],
                         ids=["pentagon", "funnel-forward", "funnel-reverse"])
def test_dark_block_formula_gives_the_pinned_weak_limits(c, limit):
    assert abs(_weak_limit(c) - limit) <= 1e-12


def test_weak_dephasing_limit_of_atlas_insulators():
    # delta R at delta = 1e-8 against the dark-block limit A, on a seeded
    # sample of the insulators of at most six sites (all 2,139 agree to
    # 6.1e-6 relative)
    insulators = [c for c in _atlas_circuits(6)
                  if np.linalg.norm(_dark_subspace(c)[c.source]) > 1e-9]
    assert len(insulators) == 2139
    rng = np.random.default_rng(11)
    for i in rng.choice(len(insulators), 300, replace=False):
        c = insulators[i]
        limit = _weak_limit(c)
        r = resistance(solve_ness_direct(assemble_generator(c, 1e-8)), c)
        assert abs(1e-8 * r - limit) <= 1e-5 * limit, c


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


@pytest.mark.parametrize("c, delta", [
    (make_pentagon(), 1e-200), (make_pentagon(), 1e-300),
    (make_pentagon(), 5e-324), (make_wire(2), 8.9e307)],
    ids=["pentagon@1e-200", "pentagon@1e-300", "pentagon@5e-324",
         "wire2@8.9e307"])
def test_float_range_ends_are_refused_not_warned(c, delta):
    # kappa's matmul (weak end) or the dominance test (strong end)
    # overflows; under the suite's warnings-as-errors a numpy warning
    # would escape instead of the typed refusal
    with pytest.raises(UnphysicalSolutionError, match="no significant digit"):
        solve_ness_direct(assemble_generator(c, delta))


def test_strong_end_of_the_float_range_still_converges():
    res = solve_ness_direct(assemble_generator(make_wire(2), 1e307))
    assert res.status == CONVERGED
    assert resistance(res, make_wire(2)) == 1e307


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
    # tracemalloc traces the arrays numpy allocates (here a and a^-1,
    # and at delta = 20, where every Im-coherence is eliminated, also
    # the 210 x 210 inverse of the Schur complement), but not the work
    # buffers its LAPACK wrappers take with malloc, so this bound counts
    # only the user-side copies
    for delta in (1.0, 20.0):
        g = assemble_generator(make_parallel_circuit(18), delta)
        size = g.dim ** 2
        assert size == 400
        # warm-up: what only a first call allocates (about 3 kB here)
        # stays out of the measured peak
        solve_ness_direct(g)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = solve_ness_direct(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res.status == CONVERGED
        assert peak <= 2.5 * size * size * 8, (delta, peak / (size * size * 8))


def _random_circuit(seed: int, n: int) -> Circuit:
    """A random labelled tree on n sites plus n // 2 extra edges, with a
    random source and sink."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    edges = {tuple(sorted((int(perm[i]), int(perm[rng.integers(i)]))))
             for i in range(1, n)}
    while len(edges) < n - 1 + n // 2:
        edges.add(tuple(sorted(int(v) for v in rng.choice(n, 2, replace=False))))
    source, sink = (int(v) for v in rng.choice(n, 2, replace=False))
    return Circuit(build_graph(n, sorted(edges)), source, sink)


def _inverted_sizes(monkeypatch, g) -> list[int]:
    """Sizes of the matrices that np.linalg.inv inverts in one direct
    solve of g."""
    sizes, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv",
                        lambda x: sizes.append(len(x)) or inv(x))
    solve_ness_direct(g)
    monkeypatch.undo()
    return sizes


@pytest.mark.parametrize("c, delta, size", [
    (make_pentagon(), 0.5, 25),
    # every one of the 10 Im-coherences is dominated: 25 - 10
    (make_pentagon(), 1e3, 15),
    (make_pentagon(), 3.0, 15),
    # 15 of the 28 Im-coherences are dominated, which selects the
    # elimination, and then all 28 go: 64 - 28
    (make_parallel_circuit(6), 3.0, 36),
    # 4 of the 28 leave m = 60, whose inverse would take more memory
    # than the plain inverse: 3 m^2 > 2 N^2
    (make_additivity_pair()[0], 3.0, 64),
], ids=["pentagon@0.5", "pentagon@1e3", "pentagon@3", "parallel6@3",
        "additivity-a@3"])
def test_elimination_takes_the_dominated_columns(monkeypatch, c, delta, size):
    # a Y column is dominated iff |a_jj| >= sum_{i != j} |a_ij|; where
    # enough are, every Y is eliminated, and the Re block that is left is
    # inverted as one matrix
    assert _inverted_sizes(monkeypatch, assemble_generator(c, delta)) == [size]


@pytest.mark.parametrize("c, delta", [
    (make_pentagon(), 1e3),
    (make_parallel_circuit(6), 3.0),
    (_random_circuit(1, 12), 5.0),
], ids=["pentagon@1e3", "parallel6@3", "random12@5"])
def test_assembled_blocks_are_the_inverse(monkeypatch, c, delta):
    # the state and kappa read some blocks only through the refinement
    # and |a^-1|, so each block is checked here against numpy's inverse
    g = assemble_generator(c, delta)
    a, _ = real_linear_system(g)
    reference = np.linalg.inv(a)
    assert _inverted_sizes(monkeypatch, g)[0] < len(a)
    inverse = _dephased_inverse(a, g.dim)
    assert np.abs(inverse - reference).max() <= 1e-13 * np.abs(reference).max()


def _plain_inverse_solve(g):
    """The direct solve at delta > 0 without elimination: rho, residual,
    backward error and condition from np.linalg.inv(a)."""
    a, b = real_linear_system(g)
    inverse = np.linalg.inv(a)
    y = -(inverse @ b)
    y -= inverse @ (a @ y + b)
    defect = np.abs(a @ y + b)
    residual, scale = float(defect.max()), float(np.abs(y).max())
    eta = residual / (float(np.abs(a).sum(axis=1).max()) * scale
                      + float(np.abs(b).max()))
    spread = np.abs(a) @ np.abs(y) + np.abs(b) + defect / np.finfo(float).eps
    cond = float((np.abs(inverse) @ spread).max()) / scale
    return _hermitian_coords(g.dim)[1](y), residual, eta, cond


def _star(n: int, hub_is_source: bool) -> Circuit:
    """n - 1 leaves on hub 0; the hub is the source or the sink, and
    leaf 1 the other end."""
    g = build_graph(n, [(0, leaf) for leaf in range(1, n)])
    return Circuit(g, 0, 1) if hub_is_source else Circuit(g, 1, 0)


def _eliminates_past_undominated_columns(g) -> bool:
    """Whether the rule selects the elimination, 3 m^2 <= 2 N^2 with m
    the coordinates other than dominated Y columns, while some Y column
    is not dominated."""
    a, _ = real_linear_system(g)
    split = g.dim * (g.dim + 1) // 2
    dominated = (2.0 * np.abs(np.diagonal(a)[split:])
                 >= np.abs(a[:, split:]).sum(axis=0))
    m = len(a) - int(np.count_nonzero(dominated))
    return 3 * m * m <= 2 * len(a) ** 2 and not dominated.all()


UNDOMINATED_DEVICES = (
    [_star(n, hub) for n in (7, 11, 21) for hub in (True, False)]
    + [make_parallel_circuit(m) for m in (6, 12, 18)])


@pytest.mark.parametrize(
    "c", UNDOMINATED_DEVICES,
    ids=[c.label or f"star{c.graph.n}-{c.source}-{c.sink}"
         for c in UNDOMINATED_DEVICES])
def test_undominated_columns_eliminate_as_accurately_as_the_plain_inverse(c):
    # a Y column that is not dominated has no bound on the growth of its
    # pivot, so at every grid point where it is eliminated all the same
    # the state is held to the plain inverse's
    points = 0
    for delta in np.geomspace(0.3, 100.0, 25):
        g = assemble_generator(c, float(delta))
        if not _eliminates_past_undominated_columns(g):
            continue
        points += 1
        rho = solve_ness_direct(g).rho_ness
        reference = _plain_inverse_solve(g)[0]
        error = np.abs(rho - reference).max() / np.abs(reference).max()
        assert error <= 1e-13, (delta, error)
    assert points > 0


@pytest.mark.parametrize("c, delta", [
    (make_parallel_circuit(18), 1.0),
    (_random_circuit(1, 24), 0.5),
    (make_pentagon(), 0.5),
], ids=["parallel18@1", "random24@0.5", "pentagon@0.5"])
def test_nothing_eliminated_is_the_plain_inverse_to_the_last_bit(
        monkeypatch, c, delta):
    g = assemble_generator(c, delta)
    assert _inverted_sizes(monkeypatch, g) == [g.dim ** 2]
    res = solve_ness_direct(g)
    rho, residual, eta, cond = _plain_inverse_solve(g)
    assert np.array_equal(res.rho_ness, rho)
    assert (res.residual, res.backward_error, res.condition) == (
        residual, eta, cond)


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


def _fraction_krylov(graph, sink: int) -> tuple[int, list[bool]]:
    """dim K(H, e_k) and, for every site s, whether e_s lies in K(H, e_k),
    by exact rational elimination: K is the row space of the Krylov rows
    e_k, H e_k, ..., H^(n-1) e_k, and e_s lies in it iff every vector of
    the null space of those rows has a zero entry s."""
    n = graph.n
    h = laplacian_hamiltonian(graph).astype(int).tolist()
    rows, v = [], [Fraction(int(i == sink)) for i in range(n)]
    for _ in range(n):
        rows.append(v)
        v = [sum(h[i][j] * v[j] for j in range(n)) for i in range(n)]
    pivots, r = [], 0
    for col in range(n):
        pivot = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    null = []
    for free in (col for col in range(n) if col not in pivots):
        z = [Fraction(0)] * n
        z[free] = Fraction(1)
        for i, col in enumerate(pivots):
            z[col] = -rows[i][free]
        null.append(z)
    return r, [all(z[s] == 0 for z in null) for s in range(n)]


def test_krylov_rank_matches_exact_rational_rank_on_the_atlas():
    # every connected circuit with n <= 6: the modular rank and the
    # membership of e_s equal exact elimination over the rationals
    count = fed = 0
    exact = {}
    for c in _atlas_circuits(6):
        key = (c.graph.edges, c.graph.n, c.sink)
        if key not in exact:
            exact[key] = _fraction_krylov(c.graph, c.sink)
        r, members = exact[key]
        assert _krylov_rank(c) == (r, members[c.source]), c
        count += 1
        fed += members[c.source]
    assert count == 3866 and 0 < fed < count


#: Item 1 of the roadmap: a 20-site conductor whose fed mode is damped
#: more weakly (|Im lambda| ~ 1e-11) than UNDAMPED_TOL.
WEAKLY_DAMPED_20 = (20, [
    (0, 1), (0, 2), (0, 6), (0, 7), (0, 8), (0, 15), (0, 19), (1, 4), (1, 5),
    (1, 6), (2, 3), (2, 10), (2, 13), (3, 6), (3, 7), (3, 9), (3, 12), (3, 16),
    (4, 13), (5, 8), (5, 9), (6, 11), (6, 12), (6, 17), (7, 8), (7, 10),
    (8, 15), (9, 10), (9, 17), (10, 11), (10, 14), (10, 19), (11, 19),
    (13, 14), (13, 15), (14, 17), (14, 18), (16, 19), (17, 18)], 16, 0)


def test_weakly_damped_conductor_converges_at_zero_dephasing():
    n, edges, source, sink = WEAKLY_DAMPED_20
    c = Circuit(build_graph(n, edges), source, sink)
    res = solve_ness_direct(assemble_generator(c, 0.0))
    assert res.status == CONVERGED
    # R(1e-13) = 81,810.8; exact R(2^-40) = 81,604.3
    assert resistance(res, c) == pytest.approx(81836, rel=1e-3)
    assert _krylov_rank(c) == (20, True)


def test_converged_zero_dephasing_solve_never_runs_the_rank(monkeypatch):
    calls = []
    monkeypatch.setattr(steady_state, "_krylov_rank",
                        lambda c: calls.append(c) or _krylov_rank(c))
    for c in (make_parallel_circuit(3), make_wire(4), *make_additivity_pair()):
        assert solve_ness_direct(assemble_generator(c, 0.0)).status == CONVERGED
    assert calls == []
    # an insulator runs it once, and keeps its verdict
    assert solve_ness_direct(assemble_generator(make_pentagon(), 0.0)).status == DIVERGED
    assert len(calls) == 1
