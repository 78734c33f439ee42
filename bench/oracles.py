"""Reference physics for checking dephnet's outputs, written without
dephnet's generator or solvers.

Model (the reduced form dephnet documents): H is the graph Laplacian,
the source site gains S = 1 per unit time, the sink site decays with
rate g = 2 (coherences with the sink at rate g/2), and every coherence
decays at rate 2*delta:

    drho/dt = -i[H, rho] + S|s><s| - (g/2){|k><k|, rho}
              - 2 delta (rho - diag(rho)).

The current out is g * rho_kk = S = 1, so R = rho_ss - rho_kk.

Each function takes plain arrays (adjacency or Hamiltonian, source,
sink, delta). `self_check` ties them to the closed forms: the two-site
wire has R = delta + 1/2.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

GAIN = 1.0        # S, injected particles per unit time
SINK_RATE = 2.0   # g

#: Paper numbers (criteria 5, 6 and 8 of the acceptance suite).
CROSSING = 0.2259
CROSSING_TOL = 0.005
ADDITIVITY_R = 1.75
ADDITIVITY_TOL = 0.01


def laplacian(adjacency) -> np.ndarray:
    a = np.asarray(adjacency, dtype=float)
    return np.diag(a.sum(axis=1)) - a


def resistance(rho: np.ndarray, source: int, sink: int) -> float:
    return float(rho[source, source].real - rho[sink, sink].real)


def liouvillian(h: np.ndarray, sink: int, delta: float):
    """Sparse complex matrix of the homogeneous part, acting on the
    row-major vector of rho (index i*n + j)."""
    n = h.shape[0]
    hs = scipy.sparse.csr_matrix(np.asarray(h, dtype=complex))
    eye = scipy.sparse.identity(n, dtype=complex, format="csr")
    i, j = np.divmod(np.arange(n * n), n)
    decay = -0.5 * SINK_RATE * ((i == sink).astype(float)
                                + (j == sink).astype(float))
    decay -= 2.0 * delta * (i != j)
    return (-1j * (scipy.sparse.kron(hs, eye) - scipy.sparse.kron(eye, hs.T))
            + scipy.sparse.diags(decay)).tocsc()


def source_term(n: int, source: int) -> np.ndarray:
    c = np.zeros(n * n, dtype=complex)
    c[source * n + source] = GAIN
    return c


def lindblad_ness(h: np.ndarray, source: int, sink: int,
                  delta: float) -> np.ndarray:
    """Steady state by a sparse LU solve of L vec(rho) = -c.

    Unique whenever delta > 0 on a connected graph, and at delta = 0
    when no eigenstate of H avoids the sink (then L is nonsingular).
    """
    n = h.shape[0]
    x = scipy.sparse.linalg.splu(liouvillian(h, sink, delta)).solve(
        -source_term(n, source))
    return x.reshape(n, n)


def ness(adjacency, source: int, sink: int, delta: float) -> np.ndarray:
    return lindblad_ness(laplacian(adjacency), source, sink, delta)


def parallel_reduced_r(m: int) -> float:
    """R of the m-branch parallel device at delta = 0.

    Without dephasing only the symmetric branch mode (1/sqrt(m)) sum |b>
    couples to source and sink; the m - 1 antisymmetric modes stay empty
    from the empty start. The reachable dynamics is a three-site chain
    with hoppings sqrt(m) and on-site energies (m, 2, m), the degrees.
    """
    r = np.sqrt(m)
    h = np.array([[m, -r, 0.0], [-r, 2.0, -r], [0.0, -r, m]])
    return resistance(lindblad_ness(h, 0, 2, 0.0), 0, 2)


def coherent_ness(adjacency, source: int, sink: int) -> np.ndarray | None:
    """Reachable delta = 0 steady state, or None for an insulator.

    With K = H - i(g/2)|k><k| the equation reads K rho - rho K^+ =
    -i S |s><s|. Everything reachable from the source lies in the
    Krylov space V of K from |s>, which K leaves invariant; solve the
    Sylvester equation there. A real eigenvalue of K on V is a
    reachable dark mode: no steady state (returns None).
    """
    h = laplacian(adjacency)
    n = h.shape[0]
    k_op = h.astype(complex)
    k_op[sink, sink] -= 0.5j * SINK_RATE
    basis = [np.eye(n, dtype=complex)[source]]
    while len(basis) < n:
        w = k_op @ basis[-1]
        for _ in range(2):  # full reorthogonalisation, twice
            for v in basis:
                w = w - (v.conj() @ w) * v
        norm = np.linalg.norm(w)
        if norm < 1e-10 * np.linalg.norm(k_op):
            break
        basis.append(w / norm)
    q = np.column_stack(basis)
    kv = q.conj().T @ k_op @ q
    if np.abs(np.linalg.eigvals(kv).imag).min() < 1e-9:
        return None
    qs = q.conj().T[:, source]
    x = scipy.linalg.solve_sylvester(kv, -kv.conj().T,
                                     -1j * GAIN * np.outer(qs, qs.conj()))
    return q @ x @ q.conj().T


def has_dark_state(adjacency, source: int, sink: int,
                   tol: float = 1e-9) -> bool:
    """Insulator test at delta = 0: an eigenvector of H with zero sink
    amplitude and non-zero source amplitude (searched within each
    degenerate eigenspace)."""
    w, u = np.linalg.eigh(laplacian(adjacency))
    start = 0
    while start < len(w):
        stop = start + 1
        while stop < len(w) and w[stop] - w[start] < tol * max(1.0, abs(w[start])):
            stop += 1
        block = u[:, start:stop]
        row = block[sink]
        if np.linalg.norm(row) < tol:
            dark = block
        else:
            # eigenvectors in the block orthogonal to the sink row
            _, _, vt = np.linalg.svd(row[None, :])
            dark = block @ vt[1:].T
        if dark.shape[1] and np.linalg.norm(dark[source]) > tol:
            return True
        start = stop
    return False


def effective_resistance(adjacency, source: int, sink: int) -> float:
    """Graph effective resistance from the Laplacian pseudo-inverse."""
    lp = np.linalg.pinv(laplacian(adjacency))
    e = np.zeros(lp.shape[0])
    e[source], e[sink] = 1.0, -1.0
    return float(e @ lp @ e)


def kirchhoff_excess(r: float, adjacency, source: int, sink: int,
                     delta: float) -> float:
    """R - delta * R_eff; the classical limit puts it in [0, 1] for
    delta >= 1e2 (Plenio & Huelga, NJP 10, 113019, 2008)."""
    return r - delta * effective_resistance(adjacency, source, sink)


def kirchhoff_ok(r: float, adjacency, source: int, sink: int,
                 delta: float) -> bool:
    return 0.0 <= kirchhoff_excess(r, adjacency, source, sink, delta) <= 1.0


def branch_peak(delta: float) -> int:
    """Paper's fitted branch count of maximal conductance."""
    return int(round(2.785 + 1.909 * delta))


def relative_entropy_coherence(rho: np.ndarray) -> float:
    """S(rho || diag rho) = sum(lam ln lam) - sum(d ln d)."""
    def xlnx(v):
        v = v[v > 1e-12]
        return float(np.sum(v * np.log(v)))
    return xlnx(np.linalg.eigvalsh(rho)) - xlnx(np.diag(rho).real)


def trajectory(h: np.ndarray, source: int, sink: int, delta: float,
               times: np.ndarray) -> list[np.ndarray]:
    """Exact reduced-form states from the empty device at uniformly
    spaced `times` (starting at 0), by the matrix exponential of the
    augmented affine system."""
    n = h.shape[0]
    dim = n * n
    aug = np.zeros((dim + 1, dim + 1), dtype=complex)
    aug[:dim, :dim] = liouvillian(h, sink, delta).toarray()
    aug[:dim, dim] = source_term(n, source)
    step = scipy.linalg.expm((times[1] - times[0]) * aug)
    x = np.zeros(dim + 1, dtype=complex)
    x[dim] = 1.0
    states = []
    for _ in times:
        states.append(x[:dim].reshape(n, n).copy())
        x = step @ x
    return states


def path_adjacency(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return a


def self_check(suite) -> list[str]:
    """Problems found when the oracles are held to closed forms; empty
    when they agree. `suite` is a list of (label, adjacency, source,
    sink) for the eight acceptance-suite circuits."""
    problems = []
    wire2 = path_adjacency(2)
    for delta in (0.0, 0.37, 1.0, 20.0, 1e3, 1e4):
        r = resistance(ness(wire2, 0, 1, delta), 0, 1)
        if abs(r - (delta + 0.5)) > 1e-9 * max(1.0, delta):
            problems.append(f"wire2 Lindblad R({delta:g}) = {r!r}, "
                            f"closed form {delta + 0.5}")
        if delta >= 1e2 and not kirchhoff_ok(r, wire2, 0, 1, delta):
            problems.append(f"wire2 Kirchhoff bound fails at {delta:g}")
    rho0 = coherent_ness(wire2, 0, 1)
    if rho0 is None or abs(resistance(rho0, 0, 1) - 0.5) > 1e-12:
        problems.append("wire2 Krylov delta=0 solve misses R = 1/2")
    if abs(parallel_reduced_r(1) - resistance(
            ness(path_adjacency(3), 0, 2, 0.0), 0, 2)) > 1e-12:
        problems.append("parallel reduction at m=1 differs from wire3")
    dark = sorted(label for label, adj, s, k in suite
                  if has_dark_state(adj, s, k))
    if dark != ["funnel-forward", "funnel-reverse", "pentagon"]:
        problems.append(f"dark-state test flags {dark}, expected the "
                        f"pentagon and both funnel directions")
    for label, adj, s, k in suite:
        if (coherent_ness(adj, s, k) is None) != has_dark_state(adj, s, k):
            problems.append(f"{label}: Krylov solve and dark-state test "
                            f"disagree")
    return problems
