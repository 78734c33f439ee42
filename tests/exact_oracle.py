"""Exact rational steady states at delta > 0, for tests.

exact_state writes the n^2 real stationarity equations of the reduced
master equation from the adjacency matrix, source and sink alone, with
rho = X + iY (X symmetric, Y antisymmetric, H = D - A real):

    0 = [H, Y] - (g/2){P_k, X} - 2 delta offdiag(X) + S e_s e_s^T
    0 = -[H, X] - (g/2){P_k, Y} - 2 delta Y

with g = 2 and S = 1, and solves them by exact elimination over the
integers, 0.01-0.1 s per point for n <= 8. It shares no code with
real_linear_system or _hermitian_coords, so it checks them too.
"""
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np

from dephnet.generator import GAMMA_BATH, SOURCE_FLUX


def _stationarity_equations(c, delta: float):
    """The equations as rows {unknown: coefficient} and right-hand sides,
    times the denominator q of delta = p/q, so that every number is an
    integer. Unknown k is X_ij for the k-th pair i <= j, then Y_ij for
    the pairs i < j."""
    assert (GAMMA_BATH, SOURCE_FLUX) == (2.0, 1.0)
    n, sink = c.graph.n, c.sink
    adj = [[int(v) for v in row] for row in c.graph.adjacency]
    h = [[sum(adj[i]) if i == j else -adj[i][j] for j in range(n)]
         for i in range(n)]
    p, q = float(delta).as_integer_ratio()
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    strict = [(i, j) for i, j in pairs if i < j]
    x_col = {pair: k for k, pair in enumerate(pairs)}
    y_col = {pair: len(pairs) + k for k, pair in enumerate(strict)}

    def x(l, m):
        return x_col[min(l, m), max(l, m)], 1

    def y(l, m):
        return (y_col[l, m], 1) if l < m else (y_col[m, l], -1)

    def equation(i, j, z, z_diagonal, sign, own):
        # sign * q [H, Z]_ij - q ({P_k, .} + 2 delta offdiag) on `own`
        row = defaultdict(int)
        for l in range(n):
            for a, b, coef in ((l, j, h[i][l]), (i, l, -h[l][j])):
                if coef and (z_diagonal or a != b):
                    col, s = z(a, b)
                    row[col] += sign * s * coef * q
        col, _ = own(i, j)
        row[col] -= q * ((i == sink) + (j == sink)) + (2 * p if i != j else 0)
        return {k: v for k, v in row.items() if v}

    rows = [equation(i, j, y, False, 1, x) for i, j in pairs]
    rows += [equation(i, j, x, True, -1, y) for i, j in strict]
    rhs = [-q if i == j == c.source else 0 for i, j in pairs]
    rhs += [0] * len(strict)
    return rows, rhs, pairs


def _solve_exact(rows, rhs) -> list[Fraction]:
    """Fraction-free sparse Gaussian elimination: at each step the
    sparsest remaining row is the pivot row, and each row it updates is
    divided by the gcd of its entries."""
    size = len(rows)
    rows = [dict(r, **{"rhs": v}) if v else dict(r) for r, v in zip(rows, rhs)]
    holding = defaultdict(set)  # unknown -> rows that hold it
    for r, row in enumerate(rows):
        for col in row:
            holding[col].add(r)
    remaining, order = set(range(size)), []
    while remaining:
        p = min(remaining, key=lambda r: (len(rows[r]), r))
        remaining.discard(p)
        pivot_row = rows[p]
        col = min((k for k in pivot_row if k != "rhs"),
                  key=lambda k: (len(holding[k]), k))
        order.append((p, col))
        for r in holding[col] & remaining:
            row = rows[r]
            g = math.gcd(row[col], pivot_row[col])
            mine, theirs = pivot_row[col] // g, row[col] // g
            new = {k: row.get(k, 0) * mine - pivot_row.get(k, 0) * theirs
                   for k in row.keys() | pivot_row.keys()}
            new = {k: v for k, v in new.items() if v}
            common = math.gcd(*new.values())
            rows[r] = {k: v // common for k, v in new.items()}
            for k in row.keys() - rows[r].keys():
                holding[k].discard(r)
            for k in rows[r].keys() - row.keys():
                holding[k].add(r)
    solution = [Fraction(0)] * size
    for p, col in reversed(order):
        row = rows[p]
        acc = row.get("rhs", 0) - sum(v * solution[k] for k, v in row.items()
                                      if k not in (col, "rhs"))
        solution[col] = Fraction(acc) / row[col]
    return solution


def exact_state(c, delta: float):
    """(X, Y): the real and imaginary parts of the exact steady state at
    the float `delta`, as n x n lists of Fractions."""
    rows, rhs, pairs = _stationarity_equations(c, delta)
    solution = _solve_exact(rows, rhs)
    n = c.graph.n
    x = [[Fraction(0)] * n for _ in range(n)]
    y = [[Fraction(0)] * n for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        x[i][j] = x[j][i] = solution[k]
    for k, (i, j) in enumerate((i, j) for i, j in pairs if i < j):
        y[i][j] = solution[len(pairs) + k]
        y[j][i] = -y[i][j]
    return x, y


def exact_resistance(c, delta: float) -> Fraction:
    x, _ = exact_state(c, delta)
    return x[c.source][c.source] - x[c.sink][c.sink]


def relative_state_error(rho: np.ndarray, exact) -> float:
    """Max-norm error of the real and imaginary parts of rho against the
    exact state, relative to the exact state's max-norm."""
    x, y = exact
    n = len(x)
    error = max(abs(Fraction(float(part[i, j])) - ref[i][j])
                for part, ref in ((rho.real, x), (rho.imag, y))
                for i in range(n) for j in range(n))
    scale = max(abs(ref[i][j]) for ref in (x, y)
                for i in range(n) for j in range(n))
    return float(error / scale)
