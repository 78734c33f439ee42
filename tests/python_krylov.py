"""An independent Krylov rank, for tests: pure Python integers modulo a
prime of the caller's choice (2^61 - 1 by default).

The same answer as steady_state._krylov_rank, (dim K(H, e_k), whether
e_s lies in it), by other code: H is applied from adjacency lists, each
new Krylov vector is reduced against an echelon basis that is not fully
reduced, and no product is bounded, since Python integers do not
overflow. With the default prime it is a second prime beside the
package's 268,435,399; with that prime it checks the package's int64
arithmetic.
"""
import numpy as np

MERSENNE_61 = 2 ** 61 - 1


def python_krylov_rank(c, p: int = MERSENNE_61) -> tuple[int, bool]:
    n, sink = c.graph.n, c.sink
    neighbours = [np.flatnonzero(row).tolist() for row in c.graph.adjacency]
    # (pivot, vector): vector[pivot] = 1 and vector is 0 at every
    # earlier pivot
    basis: list[tuple[int, list[int]]] = []

    def reduce(v: list[int]) -> list[int]:
        for q, b in basis:
            if v[q]:
                x = v[q]
                v = [(vi - x * bi) % p for vi, bi in zip(v, b)]
        return v

    v = [int(i == sink) for i in range(n)]
    while True:
        v = reduce(v)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            break
        inverse = pow(v[pivot], p - 2, p)
        v = [x * inverse % p for x in v]
        basis.append((pivot, v))
        v = [(len(nb) * v[i] - sum(v[j] for j in nb)) % p
             for i, nb in enumerate(neighbours)]
    return len(basis), not any(reduce([int(i == c.source) for i in range(n)]))
